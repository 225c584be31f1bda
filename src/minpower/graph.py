"""Core graph vocabulary: instances, spanning trees, arc sets, power assignments.

An instance is a connected undirected graph with symmetric nonnegative edge
costs.  Directed solutions are arc sets over the same vertex pairs; the power
of a vertex is the largest cost among its outgoing arcs, and the power of an
arc set is the sum of vertex powers.  A power assignment conversely induces
the arc set of all edges the tail's power can afford.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from math import isfinite
from typing import Iterable

Arc = tuple[int, int]


class InstanceError(ValueError):
    """Malformed, duplicated, or disconnected instance data."""


@dataclass(frozen=True)
class Instance:
    """Undirected graph with vertices 0..n-1 and one stored cost per edge.

    Edges are normalized to (u, v, cost) with u < v; both orientations of an
    edge share the cost.  Use :meth:`from_edges` to validate raw input; the
    plain constructor trusts its arguments, and the generators, which call it
    directly, keep u < v too: minimum_spanning_tree's tie order relies on it.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]]) -> "Instance":
        """Validate, normalize, and build a connected instance.

        Raises InstanceError on self-loops, out-of-range ids, duplicate pairs,
        negative or non-finite costs, disconnected graphs, and costs whose
        2 * sum over v of v's largest incident cost, which bounds every total
        the package forms, overflows.  Each edge is checked as it is drawn from
        the iterable, so a lazy caller such as read_instance can attribute an
        edge error to the edge it just yielded.
        """
        if n < 1:
            raise InstanceError(f"vertex count must be positive, got {n}")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int, float]] = []
        for u, v, c in edges:
            if u == v:
                raise InstanceError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(f"edge {u}-{v} outside vertex range 0..{n - 1}")
            c = float(c)
            if not isfinite(c) or c < 0.0:
                raise InstanceError(f"bad cost {c!r} on edge {u}-{v}")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                raise InstanceError(f"duplicate edge {a}-{b}")
            seen.add((a, b))
            norm.append((a, b, c))
        inst = cls(n, tuple(norm))
        if not inst.is_connected():
            raise InstanceError("instance not connected")
        return check_total_power(inst)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple[tuple[tuple[float, int], ...], ...]:
        """adj[u]: incident (cost, neighbor) pairs, sorted by (cost, neighbor)."""
        lists: list[list[tuple[float, int]]] = [[] for _ in range(self.n)]
        for u, v, c in self.edges:
            lists[u].append((c, v))
            lists[v].append((c, u))
        return tuple(tuple(sorted(l)) for l in lists)

    @cached_property
    def _cost_by_pair(self) -> dict[tuple[int, int], float]:
        return {(u, v): c for u, v, c in self.edges}

    def cost(self, u: int, v: int) -> float:
        """Cost of the undirected edge {u, v}; raises InstanceError if absent."""
        key = (u, v) if u < v else (v, u)
        try:
            return self._cost_by_pair[key]
        except KeyError:
            raise InstanceError(f"no edge {u}-{v} in instance") from None

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        seen = bytearray(self.n)
        seen[0] = 1
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for _, v in self.adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    queue.append(v)
        return count == self.n


def check_total_power(inst: Instance) -> Instance:
    """inst, once 2 * sum over v of v's largest incident cost, which bounds
    every total the package forms, is known to be finite; raises InstanceError
    if it overflows."""
    if not isfinite(2.0 * sum(incident[-1][0] for incident in inst.adj if incident)):
        raise InstanceError("costs too large: the total power overflows")
    return inst


@dataclass(frozen=True)
class Tree:
    """Spanning tree of an instance.

    Edge indices refer to positions in :attr:`edges` and are the keys every
    coverage structure uses.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    @cached_property
    def total_cost(self) -> float:
        return float(sum(c for _, _, c in self.edges))


@dataclass(frozen=True)
class PowerAssignment:
    """Per-vertex transmit power; vertex v gets levels[v] >= 0."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        # a NaN or inf level would act as unlimited range in induced_arcs
        for v, level in enumerate(self.levels):
            if not isfinite(level) or level < 0.0:
                raise ValueError(f"bad power {level!r} for vertex {v}")

    @property
    def total(self) -> float:
        return float(sum(self.levels))

    def __getitem__(self, v: int) -> float:
        return self.levels[v]

    def __len__(self) -> int:
        return len(self.levels)


def minimum_spanning_tree(inst: Instance) -> Tree:
    """Minimum spanning tree, ties broken by (cost, min endpoint, max endpoint).

    Lazy Prim from vertex 0 over the cost-sorted adjacency.  Each tree vertex
    u keeps a position in adj[u] and one heap entry: the first neighbour there
    not yet in the tree.  An entry whose neighbour has joined since is stale;
    popping it moves u's position on and pushes u's next entry.

    For a fixed u, the (cost, neighbour) order of adj[u] is the (cost, min,
    max) order of u's edges.  That order is strict and total, so the minimum
    spanning tree is unique, and Prim picks exactly the edges Kruskal picks
    scanning all edges in that order.  They are returned as (u, v, cost) with
    u < v, sorted in that order: the tuple Kruskal builds, with the same cost
    objects, on every platform.  Raises InstanceError if inst is not connected.
    """
    n = inst.n
    adj = inst.adj
    in_tree = bytearray(n)
    position = [0] * n  # position[u]: first entry of adj[u] not yet passed
    heap: list[tuple[float, int, int, int]] = []  # (cost, min, max, tree vertex)

    def push(u: int) -> None:
        incident = adj[u]
        i = position[u]
        while i < len(incident) and in_tree[incident[i][1]]:
            i += 1
        position[u] = i
        if i < len(incident):
            c, v = incident[i]
            heappush(heap, (c, u, v, u) if u < v else (c, v, u, u))

    picked: list[tuple[float, int, int]] = []
    in_tree[0] = 1
    push(0)
    while heap:
        c, a, b, u = heappop(heap)
        v = a if b == u else b
        if not in_tree[v]:
            in_tree[v] = 1
            picked.append((c, a, b))
            if len(picked) == n - 1:
                break
            push(v)
        push(u)
    if len(picked) != n - 1:
        raise InstanceError("instance not connected")
    picked.sort()
    return Tree(n, tuple((a, b, c) for c, a, b in picked))


def bidirect(tree: Tree) -> set[Arc]:
    """Both orientations of every tree edge: 2(n-1) arcs."""
    arcs: set[Arc] = set()
    for u, v, _ in tree.edges:
        arcs.add((u, v))
        arcs.add((v, u))
    return arcs


def is_strongly_connected(inst: Instance, arcs: Iterable[Arc]) -> bool:
    """True iff every ordered vertex pair is joined by a directed path in arcs."""
    n = inst.n
    fwd: list[list[int]] = [[] for _ in range(n)]
    rev: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc {u}->{v} outside vertex range")
        fwd[u].append(v)
        rev[v].append(u)

    def full_reach(adj: list[list[int]]) -> bool:
        seen = bytearray(n)
        seen[0] = 1
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        return count == n

    return full_reach(fwd) and full_reach(rev)


def power_of(inst: Instance, arcs: Iterable[Arc]) -> PowerAssignment:
    """Per-vertex max outgoing arc cost; 0 for vertices with no outgoing arc."""
    p = [0.0] * inst.n
    for u, v in arcs:
        c = inst.cost(u, v)
        if c > p[u]:
            p[u] = c
    return PowerAssignment(tuple(p))


def induced_arcs(inst: Instance, assignment: PowerAssignment) -> set[Arc]:
    """All arcs u->v with p(u) >= cost(u, v).

    Superset of any arc set the assignment was derived from, since power_of
    takes per-vertex maxima.
    """
    arcs: set[Arc] = set()
    for u in range(inst.n):
        pu = assignment[u]
        for c, v in inst.adj[u]:
            if c > pu:
                break  # adjacency is cost-sorted
            arcs.add((u, v))
    return arcs
