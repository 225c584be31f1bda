"""Directed stars and the tree-edge coverage objective the greedy maximizes.

A star S(u, r) is the height-1 directed tree at center u containing all arcs
u->v with cost(u, v) <= r, so r is also the star's power.  A star covers the
tree edges that lie on tree paths between its vertices; the coverage value of
a star collection is the total cost of tree edges covered so far.  Coverage is
monotone and submodular, which is what makes the greedy ratio analysis work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from minpower.graph import Arc, Instance, Tree, bidirect


@dataclass(frozen=True)
class Star:
    """Directed star with a canonical radius (an incident cost of the center)."""

    center: int
    radius: float
    leaves: frozenset[int]

    @property
    def power(self) -> float:
        return self.radius

    def arcs(self) -> set[Arc]:
        return {(self.center, v) for v in self.leaves}


def enumerate_stars(inst: Instance) -> list[Star]:
    """All canonical stars: one per vertex per distinct incident cost.

    Radii beyond a center's incident costs add no leaves there, so this list
    (at most 2m entries) is exhaustive for any argmax over stars.  Ordered by
    (center, radius) ascending.
    """
    stars: list[Star] = []
    for u in range(inst.n):
        leaves: list[int] = []
        prev: float | None = None
        for c, v, _ in inst.adj[u]:
            if prev is not None and c != prev:
                stars.append(Star(u, prev, frozenset(leaves)))
            leaves.append(v)
            prev = c
        if prev is not None:
            stars.append(Star(u, prev, frozenset(leaves)))
    return stars


def _cover_walk(tree: Tree, star: Star) -> list[tuple[int, Arc]]:
    """Tree edges covered by star, as (edge_index, arc oriented away from center).

    Roots the tree at the center, then climbs from each leaf toward the center,
    stopping at previously visited vertices; every covered edge is reported
    exactly once.
    """
    if not star.leaves:
        return []
    center = star.center
    parent, parent_edge = tree.rooted_parents(center)
    visited = bytearray(tree.n)
    visited[center] = 1
    out: list[tuple[int, Arc]] = []
    for v in sorted(star.leaves):
        x = v
        while not visited[x]:
            visited[x] = 1
            out.append((parent_edge[x], (parent[x], x)))
            x = parent[x]
    return out


def covered_edges(tree: Tree, star: Star) -> set[int]:
    """Q(u, r): tree edge indices on paths from the center to each leaf.

    Equals the set of edges on paths between any two star vertices, because a
    path between two leaves is contained in the union of their center paths.
    """
    return {idx for idx, _ in _cover_walk(tree, star)}


def directed_cover(tree: Tree, star: Star) -> set[Arc]:
    """Directed version of the cover: arcs along center-to-leaf tree paths.

    Its undirected projection is exactly covered_edges; each covered edge
    appears in the single orientation pointing away from the center.
    """
    return {arc for _, arc in _cover_walk(tree, star)}


class CoverState:
    """Mutable bookkeeping for a star collection covering tree edges.

    Tracks the chosen stars, the covered tree-edge set and its cost, the
    surviving arcs of the bidirected tree, and the greedy's per-center upper
    bounds with its count of center scans.  An edge is covered exactly when one
    of its two antiparallel arcs has been removed; the other arc never leaves.
    """

    def __init__(self, inst: Instance, tree: Tree):
        self.inst = inst
        self.tree = tree
        self.chosen: list[Star] = []
        self.covered: set[int] = set()
        self.covered_cost = 0.0
        self.arcs_left: set[Arc] = bidirect(tree)
        # contraction of covered edges: component label per vertex
        self._label = list(range(inst.n))
        self._members: dict[int, list[int]] = {v: [v] for v in range(inst.n)}
        # lazy greedy: heap of stale best-star keys (-ratio, -gain, center,
        # radius, stamp), stamped with len(chosen) when scanned; every center
        # starts with a never-scanned sentinel that sorts above any real key
        self.bounds: list[tuple[float, float, int, float, int]] = [
            (-math.inf, -math.inf, u, 0.0, -1) for u in range(inst.n)
        ]
        self.center_scans = 0

    @property
    def all_covered(self) -> bool:
        return len(self.covered) == len(self.tree.edges)

    def component(self, v: int) -> int:
        return self._label[v]

    def component_count(self) -> int:
        return len(self._members)

    def _merge(self, a: int, b: int) -> None:
        la, lb = self._label[a], self._label[b]
        if la == lb:
            raise RuntimeError(f"covering an edge inside component {la}; state is corrupt")
        if len(self._members[la]) < len(self._members[lb]):
            la, lb = lb, la
        for v in self._members[lb]:
            self._label[v] = la
        self._members[la].extend(self._members[lb])
        del self._members[lb]


def marginal_gain(state: CoverState, star: Star) -> tuple[float, set[Arc]]:
    """Coverage gained by adding star, plus the arcs to drop from the tree.

    Returns (gain, new_arcs): gain is the total cost of tree edges the star
    newly covers, new_arcs the corresponding arcs of the directed cover whose
    undirected edge was still uncovered.  gain is 0 iff new_arcs is empty.
    """
    tree = state.tree
    gain = 0.0
    new_arcs: set[Arc] = set()
    for idx, arc in _cover_walk(tree, star):
        if idx not in state.covered:
            gain += tree.edges[idx][2]
            new_arcs.add(arc)
    return gain, new_arcs


def apply_star(state: CoverState, star: Star, new_arcs: set[Arc]) -> None:
    """Commit a star: remove its new arcs, mark their edges covered.

    new_arcs must be the marginal_gain output against this exact state; a
    stale arc (already removed, or over a covered edge) signals a caller bug
    and raises RuntimeError.
    """
    tree = state.tree
    for u, v in new_arcs:
        key = (u, v) if u < v else (v, u)
        idx = tree.edge_index.get(key)
        if idx is None:
            raise RuntimeError(f"arc {u}->{v} is not a tree arc")
        if idx in state.covered:
            raise RuntimeError(f"stale arc {u}->{v}: edge already covered")
        if (u, v) not in state.arcs_left:
            raise RuntimeError(f"stale arc {u}->{v}: not in surviving arc set")
        state.arcs_left.remove((u, v))
        state.covered.add(idx)
        state.covered_cost += tree.edges[idx][2]
        state._merge(u, v)
    state.chosen.append(star)
