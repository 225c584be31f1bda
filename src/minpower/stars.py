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
from itertools import groupby
from operator import itemgetter

from minpower.graph import Arc, Instance, Tree


@dataclass(frozen=True)
class Star:
    """Directed star with a canonical radius (an incident cost of the center)."""

    center: int
    radius: float
    leaves: frozenset[int]

    def arcs(self) -> set[Arc]:
        return {(self.center, v) for v in self.leaves}


def star_at(inst: Instance, center: int, radius: float) -> Star:
    """S(center, radius): every neighbour of center within cost radius."""
    leaves = []
    for c, v in inst.adj[center]:
        if c > radius:
            break  # adjacency is cost-sorted
        leaves.append(v)
    return Star(center, radius, frozenset(leaves))


def enumerate_stars(inst: Instance) -> list[Star]:
    """All canonical stars: one per vertex per distinct incident cost.

    Radii beyond a center's incident costs add no leaves there, so this list
    (at most 2m entries) is exhaustive for any argmax over stars.  Ordered by
    (center, radius) ascending.  Each star's leaves are a prefix of the
    center's cost-sorted adjacency, so one walk over it yields them all: a
    star per run of equal costs, ending with that run.
    """
    stars = []
    for u, incident in enumerate(inst.adj):
        leaves: list[int] = []
        for radius, run in groupby(incident, key=itemgetter(0)):
            leaves.extend(v for _, v in run)
            stars.append(Star(u, radius, frozenset(leaves)))
    return stars


class CoverState:
    """Mutable bookkeeping for a star collection covering tree edges.

    Covered tree edges are contracted: label[v] names the component of vertex
    v, and because a tree has no cycles, a tree edge is covered exactly when
    its endpoints share a label.  The components and the uncovered edges form
    the quotient tree, whose parent links links() reads off the spanning tree
    rooted once at vertex 0.  Covering an edge removes the one arc of the
    bidirected tree that points away from the covering star's center; the
    state records that arc's tail per covered edge, and the antiparallel arc
    survives for good.  Also tracks the chosen stars, the covered cost, and
    the greedy's per-center upper bounds with its count of center scans.
    """

    def __init__(self, inst: Instance, tree: Tree):
        self.inst = inst
        self.tree = tree
        self.chosen: list[Star] = []
        self.covered_cost = 0.0
        self.label = list(range(inst.n))
        self._members: dict[int, list[int]] = {v: [v] for v in range(inst.n)}
        self._removed_tail: dict[int, int] = {}  # covered edge index -> tail
        # lazy greedy: heap of stale best-star keys (-ratio, -gain, center,
        # radius, stamp), stamped with len(chosen) when scanned; every center
        # starts with a never-scanned sentinel that sorts above any real key
        self.bounds: list[tuple[float, float, int, float, int]] = [
            (-math.inf, -math.inf, u, 0.0, -1) for u in range(inst.n)
        ]
        self.center_scans = 0
        # the tree rooted at vertex 0: (v, parent, cost, tree-edge index) for
        # every other vertex, in breadth-first order
        nbrs: list[list[tuple[int, float, int]]] = [[] for _ in range(inst.n)]
        for idx, (u, v, c) in enumerate(tree.edges):
            nbrs[u].append((v, c, idx))
            nbrs[v].append((u, c, idx))
        rooted = [(0, -1, 0.0, -1)]
        for v, p, _, _ in rooted:  # the list grows while it is walked
            rooted.extend((w, v, c, idx) for w, c, idx in nbrs[v] if w != p)
        self._rooted = rooted[1:]
        # set by links(), reset by _merge
        self._links: dict[int, tuple[int, float, int]] | None = None

    @property
    def all_covered(self) -> bool:
        return len(self._members) == 1

    def component_count(self) -> int:
        return len(self._members)

    def residual_arcs(self) -> set[Arc]:
        """Surviving arcs of the bidirected tree.

        Both arcs of an uncovered edge; of a covered edge, the arc into the
        tail of the removed one.
        """
        arcs: set[Arc] = set()
        for idx, (u, v, _) in enumerate(self.tree.edges):
            tail = self._removed_tail.get(idx)
            if tail != u:
                arcs.add((u, v))
            if tail != v:
                arcs.add((v, u))
        return arcs

    def links(self) -> dict[int, tuple[int, float, int]]:
        """Parent links of the quotient tree rooted at component label[0].

        Maps every other component label to (parent label, cost, tree-edge
        index) of the uncovered edge leading toward label[0].  A component is a
        subtree of the tree rooted at vertex 0, so that edge is the one above
        its vertex nearest 0; the edges above its other vertices are covered.
        Built once per labelling and shared by every caller until the next
        merge, so callers must not mutate it.
        """
        if self._links is None:
            label = self.label
            self._links = {
                label[v]: (label[p], c, idx)
                for v, p, c, idx in self._rooted
                if label[v] != label[p]
            }
        return self._links

    def _merge(self, a: int, b: int) -> None:
        la, lb = self.label[a], self.label[b]
        if len(self._members[la]) < len(self._members[lb]):
            la, lb = lb, la
        for v in self._members[lb]:
            self.label[v] = la
        self._members[la].extend(self._members[lb])
        del self._members[lb]
        self._links = None


def root_path(
    x: int, links: dict[int, tuple[int, float, int]]
) -> tuple[dict[int, int], list[tuple[int, float, int]]]:
    """Component x's path up the parent links to their root.

    Returns (stop, path): stop maps each component on the path to its
    position, x at 0, and path[i] is the link from position i up to i + 1.
    A walk toward x marks the components it reaches off the path with stop -1
    and reaches path positions 0..top, top the highest it has entered.
    """
    stop = {x: 0}
    path: list[tuple[int, float, int]] = []
    while x in links:
        path.append(links[x])
        x = links[x][0]
        stop[x] = len(path)
    return stop, path


def marginal_gain(state: CoverState, star: Star) -> tuple[float, list[tuple[int, Arc]]]:
    """Coverage gained by adding star, plus the arcs to drop from the tree.

    The star covers the tree edges on paths from its center to its leaves; the
    uncovered ones are the quotient tree's edges on paths between their
    components.  Each leaf's component, in sorted vertex order, climbs the
    links toward label[0] until it meets a reached component or the root path
    of the center's component; from path position i it walks that path down to
    the highest position reached so far.  So each such edge is met once, in the
    order of a climb toward the center's component in the quotient rooted
    there.  Returns (gain, new_arcs): gain is the total cost of those edges,
    new_arcs those edges as (edge index, arc from the endpoint nearer the
    center to the other) in the order met.  new_arcs is empty iff the star
    covers nothing new, and then gain is 0.
    """
    if not star.leaves:
        return 0.0, []
    label = state.label
    edges = state.tree.edges
    links = state.links()
    stop, path = root_path(label[star.center], links)
    top = 0
    gain = 0.0
    new_arcs: list[tuple[int, Arc]] = []
    for v in sorted(star.leaves):
        x = label[v]
        i = stop.get(x)
        while i is None:
            stop[x] = -1
            x, c, idx = links[x]
            a, b, _ = edges[idx]
            gain += c
            new_arcs.append((idx, (a, b) if label[a] == x else (b, a)))
            i = stop.get(x)
        if i > top:
            for y, c, idx in reversed(path[top:i]):
                a, b, _ = edges[idx]
                gain += c
                new_arcs.append((idx, (b, a) if label[a] == y else (a, b)))
            top = i
    return gain, new_arcs


def apply_star(state: CoverState, star: Star, new_arcs: list[tuple[int, Arc]]) -> None:
    """Commit a star: remove its new arcs and contract their edges.

    new_arcs must be the marginal_gain output against this exact state; an arc
    whose edge is already covered signals a caller bug and raises RuntimeError.
    """
    label = state.label
    for idx, (u, v) in new_arcs:
        if label[u] == label[v]:
            raise RuntimeError(f"stale arc {u}->{v}: edge {idx} already covered")
        state._removed_tail[idx] = u
        state.covered_cost += state.tree.edges[idx][2]
        state._merge(u, v)
    state.chosen.append(star)
