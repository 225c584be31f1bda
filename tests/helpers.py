"""Shared brute-force oracles and instance builders for the test suite.

Everything here recomputes results by definition-level enumeration or by an
older, simpler algorithm (the eager greedy scan, the LP-free branch and
bound), staying independent of the library code paths it is used to check.
"""

from __future__ import annotations

import itertools
import math
import random
from time import perf_counter
from typing import Iterable

from minpower.exact import ExactResult, SearchLimits, _induced_strongly_connected
from minpower.graph import Arc, Instance, InstanceError, PowerAssignment, Tree
from minpower.greedy import greedy_solve
from minpower.instances import gen_line, gen_polygon, gen_random_geometric
from minpower.stars import CoverState, Star, apply_star, marginal_gain, star_at


def kruskal_tree(inst: Instance) -> tuple[tuple[int, int, float], ...]:
    """Edges of the minimum spanning tree by Kruskal over all edges sorted by
    (cost, u, v), in the order picked.

    The algorithm minimum_spanning_tree used before it became a lazy Prim over
    the sorted adjacency, kept as its differential oracle.
    """
    order = sorted((c, u, v) for u, v, c in inst.edges)
    parent = list(range(inst.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    picked: list[tuple[int, int, float]] = []
    for c, u, v in order:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            picked.append((u, v, c))
            if len(picked) == inst.n - 1:
                break
    if len(picked) != inst.n - 1:
        raise InstanceError("instance not connected")
    return tuple(picked)


def eager_select_best_star(inst: Instance, state: CoverState) -> tuple[Star, float]:
    """Argmax of coverage gain per unit radius over all canonical stars.

    The eager scan that the lazy select_best_star replaced, kept as its
    differential oracle.  Scans every center once over the quotient tree
    obtained by contracting covered edges, which yields the gain of every
    radius at that center in a single walk.  Zero-gain stars are skipped:
    while any tree edge is uncovered, the star at one endpoint with the edge's
    own cost as radius has positive gain and ratio >= 1, so a positive-gain
    candidate always exists.  Ties break toward larger gain, then smaller
    center id, then smaller radius.
    """
    if state.all_covered:
        raise RuntimeError("eager_select_best_star called with every tree edge covered")
    tree = state.tree
    label = state.label
    ncomp = state.component_count()

    # quotient tree over component labels: uncovered edges only
    qadj: dict[int, list[tuple[int, float]]] = {}
    for u, v, c in tree.edges:
        lu, lv = label[u], label[v]
        if lu == lv:
            continue
        qadj.setdefault(lu, []).append((lv, c))
        qadj.setdefault(lv, []).append((lu, c))

    best_ratio = -1.0
    best_gain = 0.0
    best_center = -1
    best_radius = 0.0

    qpar: dict[int, int] = {}
    qcost: dict[int, float] = {}
    for u in range(inst.n):
        root = label[u]
        # BFS parents on the quotient tree rooted at this center's component
        qpar.clear()
        qcost.clear()
        qpar[root] = -1
        queue = [root]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for y, c in qadj.get(x, ()):
                if y not in qpar:
                    qpar[y] = x
                    qcost[y] = c
                    queue.append(y)

        reached = {root}
        acc = 0.0
        prev_cost: float | None = None

        def consider(radius: float, gain: float) -> None:
            nonlocal best_ratio, best_gain, best_center, best_radius
            if gain <= 0.0:
                return
            ratio = math.inf if radius == 0.0 else gain / radius
            if ratio > best_ratio or (ratio == best_ratio and gain > best_gain):
                best_ratio = ratio
                best_gain = gain
                best_center = u
                best_radius = radius

        for c, v in inst.adj[u]:
            if prev_cost is not None and c != prev_cost:
                consider(prev_cost, acc)
            prev_cost = c
            lv = label[v]
            while lv not in reached:
                reached.add(lv)
                acc += qcost[lv]
                lv = qpar[lv]
            if len(reached) == ncomp:
                # larger radii at this center add no gain and only cost more
                consider(c, acc)
                prev_cost = None
                break
        if prev_cost is not None:
            consider(prev_cost, acc)

    if best_center < 0:
        raise RuntimeError(
            "no positive-gain star while tree edges remain uncovered; "
            "coverage accounting is broken"
        )
    return star_at(inst, best_center, best_radius), best_gain


def stars_by_radius(inst: Instance) -> list[Star]:
    """All canonical stars, by one star_at walk per center and distinct cost.

    The construction enumerate_stars replaced with one walk per center, kept
    as its differential oracle.
    """
    return [
        star_at(inst, u, radius)
        for u in range(inst.n)
        for radius in sorted({c for c, _ in inst.adj[u]})
    ]


def star_corpus() -> list[Instance]:
    """Instances whose stars are easy to get wrong: lines and polygons full of
    tied costs, sparse graphs, zero-cost edges (one of them -0.0, which the
    validator accepts and which ties with 0.0), a lone vertex, and random
    graphs with small integer costs."""
    rng = random.Random(113)
    return (
        [gen_line(n, eps) for n in (1, 2, 3, 5, 8) for eps in (0.25, 0.5)]
        + [gen_polygon(n)[0] for n in (2, 3, 4, 5)]
        + [
            gen_random_geometric(n, kappa, 0, complete=False)
            for n in (12, 20, 30)
            for kappa in (1.0, 2.0)
        ]
        + [gen_random_geometric(10, 2.0, seed) for seed in (0, 1)]
        + [
            Instance.from_edges(3, [(0, 1, 0.0), (1, 2, 1.0), (0, 2, 1.0)]),
            Instance.from_edges(4, [(0, 1, 0.0), (0, 2, -0.0), (1, 2, 0.0), (2, 3, 2.0)]),
            Instance.from_edges(1, []),
        ]
        + [random_connected_instance(rng, rng.randint(2, 9), complete=i % 3 < 1) for i in range(30)]
    )


def quotient_links(state: CoverState, root: int) -> dict[int, tuple[int, float, int]]:
    """Parent links of the quotient tree rooted at component root.

    The quotient tree is the spanning tree with covered edges contracted.
    Builds it as adjacency over labels and roots it by breadth-first search,
    the rooting CoverState.links replaced, kept as its differential oracle.
    Maps every other component label to (parent label, cost, tree-edge index)
    of the uncovered edge leading toward root.
    """
    label = state.label
    quotient: dict[int, list[tuple[int, float, int]]] = {}
    for idx, (u, v, c) in enumerate(state.tree.edges):
        lu, lv = label[u], label[v]
        if lu != lv:
            quotient.setdefault(lu, []).append((lv, c, idx))
            quotient.setdefault(lv, []).append((lu, c, idx))
    links: dict[int, tuple[int, float, int]] = {}
    queue = [(root, -1)]
    qi = 0
    while qi < len(queue):
        x, up = queue[qi]
        qi += 1
        for y, c, idx in quotient.get(x, ()):
            if y != up:
                links[y] = (x, c, idx)
                queue.append((y, x))
    return links


def center_rooted_gain(state: CoverState, star: Star) -> tuple[float, list[tuple[int, Arc]]]:
    """marginal_gain by a climb in the quotient tree rooted at the star's center.

    The walk marginal_gain made before it shared the greedy scan's links,
    kept as its differential oracle.  Climbs from each leaf's component, in
    sorted vertex order, toward the center's component, stopping at components
    already reached.  Returns (gain, new_arcs) as marginal_gain does: new_arcs
    lists (edge index, arc from the endpoint in the parent component to the one
    in the child) in the order met.
    """
    if not star.leaves:
        return 0.0, []
    label = state.label
    edges = state.tree.edges
    root = label[star.center]
    links = quotient_links(state, root)
    reached = {root}
    gain = 0.0
    new_arcs: list[tuple[int, Arc]] = []
    for v in sorted(star.leaves):
        x = label[v]
        while x not in reached:
            reached.add(x)
            x, c, idx = links[x]
            a, b, _ = edges[idx]
            gain += c
            new_arcs.append((idx, (a, b) if label[a] == x else (b, a)))
    return gain, new_arcs


def lp_free_exact_optimum(inst: Instance, limits: SearchLimits | None = None) -> ExactResult:
    """Minimum total power by branch and bound alone, seeded by the greedy.

    The search exact_optimum ran before it took the LP certificate first, kept
    as its LP-free differential oracle.  Vertices are assigned in
    decreasing-degree order, levels are tried from high to low, and a branch
    is cut once its committed power plus the minimum completion cannot beat
    the incumbent.
    """
    limits = limits or SearchLimits()
    n = inst.n
    if n > limits.max_vertices:
        raise ValueError(f"instance has {n} vertices, limit is {limits.max_vertices}")
    if n == 1:
        return ExactResult("optimal", 0.0, PowerAssignment((0.0,)), 0)

    start = perf_counter()
    # strong connectivity needs an outgoing arc everywhere, so level 0 is only
    # viable when a zero-cost edge provides it; incident costs cover that case
    levels = [sorted({c for c, _ in inst.adj[v]}, reverse=True) for v in range(n)]
    order = sorted(range(n), key=lambda v: (-len(inst.adj[v]), v))
    suffix_min = [0.0] * (n + 1)
    for i in reversed(range(n)):
        suffix_min[i] = suffix_min[i + 1] + levels[order[i]][-1]

    incumbent = greedy_solve(inst)
    best = incumbent.total_power
    best_assign = list(incumbent.powers.levels)

    p = [0.0] * n
    nodes = 0
    limit: str | None = None

    def dfs(i: int, partial: float) -> None:
        nonlocal nodes, best, best_assign, limit
        nodes += 1
        if limit is not None:
            return
        if nodes > limits.max_nodes:
            limit = "max_nodes"
            return
        if nodes % 4096 == 0 and perf_counter() - start > limits.time_budget:
            limit = "time_budget"
            return
        if partial + suffix_min[i] >= best:
            return
        if i == n:
            total = float(sum(p))  # canonical vertex-order sum
            if total < best and _induced_strongly_connected(inst, p):
                best = total
                best_assign = p.copy()
            return
        v = order[i]
        tail = suffix_min[i + 1]
        for lev in levels[v]:
            if partial + lev + tail >= best:
                continue
            p[v] = lev
            dfs(i + 1, partial + lev)
            if limit is not None:
                return
        p[v] = 0.0

    dfs(0, 0.0)
    status = "optimal" if limit is None else "inconclusive"
    return ExactResult(status, best, PowerAssignment(tuple(best_assign)), nodes, limit)


def random_connected_instance(rng: random.Random, n: int, complete: bool = False) -> Instance:
    """Random instance with small integer costs (exact float arithmetic)."""
    edges = []
    if complete:
        pairs = list(itertools.combinations(range(n), 2))
    else:
        # random spanning tree plus extra edges
        pairs = set()
        for v in range(1, n):
            pairs.add((rng.randrange(v), v))
        for _ in range(rng.randrange(0, n)):
            u, v = rng.sample(range(n), 2)
            pairs.add((min(u, v), max(u, v)))
        pairs = sorted(pairs)
    for u, v in pairs:
        edges.append((u, v, float(rng.randint(1, 12))))
    return Instance.from_edges(n, edges)


def transitive_closure_strongly_connected(n: int, arcs: set[Arc]) -> bool:
    """Floyd-Warshall boolean closure; true iff all pairs are connected."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for u, v in arcs:
        reach[u][v] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return all(all(row) for row in reach)


def all_spanning_trees(inst: Instance):
    """Yield every spanning tree as a tuple of edge triples (tiny n only)."""
    n = inst.n
    for combo in itertools.combinations(inst.edges, n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v, _ in combo:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            yield combo


def tree_path_edges(tree: Tree, a: int, b: int) -> set[int]:
    """Edge indices on the tree path from a to b, by naive depth climbing."""
    # root the tree at vertex 0 by DFS over its edge list
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(tree.n)]
    for idx, (u, v, _) in enumerate(tree.edges):
        nbrs[u].append((v, idx))
        nbrs[v].append((u, idx))
    parent = [-1] * tree.n
    parent_edge = [-1] * tree.n
    depth = [0] * tree.n
    stack = [0]
    while stack:
        x = stack.pop()
        for y, idx in nbrs[x]:
            if y != parent[x]:
                parent[y] = x
                parent_edge[y] = idx
                depth[y] = depth[x] + 1
                stack.append(y)
    out: set[int] = set()
    x, y = a, b
    while depth[x] > depth[y]:
        out.add(parent_edge[x])
        x = parent[x]
    while depth[y] > depth[x]:
        out.add(parent_edge[y])
        y = parent[y]
    while x != y:
        out.add(parent_edge[x])
        out.add(parent_edge[y])
        x = parent[x]
        y = parent[y]
    return out


def pairwise_cover(tree: Tree, star: Star) -> set[int]:
    """Coverage by the all-pairs definition: edges on paths between star vertices."""
    vertices = sorted(star.leaves | {star.center})
    out: set[int] = set()
    for a, b in itertools.combinations(vertices, 2):
        out |= tree_path_edges(tree, a, b)
    return out


def replay_state(inst: Instance, tree: Tree, stars: list[Star]) -> CoverState:
    """Build a cover state by applying stars in order."""
    state = CoverState(inst, tree)
    for star in stars:
        _, new_arcs = marginal_gain(state, star)
        apply_star(state, star, new_arcs)
    return state


def coverage_value(tree: Tree, stars: list[Star]) -> float:
    """f(A) from scratch: union the pairwise covers, then sum edge costs."""
    covered: set[int] = set()
    for star in stars:
        covered |= pairwise_cover(tree, star)
    return sum(tree.edges[i][2] for i in covered)


def enters_cut(star: Star, subset: frozenset[int] | set[int]) -> bool:
    """Star enters X iff its center is outside X and it touches X."""
    if star.center in subset:
        return False
    return not subset.isdisjoint(star.leaves)


def cut_load(stars: Iterable[tuple[Star, float]], subset: frozenset[int] | set[int]) -> float:
    """Total weight of the stars entering subset, star by star, by definition."""
    return float(sum(w for star, w in stars if enters_cut(star, subset)))


def extreme_min_cuts(
    inst: Instance, weights: dict[tuple[int, float], float], source: int, sink: int
) -> tuple[float, frozenset[int], frozenset[int]]:
    """(load, largest, smallest) over the subsets that hold sink but not
    source and have the least entering load (n <= 9).

    Minimum cuts are closed under union and intersection, so the union of all
    least-load subsets is the largest and their intersection the smallest.
    Loads within 1e-9 of the least count as least; weights on a coarse grid
    keep distinct loads further apart.  Leaves are read straight from the
    adjacency, as in exhaustive_min_cut_load.
    """
    n = inst.n
    assert n <= 9
    support = [
        (center, frozenset(v for c, v in inst.adj[center] if c <= radius), w)
        for (center, radius), w in sorted(weights.items())
    ]
    loads = {}
    for mask in range(1 << n):
        subset = frozenset(v for v in range(n) if mask >> v & 1)
        if sink in subset and source not in subset:
            loads[subset] = float(
                sum(w for center, leaves, w in support if center not in subset and leaves & subset)
            )
    least = min(loads.values())
    tied = [subset for subset, load in loads.items() if load <= least + 1e-9]
    return least, frozenset.union(*tied), frozenset.intersection(*tied)


def exhaustive_min_cut_load(inst: Instance, weights: dict[tuple[int, float], float]):
    """Minimum entering load over all proper nonempty subsets (n <= 9).

    A star enters X when its center lies outside X and some leaf inside;
    leaves are read straight from the adjacency, so this shares no code with
    the separation oracle it checks.
    """
    n = inst.n
    assert n <= 9
    support = []
    for (center, radius), w in sorted(weights.items()):
        leaves = [v for c, v in inst.adj[center] if c <= radius]
        support.append((center, leaves, w))
    best_load = float("inf")
    best_subset: frozenset[int] | None = None
    for mask in range(1, (1 << n) - 1):
        load = sum(
            w
            for center, leaves, w in support
            if not mask >> center & 1 and any(mask >> v & 1 for v in leaves)
        )
        if load < best_load:
            best_load = load
            best_subset = frozenset(v for v in range(n) if mask >> v & 1)
    return best_load, best_subset
