"""Greedy star-cover solver for minimum-power strong connectivity.

Starting from the bidirected minimum spanning tree, the solver repeatedly
picks the star maximizing coverage gained per unit of power, drops the newly
covered arcs from the surviving tree arc set, and stops once every tree edge
is covered.  No ratio is 0/0: zero-cost tree edges are covered up front by
radius-0 stars, and stars that gain nothing are skipped.  The output is the
union of the chosen stars' arcs with the surviving arcs; it is always spanning
and strongly connected, and its power is at most the tree cost plus the total
star power, hence at most twice the tree cost.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from minpower.graph import (
    Arc,
    Instance,
    PowerAssignment,
    Tree,
    is_strongly_connected,
    minimum_spanning_tree,
    power_of,
)
from minpower.stars import CoverState, Star, apply_star, marginal_gain, root_path, star_at

_REL_TOL = 1e-9


def _leq(a: float, b: float, tol: float = _REL_TOL) -> bool:
    """a <= b up to a slack relative to b, with no absolute floor: tiny costs
    get no more room than large ones."""
    return a <= b + tol * abs(b)


@dataclass(frozen=True)
class TraceEntry:
    """One greedy iteration: the chosen star and its coverage gain; the star's
    radius is its power."""

    star: Star
    gain: float


@dataclass(frozen=True)
class Solution:
    """Greedy output with enough provenance to re-check its guarantees."""

    inst: Instance
    tree: Tree
    arcs: frozenset[Arc]
    powers: PowerAssignment
    total_power: float
    trace: tuple[TraceEntry, ...]
    tree_cost: float
    star_power: float
    residual_arcs: frozenset[Arc]
    center_scans: int = 0  # per-center walks of the parent links made by select_best_star

    @property
    def iterations(self) -> int:
        return len(self.trace)


@dataclass(frozen=True)
class CertificateReport:
    """Pass/fail per runtime guarantee; failures are reported, never raised."""

    strongly_connected: bool
    power_within_budget: bool  # total <= tree cost + star power
    star_power_within_tree: bool  # star power <= tree cost
    within_twice_tree: bool  # total <= 2 * tree cost
    star_gains_cover_power: bool  # gain >= power on every positive-power pick
    one_residual_arc_per_edge: bool

    def failures(self) -> list[str]:
        return [name for name, ok in self.__dict__.items() if not ok]

    @property
    def all_passed(self) -> bool:
        return not self.failures()


def ratio_bound(alpha: float) -> float:
    """Worst-case greedy ratio 1 + a + a*ln(1/a) for cover fraction a in (0, 1].

    alpha is the fraction of the optimum that suffices to fractionally cover
    the remaining tree edges; alpha = 1/2 holds here and gives a bound below
    1.85, alpha = 1 degenerates to the spanning-tree factor 2.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return 1.0 + alpha + alpha * math.log(1.0 / alpha)


def _scan_center(
    inst: Instance,
    u: int,
    label: list[int],
    links: dict[int, tuple[int, float, int]],
    ncomp: int,
    cap: float,
) -> tuple[float, float, float] | None:
    """Best (ratio, gain, radius) of the stars at center u, or None if none gains.

    links roots the quotient tree at label[0] (CoverState.links).  One pass
    over u's neighbours, a group per radius in increasing order, yields the
    gain of every radius at u; ties break toward larger gain, then smaller
    radius.  The leaves are walked as marginal_gain walks them, up the fixed
    links and down the root path of u's component, so every gain is the same
    float sum as marginal_gain's for the star at that radius.

    cap bounds every gain at u, so a radius r with r * best ratio > cap cannot
    reach the best ratio so far, not even as a tie, and neither can any larger
    radius: the scan stops there.
    """
    stop, path = root_path(label[u], links)
    top = 0
    count = 1  # components reached
    acc = 0.0
    best_ratio = 0.0
    best_gain = 0.0
    best_radius = 0.0
    for radius, leaves in groupby(inst.adj[u], itemgetter(0)):
        if radius * best_ratio > cap:
            break
        for _, v in leaves:
            x = label[v]
            i = stop.get(x)
            while i is None:
                stop[x] = -1
                x, c, _ = links[x]
                acc += c
                count += 1
                i = stop.get(x)
            if i > top:
                for _, c, _ in reversed(path[top:i]):
                    acc += c
                count += i - top
                top = i
        if acc > 0.0:
            ratio = math.inf if radius == 0.0 else acc / radius
            if ratio > best_ratio or (ratio == best_ratio and acc > best_gain):
                best_ratio, best_gain, best_radius = ratio, acc, radius
        if count == ncomp:
            break  # larger radii at this center add no gain and only cost more
    return (best_ratio, best_gain, best_radius) if best_gain > 0.0 else None


def select_best_star(inst: Instance, state: CoverState) -> tuple[Star, float]:
    """Argmax of coverage gain per unit radius over all canonical stars.

    Lazy (Minoux) selection: state.bounds is a heap holding, per center, the
    key (-ratio, -gain, center, radius, stamp) of its best star as of the
    state version stamp = len(state.chosen).  Coverage is monotone and
    submodular, so a center's gain at every radius can only fall as stars are
    applied, and a stale key is an upper bound on the current one.  That holds
    in floating point too: a later scan adds a subsequence of the earlier
    terms in the same order, and rounded addition is monotone.  So stale tops
    are rescanned until the top is current; that top is the argmax, and it
    stays in the heap as the next call's bound.  Centers whose gain reaches 0
    leave the heap for good.  Every rescan climbs the same parent links of
    the quotient, which the state builds once per labelling, so the
    marginal_gain of the pick reuses them too.

    Zero-gain stars are skipped: while any tree edge is uncovered, the star at
    one endpoint with the edge's own cost as radius has positive gain and ratio
    >= 1, so a positive-gain candidate always exists.  The heap order breaks
    ties toward larger gain, then smaller center id, then smaller radius.
    """
    if state.all_covered:
        raise RuntimeError("select_best_star called with every tree edge covered")
    label = state.label
    links = state.links()
    ncomp = state.component_count()
    # cap bounds every gain: a gain is the float sum of some of the uncovered
    # tree costs, one per link, and cap sums all of them; a float sum in any
    # order is within n * 2**-53 (relative) of its exact value, far inside the
    # 1e-9 margin.
    cap = (1.0 + 1e-9) * sum(c for _, c, _ in links.values())

    heap = state.bounds
    stamp = len(state.chosen)
    while heap and heap[0][4] != stamp:
        u = heap[0][2]
        found = _scan_center(inst, u, label, links, ncomp, cap)
        state.center_scans += 1
        if found is None:
            heapq.heappop(heap)
        else:
            ratio, gain, radius = found
            heapq.heapreplace(heap, (-ratio, -gain, u, radius, stamp))

    if not heap:
        raise RuntimeError(
            "no positive-gain star while tree edges remain uncovered; "
            "coverage accounting is broken"
        )
    _, neg_gain, best_center, best_radius, _ = heap[0]
    return star_at(inst, best_center, best_radius), -neg_gain


def _precover_zero_edges(state: CoverState) -> list[TraceEntry]:
    """Cover zero-cost tree edges up front with their own radius-0 stars.

    Every tree edge left uncovered then costs more than 0, so no radius-0 star
    gains anything in the main loop, which skips stars that gain nothing; no
    ratio there is 0/0.
    """
    entries: list[TraceEntry] = []
    label = state.label
    for a, b, c in state.tree.edges:
        if c != 0.0 or label[a] == label[b]:
            continue
        star = star_at(state.inst, min(a, b), 0.0)
        gain, new_arcs = marginal_gain(state, star)
        apply_star(state, star, new_arcs)
        entries.append(TraceEntry(star, gain))
    return entries


def greedy_solve(inst: Instance) -> Solution:
    """Run the greedy star-cover loop and assemble the certified solution."""
    tree = minimum_spanning_tree(inst)
    state = CoverState(inst, tree)
    trace = _precover_zero_edges(state)

    while not state.all_covered:
        star, scan_gain = select_best_star(inst, state)
        gain, new_arcs = marginal_gain(state, star)
        if abs(gain - scan_gain) > _REL_TOL * abs(gain):
            raise RuntimeError(
                f"gain mismatch for star ({star.center}, {star.radius}): "
                f"{scan_gain} vs {gain}"
            )
        apply_star(state, star, new_arcs)
        trace.append(TraceEntry(star, gain))

    residual = state.residual_arcs()
    arcs = set(residual)
    for star in state.chosen:
        arcs |= star.arcs()
    powers = power_of(inst, arcs)
    star_power = float(sum(entry.star.radius for entry in trace))
    return Solution(
        inst=inst,
        tree=tree,
        arcs=frozenset(arcs),
        powers=powers,
        total_power=powers.total,
        trace=tuple(trace),
        tree_cost=tree.total_cost,
        star_power=star_power,
        residual_arcs=frozenset(residual),
        center_scans=state.center_scans,
    )


def certify(solution: Solution) -> CertificateReport:
    """Re-check the guarantees a greedy output must satisfy.

    Only meaningful for greedy outputs: a hand-built solution (for example the
    bare bidirected tree with no stars) can legitimately fail the power budget
    check, which is exactly what makes it a useful negative control.
    """
    inst = solution.inst
    tree = solution.tree
    recomputed = power_of(inst, solution.arcs)
    total = recomputed.total
    budget_ok = _leq(total, solution.tree_cost + solution.star_power)
    stars_ok = _leq(solution.star_power, solution.tree_cost)
    twice_ok = _leq(total, 2.0 * solution.tree_cost)
    gains_ok = all(
        entry.star.radius == 0.0 or _leq(entry.star.radius, entry.gain)
        for entry in solution.trace
    )
    residual_ok = all(
        ((u, v) in solution.residual_arcs) != ((v, u) in solution.residual_arcs)
        for u, v, _ in tree.edges
    )
    return CertificateReport(
        strongly_connected=is_strongly_connected(inst, solution.arcs),
        power_within_budget=budget_ok,
        star_power_within_tree=stars_ok,
        within_twice_tree=twice_ok,
        star_gains_cover_power=gains_ok,
        one_residual_arc_per_edge=residual_ok,
    )
