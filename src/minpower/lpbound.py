"""Fractional star-cover lower bound via lazy cut generation.

The bound is the optimum of: minimize sum_S y_S * power(S) subject to, for
every proper nonempty vertex subset X, the stars entering X (center outside X,
some vertex inside) carrying total weight at least 1.  Its optimum sits
between the spanning-tree cost and the integral optimum, and the greedy output
is within the same 1.85 factor of it.

Rather than shipping the exponentially many cut rows (or the equivalent large
flow formulation) up front, a restricted master over all canonical stars keeps
the cut rows it has as an explicit 0/1 matrix and is solved by a revised dual
simplex whose basis is as large as the cut set and whose basis inverse is
updated pivot by pivot, resumed from the previous round's optimal basis after
each round's new cuts.  Violated cuts are found on demand by
shortest-augmenting-path max-flow in a star-expanded network, fixing vertex 0
as the root and running both flow directions to every other vertex.  Each
max-flow below 1 yields two minimum cuts, the one nearest the source and the
back cut nearest the sink, and a round adds every violated cut that sweep
finds.  The cut rows come from a star x vertex leaf-incidence array, read off
the cost matrix in one comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from minpower.graph import Instance
from minpower.stars import enumerate_stars

# The ladder _FEAS_TOL < _CUT_TOL <= _VALUE_TOL keeps the value a bound: a cut
# tolerance tau only guarantees value >= (1 - tau) LP, and one at or below the
# master's feasibility slack lets separation return a row the master already
# has (tau = 0 does on random-geometric n=17 kappa=2 seed=1).  _VALUE_TOL is
# also the CLI bracket's relative slack wherever the value takes part, and
# _CUT_TOL <= _VALUE_TOL is what makes it cover the value's shortfall below LP.
# Every slack is relative.  _CUT_TOL and the flow, x and alpha slacks apply to
# star weights, which have no unit; the ratio-test slack is relative to the
# least ratio, since reduced costs fall far below 1e-9 at kappa = 20.  The
# master solves for the costs scaled by a power of two to a largest cost in
# [1/2, 1), so scaling every cost by 2^k scales the value exactly by 2^k.
_FEAS_TOL = 1e-9  # simplex pivot / feasibility
_CUT_TOL = 1e-7  # cut violation threshold
_VALUE_TOL = 1e-6  # reported-value agreement
# Beside the ladder, not on it: an integral assignment whose power is at most
# (1 + _CERT_TOL) times the value is reported optimal by the exact oracle.  The
# value is a restricted master's optimum, so it never exceeds the optimum, and
# the claim is opt <= power <= (1 + _CERT_TOL) opt.
_CERT_TOL = 1e-9
_MAX_ROUNDS = 10_000  # cut rounds before lp_lower_bound gives up
_REFACTOR_PIVOTS = 50  # pivots between fresh factorizations of the basis inverse

StarKey = tuple[int, float]  # (center, radius)


class LpError(RuntimeError):
    """Numerical failure or non-convergence in the bound computation."""


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal star weights (support only) and the bound value they certify."""

    weights: dict[StarKey, float]
    value: float
    rounds: int
    constraints: int
    pivots: int  # simplex pivots over all rounds


@dataclass(frozen=True)
class CutViolation:
    """A vertex subset whose entering stars carry weight below 1."""

    subset: frozenset[int]
    load: float


class _FlowNetwork:
    """Residual network for Edmonds-Karp max-flow; arc e's reverse is e ^ 1."""

    def __init__(self, n: int):
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_edge(self, u: int, v: int, cap: float) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def max_flow(self, s: int, t: int) -> tuple[float, set[int]]:
        """Push the bottleneck of a shortest augmenting path until none is left.

        Arcs with residual capacity at most _FEAS_TOL count as saturated.  The
        search that fails to reach t has reached exactly the source side of a
        minimum cut, which is returned with the flow value.
        """
        flow = 0.0
        while True:
            via = {s: -1}  # node -> arc that first reached it
            queue = [s]
            for u in queue:
                for e in self.head[u]:
                    v = self.to[e]
                    if v not in via and self.cap[e] > _FEAS_TOL:
                        via[v] = e
                        queue.append(v)
                if t in via:
                    break
            else:
                return flow, set(via)
            path = []
            v = t
            while v != s:
                path.append(via[v])
                v = self.to[via[v] ^ 1]
            pushed = min(self.cap[e] for e in path)
            for e in path:
                self.cap[e] -= pushed
                self.cap[e ^ 1] += pushed
            flow += pushed

    def sink_side(self, t: int) -> set[int]:
        """The nodes that still reach t in the residual network.

        After max_flow(s, t) this is the sink side of the minimum cut nearest
        the sink: every arc into it is saturated, so its capacity is the flow
        value.  A reverse search from t: arc e leaves v for w, so w reaches v
        over e's reverse when that has residual capacity above _FEAS_TOL.
        """
        side = {t}
        queue = [t]
        for v in queue:
            for e in self.head[v]:
                w = self.to[e]
                if w not in side and self.cap[e ^ 1] > _FEAS_TOL:
                    side.add(w)
                    queue.append(w)
        return side


def _incidence(inst: Instance, keys: list[StarKey]) -> tuple[np.ndarray, np.ndarray]:
    """leaf[j, v] says v is a leaf of star j; centers[j] is star j's center.

    Star (u, r)'s leaves are u's neighbours within cost r, so its row is the
    cost matrix's row u, inf off the edges and on the diagonal, compared to r.
    """
    cost = np.full((inst.n, inst.n), math.inf)
    if inst.edges:
        u, v, c = zip(*inst.edges)
        cost[u, v] = cost[v, u] = c
    centers = np.array([center for center, _ in keys], dtype=np.intp)
    radii = np.array([radius for _, radius in keys], dtype=float)
    return cost[centers] <= radii[:, None], centers


def _entering(leaf: np.ndarray, centers: np.ndarray, subset: frozenset[int]) -> np.ndarray:
    """The cut row of subset: which stars have their center outside it and a leaf inside."""
    inside = np.zeros(leaf.shape[1], dtype=bool)
    inside[list(subset)] = True
    return leaf[:, inside].any(1) & ~inside[centers]


def violated_cuts(inst: Instance, weights: Mapping[StarKey, float]) -> list[CutViolation]:
    """Every distinct vertex subset that one separation sweep finds violated.

    Builds one flow network: a node per vertex, a node per supported star, an
    arc center->star with capacity y_S, and star->leaf arcs with effectively
    infinite capacity.  Min cuts from vertex 0 to each t (subsets avoiding 0)
    and from each t back to 0 (subsets containing 0) together range over every
    proper nonempty subset; the capacities are restored before each max-flow.
    A max-flow below 1 - _CUT_TOL gives two subsets, the vertices outside the
    source side (the largest minimum cut) and the vertices that reach the sink
    in the residual network (the smallest); either may be new.  Each with load
    below 1 - _CUT_TOL is kept, once per subset; its load is its cut row times
    the weights, checked against the flow value.  The supported stars' rows
    come from their (center, radius) keys alone, see _incidence.  Sorted by
    load, then by subset.
    """
    if inst.n <= 1:
        return []
    support = sorted((key, float(w)) for key, w in weights.items() if w > 0.0)
    leaf, centers = _incidence(inst, [key for key, _ in support])
    return _sweep(np.array([w for _, w in support]), leaf, centers)


def _sweep(y: np.ndarray, leaf: np.ndarray, centers: np.ndarray) -> list[CutViolation]:
    """violated_cuts for the support stars in key order: their weights y > 0
    and their incidence leaf, centers (see _incidence), over at least 2
    vertices.  Both minimum cuts of each max-flow, the front one from the
    final search and the back one from _FlowNetwork.sink_side, pass the same
    dedupe and the same load-vs-flow check."""
    n = leaf.shape[1]
    inf_cap = n * y.max(initial=0.0) + 1.0  # exceeds 1, so never part of a violated cut

    net = _FlowNetwork(n + len(y))
    for i, (center, w) in enumerate(zip(centers.tolist(), y.tolist())):
        net.add_edge(center, n + i, w)
        for leaf_vertex in np.flatnonzero(leaf[i]).tolist():
            net.add_edge(n + i, leaf_vertex, inf_cap)
    capacities = net.cap[:]

    found: dict[frozenset[int], CutViolation] = {}
    for t in range(1, n):
        for s, sink in ((0, t), (t, 0)):
            net.cap[:] = capacities
            value, side = net.max_flow(s, sink)
            if value >= 1.0 - _CUT_TOL:
                continue
            front = frozenset(v for v in range(n) if v not in side)
            back = frozenset(v for v in net.sink_side(sink) if v < n)
            for subset in (front, back):
                if subset in found:
                    continue
                load = float(_entering(leaf, centers, subset) @ y)
                if abs(load - value) > _VALUE_TOL:
                    raise LpError(
                        f"cut load {load} disagrees with flow value {value} for {sorted(subset)}"
                    )
                if load < 1.0 - _CUT_TOL:
                    found[subset] = CutViolation(subset, load)
    return sorted(found.values(), key=lambda cut: (cut.load, sorted(cut.subset)))


def most_violated_cut(inst: Instance, weights: Mapping[StarKey, float]) -> CutViolation | None:
    """The subset whose entering weight falls furthest below 1, or None when
    every load reaches 1 - _CUT_TOL."""
    return min(violated_cuts(inst, weights), key=lambda cut: cut.load, default=None)


class _Master:
    """The restricted master, kept optimal from one cut round to the next.

    Minimize costs . y over y >= 0 with A y >= 1, where A holds one 0/1 row per
    cut (its entering stars) and column j is star j.  Variable j < nstars is
    star j and nstars + i is row i's surplus; the basis holds one variable per
    row.  The dual simplex keeps every reduced cost [c - pi A, pi] nonnegative
    and drives out a negative basic value.  The smallest-index negative basic
    variable leaves and the smallest index among ratio-test ties enters:
    Bland's rule on the complementary dual basis, which rules out cycling.

    A's rows and the basis inverse live in preallocated storage that doubles
    when full.  A new row enters with its surplus basic, which leaves the
    reduced costs as they were, so solve() resumes from the previous optimal
    basis; it extends B^-1 by the row [r_B B^-1, -1] (r_B: the new row's
    entries in the basic columns).  Each pivot updates B^-1 by a rank-one
    product-form step, and B^-1 is factored afresh every _REFACTOR_PIVOTS
    pivots, before rounding errors can pile up.
    """

    def __init__(self, costs: np.ndarray):
        self.costs = costs
        self.rows = np.zeros((0, len(costs)))  # A, in rows[:m] for m = len(basis)
        self.binv = np.zeros((0, 0))  # B^-1, in binv[:m, :m]
        self.basis: list[int] = []
        self.pivots = 0
        self.updates = 0  # pivots since B^-1 was last factored afresh

    def add_row(self, row: np.ndarray) -> None:
        m, nstars = len(self.basis), len(self.costs)
        if m == len(self.rows):
            size = max(2 * m, 16)
            rows, binv = np.zeros((size, nstars)), np.zeros((size, size))
            rows[:m], binv[:m, :m] = self.rows[:m], self.binv[:m, :m]
            self.rows, self.binv = rows, binv
        self.rows[m] = row
        basis = np.array(self.basis, dtype=np.intp)
        in_basis = np.zeros(m)
        stars = basis < nstars
        in_basis[stars] = self.rows[m, basis[stars]]
        self.binv[m, :m] = in_basis @ self.binv[:m, :m]
        self.binv[:m, m] = 0.0
        self.binv[m, m] = -1.0
        self.basis.append(nstars + m)

    def _factor(self) -> None:
        m, nstars = len(self.basis), len(self.costs)
        basis = np.array(self.basis, dtype=np.intp)
        stars = basis < nstars
        columns = np.zeros((m, m))  # B: the basic columns of [A | -I]
        columns[:, stars] = self.rows[:m, basis[stars]]
        columns[basis[~stars] - nstars, np.flatnonzero(~stars)] = -1.0
        try:
            self.binv[:m, :m] = np.linalg.inv(columns)
        except np.linalg.LinAlgError:
            raise LpError("singular basis in restricted master") from None
        self.updates = 0

    def _pivot(self, leave: int, enter: int) -> None:
        m, nstars = len(self.basis), len(self.costs)
        binv = self.binv[:m, :m]
        if enter < nstars:
            column = binv @ self.rows[:m, enter]  # B^-1 a_q
        else:
            column = -binv[:, enter - nstars]
        row = binv[leave] / column[leave]
        binv -= np.outer(column, row)
        binv[leave] = row
        self.basis[leave] = enter
        self.pivots += 1
        self.updates += 1

    def solve(self) -> tuple[np.ndarray, float]:
        m, nstars = len(self.basis), len(self.costs)
        rows, binv = self.rows[:m], self.binv[:m, :m]
        cost = np.concatenate([self.costs, np.zeros(m)])
        pivot_cap = 200 * (nstars + m)
        for _ in range(pivot_cap):
            if self.updates >= _REFACTOR_PIVOTS:
                self._factor()
            basis = np.array(self.basis, dtype=np.intp)
            x = binv.sum(axis=1)  # B^-1 1
            pi = cost[basis] @ binv
            negative = np.flatnonzero(x < -_FEAS_TOL)
            if negative.size == 0:
                break
            leave = int(negative[np.argmin(basis[negative])])  # Bland: smallest index
            alpha = np.concatenate([binv[leave] @ rows, -binv[leave]])
            alpha[basis] = 0.0  # only nonbasic variables may enter
            candidates = np.flatnonzero(alpha < -_FEAS_TOL)
            if candidates.size == 0:
                raise LpError("restricted master is infeasible; cut rows are inconsistent")
            reduced = np.concatenate([self.costs - pi @ rows, pi])
            ratios = reduced[candidates] / -alpha[candidates]
            low = ratios.min()
            # Bland: smallest index among ratio ties, which are relative to the
            # least ratio, since scaled costs can sit far below any fixed slack
            self._pivot(leave, int(candidates[ratios <= low + _FEAS_TOL * abs(low)][0]))
        else:
            raise LpError(f"simplex exceeded {pivot_cap} pivots; conditioning problem")

        values = np.zeros(nstars + m)
        values[basis] = np.maximum(x, 0.0)
        y = values[:nstars]
        value = float(pi.sum())
        primal_value = float(self.costs @ y)
        if abs(primal_value - value) > _VALUE_TOL * abs(value):
            raise LpError(f"duality gap {primal_value} vs {value} in restricted master")
        return y, value


def lp_lower_bound(inst: Instance) -> FractionalSolution:
    """Optimum of the fractional star-cover relaxation, certified by separation.

    Seeds the master with the singleton cuts in both directions (every vertex
    must be entered, every vertex must buy a star), then alternates solving the
    restricted master with max-flow separation, adding every violated cut a
    sweep finds, until no cut is violated by more than _CUT_TOL.  Each round
    adds a constraint the master did not have, so the loop terminates; the
    final separation sweep is the certificate.
    """
    n = inst.n
    stars = enumerate_stars(inst)
    if n == 1:
        return FractionalSolution({}, 0.0, 0, 0, 0)
    # scale the costs exactly, by a power of two, to a largest cost in [1/2, 1)
    exponent = math.frexp(max(s.radius for s in stars))[1]
    costs = np.ldexp([s.radius for s in stars], -exponent)
    keys = [(s.center, s.radius) for s in stars]
    leaf, centers = _incidence(inst, keys)
    master = _Master(costs)
    seen_rows: set[bytes] = set()

    def add_cut(subset: frozenset[int]) -> bool:
        """Add the row of the stars entering subset, unless the master has it."""
        row = _entering(leaf, centers, subset)
        key = row.tobytes()
        if key in seen_rows:
            return False
        seen_rows.add(key)
        master.add_row(row)
        return True

    everyone = frozenset(range(n))
    for v in range(n):
        add_cut(frozenset((v,)))
        add_cut(everyone - {v})

    for round_no in range(1, _MAX_ROUNDS + 1):
        y, value = master.solve()
        support = np.flatnonzero(y > 1e-12)
        weights = {keys[j]: float(y[j]) for j in support}
        # stars are in key order, so this is violated_cuts(inst, weights)
        cuts = _sweep(y[support], leaf[support], centers[support])
        if not cuts:
            value = math.ldexp(value, exponent)  # back to the instance's cost scale
            return FractionalSolution(weights, value, round_no, len(seen_rows), master.pivots)
        if not sum(add_cut(cut.subset) for cut in cuts):
            raise LpError(
                f"separation returned only existing constraints (least load {cuts[0].load}); "
                "tolerance ladder is inconsistent"
            )
    raise LpError(f"no convergence after {_MAX_ROUNDS} cut rounds")
