"""Fractional star-cover lower bound via lazy cut generation.

The bound is the optimum of: minimize sum_S y_S * power(S) subject to, for
every proper nonempty vertex subset X, the stars entering X (center outside X,
some vertex inside) carrying total weight at least 1.  Its optimum sits
between the spanning-tree cost and the integral optimum, and the greedy output
is within the same 1.85 factor of it.

Rather than shipping the exponentially many cut rows (or the equivalent large
flow formulation) up front, a restricted master over all canonical stars keeps
the cut rows it has as an explicit 0/1 matrix and is solved by a revised dual
simplex whose basis is as large as the cut set, resumed from the previous
round's optimal basis after each new cut.  Violated cuts are found on demand
by shortest-augmenting-path max-flow in a star-expanded network, fixing vertex
0 as the root and running both flow directions to every other vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from minpower.graph import Instance
from minpower.stars import Star, enumerate_stars, star_at

# The ladder _FEAS_TOL < _CUT_TOL <= _VALUE_TOL keeps the value a bound: a cut
# tolerance tau only guarantees value >= (1 - tau) LP, and one at or below the
# master's feasibility slack lets separation return a row the master already
# has (tau = 0 does on random-geometric n=17 kappa=2 seed=1).  _VALUE_TOL is
# also the CLI bracket's relative slack wherever the value takes part, and
# _CUT_TOL <= _VALUE_TOL is what makes it cover the value's shortfall below LP.
# Every slack is relative.  _CUT_TOL and the flow, x and alpha slacks apply to
# star weights, which have no unit; the ratio-test slack applies to the costs
# the master solves for, scaled by a power of two to a largest cost in
# [1/2, 1).  So scaling every cost by 2^k scales the value exactly by 2^k.
_FEAS_TOL = 1e-9  # simplex pivot / feasibility
_CUT_TOL = 1e-7  # cut violation threshold
_VALUE_TOL = 1e-6  # reported-value agreement
# Beside the ladder, not on it: an integral assignment whose power is at most
# (1 + _CERT_TOL) times the value is reported optimal by the exact oracle.  The
# value is a restricted master's optimum, so it never exceeds the optimum, and
# the claim is opt <= power <= (1 + _CERT_TOL) opt.
_CERT_TOL = 1e-9
_MAX_ROUNDS = 10_000  # cut rounds before lp_lower_bound gives up

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


def enters_cut(star: Star, subset: frozenset[int] | set[int]) -> bool:
    """Star enters X iff its center is outside X and it touches X."""
    if star.center in subset:
        return False
    return not subset.isdisjoint(star.leaves)


def cut_load(stars: Iterable[tuple[Star, float]], subset: frozenset[int] | set[int]) -> float:
    return float(sum(w for star, w in stars if enters_cut(star, subset)))


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


def _support(inst: Instance, weights: Mapping[StarKey, float]) -> list[tuple[Star, float]]:
    return [
        (star_at(inst, center, radius), float(w))
        for (center, radius), w in sorted(weights.items())
        if w > 0.0
    ]


def most_violated_cut(inst: Instance, weights: Mapping[StarKey, float]) -> CutViolation | None:
    """Find the vertex subset whose entering weight falls furthest below 1.

    Builds one flow network: a node per vertex, a node per supported star, an
    arc center->star with capacity y_S, and star->leaf arcs with effectively
    infinite capacity.  Min cuts from vertex 0 to each t (subsets avoiding 0)
    and from each t back to 0 (subsets containing 0) together range over every
    proper nonempty subset; the capacities are restored before each max-flow.
    Returns None when all loads reach 1 - _CUT_TOL.
    """
    n = inst.n
    if n <= 1:
        return None
    support = _support(inst, weights)
    max_y = max((w for _, w in support), default=0.0)
    inf_cap = n * max_y + 1.0  # exceeds 1, so never part of a violated cut

    net = _FlowNetwork(n + len(support))
    for i, (star, w) in enumerate(support):
        net.add_edge(star.center, n + i, w)
        for leaf in sorted(star.leaves):
            net.add_edge(n + i, leaf, inf_cap)
    capacities = net.cap[:]

    best: CutViolation | None = None
    for t in range(1, n):
        for s, sink in ((0, t), (t, 0)):
            net.cap[:] = capacities
            value, side = net.max_flow(s, sink)
            if value >= 1.0 - _CUT_TOL:
                continue
            subset = frozenset(v for v in range(n) if v not in side)
            load = cut_load(support, subset)
            if abs(load - value) > _VALUE_TOL:
                raise LpError(
                    f"cut load {load} disagrees with flow value {value} for {sorted(subset)}"
                )
            if load < 1.0 - _CUT_TOL and (best is None or load < best.load):
                best = CutViolation(subset, load)
    return best


class _Master:
    """The restricted master, kept optimal from one cut round to the next.

    Minimize costs . y over y >= 0 with cuts @ y >= 1, where cuts holds one 0/1
    row per cut (its entering stars) and column j is star j.  Variable j <
    nstars is star j and nstars + i is row i's surplus; the basis holds one
    variable per row, and each pivot factors the rows x rows basis afresh.
    The dual simplex keeps every reduced cost c - pi [A | -I] nonnegative and
    drives out a negative basic value.  A new row enters with its surplus basic,
    which leaves the reduced costs as they were, so solve() resumes from the
    previous optimal basis.  The smallest-index negative basic variable
    leaves and the smallest index among ratio-test ties enters: Bland's rule
    on the complementary dual basis, which rules out cycling.
    """

    def __init__(self, costs: np.ndarray):
        self.costs = costs
        self.cuts = np.zeros((0, len(costs)))
        self.basis: list[int] = []
        self.pivots = 0

    def add_row(self, row: np.ndarray) -> None:
        self.basis.append(len(self.costs) + len(self.basis))
        self.cuts = np.vstack([self.cuts, row])

    def solve(self) -> tuple[np.ndarray, float]:
        m, nstars = self.cuts.shape
        full = np.hstack([self.cuts, -np.eye(m)])  # [A | -I]: stars, then surpluses
        cost = np.concatenate([self.costs, np.zeros(m)])
        pivot_cap = 200 * (nstars + m)
        for _ in range(pivot_cap):
            basis = np.array(self.basis)
            try:
                binv = np.linalg.inv(full[:, basis])
            except np.linalg.LinAlgError:
                raise LpError("singular basis in restricted master") from None
            x = binv.sum(axis=1)  # B^-1 1
            pi = cost[basis] @ binv
            negative = np.flatnonzero(x < -_FEAS_TOL)
            if negative.size == 0:
                break
            leave = negative[np.argmin(basis[negative])]  # Bland: smallest index
            alpha = binv[leave] @ full
            alpha[basis] = 0.0  # only nonbasic variables may enter
            candidates = np.flatnonzero(alpha < -_FEAS_TOL)
            if candidates.size == 0:
                raise LpError("restricted master is infeasible; cut rows are inconsistent")
            ratios = (cost[candidates] - pi @ full[:, candidates]) / -alpha[candidates]
            # Bland: smallest index among ratio ties
            self.basis[leave] = int(candidates[ratios <= ratios.min() + _FEAS_TOL][0])
            self.pivots += 1
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
    restricted master with max-flow separation until no cut is violated by
    more than _CUT_TOL.  Each round adds a constraint the master did not have,
    so the loop terminates; the final separation sweep is the certificate.
    """
    n = inst.n
    stars = enumerate_stars(inst)
    if n == 1:
        return FractionalSolution({}, 0.0, 0, 0, 0)
    # scale the costs exactly, by a power of two, to a largest cost in [1/2, 1)
    exponent = math.frexp(max(s.radius for s in stars))[1]
    costs = np.ldexp([s.radius for s in stars], -exponent)
    keys = [(s.center, s.radius) for s in stars]
    centers = np.array([s.center for s in stars])
    leaf = np.zeros((len(stars), n), dtype=bool)  # leaf[j, v]: v is a leaf of star j
    for j, s in enumerate(stars):
        leaf[j, list(s.leaves)] = True
    master = _Master(costs)
    seen_rows: set[bytes] = set()

    def add_cut(subset: frozenset[int]) -> bool:
        """Add the row of the stars entering subset, unless the master has it."""
        inside = np.zeros(n, dtype=bool)
        inside[list(subset)] = True
        row = leaf[:, inside].any(1) & ~inside[centers]
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
        weights = {keys[j]: float(y[j]) for j in range(len(stars)) if y[j] > 1e-12}
        violation = most_violated_cut(inst, weights)
        if violation is None:
            value = math.ldexp(value, exponent)  # back to the instance's cost scale
            return FractionalSolution(weights, value, round_no, len(seen_rows), master.pivots)
        if not add_cut(violation.subset):
            raise LpError(
                f"separation returned an existing constraint (load {violation.load}); "
                "tolerance ladder is inconsistent"
            )
    raise LpError(f"no convergence after {_MAX_ROUNDS} cut rounds")
