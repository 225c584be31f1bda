"""Fractional star-cover lower bound via lazy cut generation.

The bound is the optimum of: minimize sum_S y_S * power(S) subject to, for
every proper nonempty vertex subset X, the stars entering X (center outside X,
some vertex inside) carrying total weight at least 1.  Its optimum sits
between the spanning-tree cost and the integral optimum, and the greedy output
is within the same 1.85 factor of it.

Rather than shipping the exponentially many cut rows (or the equivalent large
flow formulation) up front, a restricted master over all canonical stars is
solved by a small dense simplex, resumed from the previous round's optimal
basis after each new cut, and violated cuts are found on demand by
shortest-augmenting-path max-flow in a star-expanded network, fixing vertex 0
as the root and running both flow directions to every other vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from minpower.graph import Instance
from minpower.stars import Star, enumerate_stars, star_at

_FEAS_TOL = 1e-9  # simplex pivot / feasibility
_CUT_TOL = 1e-7  # cut violation threshold
_VALUE_TOL = 1e-6  # reported-value agreement
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


def most_violated_cut(
    inst: Instance,
    weights: Mapping[StarKey, float],
    tol: float = _CUT_TOL,
) -> CutViolation | None:
    """Find the vertex subset whose entering weight falls furthest below 1.

    Builds one flow network: a node per vertex, a node per supported star, an
    arc center->star with capacity y_S, and star->leaf arcs with effectively
    infinite capacity.  Min cuts from vertex 0 to each t (subsets avoiding 0)
    and from each t back to 0 (subsets containing 0) together range over every
    proper nonempty subset; the capacities are restored before each max-flow.
    Returns None when all loads reach 1 - tol.
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
            if value >= 1.0 - tol:
                continue
            subset = frozenset(v for v in range(n) if v not in side)
            load = cut_load(support, subset)
            if abs(load - value) > _VALUE_TOL:
                raise LpError(
                    f"cut load {load} disagrees with flow value {value} for {sorted(subset)}"
                )
            if load < 1.0 - tol and (best is None or load < best.load):
                best = CutViolation(subset, load)
    return best


class _Master:
    """The restricted master, kept optimal from one cut round to the next.

    Minimize costs . y over y >= 0 with the sum of y over each row's stars at
    least 1, solved as the dual maximization: one variable per row, one
    constraint per star, so the all-slack basis is feasible from the start.
    The tableau has a row per star plus the objective row, and its columns are
    the star slacks followed by the rows in the order they were added.  The
    slack block is B^-1, so a new row a enters as the column B^-1 a at value 0:
    the previous optimal basis stays feasible and solve() resumes from it.
    Bland's rule picks pivots, which rules out cycling; the primal weights are
    read off the slack columns' reduced costs at optimality.
    """

    def __init__(self, costs: np.ndarray):
        nstars = len(costs)
        self.costs = costs
        self.nstars = nstars
        self.ncols = nstars
        # the capacity for row columns doubles as rows arrive; the last tableau
        # row is the objective row of reduced costs
        self.tableau = np.zeros((nstars + 1, nstars + 16))
        self.tableau[:nstars, :nstars] = np.eye(nstars)
        self.rhs = costs.astype(float)
        self.basis = np.arange(nstars)
        self.pivots = 0

    def add_row(self, members: Iterable[int]) -> None:
        if self.ncols == self.tableau.shape[1]:
            grown = np.zeros((self.nstars + 1, 2 * self.ncols - self.nstars))
            grown[:, : self.ncols] = self.tableau
            self.tableau = grown
        a = np.zeros(self.nstars)
        a[list(members)] = 1.0
        col = self.tableau[:, : self.nstars] @ a  # B^-1 a, and y . a
        col[-1] -= 1.0  # the new dual variable's objective coefficient
        self.tableau[:, self.ncols] = col
        self.ncols += 1

    def solve(self) -> tuple[np.ndarray, float]:
        nstars = self.nstars
        tableau = self.tableau[:, : self.ncols]
        rhs = self.rhs
        basis = self.basis
        pivot_cap = 200 * self.ncols
        for _ in range(pivot_cap):
            improving = np.flatnonzero(tableau[-1] < -_FEAS_TOL)
            if improving.size == 0:
                break
            entering = improving[0]  # Bland: smallest improving index
            col = tableau[:nstars, entering]
            candidates = np.flatnonzero(col > _FEAS_TOL)
            if candidates.size == 0:
                raise LpError("restricted master is unbounded; cut rows are inconsistent")
            ratios = rhs[candidates] / col[candidates]
            ties = candidates[ratios <= ratios.min() + _FEAS_TOL]
            leave = ties[np.argmin(basis[ties])]  # Bland: smallest basic index among ratio ties
            pivot_col = tableau[:, entering].copy()
            tableau[leave] /= pivot_col[leave]
            rhs[leave] /= pivot_col[leave]
            pivot_col[leave] = 0.0
            # about a third of the rows at n = 20; blocks of 64 rows keep the
            # rank-one update's temporaries small
            touched = np.flatnonzero(pivot_col)
            for block in np.array_split(touched, len(touched) // 64 + 1):
                tableau[block] -= np.outer(pivot_col[block], tableau[leave])
            rhs -= pivot_col[:nstars] * rhs[leave]
            basis[leave] = entering
            self.pivots += 1
        else:
            raise LpError(f"simplex exceeded {pivot_cap} pivots; conditioning problem")

        cb = (basis >= nstars).astype(float)
        value = float(cb @ rhs)
        y = np.maximum(cb @ tableau[:nstars, :nstars], 0.0)
        primal_value = float(self.costs @ y)
        if abs(primal_value - value) > _VALUE_TOL * max(1.0, abs(value)):
            raise LpError(f"duality gap {primal_value} vs {value} in restricted master")
        return y, value


def check_cut_tolerance(tol: float) -> None:
    """A cut tolerance tau only guarantees value >= (1 - tau) * LP, so it must
    lie in [0, _VALUE_TOL] for the value to be the bound it is reported as."""
    if not 0.0 <= tol <= _VALUE_TOL:
        raise ValueError(f"cut tolerance {tol!r} is outside [0, {_VALUE_TOL:g}]")


def lp_lower_bound(inst: Instance, tol: float = _CUT_TOL) -> FractionalSolution:
    """Optimum of the fractional star-cover relaxation, certified by separation.

    Seeds the master with the singleton cuts in both directions (every vertex
    must be entered, every vertex must buy a star), then alternates solving the
    restricted master with max-flow separation until no cut is violated by
    more than tol.  Each round adds a constraint the master did not have, so
    the loop terminates; the final separation sweep is the certificate.
    """
    check_cut_tolerance(tol)
    n = inst.n
    stars = enumerate_stars(inst)
    if n == 1:
        return FractionalSolution({}, 0.0, 0, 0, 0)
    costs = np.array([s.radius for s in stars])
    keys = [(s.center, s.radius) for s in stars]
    master = _Master(costs)
    seen_rows: set[frozenset[int]] = set()

    def add_cut(subset: frozenset[int]) -> bool:
        """Add the row of the stars entering subset, unless the master has it."""
        members = frozenset(j for j, s in enumerate(stars) if enters_cut(s, subset))
        if members in seen_rows:
            return False
        seen_rows.add(members)
        master.add_row(members)
        return True

    everyone = frozenset(range(n))
    for v in range(n):
        add_cut(frozenset((v,)))
        add_cut(everyone - {v})

    for round_no in range(1, _MAX_ROUNDS + 1):
        y, value = master.solve()
        weights = {keys[j]: float(y[j]) for j in range(len(stars)) if y[j] > 1e-12}
        violation = most_violated_cut(inst, weights, tol)
        if violation is None:
            return FractionalSolution(weights, value, round_no, len(seen_rows), master.pivots)
        if not add_cut(violation.subset):
            raise LpError(
                f"separation returned an existing constraint (load {violation.load}); "
                "tolerance ladder is inconsistent"
            )
    raise LpError(f"no convergence after {_MAX_ROUNDS} cut rounds")
