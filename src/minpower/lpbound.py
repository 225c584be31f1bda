"""Fractional star-cover lower bound via lazy cut generation.

The bound is the optimum of: minimize sum_S y_S * power(S) subject to, for
every proper nonempty vertex subset X, the stars entering X (center outside X,
some vertex inside) carrying total weight at least 1.  Its optimum sits
between the spanning-tree cost and the integral optimum, and the greedy output
is within the same 1.85 factor of it.

Rather than shipping the exponentially many cut rows (or the equivalent large
flow formulation) up front, a restricted master over all canonical stars is
solved by a small dense simplex and violated cuts are found on demand by
max-flow in a star-expanded network, fixing vertex 0 as the root and running
both flow directions to every other vertex.
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


class _Dinic:
    def __init__(self, n: int):
        self.n = n
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

    def max_flow(self, s: int, t: int) -> float:
        flow = 0.0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            qi = 0
            while qi < len(queue):
                u = queue[qi]
                qi += 1
                for e in self.head[u]:
                    v = self.to[e]
                    if level[v] < 0 and self.cap[e] > _FEAS_TOL:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: float) -> float:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    e = self.head[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > _FEAS_TOL and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[e]))
                        if got > 0.0:
                            self.cap[e] -= got
                            self.cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0.0

            while True:
                pushed = dfs(s, float("inf"))
                if pushed <= 0.0:
                    break
                flow += pushed

    def source_side(self, s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for e in self.head[u]:
                v = self.to[e]
                if v not in seen and self.cap[e] > _FEAS_TOL:
                    seen.add(v)
                    stack.append(v)
        return seen


def _support(inst: Instance, weights: Mapping[StarKey, float]) -> list[tuple[Star, float]]:
    return [
        (star_at(inst, center, radius), float(w))
        for (center, radius), w in sorted(weights.items())
        if w > 0.0
    ]


def most_violated_cut(
    inst: Instance,
    solution: "FractionalSolution | Mapping[StarKey, float]",
    tol: float = _CUT_TOL,
) -> CutViolation | None:
    """Find the vertex subset whose entering weight falls furthest below 1.

    Builds one flow network: a node per vertex, a node per supported star, an
    arc center->star with capacity y_S, and star->leaf arcs with effectively
    infinite capacity.  Min cuts from vertex 0 to each t (subsets avoiding 0)
    and from each t back to 0 (subsets containing 0) together range over every
    proper nonempty subset.  Returns None when all loads reach 1 - tol.
    """
    weights = solution.weights if isinstance(solution, FractionalSolution) else solution
    n = inst.n
    if n <= 1:
        return None
    support = _support(inst, weights)
    max_y = max((w for _, w in support), default=0.0)
    inf_cap = n * max_y + 1.0  # exceeds 1, so never part of a violated cut

    def build() -> _Dinic:
        net = _Dinic(n + len(support))
        for i, (star, w) in enumerate(support):
            net.add_edge(star.center, n + i, w)
            for leaf in sorted(star.leaves):
                net.add_edge(n + i, leaf, inf_cap)
        return net

    best: CutViolation | None = None
    for t in range(1, n):
        for s, sink in ((0, t), (t, 0)):
            net = build()
            value = net.max_flow(s, sink)
            if value >= 1.0 - tol:
                continue
            side = net.source_side(s)
            subset = frozenset(v for v in range(n) if v not in side)
            load = cut_load(support, subset)
            if abs(load - value) > _VALUE_TOL:
                raise LpError(
                    f"cut load {load} disagrees with flow value {value} for {sorted(subset)}"
                )
            if load < 1.0 - tol and (best is None or load < best.load):
                best = CutViolation(subset, load)
    return best


def _solve_restricted(costs: np.ndarray, rows: list[set[int]]) -> tuple[np.ndarray, float]:
    """Minimize costs . y over y >= 0 with sum of y over each row's stars >= 1.

    Solved as the dual maximization (one variable per row, one constraint per
    star) so the all-slack basis is feasible from the start; Bland's rule picks
    pivots, which rules out cycling.  The primal weights are read off the slack
    columns' reduced costs at optimality.
    """
    nstars = len(costs)
    nrows = len(rows)
    if nrows == 0:
        return np.zeros(nstars), 0.0
    tableau = np.zeros((nstars, nrows + nstars + 1))
    for i, row in enumerate(rows):
        for j in row:
            tableau[j, i] = 1.0
    tableau[:, nrows : nrows + nstars] = np.eye(nstars)
    tableau[:, -1] = costs
    obj = np.zeros(nrows + nstars)
    obj[:nrows] = 1.0
    basis = list(range(nrows, nrows + nstars))

    pivot_cap = 200 * (nrows + nstars)
    for _ in range(pivot_cap):
        cb = obj[basis]
        reduced = cb @ tableau[:, :-1] - obj
        entering = -1
        for j in range(nrows + nstars):  # Bland: smallest improving index
            if reduced[j] < -_FEAS_TOL:
                entering = j
                break
        if entering < 0:
            break
        col = tableau[:, entering]
        leave = -1
        best_ratio = float("inf")
        for i in range(nstars):
            if col[i] > _FEAS_TOL:
                ratio = tableau[i, -1] / col[i]
                if leave < 0 or ratio < best_ratio - _FEAS_TOL:
                    best_ratio = ratio
                    leave = i
                elif ratio <= best_ratio + _FEAS_TOL and basis[i] < basis[leave]:
                    leave = i  # Bland: smallest basic index among ratio ties
        if leave < 0:
            raise LpError("restricted master is unbounded; cut rows are inconsistent")
        pivot = tableau[leave, entering]
        tableau[leave] /= pivot
        for i in range(nstars):
            if i != leave and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leave]
        basis[leave] = entering
    else:
        raise LpError(f"simplex exceeded {pivot_cap} pivots; conditioning problem")

    cb = obj[basis]
    value = float(cb @ tableau[:, -1])
    reduced = cb @ tableau[:, :-1] - obj
    y = np.maximum(reduced[nrows : nrows + nstars], 0.0)
    primal_value = float(costs @ y)
    if abs(primal_value - value) > _VALUE_TOL * max(1.0, abs(value)):
        raise LpError(f"duality gap {primal_value} vs {value} in restricted master")
    return y, value


def lp_lower_bound(inst: Instance, tol: float = _CUT_TOL, max_rounds: int = 10_000) -> FractionalSolution:
    """Optimum of the fractional star-cover relaxation, certified by separation.

    Seeds the master with the singleton cuts in both directions (every vertex
    must be entered, every vertex must buy a star), then alternates solving the
    restricted master with max-flow separation until no cut is violated by
    more than tol.  Each round adds a constraint the master did not have, so
    the loop terminates; the final separation sweep is the certificate.
    """
    n = inst.n
    stars = enumerate_stars(inst)
    if n == 1:
        return FractionalSolution({}, 0.0, 0, 0)
    costs = np.array([s.radius for s in stars])
    keys = [(s.center, s.radius) for s in stars]

    rows: list[set[int]] = []
    seen_rows: set[frozenset[int]] = set()

    def add_row(members: set[int]) -> bool:
        frozen = frozenset(members)
        if frozen in seen_rows:
            return False
        seen_rows.add(frozen)
        rows.append(members)
        return True

    for v in range(n):
        add_row({j for j, s in enumerate(stars) if s.center != v and v in s.leaves})
        add_row({j for j, s in enumerate(stars) if s.center == v})

    for round_no in range(1, max_rounds + 1):
        y, value = _solve_restricted(costs, rows)
        weights = {keys[j]: float(y[j]) for j in range(len(stars)) if y[j] > 1e-12}
        violation = most_violated_cut(inst, weights, tol)
        if violation is None:
            return FractionalSolution(weights, value, round_no, len(rows))
        members = {j for j, s in enumerate(stars) if enters_cut(s, violation.subset)}
        if not add_row(members):
            raise LpError(
                f"separation returned an existing constraint (load {violation.load}); "
                "tolerance ladder is inconsistent"
            )
    raise LpError(f"no convergence after {max_rounds} cut rounds")
