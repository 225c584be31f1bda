"""Exact oracle for small instances: an LP certificate first, then branch and
bound for what the certificate leaves open.

Any optimal power assignment can be rounded down so every vertex's power is
either 0 or one of its incident costs (power only matters through which arcs
it enables).  The oracle first solves the cut LP of lpbound, whose value is a
lower bound on the optimum, and rounds its support up to an integral
assignment: each vertex takes the largest radius among its stars of positive
weight.  The LP's final separation sweep shows every proper vertex subset
entered by positive weight, so the support arcs make the rounding strongly
connected.  When the better of the rounding and the greedy solution costs at
most (1 + _CERT_TOL) times the LP value, it is optimal and no search runs.

Otherwise the search branches over the finite level sets, seeded with that
incumbent.  Partial assignments are pruned against the sum of remaining
minimum levels, the search stops as soon as the incumbent meets the LP bound,
and a blown budget yields an explicit "inconclusive" result rather than a
wrong optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Mapping

from minpower import lpbound
from minpower.graph import Instance, PowerAssignment, induced_arcs, is_strongly_connected
from minpower.greedy import Solution, greedy_solve
from minpower.lpbound import _CERT_TOL, FractionalSolution, LpError, StarKey


@dataclass(frozen=True)
class SearchLimits:
    max_vertices: int = 9
    max_nodes: int = 5_000_000
    time_budget: float = 30.0

    def __post_init__(self) -> None:
        if self.max_vertices < 1 or self.max_nodes < 1 or self.time_budget <= 0:
            raise ValueError("search limits must be positive")


@dataclass(frozen=True)
class ExactResult:
    """Outcome of a search; opt is only the true optimum when status is optimal."""

    status: str  # "optimal" or "inconclusive"
    opt: float
    assignment: PowerAssignment
    nodes: int
    limit: str | None = None  # the SearchLimits field that stopped an inconclusive search
    proof: str | None = None  # "lp" (the LP bound, no search) or "search"; None if inconclusive
    bound: FractionalSolution | None = None  # the LP the oracle solved; None if it raised LpError

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def verify_assignment(inst: Instance, assignment: PowerAssignment) -> bool:
    """True iff the assignment's induced arc set is strongly connected."""
    return is_strongly_connected(inst, induced_arcs(inst, assignment))


def _induced_strongly_connected(inst: Instance, p: list[float]) -> bool:
    # leaf feasibility test, kept separate from verify_assignment so the
    # brute-force differential exercises two independent code paths
    n = inst.n
    adj = inst.adj
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        pu = p[u]
        for c, v in adj[u]:
            if c > pu:
                break
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    if count != n:
        return False
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for c, v in adj[u]:
            if not seen[v] and p[v] >= c:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == n


def _round_lp_support(n: int, weights: Mapping[StarKey, float]) -> list[float]:
    """Give each vertex the largest radius among its stars of positive weight."""
    p = [0.0] * n
    for (center, radius), w in weights.items():
        if w > 0.0 and radius > p[center]:
            p[center] = radius
    return p


def exact_optimum(
    inst: Instance, limits: SearchLimits | None = None, *, incumbent: Solution | None = None
) -> ExactResult:
    """Minimum total power with a verifying witness assignment.

    The incumbent is the better of the greedy solution and the rounded LP
    support; it is returned with proof "lp" when the LP bound certifies it.
    Otherwise vertices are assigned in decreasing-degree order, levels are
    tried from high to low, and a branch is cut once its committed power plus
    the minimum completion cannot beat the incumbent.  The search stops once
    the incumbent meets the LP bound, or once a limit trips.  An LpError
    leaves the search to prove optimality on its own.  The result carries the
    LP as its bound, so callers that report the LP need not solve it again.
    A caller that has already run greedy_solve(inst) passes that solution as
    incumbent, so the greedy and its spanning tree do not run twice.
    """
    limits = limits or SearchLimits()
    n = inst.n
    if n > limits.max_vertices:
        raise ValueError(f"instance has {n} vertices, limit is {limits.max_vertices}")

    start = perf_counter()
    if incumbent is None:
        incumbent = greedy_solve(inst)
    elif incumbent.inst != inst:
        raise ValueError("incumbent solves a different instance")
    best = incumbent.total_power
    best_assign = list(incumbent.powers.levels)

    frac: FractionalSolution | None = None
    try:
        frac = lpbound.lp_lower_bound(inst)  # looked up on the module, so wrappers set there apply
    except LpError:
        certified = -math.inf  # no bound: only a finished search proves optimality
    else:
        certified = frac.value * (1.0 + _CERT_TOL)
        rounded = _round_lp_support(n, frac.weights)
        total = float(sum(rounded))  # canonical vertex-order sum
        if total < best and _induced_strongly_connected(inst, rounded):
            best = total
            best_assign = rounded
        if best <= certified:
            return ExactResult(
                "optimal", best, PowerAssignment(tuple(best_assign)), 0, proof="lp", bound=frac
            )

    # strong connectivity needs an outgoing arc everywhere, so level 0 is only
    # viable when a zero-cost edge provides it; incident costs cover that case
    levels = [sorted({c for c, _ in inst.adj[v]}, reverse=True) for v in range(n)]
    order = sorted(range(n), key=lambda v: (-len(inst.adj[v]), v))
    suffix_min = [0.0] * (n + 1)
    for i in reversed(range(n)):
        suffix_min[i] = suffix_min[i + 1] + levels[order[i]][-1]

    p = [0.0] * n
    nodes = 0
    limit: str | None = None
    stop = False  # a limit tripped, or the incumbent met the LP bound

    def dfs(i: int, partial: float) -> None:
        nonlocal nodes, best, best_assign, limit, stop
        nodes += 1
        if stop:
            return
        if nodes > limits.max_nodes:
            limit = "max_nodes"
            stop = True
            return
        if nodes % 4096 == 0 and perf_counter() - start > limits.time_budget:
            limit = "time_budget"
            stop = True
            return
        if partial + suffix_min[i] >= best:
            return
        if i == n:
            total = float(sum(p))  # canonical vertex-order sum
            if total < best and _induced_strongly_connected(inst, p):
                best = total
                best_assign = p.copy()
                stop = best <= certified
            return
        v = order[i]
        tail = suffix_min[i + 1]
        for lev in levels[v]:
            if partial + lev + tail >= best:
                continue
            p[v] = lev
            dfs(i + 1, partial + lev)
            if stop:
                return
        p[v] = 0.0

    dfs(0, 0.0)
    status, proof = ("optimal", "search") if limit is None else ("inconclusive", None)
    return ExactResult(status, best, PowerAssignment(tuple(best_assign)), nodes, limit, proof, frac)


def brute_force_optimum(inst: Instance) -> tuple[float, PowerAssignment]:
    """Unpruned enumeration over {0} + incident-cost levels; ground truth for n <= 6."""
    n = inst.n
    if n > 6:
        raise ValueError("brute force is limited to n <= 6")
    if n == 1:
        return 0.0, PowerAssignment((0.0,))
    level_sets = [[0.0] + sorted({c for c, _ in inst.adj[v]}) for v in range(n)]
    best = float("inf")
    best_p: tuple[float, ...] | None = None
    for combo in itertools.product(*level_sets):
        total = float(sum(combo))
        if total >= best:
            continue
        assignment = PowerAssignment(combo)
        if verify_assignment(inst, assignment):
            best = total
            best_p = combo
    assert best_p is not None  # connected instances always admit a solution
    return best, PowerAssignment(best_p)
