"""Benchmark workloads, the per-instance pipeline and its correctness gate.

Every call into the package goes through a module attribute
(``mp_greedy.greedy_solve``, ``GeneratorSpec.build`` -> ``gen_line`` ...), so
the tracer can wrap each function where its caller looks it up.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from minpower import exact as mp_exact
from minpower import graph as mp_graph
from minpower import greedy as mp_greedy
from minpower import lpbound as mp_lpbound
from minpower.instances import GeneratorSpec

# tolerances of tests/test_acceptance.py: 1e-9 wherever the LP value is absent,
# 1e-6 for comparisons against the LP value
ABS_TOL = 1e-9
LP_TOL = 1e-6
RATIO = mp_greedy.ratio_bound(0.5)
EXACT_LIMITS = mp_exact.SearchLimits(max_vertices=10)

LINE = GeneratorSpec("line", 150, epsilon=2.0**-7)
KAPPAS = (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class Record:
    """The fields a ``minpower solve`` record carries, plus the work counters."""

    label: str
    line_n: int | None  # line family: the MST baseline power must be exactly 2n
    c_mst: float
    mst_power: float
    greedy_power: float
    star_power: float
    trace: tuple[tuple[int, float], ...]  # (center, radius) per greedy iteration
    certificate_failures: tuple[str, ...]
    exact_status: str | None = None
    exact_opt: float | None = None
    exact_nodes: int = 0
    lp_value: float | None = None
    lp_error: str | None = None
    lp_rounds: int = 0
    lp_constraints: int = 0

    def digest_line(self) -> str:
        """Canonical text of the outputs: floats to the bit, the LP to 6 places."""
        return json.dumps(
            [
                self.label,
                self.c_mst.hex(),
                self.mst_power.hex(),
                self.greedy_power.hex(),
                self.star_power.hex(),
                [[center, radius.hex()] for center, radius in self.trace],
                self.exact_status,
                None if self.exact_opt is None else self.exact_opt.hex(),
                None if self.lp_value is None else round(self.lp_value, 6),
            ]
        )


@dataclass(frozen=True)
class Workload:
    """A closed-loop client that solves the same instances pass after pass.

    Every pass solves ``instances`` in order, so the times of one instance
    across passes are repeated measurements of the same work.
    """

    name: str
    exact: bool
    lp: bool
    warmup: GeneratorSpec
    instances: tuple[GeneratorSpec, ...]


def mst_baseline(inst: mp_graph.Instance) -> tuple[float, float]:
    """c(MST) and the power of the bidirected MST, the factor-2 baseline."""
    tree = mp_graph.minimum_spanning_tree(inst)
    return tree.total_cost, mp_graph.power_of(inst, mp_graph.bidirect(tree)).total


def solve_instance(spec: GeneratorSpec, exact: bool, lp: bool) -> Record:
    """generate -> MST baseline -> greedy -> certify [-> exact] [-> LP bound]."""
    inst, _ = spec.build()
    c_mst, mst_power = mst_baseline(inst)
    sol = mp_greedy.greedy_solve(inst)
    report = mp_greedy.certify(sol)
    fields = {}
    if exact:
        result = mp_exact.exact_optimum(inst, EXACT_LIMITS)
        fields.update(exact_status=result.status, exact_opt=result.opt, exact_nodes=result.nodes)
    if lp:
        try:
            frac = mp_lpbound.lp_lower_bound(inst)
        except mp_lpbound.LpError as exc:
            fields["lp_error"] = str(exc)
        else:
            fields.update(lp_value=frac.value, lp_rounds=frac.rounds, lp_constraints=frac.constraints)
    return Record(
        label=spec.canonical(),
        line_n=spec.n if spec.family == "line" else None,
        c_mst=c_mst,
        mst_power=mst_power,
        greedy_power=sol.total_power,
        star_power=sol.star_power,
        trace=tuple((e.star.center, e.star.radius) for e in sol.trace),
        certificate_failures=tuple(report.failures()),
        **fields,
    )


def check(rec: Record) -> list[str]:
    """Every guarantee the record's outputs must satisfy; empty when correct."""
    bad = [f"certificate {name} failed" for name in rec.certificate_failures]
    c, g = rec.c_mst, rec.greedy_power
    if g > 2.0 * c + ABS_TOL:
        bad.append(f"greedy {g!r} above 2 c(MST) {2.0 * c!r}")
    if rec.line_n is not None and rec.mst_power != 2 * rec.line_n:
        bad.append(f"line MST power {rec.mst_power!r} is not exactly 2n = {2 * rec.line_n}")
    opt = None
    if rec.exact_status is not None:
        if rec.exact_status != "optimal":
            bad.append(f"exact oracle {rec.exact_status}")
        else:
            opt = rec.exact_opt
            if not c <= opt + ABS_TOL:
                bad.append(f"c(MST) {c!r} above opt {opt!r}")
            if not opt <= g + ABS_TOL:
                bad.append(f"greedy {g!r} below opt {opt!r}")
            if not g <= RATIO * opt + ABS_TOL:
                bad.append(f"greedy {g!r} above {RATIO:.4f} opt {opt!r}")
    if rec.lp_error is not None:
        bad.append(f"LP bound failed: {rec.lp_error}")
    elif rec.lp_value is not None:
        lp = rec.lp_value
        if not c - LP_TOL <= lp:
            bad.append(f"LP {lp!r} below c(MST) {c!r}")
        if opt is not None and not lp <= opt + LP_TOL:
            bad.append(f"LP {lp!r} above opt {opt!r}")
        if not lp <= g + LP_TOL:
            bad.append(f"LP {lp!r} above greedy {g!r}")
        if not g <= RATIO * lp + LP_TOL:
            bad.append(f"greedy {g!r} above {RATIO:.4f} LP {lp!r}")
    return bad


def digest(records: list[Record]) -> str:
    """Order-free hash of a pass's outputs (sha256 over sorted digest lines)."""
    h = hashlib.sha256()
    for line in sorted(rec.digest_line() for rec in records):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _rgg(n: int, kappa: float, seed: int, complete: bool = True) -> GeneratorSpec:
    return GeneratorSpec("random-geometric", n, kappa=kappa, seed=seed, complete=complete)


def _corpus(sizes: tuple[int, ...], per_cell: int) -> tuple[GeneratorSpec, ...]:
    cells = [(n, kappa) for kappa in KAPPAS for n in sizes]
    return tuple(
        _rgg(n, kappa, seed=i * len(cells) + j)
        for i in range(per_cell)
        for j, (n, kappa) in enumerate(cells)
    )


# Every input is fixed, whatever the run's seed: exact-search and LP times are
# heavy-tailed across random instances, so seed-drawn corpora made 30-second
# runs differ by 15-30%, and greedy times of seed-drawn n=300 instances differ
# by 5-15%.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "greedy-large",
            exact=False,
            lp=False,
            warmup=_rgg(16, 2.0, 0, complete=False),
            instances=(
                LINE,
                _rgg(300, 2.0, seed=0),
                _rgg(300, 2.0, seed=1, complete=False),
            ),
        ),
        Workload(
            "oracle-sweep",
            exact=True,
            lp=True,
            warmup=_rgg(8, 2.0, 0),
            instances=_corpus((8, 9, 10), per_cell=3),
        ),
        Workload(
            "lp-mid",
            exact=False,
            lp=True,
            warmup=_rgg(8, 2.0, 0),
            instances=_corpus((14, 17, 20), per_cell=2),
        ),
    )
}
