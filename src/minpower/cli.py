"""Command-line front end: generate, solve, verify, and batch-benchmark.

Exit codes: 0 all checks pass, 1 usage or I/O error, 2 a certificate failure,
3 exact oracle unavailable or inconclusive when --exact was given; 2 outranks 3.
A run's failures are listed by name in its record: the greedy certificates,
lp_bound when the LP fails, and each inequality of the paper's bracket
c(MST) <= LP <= opt <= greedy <= 1.85 opt, greedy <= 1.85 LP that the
computed values break.

Structured records are line-delimited JSON with sorted keys and no wall-clock
fields, so a given (instance, flags) pair always produces identical bytes;
timings appear only in the human table view.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from time import perf_counter

from minpower.exact import SearchLimits, exact_optimum, verify_assignment
from minpower.graph import Instance, InstanceError, bidirect, power_of
from minpower.greedy import _REL_TOL, _leq, certify, greedy_solve, ratio_bound
from minpower.instances import (
    GeneratorSpec,
    read_assignment,
    read_generator_comment,
    read_instance,
    write_assignment,
    write_instance,
)
from minpower.lpbound import _VALUE_TOL, FractionalSolution, LpError, lp_lower_bound

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERT = 2
EXIT_INCONCLUSIVE = 3

_RATIO = ratio_bound(0.5)

_SEVERITY = (EXIT_OK, EXIT_INCONCLUSIVE, EXIT_CERT)  # a certificate failure outranks the rest


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class RunReport:
    instance: str
    n: int
    m: int
    meta: str | None
    c_mst: float
    mst_power: float
    greedy_power: float
    greedy_iterations: int
    star_power: float
    certificate_failures: list[str]
    exact_status: str | None = None
    exact_opt: float | None = None
    exact_limit: str | None = None
    exact_proof: str | None = None
    lp_value: float | None = None
    lp_rounds: int | None = None
    lp_pivots: int | None = None
    ratios: dict[str, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    # fields only the table view shows, so records stay free of wall-clock
    # time and keep their bytes
    TABLE_ONLY = ("exact_limit", "exact_proof", "lp_pivots", "timings")

    @property
    def certificates_ok(self) -> bool:
        return not self.certificate_failures

    @property
    def exact_not_optimal(self) -> bool:
        return self.exact_status not in (None, "optimal")

    def exit_status(self) -> int:
        """The run's verdict: any failure, else an exact optimum not proved, else ok."""
        if self.certificate_failures:
            return EXIT_CERT
        if self.exact_not_optimal:
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    def record(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in self.TABLE_ONLY}
        payload["certificates_ok"] = self.certificates_ok
        return json.dumps(payload, sort_keys=True)

    def table(self) -> str:
        lines = [
            f"instance        {self.instance}" + (f"  ({self.meta})" if self.meta else ""),
            f"size            n={self.n} m={self.m}",
            f"c(MST)          {self.c_mst:.6f}",
            f"MST power       {self.mst_power:.6f}",
            f"greedy power    {self.greedy_power:.6f}  "
            f"({self.greedy_iterations} iterations, star power {self.star_power:.6f})",
            f"certificates    {'ok' if self.certificates_ok else 'FAILED: ' + ', '.join(self.certificate_failures)}",
        ]
        if self.exact_status is not None:
            why = self.exact_limit or self.exact_proof
            status = self.exact_status + (f": {why}" if why else "")
            shown = f"{self.exact_opt:.6f} ({status})" if self.exact_opt is not None else status
            lines.append(f"exact optimum   {shown}")
        if self.lp_value is not None:
            lines.append(
                f"lp bound        {self.lp_value:.6f}  ({self.lp_rounds} rounds, {self.lp_pivots} pivots)"
            )
        for name, value in sorted(self.ratios.items()):
            lines.append(f"ratio {name:<16s} {value:.6f}")
        for phase, secs in sorted(self.timings.items()):
            lines.append(f"time {phase:<15s} {secs:.3f}s")
        return "\n".join(lines)


def _bracket_failures(c_mst: float, greedy: float, opt: float | None, lp: float | None) -> list[str]:
    """Names of the bracket's inequalities that the values break; opt and lp are
    None where the oracle proved no optimum or the LP did not run.  The slack is
    relative, and lpbound's _VALUE_TOL wherever the LP value takes part: the
    ladder _CUT_TOL <= _VALUE_TOL makes it cover the LP's shortfall."""
    checks = []
    if opt is not None:
        checks += [
            ("mst_within_opt", c_mst, opt, _REL_TOL),
            ("opt_within_greedy", opt, greedy, _REL_TOL),
            ("greedy_within_ratio_of_opt", greedy, _RATIO * opt, _REL_TOL),
        ]
    if lp is not None:
        checks += [
            ("mst_within_lp", c_mst, lp, _VALUE_TOL),
            ("lp_within_greedy", lp, greedy, _VALUE_TOL),
            ("greedy_within_ratio_of_lp", greedy, _RATIO * lp, _VALUE_TOL),
        ]
        if opt is not None:
            checks.append(("lp_within_opt", lp, opt, _VALUE_TOL))
    return [name for name, a, b, tol in checks if not _leq(a, b, tol)]


def _solve_instance(
    inst: Instance,
    label: str,
    meta: str | None,
    want_exact: bool,
    want_lp: bool,
    max_exact_n: int,
) -> RunReport:
    timings: dict[str, float] = {}

    t0 = perf_counter()
    solution = greedy_solve(inst)
    cert = certify(solution)
    timings["greedy"] = perf_counter() - t0

    report = RunReport(
        instance=label,
        n=inst.n,
        m=inst.m,
        meta=meta,
        c_mst=solution.tree_cost,
        mst_power=power_of(inst, bidirect(solution.tree)).total,
        greedy_power=solution.total_power,
        greedy_iterations=solution.iterations,
        star_power=solution.star_power,
        certificate_failures=cert.failures(),
        timings=timings,
    )

    opt: float | None = None  # the optimum, once the oracle has proved it
    frac: FractionalSolution | None = None  # the LP, once solved
    if want_exact:
        if inst.n > max_exact_n:
            report.exact_status = "skipped: instance too large"
        else:
            t0 = perf_counter()
            exact = exact_optimum(inst, SearchLimits(max_vertices=max_exact_n), incumbent=solution)
            timings["exact"] = perf_counter() - t0
            report.exact_status = exact.status
            report.exact_opt = exact.opt
            report.exact_limit = exact.limit
            report.exact_proof = exact.proof
            if exact.optimal:
                opt = exact.opt
            frac = exact.bound

    lp: float | None = None  # the unrounded bound, once computed
    if want_lp:
        if frac is None:  # no oracle ran, or its LP raised LpError, which this call raises again
            t0 = perf_counter()
            try:
                frac = lp_lower_bound(inst)
            except LpError as exc:
                print(f"lp bound failed: {exc}", file=sys.stderr)
                report.certificate_failures.append("lp_bound")
            timings["lp"] = perf_counter() - t0
        if frac is not None:
            lp = frac.value
            report.lp_value = round(lp, 6)
            report.lp_rounds = frac.rounds
            report.lp_pivots = frac.pivots

    report.certificate_failures += _bracket_failures(solution.tree_cost, solution.total_power, opt, lp)
    if opt is not None and opt > 0:
        report.ratios["greedy_vs_exact"] = round(solution.total_power / opt, 6)
        report.ratios["mst_vs_exact"] = round(report.mst_power / opt, 6)
    if lp is not None and lp > 0:
        report.ratios["greedy_vs_lp"] = round(solution.total_power / lp, 6)
    return report


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        spec = GeneratorSpec.parse(args.spec)
        inst, witness = spec.build()
    except (ValueError, InstanceError) as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    path = args.out
    try:
        write_instance(inst, path, comments=(f"generator: {spec.canonical()}",))
        if witness is not None:
            path += ".witness"
            write_assignment(witness, path)
    except OSError as exc:
        if path != args.out:  # no instance file without the witness it comes with
            os.remove(args.out)
        print(f"gen: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.out}" + (f" and {path}" if witness is not None else ""))
    return EXIT_OK


def _show(report: RunReport, fmt: str) -> RunReport:
    text = report.table() + "\n" if fmt == "table" else report.record()
    # records are ASCII JSON; a table may hold text the locale cannot encode
    encoding = sys.stdout.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding))
    return report


def _write_records(command: str, path: str, lines: list[str]) -> bool:
    """Write the records to path; on failure say so in one line and return False.

    Called with no records before any solving starts, so that an unwritable
    path costs no solver time; that call leaves an existing file as it is.
    """
    try:
        with open(path, "w" if lines else "a") as fh:
            fh.write("".join(line + "\n" for line in lines))
    except OSError as exc:
        print(f"{command}: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _finish(command: str, out: str | None, reports: list[RunReport], *extra: str) -> int:
    """Write the reports' records and the extra lines to out, if given, and
    return the most severe exit status among the reports."""
    if out is not None and not _write_records(command, out, [*(r.record() for r in reports), *extra]):
        return EXIT_USAGE
    return max((r.exit_status() for r in reports), key=_SEVERITY.index, default=EXIT_OK)


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        inst = read_instance(args.instance)
        meta = read_generator_comment(args.instance)
    except (OSError, InstanceError) as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out is not None and not _write_records("solve", args.out, []):
        return EXIT_USAGE
    report = _solve_instance(inst, args.instance, meta, args.exact, args.lp, args.max_exact_n)
    return _finish("solve", args.out, [_show(report, args.format)])


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        inst = read_instance(args.instance)
        assignment = read_assignment(args.assignment, inst.n)
    except (OSError, InstanceError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ok = verify_assignment(inst, assignment)
    print(f"total power {assignment.total:.17g}")
    print("strongly connected: pass" if ok else "strongly connected: FAIL")
    return EXIT_OK if ok else EXIT_CERT


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if ":" in text:
        lo, _, hi = text.partition(":")
        seeds = list(range(int(lo), int(hi)))
    else:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        specs = [GeneratorSpec.parse(s) for s in args.spec]
        for text in args.spec:
            if any(part.partition("=")[0].strip().lower() == "seed" for part in text.split(",")):
                raise ValueError(f"spec {text!r} sets seed=; --seeds supplies the seeds")
        seeds = _parse_seeds(args.seeds)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out is not None and not _write_records("bench", args.out, []):
        return EXIT_USAGE

    reports: list[RunReport] = []
    for spec in specs:
        run_seeds = seeds if spec.family == "random-geometric" else [spec.seed]
        for seed in run_seeds:
            spec_i = replace(spec, seed=seed)
            try:
                inst, _ = spec_i.build()
            except (ValueError, InstanceError) as exc:
                print(f"bench: {spec_i.canonical()}: {exc}", file=sys.stderr)
                return EXIT_USAGE
            label = spec_i.canonical()
            report = _solve_instance(inst, label, label, args.exact, args.lp, args.max_exact_n)
            reports.append(_show(report, args.format))

    worst: dict[str, float] = {}
    for report in reports:
        for name, value in report.ratios.items():
            worst[name] = max(worst.get(name, 0.0), value)
    summary = {
        "summary": {
            "instances": len(reports),
            "certificate_failures": sum(not r.certificates_ok for r in reports),
            "exact_not_optimal": sum(r.exact_not_optimal for r in reports),
            "worst_ratios": worst,  # sort_keys orders it
        }
    }
    summary_line = json.dumps(summary, sort_keys=True)
    print(summary_line)
    return _finish("bench", args.out, reports, summary_line)


def _vertex_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minpower", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file from a spec string")
    p_gen.add_argument("spec", help="e.g. family=line,n=20,eps=0.01")
    p_gen.add_argument("--out", required=True, help="instance file to write")
    p_gen.set_defaults(func=cmd_gen)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--exact", action="store_true", help="also run the exact oracle")
    common.add_argument("--lp", action="store_true", help="also compute the LP lower bound")
    common.add_argument("--max-exact-n", type=_vertex_count, default=9, metavar="K")
    common.add_argument("--out", default=None, help="write structured records to this file")
    common.add_argument("--format", choices=("table", "records"), default="records")

    p_solve = sub.add_parser("solve", parents=[common], help="solve one instance file")
    p_solve.add_argument("instance")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check an assignment file against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("assignment")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", parents=[common], help="sweep generator specs and seeds")
    p_bench.add_argument("--spec", action="append", required=True, help="repeatable generator spec")
    p_bench.add_argument("--seeds", default="0:10", help="seed range lo:hi or comma list")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
