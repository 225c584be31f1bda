#!/usr/bin/env python3
"""Digest the solvers' exact outputs on fixed corpora, to show that a change
leaves them bit-identical.

Prints four lines.  The greedy digest covers every trace entry (center,
radius, gain and power, as float hex) and the total power of each instance; the
LP digest covers each instance's bound value (float hex), rounds, constraints
and simplex pivots; the exact digest covers each instance's oracle status and
optimum (float hex); the tree digest covers every minimum spanning tree edge
(endpoints and cost as float hex), in the tree's order, on the greedy corpus.
Run it on two checkouts and compare the lines.  --max-n keeps only the specs
with n up to the given value, for a quick run.
"""

import argparse
import hashlib

from minpower import (
    GeneratorSpec,
    SearchLimits,
    exact_optimum,
    greedy_solve,
    lp_lower_bound,
    minimum_spanning_tree,
)

GREEDY_SPECS = (
    [f"family=line,n={n},eps={eps}" for eps in (0.25, 0.0078125) for n in (2, 5, 10, 25, 50)]
    + [f"family=polygon,n={n}" for n in range(2, 7)]
    + [
        f"family=random-geometric,n={n},kappa={kappa},seed={seed}"
        for n in (5, 10, 20, 40, 80, 120)
        for kappa in (1, 2, 4)
        for seed in (0, 1)
    ]
    + [
        f"family=random-geometric,n={n},kappa={kappa},seed=0,complete=false"
        for n in (20, 60, 120)
        for kappa in (1, 2, 4)
    ]
)

LP_SPECS = (
    [
        f"family=random-geometric,n={n},kappa={kappa},seed={seed}"
        for n in (8, 9, 10, 14, 17, 20)
        for kappa in (1, 2, 4)
        for seed in range(4)
    ]
    + [
        f"family=random-geometric,n={n},kappa={kappa},seed={seed},complete=false"
        for n in (12, 25)
        for kappa in (1, 2, 4)
        for seed in (0, 1)
    ]
    + [f"family=line,n={n},eps=0.25" for n in (2, 3, 4, 5, 8)]
    + [f"family=polygon,n={n}" for n in (2, 3, 4)]
)


# the benchmark's oracle-sweep corpus (n 8-10, kappa 1/2/4, three seeds per
# cell), an instance the LP bound leaves to the search, and the 6-point polygon
_SWEEP_CELLS = [(n, kappa) for kappa in (1, 2, 4) for n in (8, 9, 10)]
EXACT_SPECS = [
    f"family=random-geometric,n={n},kappa={kappa},seed={i * len(_SWEEP_CELLS) + j}"
    for i in range(3)
    for j, (n, kappa) in enumerate(_SWEEP_CELLS)
] + ["family=random-geometric,n=8,kappa=4,seed=17", "family=polygon,n=2"]
EXACT_LIMITS = SearchLimits(max_vertices=10)


def tree_lines(inst):
    for u, v, c in minimum_spanning_tree(inst).edges:
        yield f"{u} {v} {c.hex()}"


def greedy_lines(inst):
    solution = greedy_solve(inst)
    for entry in solution.trace:
        star = entry.star
        # the radius a second time as the star's power, so the pinned digest holds
        yield f"{star.center} {star.radius.hex()} {entry.gain.hex()} {star.radius.hex()}"
    yield f"total {solution.total_power.hex()}"


def lp_lines(inst):
    frac = lp_lower_bound(inst)
    yield f"{frac.value.hex()} {frac.rounds} {frac.constraints} {frac.pivots}"


def exact_lines(inst):
    result = exact_optimum(inst, EXACT_LIMITS)
    yield f"{result.status} {result.opt.hex()}"


def digest(specs, lines) -> str:
    h = hashlib.sha256()
    for spec in specs:
        inst, _ = spec.build()
        h.update(f"{spec.canonical()}\n".encode())
        for line in lines(inst):
            h.update(f"{line}\n".encode())
    return h.hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=None, help="skip specs with a larger n")
    args = parser.parse_args()

    corpora = (
        ("greedy", GREEDY_SPECS, greedy_lines),
        ("lp", LP_SPECS, lp_lines),
        ("exact", EXACT_SPECS, exact_lines),
        ("tree", GREEDY_SPECS, tree_lines),
    )
    for name, texts, lines in corpora:
        specs = [GeneratorSpec.parse(text) for text in texts]
        specs = [s for s in specs if args.max_n is None or s.n <= args.max_n]
        print(f"{name:<6} {len(specs):>3} instances  digest {digest(specs, lines)}")


if __name__ == "__main__":
    main()
