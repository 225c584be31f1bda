"""Solvers and bounds for minimum-power strong connectivity.

Given symmetric edge costs, assign each vertex a transmit power so that the
induced directed graph (u reaches v when p(u) covers the edge cost) is
strongly connected, minimizing total power.  The package bundles a certified
greedy star-cover solver, the bidirected spanning-tree baseline, a small exact
branch-and-bound oracle, a cut-generation LP lower bound, adversarial and
random instance generators, and a benchmarking CLI.
"""

from minpower.exact import (
    ExactResult,
    SearchLimits,
    brute_force_optimum,
    exact_optimum,
    verify_assignment,
)
from minpower.graph import (
    Instance,
    InstanceError,
    PowerAssignment,
    Tree,
    bidirect,
    minimum_spanning_tree,
    power_of,
)
from minpower.greedy import CertificateReport, Solution, certify, greedy_solve, ratio_bound
from minpower.instances import (
    GeneratorSpec,
    gen_line,
    gen_polygon,
    gen_random_geometric,
    line_alternative_power,
    read_assignment,
    read_instance,
    write_assignment,
    write_instance,
)
from minpower.lpbound import FractionalSolution, LpError, lp_lower_bound

__version__ = "0.1.0"

# the supported API: what the README, scripts/ and the CLI use, plus the types
# those functions take or return; everything else lives in its submodule
__all__ = [
    "CertificateReport",
    "ExactResult",
    "FractionalSolution",
    "GeneratorSpec",
    "Instance",
    "InstanceError",
    "LpError",
    "PowerAssignment",
    "SearchLimits",
    "Solution",
    "Tree",
    "bidirect",
    "brute_force_optimum",
    "certify",
    "exact_optimum",
    "gen_line",
    "gen_polygon",
    "gen_random_geometric",
    "greedy_solve",
    "line_alternative_power",
    "lp_lower_bound",
    "minimum_spanning_tree",
    "power_of",
    "ratio_bound",
    "read_assignment",
    "read_instance",
    "verify_assignment",
    "write_assignment",
    "write_instance",
]
