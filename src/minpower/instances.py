"""Instance generators and file I/O.

Two adversarial geometric families with closed-form reference values, plus a
seeded random-geometric family for sweeps:

* line: 2n collinear points whose consecutive gaps alternate 1, eps, 1, ...,
  starting and ending with a unit gap; costs are squared distances.  The
  spanning-tree baseline needs total power exactly 2n here, while a skip-one
  tree gets away with n(1+eps)^2 + (n-1)eps^2 + 1, so the baseline's factor
  approaches 2 as n grows and eps shrinks.
* polygon: n groups of n+1 points; the 2n group endpoints are the corners of a
  regular 2n-gon with unit sides and each group fills its side with n-1 evenly
  spaced points (spacing eps = 1/n).  Costs are squared distances.  A one-way
  ring assignment (one endpoint per group at power ~1, everything else at
  ~eps^2) is strongly connected with total n + n^2 eps^2 = n + 1.
* random-geometric: points uniform in the unit square from a splitmix64
  stream, cost = Euclidean distance ** kappa; reproducible per (n, kappa,
  seed) across platforms.

Instance files: first non-comment line "n m", then m lines "u v cost" with
0-based dense ids; '#' starts a comment line, and a "# generator: SPEC"
comment ahead of the header names the spec that built the instance.  Costs
are written with 17 significant digits so write/read round-trips are
bit-exact.  Assignment files hold one "v power" line per vertex.  All files
are UTF-8, whatever the locale.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from minpower.graph import (
    Instance,
    InstanceError,
    PowerAssignment,
    check_total_power,
    minimum_spanning_tree,
)

_K_NEAREST = 8  # neighbors each vertex keeps in a sparse random-geometric graph


class SplitMix64:
    """splitmix64 PRNG; fixed algorithm so instances reproduce everywhere.

    Each next_u64() advances the state by 0x9E3779B97F4A7C15 and hashes it;
    uniform doubles take the top 53 bits.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class GeneratorSpec:
    """Parsed generator request, e.g. "family=line,n=20,eps=0.01"."""

    family: str
    n: int
    epsilon: float = 0.25
    kappa: float = 2.0
    seed: int = 0
    complete: bool = True

    # each family and the fields it reads besides family and n
    FAMILIES = {"line": ("epsilon",), "polygon": (), "random-geometric": ("kappa", "seed", "complete")}

    @classmethod
    def parse(cls, text: str) -> "GeneratorSpec":
        """Parse comma-separated key=value fields.

        Raises ValueError on an unknown or repeated field, a field the family
        does not read, a malformed value, or a complete value other than
        1/true/yes/0/false/no (any case).
        """
        fields: dict[str, object] = {}
        keys: dict[str, str] = {}  # field name -> key as written
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad generator field {part!r} (expected key=value)")
            key, _, value = part.partition("=")
            key = key.strip().lower()
            value = value.strip()
            name = "epsilon" if key == "eps" else key
            if name in fields:
                raise ValueError(f"repeated generator field {key!r}")
            keys[name] = key
            try:
                if name == "family":
                    fields[name] = value
                elif name in ("n", "seed"):
                    fields[name] = int(value)
                elif name in ("epsilon", "kappa"):
                    fields[name] = float(value)
                elif name == "complete":
                    flag = value.lower()
                    if flag not in ("1", "true", "yes", "0", "false", "no"):
                        raise ValueError("expected 1/true/yes or 0/false/no")
                    fields[name] = flag in ("1", "true", "yes")
                else:
                    raise ValueError(f"unknown generator field {key!r}")
            except ValueError as exc:
                raise ValueError(f"bad generator field {part!r}: {exc}") from None
        if "family" not in fields or "n" not in fields:
            raise ValueError("generator spec needs at least family=... and n=...")
        family = fields["family"]
        if family not in cls.FAMILIES:
            raise ValueError(f"unknown family {family!r}; choose from {tuple(cls.FAMILIES)}")
        for name, key in keys.items():
            if name not in ("family", "n", *cls.FAMILIES[family]):
                raise ValueError(f"generator field {key!r} does not apply to family {family!r}")
        return cls(**fields)  # type: ignore[arg-type]

    def canonical(self) -> str:
        parts = [f"family={self.family}", f"n={self.n}"]
        if self.family == "line":
            parts.append(f"eps={self.epsilon!r}")
        if self.family == "random-geometric":
            parts.append(f"kappa={self.kappa!r}")
            parts.append(f"seed={self.seed}")
            if not self.complete:
                parts.append("complete=false")
        return ",".join(parts)

    def build(self) -> tuple[Instance, PowerAssignment | None]:
        """Instance plus the witness assignment for families that have one."""
        if self.family == "line":
            return gen_line(self.n, self.epsilon), None
        if self.family == "polygon":
            return gen_polygon(self.n)
        inst = gen_random_geometric(self.n, self.kappa, self.seed, complete=self.complete)
        return inst, None


def _complete_instance(points: list[tuple[float, float]], kappa: float = 2.0) -> Instance:
    """The complete graph on points with cost = distance ** kappa.

    The pairs are distinct and in range by construction, so of
    Instance.from_edges' checks only the cost checks are made: coincident
    points, a cost that overflows or underflows to 0, and the total power.
    """
    n = len(points)
    edges = []
    for u in range(n):
        xu, yu = points[u]
        for v in range(u + 1, n):
            dx = points[v][0] - xu
            dy = points[v][1] - yu
            d2 = dx * dx + dy * dy
            try:
                cost = d2 if kappa == 2.0 else d2 ** (kappa / 2.0)
            except OverflowError:
                raise InstanceError(f"cost of edge {u}-{v} overflows at kappa={kappa!r}") from None
            if cost <= 0.0:
                if d2 == 0.0:
                    raise InstanceError(f"coincident points {u} and {v}")
                raise InstanceError(f"cost of edge {u}-{v} underflows to 0 at kappa={kappa!r}")
            edges.append((u, v, cost))
    return check_total_power(Instance(n, tuple(edges)))


def gen_line(n: int, epsilon: float) -> Instance:
    """Alternating-gap line family: 2n points, complete graph, squared costs.

    Gap i is 1 for even i and epsilon for odd i (n unit gaps, n-1 epsilon
    gaps), and pairwise costs are computed from exact gap counts as
    (units + epses * epsilon)^2, so unit-edge costs are exactly 1.0 and the
    bidirected spanning-tree baseline totals exactly 2n.  Every cost is
    finite and nonnegative, so the instance is built without validation.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    count = 2 * n
    edges = []
    for u in range(count):
        for v in range(u + 1, count):
            units = (v - u + 1 - u % 2) // 2  # even gaps among u..v-1
            epses = (v - u) - units
            dist = units + epses * epsilon
            edges.append((u, v, dist * dist))
    return Instance(count, tuple(edges))


def line_alternative_assignment(n: int, epsilon: float) -> PowerAssignment:
    """The skip-one-tree power assignment on the line family.

    Even vertices 0..2n-2 bridge to the next even vertex (power (1+eps)^2),
    odd vertices short of the end only feed their epsilon partner (eps^2), and
    the last vertex closes the tree over its unit gap (power 1).  Induces the
    bidirected skip tree, so it is strongly connected.
    """
    levels = []
    for v in range(2 * n):
        if v == 2 * n - 1:
            levels.append(1.0)
        elif v % 2 == 0:
            step = 1.0 + epsilon
            levels.append(step * step)
        else:
            levels.append(epsilon * epsilon)
    return PowerAssignment(tuple(levels))


def line_alternative_power(n: int, epsilon: float) -> float:
    """Closed form n(1+eps)^2 + (n-1)eps^2 + 1 for the skip-tree assignment."""
    return n * (1.0 + epsilon) ** 2 + (n - 1) * epsilon**2 + 1.0


def gen_polygon(n: int) -> tuple[Instance, PowerAssignment]:
    """Polygon family instance plus its one-way ring witness assignment.

    Corners sit at angles pi*j/n on a circle of radius 1/(2 sin(pi/2n)), which
    makes every polygon side length 1.  Group i owns corners 2i and 2i+1 plus
    n-1 interior points on the segment between them.  The witness powers each
    point to reach its clockwise ring successor, using the instance's own
    computed costs so verification is exact in floating point.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    radius = 1.0 / (2.0 * math.sin(math.pi / (2 * n)))
    corners = [
        (radius * math.cos(math.pi * j / n), radius * math.sin(math.pi * j / n))
        for j in range(2 * n)
    ]
    points: list[tuple[float, float]] = []
    for i in range(n):
        ax, ay = corners[2 * i]
        bx, by = corners[2 * i + 1]
        points.append((ax, ay))
        for t in range(1, n):
            frac = t / n
            points.append((ax + frac * (bx - ax), ay + frac * (by - ay)))
        points.append((bx, by))
    inst = _complete_instance(points)
    total = len(points)
    levels = [0.0] * total
    for v in range(total):
        succ = (v + 1) % total
        levels[v] = inst.cost(v, succ)
    return inst, PowerAssignment(tuple(levels))


def gen_random_geometric(n: int, kappa: float, seed: int, complete: bool = True) -> Instance:
    """n uniform points in the unit square, cost = distance ** kappa.

    Coordinates come from SplitMix64(seed) in x0, y0, x1, y1, ... order.  With
    complete=False the graph keeps each vertex's 8 nearest neighbors plus the
    spanning tree of the complete graph, which preserves connectivity.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    rng = SplitMix64(seed)
    points = [(rng.next_float(), rng.next_float()) for _ in range(n)]
    inst = _complete_instance(points, kappa)
    if not complete:
        inst = sparsify_k_nearest(inst)
    return inst


def sparsify_k_nearest(inst: Instance) -> Instance:
    """Keep mutual/one-sided _K_NEAREST-nearest edges plus an MST to stay connected.

    The kept edges are a subset of inst's, in the same order, so the result
    needs no validation.
    """
    keep: set[tuple[int, int]] = set()
    for u in range(inst.n):
        for c, v in inst.adj[u][:_K_NEAREST]:
            keep.add((u, v) if u < v else (v, u))
    for u, v, _ in minimum_spanning_tree(inst).edges:
        keep.add((u, v) if u < v else (v, u))
    return Instance(inst.n, tuple(e for e in inst.edges if (e[0], e[1]) in keep))


def write_instance(inst: Instance, path: str, comments: tuple[str, ...] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(f"{inst.n} {inst.m}\n")
        for u, v, c in inst.edges:
            fh.write(f"{u} {v} {c:.17g}\n")


# the readers decode with errors="surrogateescape", which maps each byte that is
# not UTF-8 to one of these lone surrogates, so that the error can name its
# line: a strict decoder fails while reading ahead of the line being parsed
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


@contextmanager
def _text_lines(path: str) -> Iterator[Iterator[str]]:
    """The stripped lines of a UTF-8 text file, for the readers below.

    An InstanceError raised in the with block, by the lines or by the caller,
    leaves it naming the file and the 1-based number of the line last read,
    or the file alone once every line has been read.
    """
    lineno: int | None = None

    def lines() -> Iterator[str]:
        nonlocal lineno
        for lineno, raw in enumerate(fh, 1):
            if _NOT_UTF8.search(raw):
                raise InstanceError("not UTF-8 text")
            yield raw.strip()
        lineno = None

    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            yield lines()
    except InstanceError as exc:
        where = path if lineno is None else f"{path}:{lineno}"
        raise InstanceError(f"{where}: {exc}") from None


def read_generator_comment(path: str) -> str | None:
    """The spec of a "# generator: SPEC" line among the comments that open an
    instance file, as gen writes it; None if there is none."""
    with _text_lines(path) as lines:
        for line in lines:
            if line and not line.startswith("#"):
                break
            body = line.lstrip("#").strip()
            if body.startswith("generator:"):
                return body.partition(":")[2].strip()
    return None


def read_instance(path: str) -> Instance:
    """Parse and validate an instance file; errors carry 1-based line numbers.

    Edges reach Instance.from_edges as they are parsed, so an error it raises
    while validating an edge names that edge's line; the edge count, the
    connectivity and the overflow checks name only the file.  A header
    promising fewer than n - 1 edges is rejected before anything of size n is
    built.
    """

    def edges(data, m: int):
        count = 0
        for parts in data:
            if len(parts) != 3:
                raise InstanceError("expected 'u v cost'")
            try:
                u, v, c = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise InstanceError("malformed edge line") from None
            count += 1
            yield u, v, c
        if count != m:
            raise InstanceError(f"header promises {m} edges, found {count}")

    with _text_lines(path) as lines:
        data = (line.split() for line in lines if line and not line.startswith("#"))
        header = next(data, None)
        if header is None:
            raise InstanceError("no header line found")
        if len(header) != 2:
            raise InstanceError("expected 'n m' header")
        try:
            n, m = int(header[0]), int(header[1])
        except ValueError:
            raise InstanceError("non-integer header") from None
        if m < n - 1:
            raise InstanceError(
                f"instance not connected: header promises {m} edges for {n} vertices"
            )
        return Instance.from_edges(n, edges(data, m))


def write_assignment(assignment: PowerAssignment, path: str) -> None:
    with open(path, "w") as fh:
        for v, power in enumerate(assignment.levels):
            fh.write(f"{v} {power:.17g}\n")


def read_assignment(path: str, n: int) -> PowerAssignment:
    """Read 'v power' lines; vertices missing from the file get power 0.

    Rejects NaN, infinite and negative powers and repeated vertices, naming
    the offending line: a NaN or inf power would act as unlimited range and
    let an invalid assignment verify.
    """
    levels = [0.0] * n
    seen: set[int] = set()
    with _text_lines(path) as lines:
        for line in lines:
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InstanceError("expected 'v power'")
            try:
                v, power = int(parts[0]), float(parts[1])
            except ValueError:
                raise InstanceError("malformed assignment line") from None
            if not 0 <= v < n:
                raise InstanceError(f"vertex {v} out of range")
            if not math.isfinite(power) or power < 0.0:
                raise InstanceError(f"bad power {power!r} for vertex {v}")
            if v in seen:
                raise InstanceError(f"duplicate vertex {v}")
            seen.add(v)
            levels[v] = power
    return PowerAssignment(tuple(levels))
