import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minpower.exact import verify_assignment
from minpower.graph import (
    Instance,
    InstanceError,
    PowerAssignment,
    bidirect,
    minimum_spanning_tree,
    power_of,
)
from minpower.instances import (
    GeneratorSpec,
    _complete_instance,
    SplitMix64,
    gen_line,
    gen_polygon,
    gen_random_geometric,
    line_alternative_assignment,
    line_alternative_power,
    read_assignment,
    read_instance,
    write_assignment,
    write_instance,
)


class TestLineFamily:
    def test_minimal_pair(self):
        from minpower.exact import exact_optimum

        inst = gen_line(1, 0.5)
        assert inst.n == 2
        assert inst.cost(0, 1) == 1.0
        assert exact_optimum(inst).opt == 2.0

    def test_mst_power_exactly_2n(self):
        for n, eps in ((1, 0.5), (4, 0.25), (20, 0.01), (50, 2.0**-7)):
            inst = gen_line(n, eps)
            tree = minimum_spanning_tree(inst)
            assert power_of(inst, bidirect(tree)).total == 2.0 * n
            assert tree.total_cost == pytest.approx(n + (n - 1) * eps * eps, rel=1e-12)

    def test_alternative_assignment_formula_and_feasibility(self):
        for n, eps in ((1, 0.5), (5, 0.25), (20, 0.01)):
            inst = gen_line(n, eps)
            alt = line_alternative_assignment(n, eps)
            assert alt.total == pytest.approx(line_alternative_power(n, eps), rel=1e-12)
            assert verify_assignment(inst, alt)

    def test_costs_exact_for_dyadic_eps(self):
        inst = gen_line(3, 0.25)
        # consecutive gaps 1, .25, 1, .25, 1: spot-check exact squared costs
        assert inst.cost(0, 1) == 1.0
        assert inst.cost(1, 2) == 0.0625
        assert inst.cost(0, 2) == 1.25**2
        assert inst.cost(0, 5) == 3.5**2

    def test_closed_form_gap_counts_match_enumeration(self):
        for n, eps in ((1, 0.5), (4, 0.3), (9, 0.01)):
            inst = gen_line(n, eps)
            for u in range(2 * n):
                for v in range(u + 1, 2 * n):
                    units = sum(1 for g in range(u, v) if g % 2 == 0)
                    dist = units + ((v - u) - units) * eps
                    assert inst.cost(u, v) == dist * dist

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            gen_line(0, 0.5)
        for eps in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                gen_line(3, eps)


class TestPolygonFamily:
    def test_sizes(self):
        for n in (2, 3, 4):
            inst, witness = gen_polygon(n)
            assert inst.n == n * (n + 1)
            assert len(witness) == inst.n

    def test_witness_verifies_with_expected_total(self):
        for n in (2, 3, 5):
            inst, witness = gen_polygon(n)
            assert verify_assignment(inst, witness)
            assert witness.total == pytest.approx(n + 1, rel=1e-9)

    def test_side_lengths_are_unit(self):
        inst, _ = gen_polygon(3)
        # group endpoints are ring positions 0..3, 4..7, 8..11; the hop edges
        # (3,4), (7,8), (11,0) are polygon sides of squared length 1
        for a, b in ((3, 4), (7, 8), (11, 0)):
            assert inst.cost(a, b) == pytest.approx(1.0, rel=1e-12)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            gen_polygon(1)


class TestRandomGeometric:
    def test_deterministic_per_seed(self, tmp_path):
        a = gen_random_geometric(8, 2.0, 42)
        b = gen_random_geometric(8, 2.0, 42)
        assert a == b
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_instance(a, str(pa))
        write_instance(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_seeds_differ(self):
        assert gen_random_geometric(6, 2.0, 1) != gen_random_geometric(6, 2.0, 2)

    def test_two_vertices_forced_optimum(self):
        from minpower.exact import exact_optimum

        inst = gen_random_geometric(2, 2.0, 7)
        res = exact_optimum(inst)
        assert res.opt == pytest.approx(2.0 * inst.cost(0, 1), rel=1e-12)

    def test_kappa_changes_costs(self):
        flat = gen_random_geometric(5, 1.0, 9)
        squared = gen_random_geometric(5, 2.0, 9)
        for u, v, c in flat.edges:
            assert squared.cost(u, v) == pytest.approx(c * c, rel=1e-12)

    def test_positive_costs(self):
        inst = gen_random_geometric(12, 4.0, 11)
        assert all(c > 0.0 for _, _, c in inst.edges)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_kappa_must_be_positive_and_finite(self, kappa):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            gen_random_geometric(5, kappa, 0)

    @pytest.mark.parametrize(
        "n, kappa, message",
        [
            (2, 1e6, "cost of edge 0-1 overflows at kappa=1000000.0"),
            (30, 2100.0, "cost of edge 0-5 underflows to 0 at kappa=2100.0"),
        ],
    )
    def test_cost_out_of_range_names_kappa(self, n, kappa, message):
        # points 0 and 5 of seed 0 are distinct: the cost, not the distance, is 0
        with pytest.raises(InstanceError, match=re.escape(message)):
            gen_random_geometric(n, kappa, 0)

    def test_coincident_points_named(self):
        with pytest.raises(InstanceError, match="coincident points 0 and 2"):
            _complete_instance([(0.5, 0.5), (0.25, 0.5), (0.5, 0.5)], 3.0)

    def test_sparsifier_keeps_connectivity(self):
        inst = gen_random_geometric(12, 2.0, 13, complete=False)
        assert inst.is_connected()
        assert inst.m < 12 * 11 // 2

    def test_splitmix_reference_values(self):
        # first outputs of splitmix64(seed=1234567) per the published algorithm
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973


class TestTrustedGeneration:
    """The generators build their instances without from_edges' per-edge
    checks; validating the result must change nothing."""

    @staticmethod
    def assert_valid(inst):
        again = Instance.from_edges(inst.n, inst.edges)
        assert (again.n, again.edges) == (inst.n, inst.edges)

    @pytest.mark.parametrize("n", [1, 2, 10, 150])
    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.01, 2.0**-7])
    def test_line(self, n, eps):
        self.assert_valid(gen_line(n, eps))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_polygon(self, n):
        self.assert_valid(gen_polygon(n)[0])

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 4.0, 20.0])
    @pytest.mark.parametrize("complete", [True, False])
    def test_random_geometric(self, kappa, complete):
        for n, seed in ((2, 0), (9, 1), (40, 2)):
            self.assert_valid(gen_random_geometric(n, kappa, seed, complete=complete))

    def test_total_power_overflow_still_rejected(self):
        # every cost is finite (2**1023.5 at most), but two vertices of power
        # 2**1023.5 sum past the largest float
        with pytest.raises(
            InstanceError, match=re.escape("costs too large: the total power overflows")
        ):
            _complete_instance([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1023.5)


class TestFileRoundTrip:
    def test_polygon_roundtrip(self, tmp_path):
        inst, witness = gen_polygon(3)
        path = tmp_path / "poly.txt"
        write_instance(inst, str(path), comments=("generator: family=polygon,n=3",))
        again = read_instance(str(path))
        assert again == inst
        wpath = tmp_path / "poly.witness"
        write_assignment(witness, str(wpath))
        assert read_assignment(str(wpath), inst.n) == witness

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("# heading\n2 1\n# middle comment\n0 1 2.5\n")
        inst = read_instance(str(path))
        assert inst.n == 2
        assert inst.cost(0, 1) == 2.5

    def test_duplicate_edge_names_line(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("3 3\n0 1 1.0\n1 2 1.0\n1 0 9.0\n")
        with pytest.raises(InstanceError, match=r"dup\.txt:4.*duplicate"):
            read_instance(str(path))

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 1 not_a_number\n")
        with pytest.raises(InstanceError, match=r"bad\.txt:2"):
            read_instance(str(path))

    def test_out_of_range_vertex_names_line(self, tmp_path):
        path = tmp_path / "range.txt"
        path.write_text("# two vertices\n2 1\n0 5 1.0\n")
        with pytest.raises(InstanceError, match=r"range\.txt:3: .*outside vertex range"):
            read_instance(str(path))

    def test_nan_cost_names_line(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("2 1\n0 1 nan\n")
        with pytest.raises(InstanceError, match=r"nan\.txt:2: bad cost nan"):
            read_instance(str(path))

    def test_disconnected_rejected_at_load(self, tmp_path):
        path = tmp_path / "disc.txt"
        path.write_text("4 2\n0 1 1.0\n2 3 1.0\n")
        with pytest.raises(InstanceError, match="not connected"):
            read_instance(str(path))

    def test_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3 3\n0 1 1.0\n1 2 1.0\n")
        with pytest.raises(InstanceError, match="promises 3"):
            read_instance(str(path))

    def test_header_with_too_few_edges_names_both_counts(self, tmp_path):
        path = tmp_path / "few.txt"
        path.write_text("# sparse\n200000 0\n")
        with pytest.raises(InstanceError, match=r"few\.txt:2: .*promises 0 edges for 200000 vertices"):
            read_instance(str(path))

    def test_non_utf8_instance_names_line(self, tmp_path):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"3 2\n0 1 1.0\n# caf\xe9\n1 2 1.0\n")
        with pytest.raises(InstanceError, match=r"bytes\.txt:3: not UTF-8"):
            read_instance(str(path))

    def test_non_utf8_assignment_names_line(self, tmp_path):
        path = tmp_path / "bytes.asg"
        path.write_bytes(b"0 1.0\n1 \xff\n")
        with pytest.raises(InstanceError, match=r"bytes\.asg:2: not UTF-8"):
            read_assignment(str(path), 3)


class TestGeneratorSpec:
    def test_parse_line(self):
        spec = GeneratorSpec.parse("family=line,n=20,eps=0.01")
        assert spec.family == "line"
        assert spec.n == 20
        assert spec.epsilon == 0.01

    def test_parse_random(self):
        spec = GeneratorSpec.parse("family=random-geometric,n=8,kappa=4,seed=3")
        inst, witness = spec.build()
        assert witness is None
        assert inst == gen_random_geometric(8, 4.0, 3)

    def test_canonical_roundtrip(self):
        spec = GeneratorSpec.parse("family=random-geometric,n=8,kappa=4,seed=3")
        assert GeneratorSpec.parse(spec.canonical()) == spec

    def test_bad_specs(self):
        for text in ("family=ring,n=3", "n=3", "family=line", "family=line,n=x"):
            with pytest.raises(ValueError):
                GeneratorSpec.parse(text)

    @pytest.mark.parametrize(
        "text, field",
        [
            ("family=random-geometric,n=5,n=9,seed=1", "'n'"),
            ("family=random-geometric,n=5,seed=1,seed=2", "'seed'"),
            ("family=line,n=3,eps=0.25,epsilon=0.5", "'epsilon'"),
            ("family=line,family=polygon,n=3", "'family'"),
        ],
    )
    def test_repeated_field_rejected(self, text, field):
        with pytest.raises(ValueError, match=f"repeated generator field {field}"):
            GeneratorSpec.parse(text)

    @pytest.mark.parametrize("value", ["flase", "", "2", "on", "t"])
    def test_bad_complete_rejected(self, value):
        with pytest.raises(ValueError, match=f"complete={value}"):
            GeneratorSpec.parse(f"family=random-geometric,n=6,complete={value}")

    @pytest.mark.parametrize(
        "value, expected",
        [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("NO", False)],
    )
    def test_complete_values(self, value, expected):
        spec = GeneratorSpec.parse(f"family=random-geometric,n=6,complete={value}")
        assert spec.complete is expected

    @pytest.mark.parametrize(
        "text, key, family",
        [
            ("family=line,n=3,kappa=7", "kappa", "line"),
            ("family=line,n=3,seed=1", "seed", "line"),
            ("family=line,n=3,complete=false", "complete", "line"),
            ("family=polygon,n=3,seed=5", "seed", "polygon"),
            ("family=polygon,n=3,eps=0.5", "eps", "polygon"),
            ("family=random-geometric,n=6,epsilon=0.5", "epsilon", "random-geometric"),
        ],
    )
    def test_field_the_family_does_not_read_rejected(self, text, key, family):
        with pytest.raises(ValueError, match=f"field '{key}' does not apply to family '{family}'"):
            GeneratorSpec.parse(text)

    def test_polygon_build_has_witness(self):
        inst, witness = GeneratorSpec.parse("family=polygon,n=2").build()
        assert witness is not None
        assert verify_assignment(inst, witness)


@st.composite
def instances(draw):
    """Connected instances: a random spanning tree plus extra edges, finite
    non-negative costs below from_edges' overflow bound (2 * 7 vertices * cost
    stays finite)."""
    n = draw(st.integers(1, 7))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)))
    pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    costs = st.floats(min_value=0.0, max_value=sys.float_info.max / 16, allow_nan=False)
    return Instance.from_edges(n, [(u, v, draw(costs)) for u, v in pairs])


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file.txt"


# file lines are built from small numbers, which well-formed files are made of,
# and hostile fields: out-of-range or non-finite values, comment marks, control
# characters and bytes that are not UTF-8 (a lone 0xff, an encoded surrogate)
FIELDS = [b"0", b"1", b"2", b"0.5"] * 4 + [
    b"-1", b"1e400", b"nan", b"inf", b"99999999999", b"#", b"\x00", b"\r", b"\t", b"\xff",
    b"\xc3\xa9", b"\xed\xa0\x80",
]
file_lines = st.lists(st.lists(st.sampled_from(FIELDS), max_size=4).map(b" ".join), max_size=6)


@st.composite
def spliced_files(draw):
    """A valid instance file with a span of it replaced by one field."""
    inst = draw(instances())
    text = f"{inst.n} {inst.m}\n" + "".join(f"{u} {v} {c!r}\n" for u, v, c in inst.edges)
    data = text.encode()
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.sampled_from(FIELDS)) + data[at + draw(st.integers(0, 3)) :]


file_bytes = st.one_of(st.binary(max_size=64), file_lines.map(b"\n".join), spliced_files())


class TestParserFuzz:
    @settings(max_examples=150, deadline=None)
    @given(inst=instances())
    def test_instance_roundtrip_is_bit_exact(self, scratch_file, inst):
        write_instance(inst, str(scratch_file), comments=("generator: fuzz",))
        again = read_instance(str(scratch_file))
        assert again == inst
        assert [c.hex() for _, _, c in again.edges] == [c.hex() for _, _, c in inst.edges]

    @settings(max_examples=150, deadline=None)
    @given(levels=st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), max_size=8))
    def test_assignment_roundtrip_is_bit_exact(self, scratch_file, levels):
        write_assignment(PowerAssignment(tuple(levels)), str(scratch_file))
        again = read_assignment(str(scratch_file), len(levels))
        assert [p.hex() for p in again.levels] == [p.hex() for p in levels]

    @settings(max_examples=300, deadline=None)
    @given(data=file_bytes)
    def test_instance_reader_accepts_or_raises_instance_error(self, scratch_file, data):
        scratch_file.write_bytes(data)
        try:
            inst = read_instance(str(scratch_file))
        except InstanceError as exc:
            assert str(exc).startswith(f"{scratch_file}:")
        else:
            assert Instance.from_edges(inst.n, inst.edges) == inst

    @settings(max_examples=300, deadline=None)
    @given(data=file_bytes, n=st.integers(0, 4))
    def test_assignment_reader_accepts_or_raises_instance_error(self, scratch_file, data, n):
        scratch_file.write_bytes(data)
        try:
            assignment = read_assignment(str(scratch_file), n)
        except InstanceError as exc:
            assert str(exc).startswith(f"{scratch_file}:")
        else:
            assert len(assignment.levels) == n
            assert all(0.0 <= p < float("inf") for p in assignment.levels)
