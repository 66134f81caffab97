import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import random_graph, random_merge_order, write_partition
from oracles import naive_read_dimacs, naive_sequence_from_json, naive_sequence_to_json
from twinwidth.graphs import cycle_graph, path_graph, trigraph_from_graph, contract
from twinwidth.io import (
    FormatError,
    mesh_from_json,
    mesh_to_json,
    read_dimacs,
    read_partition,
    sequence_from_json,
    sequence_to_json,
    trigraph_to_dot,
    verdict_to_json,
    write_dimacs,
    write_pace_td,
)
from twinwidth.partitions import partition_from_blocks
from twinwidth.sequences import ContractionSequence, verify_width
from twinwidth.solver import greedy_sequence
from twinwidth.structure import gen_tww3_family, gen_wall, tww3_family_sequence, wall_to_mesh
from twinwidth.treewidth import TreeDecomposition


class TestDimacs:
    def test_round_trip_bit_exact(self):
        rng = random.Random(44)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 12))
            text = write_dimacs(g)
            assert read_dimacs(text) == g
            assert write_dimacs(read_dimacs(text)) == text

    def test_parses_one_indexed(self):
        g = read_dimacs("c comment\np edge 3 2\ne 1 2\ne 2 3\n")
        assert g == path_graph(3)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("e 1 2\n", 1),
            ("p edge 2 1\ne 1 3\n", 2),
            ("p edge 2 1\ne 1 1\n", 2),
            ("p edge 2 2\ne 1 2\ne 2 1\n", 3),
            ("p edge x 1\n", 1),
            ("p edge 3 2\ne 1 2\n", 1),
            ("p edge 2 0\nq zzz\n", 2),
        ],
    )
    def test_line_precise_errors(self, text, line):
        with pytest.raises(FormatError) as exc:
            read_dimacs(text)
        assert exc.value.line == line

    def test_long_path_reads_in_linear_time(self):
        # the duplicate-edge check used to search a list: minutes at this size
        text = write_dimacs(path_graph(40_001))
        start = time.perf_counter()
        assert read_dimacs(text).m == 40_000
        assert time.perf_counter() - start < 5.0


_TOKENS = st.one_of(
    st.sampled_from(["p", "edge", "e", "c", "cx", "x", "1.5", "-", "+2", "0"]),
    st.integers(-2, 5).map(str),
)
_LINES = st.one_of(
    st.lists(_TOKENS, max_size=5).map(" ".join),
    st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(lambda nm: f"p edge {nm[0]} {nm[1]}"),
    st.tuples(st.integers(0, 5), st.integers(0, 5)).map(lambda uv: f"e {uv[0]} {uv[1]}"),
    st.sampled_from(["", "   ", "\t", "c a comment", "  e 1 2  ", "e 1 x", "e 2"]),
)
_SOUPS = st.one_of(
    st.lists(_LINES, max_size=8),
    st.tuples(
        st.lists(_LINES, max_size=1),
        st.tuples(st.integers(0, 5), st.integers(0, 4)).map(lambda nm: f"p edge {nm[0]} {nm[1]}"),
        st.lists(_LINES, max_size=8),
    ).map(lambda t: [*t[0], t[1], *t[2]]),
).map("\n".join)


def _outcome(read, text):
    try:
        return read(text)
    except FormatError as exc:
        return exc.line, str(exc)


class TestDimacsAgainstNaive:
    """The one-pass reader returns the same graph, or raises on the same
    line with the same message, as the reader that normalised every edge
    twice (`oracles.naive_read_dimacs`)."""

    @settings(max_examples=400, deadline=None)
    @given(_SOUPS)
    @example("p edge 3 2\ne 1 2\ne 3 2\n")
    @example("c x\n p edge 2 1 \n\ne 2 1")
    @example("p edge 2 1\ne 1 2 3\n")
    @example("p edge 2 2\ne 1 2\ne 2 1\n")
    def test_token_soup(self, text):
        assert _outcome(read_dimacs, text) == _outcome(naive_read_dimacs, text)


class TestDot:
    def test_red_edges_carry_color(self):
        t = contract(trigraph_from_graph(cycle_graph(5)), 0, 1)
        dot = trigraph_to_dot(t)
        assert "0 -- 2 [color=red];" in dot
        assert "2 -- 3;" in dot


class TestSequenceJson:
    def test_round_trip(self):
        g = cycle_graph(6)
        s, _ = greedy_sequence(g)
        text = sequence_to_json(s)
        assert sequence_from_json(text) == s
        assert sequence_to_json(sequence_from_json(text)) == text

    def test_stable_key_order(self):
        g = path_graph(3)
        s, _ = greedy_sequence(g)
        assert sequence_to_json(s).index('"n"') < sequence_to_json(s).index('"steps"')

    def test_verdict_json(self):
        assert verdict_to_json(2, [0, 1, 2]) == '{"trace": [0, 1, 2], "width": 2}\n'

    def test_rejects_malformed(self):
        with pytest.raises(FormatError):
            sequence_from_json("{")
        with pytest.raises(FormatError):
            sequence_from_json('{"n": 3}')
        with pytest.raises(FormatError):
            sequence_from_json('{"n": 3, "steps": [1, 2]}')

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"n": 2, "steps": []}', "expected 1 steps, got 0"),
            ('{"n": 0, "steps": []}', "sequences are defined for graphs with at least one vertex"),
            ('{"n": -3, "steps": []}', "sequences are defined for graphs with at least one vertex"),
            ('{"n": 2, "steps": [{"u": 1, "v": 1}]}', "step 0 contracts 1 with itself"),
        ],
    )
    def test_shape_errors_carry_a_line(self, text, message):
        with pytest.raises(FormatError) as exc:
            sequence_from_json(text)
        assert exc.value.line == 1
        assert str(exc.value) == f"line 1: {message}"

    @pytest.mark.parametrize("read", [sequence_from_json, mesh_from_json])
    @pytest.mark.parametrize("text", ["[" * 100_000, '{"n": 1' + "0" * 5000 + ', "steps": []}'])
    def test_json_the_parser_rejects_carries_a_line(self, read, text):
        with pytest.raises(FormatError) as exc:
            read(text)
        assert exc.value.line == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2.5, "steps": [{"u": 0, "v": 1}]}',
            '{"n": "a", "steps": []}',
            '{"n": true, "steps": []}',
            '{"n": 2, "steps": [{"u": "x", "v": 1}]}',
            '{"n": 2, "steps": [{"u": 0, "v": 1.0}]}',
        ],
    )
    def test_rejects_non_integers(self, text):
        with pytest.raises(FormatError) as exc:
            sequence_from_json(text)
        assert exc.value.line == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["n", "steps", "u", "v", "x"]), inner, max_size=4),
    max_leaves=12,
)
_CERTIFICATES = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 5) | _JSON,
        "steps": st.lists(
            st.fixed_dictionaries({"u": st.integers(-1, 9), "v": st.integers(-1, 9)}) | _JSON, max_size=5
        ),
    }
)
_CERTIFICATE_TEXTS = st.one_of(
    st.one_of(_CERTIFICATES, _JSON).map(json.dumps),
    _CERTIFICATES.map(json.dumps).flatmap(lambda t: st.integers(0, len(t)).map(lambda k: t[:k])),
    st.text(alphabet='{}[]":,0123456789 nstepuv\n', max_size=40),
)


class TestSequenceJsonTotal:
    """The reader is total: each text parses to a sequence that writes back
    to the same pairs, or raises FormatError with a line number."""

    @settings(max_examples=300, deadline=None)
    @given(_CERTIFICATE_TEXTS)
    @example('{"n": 3, "steps": [{"u": 2, "v": 0}, {"u": 1, "v": 3}]}')
    @example('{"n": 2, "steps": [{"u": 0, "v": 1, "x": null}]}')
    @example('{"n": 2,\n "steps": [{"u": 0, "v": 1}],\n}')
    def test_parses_or_names_a_line(self, text):
        try:
            s = sequence_from_json(text)
        except FormatError as exc:
            assert isinstance(exc.line, int) and exc.line >= 1
            assert str(exc).startswith(f"line {exc.line}: ")
            return
        assert isinstance(s, ContractionSequence)
        assert all(type(u) is int and type(v) is int and u < v for u, v in s.pairs())
        assert sequence_from_json(sequence_to_json(s)) == s

    def test_paper_certificate_reads_and_replays_at_scale(self):
        """The tww3 certificate at N = 140 (19,740 vertices, 19,739 steps)
        read from JSON and replayed."""
        g, _ = gen_tww3_family(140)
        text = sequence_to_json(tww3_family_sequence(140))
        start = time.perf_counter()
        s = sequence_from_json(text)
        assert (s.n, len(s.steps)) == (19_740, 19_739)
        assert verify_width(g, s) == 3
        assert time.perf_counter() - start < 2.0


class TestSequenceJsonAgainstNaive:
    """The format-string writer writes the bytes `json.dumps` writes, and
    the one-pass reader returns the same sequence, or raises the same
    FormatError, as the three-pass reader (`oracles`)."""

    def test_writer_bytes(self):
        rng = random.Random(2000)
        sequences = [ContractionSequence(1, ())]
        sequences += [tww3_family_sequence(big_n) for big_n in range(2, 13)]
        sequences += [random_merge_order(rng, n) for n in (2, 3, 10, 100, 777, 2000)]
        for s in sequences:
            assert sequence_to_json(s) == naive_sequence_to_json(s)

    @settings(max_examples=300, deadline=None)
    @given(_CERTIFICATE_TEXTS)
    @example('{"n": 2.5, "steps": [{"u": "x", "v": 1}, 7]}')
    @example('{"n": 2.5, "steps": [{"u": "x", "v": 1}]}')
    @example('{"n": 3, "steps": [{"u": 0, "v": true}, {"u": 1.0, "v": 2}]}')
    @example('{"n": 3, "steps": [{"u": 0, "v": 1}, {"u": 3, "v": 2.0}]}')
    def test_reader_outcome(self, text):
        assert _outcome(sequence_from_json, text) == _outcome(naive_sequence_from_json, text)


class TestPartitionText:
    def test_round_trip(self):
        p = partition_from_blocks(6, [{0, 1}, {2}, {3, 4, 5}], ids=[1, 2, 3])
        text = write_partition(p)
        back = read_partition(text, 6)
        assert sorted(back.by_id.values(), key=min) == sorted(p.by_id.values(), key=min)
        assert write_partition(back) == text

    def test_part_ids_are_line_numbers(self):
        p = read_partition("3 4\n1\n2 5\n", 5)
        assert p.members(1) == frozenset({2, 3})
        assert p.members(2) == frozenset({0})

    def test_errors(self):
        with pytest.raises(FormatError):
            read_partition("1 2\nx\n", 3)
        with pytest.raises(FormatError):
            read_partition("1 9\n", 3)
        with pytest.raises(FormatError):
            read_partition("1 2\n", 3)

    def test_repeated_vertex_names_its_line(self):
        # this read "line 1: parts are not disjoint"
        with pytest.raises(FormatError) as exc:
            read_partition("1 2\nc note\n3\n\n4 2\n", 4)
        assert str(exc.value) == "line 5: vertex 2 is already in part 1"


def _parses_or_names_a_line(read, text):
    """read(text), or None after a FormatError with a line number."""
    try:
        return read(text)
    except FormatError as exc:
        assert isinstance(exc.line, int) and exc.line >= 1
        assert str(exc).startswith(f"line {exc.line}: ")
        return None


def _token_lines(tokens):
    return st.lists(st.lists(st.sampled_from(tokens), max_size=6).map(" ".join), max_size=8).map("\n".join)


_PARTITION_TEXTS = _token_lines(["1", "2", "3", "4", "5", "0", "-1", "x", "c", "1.5"])
_MESH_TEXTS = st.one_of(
    st.fixed_dictionaries(
        {"N": st.integers(-1, 3) | _JSON, "rows": st.lists(st.lists(st.integers(-1, 9)), max_size=3) | _JSON,
         "cols": st.lists(st.lists(st.integers(-1, 9)), max_size=3) | _JSON}
    ).map(json.dumps),
    _JSON.map(json.dumps),
    st.text(alphabet='{}[]":,0123456789 Nrowscl\n', max_size=40),
)


class TestReadersAreTotal:
    """Each text parses, or raises FormatError with a line number.  The
    two readers already behaved so; these tests pin it."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), _PARTITION_TEXTS)
    @example(3, "1 2\n3 1\n")
    @example(3, "1 1 2\n3\n")
    def test_partition(self, n, text):
        p = _parses_or_names_a_line(lambda t: read_partition(t, n), text)
        if p is not None:
            assert sorted(v for _, members in p.parts for v in members) == list(range(n))
            assert read_partition(write_partition(p), n) == p

    @settings(max_examples=300, deadline=None)
    @given(_MESH_TEXTS)
    @example('{"N": 1, "rows": [[0, 1]], "cols": [[1, 0]]}')
    def test_mesh(self, text):
        me = _parses_or_names_a_line(mesh_from_json, text)
        if me is not None:
            assert mesh_from_json(mesh_to_json(me)) == me


class TestPace:
    def test_bags_numbered_from_one_in_id_order(self):
        td = TreeDecomposition(((9, frozenset({0, 1})), (4, frozenset({1, 2}))), ((9, 4),))
        assert write_pace_td(td, 3) == "s td 2 2 3\nb 1 2 3\nb 2 1 2\n2 1\n"


class TestMeshJson:
    def test_round_trip(self):
        g, wl = gen_wall(8)
        me = wall_to_mesh(g, wl, 3)
        text = mesh_to_json(me)
        back = mesh_from_json(text)
        assert back == me
        assert mesh_to_json(back) == text

    def test_missing_field(self):
        with pytest.raises(FormatError):
            mesh_from_json('{"N": 1, "rows": []}')

    def test_reads_at_scale(self):
        """A 70 x 70 mesh of the side-142 wall, with vertex ids up to about
        20,000 and 29,540 path entries, read back in well under a second.
        This pins behaviour that already holds (about 10 ms)."""
        g, wl = gen_wall(142)
        me = wall_to_mesh(g, wl, 70)
        text = mesh_to_json(me)
        assert max(map(max, me.rows)) > 19_000
        start = time.perf_counter()
        back = mesh_from_json(text)
        assert time.perf_counter() - start < 0.5
        assert back == me

    @pytest.mark.parametrize(
        "text",
        ['{"N": 1, "rows": 5, "cols": []}', '{"N": 1, "rows": [[1, "a"]], "cols": []}', '{"N": 1.5, "rows": [], "cols": []}', "[1]", "7"],
    )
    def test_rejects_wrong_shapes(self, text):
        with pytest.raises(FormatError):
            mesh_from_json(text)
