import gc
import random
import time
import weakref

import pytest

from corpus import random_graph, random_partition, red_paths
from oracles import min_separator_exhaustive, naive_max_disjoint_paths, naive_min_vertex_cut, separates
from twinwidth import connectivity, witness
from twinwidth.connectivity import max_disjoint_paths, min_vertex_cut
from twinwidth.graphs import graph_from_edges, grid_graph, pair, path_graph
from twinwidth.partitions import partition_from_blocks, quotient
from twinwidth.sequences import invert, partitions_at
from twinwidth.structure import gen_tww3_family, tww3_family_sequence


class TestDisjointPaths:
    def test_shared_vertex_is_a_zero_length_path(self):
        g = grid_graph(3, 3)
        count, paths = max_disjoint_paths(g, {4}, {4})
        assert count == 1
        assert paths == [[4]]

    def test_disconnected_sides(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        count, paths = max_disjoint_paths(g, {0, 1}, {2, 3})
        assert count == 0 and paths == []
        assert min_vertex_cut(g, {0, 1}, {2, 3}) == frozenset()

    def test_grid_columns(self):
        g = grid_graph(3, 3)
        count, paths = max_disjoint_paths(g, {0, 3, 6}, {2, 5, 8})
        assert count == 3
        assert len(min_vertex_cut(g, {0, 3, 6}, {2, 5, 8})) == 3

    def test_within_restriction(self):
        g = path_graph(5)
        count, _ = max_disjoint_paths(g, {0}, {4}, within={0, 1, 2, 3, 4})
        assert count == 1
        count, _ = max_disjoint_paths(g, {0}, {4}, within={0, 1, 3, 4})
        assert count == 0

    def test_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            max_disjoint_paths(g, set(), {1})
        with pytest.raises(ValueError):
            max_disjoint_paths(g, {0}, {2}, within={0, 1})

    def test_paths_are_disjoint_and_anchored(self):
        rng = random.Random(21)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 10))
            A = set(rng.sample(range(g.n), rng.randint(1, max(1, g.n // 2))))
            B = set(rng.sample(range(g.n), rng.randint(1, max(1, g.n // 2))))
            count, paths = max_disjoint_paths(g, A, B)
            seen = set()
            for p in paths:
                assert p[0] in A and p[-1] in B
                assert not (seen & set(p))
                seen |= set(p)
                for u, v in zip(p, p[1:]):
                    assert g.has_edge(u, v)
            assert len(paths) == count


class TestMenger:
    def test_equality_against_exhaustive_cut(self):
        rng = random.Random(33)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 9))
            A = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            B = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            count, _ = max_disjoint_paths(g, A, B)
            cut = min_vertex_cut(g, A, B)
            assert separates(g, A, B, cut)
            assert len(cut) == count == min_separator_exhaustive(g, A, B)

    def test_grid_cut_is_certified_minimal(self):
        g = grid_graph(3, 3)
        cut = min_vertex_cut(g, {0, 3, 6}, {2, 5, 8})
        assert separates(g, {0, 3, 6}, {2, 5, 8}, cut)
        assert min_separator_exhaustive(g, {0, 3, 6}, {2, 5, 8}) == 3


class TestAgainstNaive:
    """The residual-only network gives exactly the value, paths and cut of
    the two-dict network in `oracles`."""

    def test_identical_paths_and_cuts(self):
        rng = random.Random(4040)
        kinds = set()
        for i in range(1000):
            n = rng.randint(1, 40)
            g = random_graph(rng, n, (i % 10 + 0.5) / 20)
            A = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
            B = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
            within = None
            if i % 2:
                within = A | B | set(rng.sample(range(n), rng.randint(0, n)))
            kinds.add((within is None, bool(A & B)))
            assert max_disjoint_paths(g, A, B, within) == naive_max_disjoint_paths(g, A, B, within)
            assert min_vertex_cut(g, A, B, within) == naive_min_vertex_cut(g, A, B, within)
        assert len(kinds) == 4

    @pytest.mark.parametrize("big_n", range(3, 9))
    def test_witness_regime_on_tww3_chains(self, big_n):
        """A = X1, B = X4 and `within` = the four parts, for every red path
        with X1, X4 unjoined at every index of the paper's certificate."""
        g, _ = gen_tww3_family(big_n)
        u = invert(g, tww3_family_sequence(big_n))
        checked = 0
        for i in range(1, g.n + 1):
            p = partitions_at(u, i)
            q = quotient(g, p).quotient
            for x1, x2, x3, x4 in red_paths(q.red_adj):
                if x1 > x4 or pair(x1, x4) in q.red or pair(x1, x4) in q.black:
                    continue
                A, B = p.members(x1), p.members(x4)
                within = A | p.members(x2) | p.members(x3) | B
                assert max_disjoint_paths(g, A, B, within) == naive_max_disjoint_paths(g, A, B, within)
                assert min_vertex_cut(g, A, B, within) == naive_min_vertex_cut(g, A, B, within)
                checked += 1
        assert checked > 0


class TestMemo:
    """Each graph's latest flows are solved once and answered from the
    memo after, and every answer is certified against the graph."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """An empty memo, and the (A, B, within) of every flow solved."""
        monkeypatch.setattr(connectivity, "_FLOWS", {})
        solved = []

        class Counted(connectivity._VertexFlow):
            def __init__(self, g, A, B, within):
                solved.append((A, B, within))
                super().__init__(g, A, B, within)

        monkeypatch.setattr(connectivity, "_VertexFlow", Counted)
        return solved

    def test_hits_agree_with_naive(self, solves):
        """Parts of random partitions as A, B and within; every problem is
        asked six times, by both functions in either order, as set,
        frozenset and list."""
        rng = random.Random(1616)
        asked = 0
        for i in range(150):
            n = rng.randint(4, 18)
            g = random_graph(rng, n, (i % 6 + 1) / 12)
            p = partition_from_blocks(n, random_partition(rng, n))
            if len(p) < 2:
                continue
            a, b = rng.sample(p.ids(), 2)
            A, B = p.members(a), p.members(b)
            within = None if i % 3 == 0 else A | B | p.members(rng.choice(p.ids()))
            paths = naive_max_disjoint_paths(g, A, B, within)
            cut = naive_min_vertex_cut(g, A, B, within)
            forms = (set, frozenset, sorted) if i % 2 else (sorted, frozenset, set)
            for form in forms:
                w = None if within is None else form(within)
                if i % 2:
                    assert min_vertex_cut(g, form(A), form(B), w) == cut
                    assert max_disjoint_paths(g, form(A), form(B), w) == paths
                else:
                    assert max_disjoint_paths(g, form(A), form(B), w) == paths
                    assert min_vertex_cut(g, form(A), form(B), w) == cut
            asked += 1
        assert asked > 100
        assert len(solves) == asked

    def test_returned_paths_are_fresh(self, solves):
        g = grid_graph(4, 4)
        count, paths = max_disjoint_paths(g, [0, 4], [3, 7])
        assert count == 2 and len(paths) == 2
        expected = [list(q) for q in paths]
        paths[0].append(99)
        paths.pop()
        assert max_disjoint_paths(g, {0, 4}, frozenset({3, 7})) == (2, expected)
        assert len(solves) == 1

    def test_within_empty_is_not_the_whole_graph(self, solves):
        g = path_graph(3)
        assert min_vertex_cut(g, {0}, {2}) == frozenset({0})
        with pytest.raises(ValueError):
            min_vertex_cut(g, {0}, {2}, within=set())

    def test_entry_dies_with_the_graph(self):
        gc.collect()
        before = len(connectivity._FLOWS)
        g = graph_from_edges(13, [(0, 4), (4, 8), (8, 12), (0, 6), (6, 12)])
        min_vertex_cut(g, {0}, {12})
        max_disjoint_paths(g, {0}, {12}, within={0, 4, 8, 12})
        assert len(connectivity._FLOWS) == before + 1 and len(connectivity._FLOWS[id(g)]) == 2
        alive = weakref.ref(g)
        del g
        gc.collect()
        assert alive() is None
        assert len(connectivity._FLOWS) == before

    def test_an_equal_graph_solves_afresh(self, solves):
        """The memo matches graphs by identity: a rebuilt copy of a graph
        gets a solve of its own."""
        g = grid_graph(3, 3)
        h = graph_from_edges(9, g.edges)
        assert g == h and g is not h
        assert min_vertex_cut(g, {0}, {8}) == min_vertex_cut(h, {0}, {8}) == min_vertex_cut(g, [0], [8])
        assert len(solves) == 2

    def test_only_the_latest_solves_are_kept(self, solves, monkeypatch):
        monkeypatch.setattr(connectivity, "_KEEP", 2)
        g = grid_graph(3, 3)
        for b in (8, 7, 8, 5, 8, 7):
            min_vertex_cut(g, {0}, {b})
        # 8 is asked again before it is the oldest, so only 7 is evicted
        assert [B for _, B, _ in solves] == [{8}, {7}, {5}, {7}]
        assert len(connectivity._FLOWS[id(g)]) == 2

    @pytest.mark.parametrize(
        "corrupt",
        ["cut misses a path", "path off the graph", "paths not disjoint", "path outside within", "path not from A", "a path short"],
    )
    def test_a_hit_is_certified_against_the_graph(self, solves, corrupt):
        """A remembered answer is checked as a Menger certificate on every
        hit, so a wrong entry cannot be handed out twice."""
        g = grid_graph(3, 3)
        A, B, within = frozenset({0, 3}), frozenset({2, 5}), frozenset(range(6))
        cut = min_vertex_cut(g, A, B, within)
        assert cut == naive_min_vertex_cut(g, A, B, within) and len(cut) == 2
        key = (A, B, within)
        solved = connectivity._FLOWS[id(g)]
        paths = solved[key][1]
        solved[key] = {
            "cut misses a path": (frozenset({0, 1}), paths),
            "path off the graph": (cut, ((0, 2), (3, 4, 5))),
            "paths not disjoint": (cut, ((0, 1, 2), (3, 4, 1, 2))),
            "path outside within": (cut, ((0, 1, 2), (3, 6, 7, 8, 5))),
            "path not from A": (cut, ((1, 2), (3, 4, 5))),
            "a path short": (cut, ((0, 1, 2),)),
        }[corrupt]
        with pytest.raises(AssertionError):
            min_vertex_cut(g, A, B, within)
        assert len(solves) == 1

    def test_a_solve_is_certified_too(self, solves, monkeypatch):
        """A flow whose paths do not match its cut is neither returned nor
        remembered."""
        monkeypatch.setattr(connectivity._VertexFlow, "paths", lambda net: [])
        g = grid_graph(3, 3)
        with pytest.raises(AssertionError, match="max-flow/min-cut mismatch"):
            max_disjoint_paths(g, {0}, {8})
        assert connectivity._FLOWS[id(g)] == {}

    def test_one_solve_per_distinct_witness_flow(self, solves, monkeypatch):
        """Every red path at t = 1 and t = 2 over every partition of the
        tww3 N = 5 chain: each (X1, X4, union) the witness check asks for
        is solved exactly once, however often it is asked."""
        asked = []
        cut = witness.min_vertex_cut
        monkeypatch.setattr(
            witness, "min_vertex_cut", lambda g, A, B, within: asked.append((A, B, within)) or cut(g, A, B, within)
        )
        g, _ = gen_tww3_family(5)
        u = invert(g, tww3_family_sequence(5))
        for i in range(1, g.n + 1):
            p = partitions_at(u, i)
            pt = quotient(g, p)
            for ids in red_paths(pt.quotient.red_adj):
                for t in (1, 2):
                    try:
                        witness.check_witness(g, p, *ids, t, pt=pt)
                    except witness.WitnessViolation:
                        pass
        assert len(asked) > len(set(asked)) > 0
        assert len(solves) == len(set(solves)) and set(solves) == set(asked)


def test_small_within_costs_what_it_holds():
    """100 cuts between the sides of a 10 x 10 window of the 200 x 200
    grid: a flow over `within` only, not over the grid's 79,600 edges."""
    g = grid_graph(200)
    assert len(g.adj) == 200 * 200  # built once per graph, outside the timing
    rng = random.Random(200)
    corners = [(rng.randrange(190), rng.randrange(190)) for _ in range(100)]
    start = time.perf_counter()
    for r, c in corners:
        window = {(r + i) * 200 + c + j for i in range(10) for j in range(10)}
        left = {(r + i) * 200 + c for i in range(10)}
        right = {(r + i) * 200 + c + 9 for i in range(10)}
        assert len(min_vertex_cut(g, left, right, within=window)) == 10
    assert time.perf_counter() - start < 0.3


def test_whole_graph_cut_stays_linear_per_search():
    """A cut across the whole 100 x 100 grid: 100 augmenting searches over
    10,000 vertices, each linear in the vertices and edges it may use.  On
    a 2-core x86-64 VM this takes about 0.3 s; an int-bitmask seen set,
    which copies k bits on every update, took 1.1 s."""
    g = grid_graph(100)
    assert len(g.adj) == 100 * 100  # built once per graph, outside the timing
    left = {r * 100 for r in range(100)}
    right = {r * 100 + 99 for r in range(100)}
    start = time.perf_counter()
    assert len(min_vertex_cut(g, left, right)) == 100
    assert time.perf_counter() - start < 1.0
