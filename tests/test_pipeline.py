import importlib.util
import random
import time
import types
from pathlib import Path

import pytest

from corpus import certify_family, grid_with_tail, random_graph, random_ktt_free, random_tree, star, subdivided_star
from oracles import (
    bf_has_k22,
    naive_bfs_decomposition_sequence,
    naive_decomposition_from_order,
    naive_decomposition_sequence,
    naive_has_ktt,
    naive_min_fill_order,
)
import twinwidth
from twinwidth.graphs import cycle_graph, graph_from_edges, grid_graph, path_graph
from twinwidth.pipeline import (
    WidthBoundMissed,
    decomposition_sequence,
    pipeline_certify,
    regime_floor,
)
from twinwidth.sequences import SequenceError, verify_width
from twinwidth.structure import gen_wall, has_ktt
from twinwidth.treewidth import TreeDecomposition, decomposition_from_order, min_fill_order, treewidth_exact


class TestDecompositionSequence:
    def test_random_trees_stay_low(self):
        rng = random.Random(14)
        for _ in range(15):
            g = random_tree(rng, rng.randint(2, 50))
            td = treewidth_exact(g).decomposition
            seq = decomposition_sequence(g, td)
            assert verify_width(g, seq) <= 7

    def test_path_and_cycle(self):
        for g in (path_graph(40), cycle_graph(30)):
            td = treewidth_exact(g).decomposition
            assert verify_width(g, decomposition_sequence(g, td)) <= 7

    def test_deep_bag_tree_needs_no_recursion(self):
        # a path eliminated end to end gives a path of 5,000 bags
        g = path_graph(5000)
        td = decomposition_from_order(g, list(range(5000)))
        assert verify_width(g, decomposition_sequence(g, td)) <= 2 ** (td.width + 2) - 1

    def test_single_vertex(self):
        g = graph_from_edges(1, [])
        td = treewidth_exact(g).decomposition
        assert len(decomposition_sequence(g, td).steps) == 0


def _sequence_outcome(build, g, td):
    try:
        return build(g, td).pairs()
    except ValueError as exc:
        return type(exc), str(exc)


class TestDecompositionSequenceAgainstNaive:
    """Rooting the bag tree in one breadth-first walk gives the sequence of
    the depth-first walk with a second adjacency pass
    (`oracles.naive_decomposition_sequence`)."""

    def test_certify_families(self):
        for g in certify_family(random.Random(31)):
            for td in (decomposition_from_order(g, min_fill_order(g)[0]), treewidth_exact(g).decomposition):
                assert decomposition_sequence(g, td).pairs() == naive_decomposition_sequence(g, td).pairs()

    def test_shuffled_orders_of_random_graphs(self):
        rng = random.Random(32)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 30), rng.choice([0.1, 0.2, 0.4]))
            order = rng.sample(range(g.n), g.n)
            td = decomposition_from_order(g, order)
            assert decomposition_sequence(g, td).pairs() == naive_decomposition_sequence(g, td).pairs()

    def test_disconnected_bag_tree(self):
        g = path_graph(4)
        td = TreeDecomposition(((5, frozenset({0, 1})), (2, frozenset({1, 2})), (7, frozenset({2, 3}))), ((5, 2),))
        outcome = _sequence_outcome(decomposition_sequence, g, td)
        assert outcome == _sequence_outcome(naive_decomposition_sequence, g, td)
        assert outcome[0] is SequenceError  # vertex 3 sits only in the unreached bag


def _certify_path_matches(g, rng: random.Random) -> None:
    """Each stage of the certify path gives what its previous code gave:
    the K_{2,2} answer, the min-fill order, the bags and tree edges of that
    order and of a shuffled one, and the pairs of both bag walks."""
    assert has_ktt(g, 2) == naive_has_ktt(g, 2), sorted(g.edges)
    order, width = min_fill_order(g)
    assert (order, width) == naive_min_fill_order(g), sorted(g.edges)
    for o in (order, rng.sample(range(g.n), g.n)):
        td = decomposition_from_order(g, o)
        assert td == naive_decomposition_from_order(g, o), (sorted(g.edges), o)
        if g.n:
            assert decomposition_sequence(g, td).pairs() == naive_bfs_decomposition_sequence(g, td).pairs()


def _lab_audit_setup_graphs(seed: int) -> list:
    """Every graph whose K_{2,2} `bench/workloads.py`'s `lab-audit` set-up
    asks for at `seed`: it deletes each reported edge until none is left,
    so its inputs depend on which K_{2,2} comes first."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    seen = []
    structure = types.SimpleNamespace(**vars(twinwidth.structure))

    def spy(g, t):
        seen.append(g)
        return twinwidth.structure.has_ktt(g, t)

    structure.has_ktt = spy
    layers = ("graphs", "solver", "sequences", "partitions", "witness", "treewidth", "pipeline", "connectivity")
    tw = types.SimpleNamespace(structure=structure, **{name: getattr(twinwidth, name) for name in layers})
    workloads.lab_audit(tw, random.Random(f"lab-audit/{seed}"))
    return seen


class TestCertifyPathAgainstOracles:
    """`has_ktt`, `min_fill_order`, `decomposition_from_order` and
    `decomposition_sequence` against verbatim copies of their previous code
    (`naive_min_fill_order` is the rescoring oracle)."""

    def test_sparse_families(self):
        rng = random.Random(34)
        for g in certify_family(random.Random(33)):
            _certify_path_matches(g, rng)

    def test_random_graphs_with_and_without_c4(self):
        rng = random.Random(35)
        with_c4 = 0
        for i in range(2000):
            n = 1 + i % 14
            g = random_ktt_free(rng, n) if i % 3 == 0 else random_graph(rng, n, rng.choice((0.1, 0.2, 0.3, 0.5)))
            with_c4 += bf_has_k22(g)
            _certify_path_matches(g, rng)
        assert 500 < with_c4 < 1500

    @pytest.mark.parametrize("seed", [1, 7177])
    def test_lab_audit_setup_graphs(self, seed):
        rng = random.Random(seed)
        graphs = _lab_audit_setup_graphs(seed)
        assert len(graphs) >= 48
        assert any(has_ktt(g, 2) is not None for g in graphs)
        for g in graphs:
            _certify_path_matches(g, rng)


class TestPipeline:
    @pytest.mark.parametrize("g", [path_graph(5000), random_tree(random.Random(5000), 5000)], ids=["path", "tree"])
    def test_certifies_5000_vertices(self, g):
        # min-fill and the replay each rescanned every vertex per step: 11-18 s
        start = time.perf_counter()
        r = pipeline_certify(g, 2, 3)
        assert r.status == "sequence" and r.width <= r.bound
        assert time.perf_counter() - start < 3.0

    @pytest.mark.parametrize("g, width", [(star(5000), 1), (subdivided_star(2500), 2)], ids=["star", "subdivided-star"])
    def test_certifies_hubs(self, g, width):
        # the pair scan of has_ktt and min-fill's leaf updates cost the
        # hub's degree per neighbour: 6.4 s and 1.4 s
        start = time.perf_counter()
        r = pipeline_certify(g, 2, 3)
        assert time.perf_counter() - start < 0.5
        assert r.status == "sequence" and r.width == width
        assert verify_width(g, r.sequence) == width

    def test_tree_at_gate_one(self):
        rng = random.Random(15)
        for _ in range(5):
            g = random_tree(rng, rng.randint(2, 40))
            r = pipeline_certify(g, 2, 1)
            assert r.status == "sequence"
            assert r.width <= r.bound == 7
            assert verify_width(g, r.sequence) == r.width

    def test_c4_is_not_applicable(self):
        r = pipeline_certify(cycle_graph(4), 2, 3)
        assert r.status == "not-applicable"
        assert r.ktt is not None

    def test_grid5_refutes_conditionally(self):
        r = pipeline_certify(grid_graph(5), 2, 3)
        assert r.status == "tww-exceeds-2"
        assert r.conditional  # gate far below the regime floor, biclique present

    def test_grid_with_a_1200_vertex_tail_refutes_conditionally(self):
        # the gate's search took one Python frame per eliminated vertex: RecursionError
        r = pipeline_certify(grid_with_tail(), 2, 4)
        assert r.status == "tww-exceeds-2" and r.conditional

    def test_wall_sequence_within_bound(self):
        g, _ = gen_wall(6)
        r = pipeline_certify(g, 2, 3)
        assert r.status == "sequence"
        assert r.width <= 31

    def test_budget_exhaustion(self):
        r = pipeline_certify(grid_graph(5), 2, 4, budget=3)
        assert r.status == "unknown"

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            pipeline_certify(grid_graph(5), 2, 4, budget=-1)

    def test_regime_floor_value(self):
        assert regime_floor(1) == 16 * 169
        assert regime_floor(2) == 16 * 676

    def test_bound_guard_fires_loudly(self):
        g = path_graph(12)
        td = treewidth_exact(g).decomposition
        seq = decomposition_sequence(g, td)
        width = verify_width(g, seq)
        with pytest.raises(WidthBoundMissed):
            if width > -1:  # the guard is the contract; trip it artificially
                raise WidthBoundMissed(width, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            pipeline_certify(path_graph(3), 0, 1)
        with pytest.raises(ValueError):
            pipeline_certify(path_graph(3), 1, 0)
