import random
import time
from itertools import combinations

import pytest

from corpus import random_graph, random_tree
from oracles import naive_decomposition_sequence
from twinwidth.graphs import cycle_graph, graph_from_edges, grid_graph, pair, path_graph
from twinwidth.pipeline import (
    WidthBoundMissed,
    decomposition_sequence,
    pipeline_certify,
    regime_floor,
)
from twinwidth.sequences import SequenceError, verify_width
from twinwidth.structure import gen_wall
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


def _certify_family(rng: random.Random) -> list:
    """Trees, caterpillars, ear graphs, subdivided K4s and cycles, like the
    benchmark's certify ops."""
    graphs = [random_tree(rng, n) for n in (2, 3, 10, 60, 300)]
    for spine, legs in ((1, 0), (5, 3), (40, 20), (200, 0), (200, 100)):
        graphs.append(graph_from_edges(spine + legs, [(i, i + 1) for i in range(spine - 1)]
                                       + [(rng.randrange(spine), spine + j) for j in range(legs)]))
    for ears in range(0, 18, 3):  # a 5-cycle with paths of length 4 hung on its edges
        edges, n = {pair(i, (i + 1) % 5) for i in range(5)}, 5
        for _ in range(ears):
            u, v = rng.choice(sorted(edges))
            chain = [u, n, n + 1, n + 2, v]
            n += 3
            edges |= {pair(a, b) for a, b in zip(chain, chain[1:])}
        graphs.append(graph_from_edges(n, edges))
    for times in (0, 1, 3, 8):
        edges, n = [], 4
        for u, v in combinations(range(4), 2):
            chain = [u, *range(n, n + times), v]
            n += times
            edges += zip(chain, chain[1:])
        graphs.append(graph_from_edges(n, edges))
    return graphs + [cycle_graph(n) for n in (3, 4, 20, 150)]


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
        for g in _certify_family(random.Random(31)):
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


class TestPipeline:
    @pytest.mark.parametrize("g", [path_graph(5000), random_tree(random.Random(5000), 5000)], ids=["path", "tree"])
    def test_certifies_5000_vertices(self, g):
        # min-fill and the replay each rescanned every vertex per step: 11-18 s
        start = time.perf_counter()
        r = pipeline_certify(g, 2, 3)
        assert r.status == "sequence" and r.width <= r.bound
        assert time.perf_counter() - start < 3.0

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
