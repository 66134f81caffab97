import random

import pytest

from corpus import atlas_graphs, random_graph, random_graphs
from oracles import bf_twinwidth, has_induced_p4, naive_greedy_pairs, naive_twin_pairs
from twinwidth.graphs import complete_bipartite, complete_graph, cycle_graph, path_graph, relabel
from twinwidth.sequences import verify_width
from twinwidth.solver import (
    decide_twinwidth_at_most,
    greedy_sequence,
    twinwidth_exact,
    twinwidth_zero,
)


class TestDecide:
    def test_cograph_at_zero(self):
        r = decide_twinwidth_at_most(complete_graph(4), 0)
        assert r.status == "yes"
        assert verify_width(complete_graph(4), r.sequence) == 0

    def test_p4_threshold(self):
        assert decide_twinwidth_at_most(path_graph(4), 0).status == "no"
        assert decide_twinwidth_at_most(path_graph(4), 1).status == "yes"

    def test_c5_threshold(self):
        assert decide_twinwidth_at_most(cycle_graph(5), 1).status == "no"
        assert decide_twinwidth_at_most(cycle_graph(5), 2).status == "yes"

    def test_budget_exhaustion_reports_unknown(self):
        r = decide_twinwidth_at_most(cycle_graph(7), 2, budget=3)
        assert r.status == "unknown"
        assert r.sequence is None

    def test_monotone_in_d(self):
        rng = random.Random(5)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 7))
            prev = False
            for d in range(g.n):
                now = decide_twinwidth_at_most(g, d).status == "yes"
                assert now or not prev
                prev = prev or now

    def test_every_yes_certificate_verifies(self):
        rng = random.Random(6)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 8))
            for d in (0, 1, 2, 3):
                r = decide_twinwidth_at_most(g, d)
                if r.status == "yes":
                    assert verify_width(g, r.sequence) <= d
                    break

    def test_deterministic_certificates(self):
        g = random_graph(random.Random(7), 8)
        a = decide_twinwidth_at_most(g, 2)
        b = decide_twinwidth_at_most(g, 2)
        assert a == b


class TestExact:
    @pytest.mark.parametrize(
        "g,value",
        [(cycle_graph(4), 0), (path_graph(4), 1), (cycle_graph(5), 2), (complete_bipartite(3, 3), 0)],
    )
    def test_named_values(self, g, value):
        r = twinwidth_exact(g, 4)
        assert (r.status, r.value) == ("value", value)

    def test_family_small_instance(self):
        from twinwidth.structure import gen_tww3_family

        g, _ = gen_tww3_family(2)
        r = twinwidth_exact(g, 3)
        assert r.status == "value" and r.value <= 3
        assert verify_width(g, r.sequence) == r.value

    def test_exceeds_cap(self):
        assert twinwidth_exact(cycle_graph(5), 1).status == "exceeds-cap"

    def test_agrees_with_brute_force_on_small_atlas(self):
        for g in atlas_graphs(6):
            r = twinwidth_exact(g, g.n)
            assert r.status == "value"
            assert r.value == bf_twinwidth(g)

    def test_agrees_with_brute_force_on_sampled_8_vertex_graphs(self):
        rng = random.Random(88)
        for _ in range(80):
            g = random_graph(rng, 8)
            assert twinwidth_exact(g, 8).value == bf_twinwidth(g)


class TestZero:
    def test_biclique_is_cograph(self):
        s = twinwidth_zero(complete_bipartite(3, 3))
        assert s is not None
        assert verify_width(complete_bipartite(3, 3), s) == 0

    def test_p4_is_minimal_non_cograph(self):
        assert twinwidth_zero(path_graph(4)) is None

    def test_single_vertex(self):
        assert twinwidth_zero(complete_graph(1)) is not None

    def test_matches_induced_p4_freeness(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7))
            assert (twinwidth_zero(g) is None) == has_induced_p4(g)

    def test_zero_implies_exact_zero(self):
        rng = random.Random(12)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7))
            if twinwidth_zero(g) is not None:
                assert twinwidth_exact(g, 0).value == 0


class TestAgainstContractOracles:
    """greedy_sequence and twinwidth_zero run on the replay kernel; the
    oracles score every pair with an immutable `graphs.contract`."""

    def test_greedy_pairs_match(self):
        for g in random_graphs(2718, 120, 10):
            s, _ = greedy_sequence(g)
            assert list(s.pairs()) == naive_greedy_pairs(g), sorted(g.edges)

    def test_twin_merges_match(self):
        for g in random_graphs(3141, 200, 10):
            s = twinwidth_zero(g)
            assert (None if s is None else list(s.pairs())) == naive_twin_pairs(g), sorted(g.edges)


class TestGreedy:
    def test_cographs_stay_at_zero(self):
        for g in (complete_graph(5), complete_bipartite(2, 4)):
            _, w = greedy_sequence(g)
            assert w == 0

    def test_p4(self):
        s, w = greedy_sequence(path_graph(4))
        assert w == 1
        assert verify_width(path_graph(4), s) == 1

    def test_family_width_recorded_not_asserted(self):
        from twinwidth.structure import gen_tww3_family

        g, _ = gen_tww3_family(3)
        s, w = greedy_sequence(g)
        exact = twinwidth_exact(g, 4).value
        assert w >= exact
        assert verify_width(g, s) == w

    def test_relabel_determinism(self):
        g = random_graph(random.Random(3), 7)
        s1, w1 = greedy_sequence(g)
        s2, w2 = greedy_sequence(g)
        assert (s1, w1) == (s2, w2)
