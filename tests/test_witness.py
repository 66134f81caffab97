import collections
import dataclasses
import random

import pytest

from corpus import random_graph, random_ktt_free, random_merge_order, random_partition, red_paths, singleton_partition
from oracles import (
    naive_advance_witness,
    naive_audit_sequence,
    naive_check_path_layout,
    naive_check_witness,
    naive_find_mesh_witness,
)
from plants import planted_cases, starved_cases
from twinwidth import witness
from twinwidth.graphs import complete_graph, cycle_graph, graph_from_edges, path_graph
from twinwidth.partitions import partition_from_blocks, quotient
from twinwidth.pipeline import decomposition_sequence
from twinwidth.sequences import (
    SequenceError,
    Split,
    invert,
    partitions_at,
    sequence_from_pairs,
    split_at,
    uncontraction_from_chain,
    uncontraction_from_splits,
    verify_width,
)
from twinwidth.solver import greedy_sequence, twinwidth_exact
from twinwidth.structure import gen_tww3_family, gen_wall, subdivide_wall, tww3_family_sequence, wall_to_mesh
from twinwidth.treewidth import decomposition_from_order, min_fill_order
from twinwidth.witness import (
    MAINTAINED,
    VIOLATED_RED_DEGREE,
    VIOLATED_STRUCTURE,
    MeshSearchMiss,
    MeshWitness,
    WitnessState,
    WitnessViolation,
    advance_witness,
    audit_sequence,
    black_edge_violations,
    black_neighborhood_weight,
    check_path_layout,
    check_witness,
    find_mesh_witness,
)


def four_blobs(size=8, paths=8, x1_extra=(), x2_layers=1):
    """Disjoint X1-X2-X3-X4 path bundles plus optional extras.

    Vertices: X1 = 0..size-1 (+ extras), then x2_layers blocks of `size`,
    then X3, X4.  Path i runs through the i-th vertex of each block.
    """
    blocks = 3 + x2_layers
    n = size * blocks + len(x1_extra)
    edges = []
    for i in range(paths):
        chain = [i + size * b for b in range(blocks)]
        edges.extend(zip(chain, chain[1:]))
    base = size * blocks
    for j, targets in enumerate(x1_extra):
        edges.extend((base + j, t) for t in targets)
    g = graph_from_edges(n, edges)
    x1 = frozenset(range(size)) | frozenset(range(base, base + len(x1_extra)))
    x2 = frozenset(range(size, size * (1 + x2_layers)))
    x3 = frozenset(range(size * (1 + x2_layers), size * (2 + x2_layers)))
    x4 = frozenset(range(size * (2 + x2_layers), size * (3 + x2_layers)))
    return g, x1, x2, x3, x4


class TestBlackNeighborhoodWeight:
    def test_triangle_singletons(self):
        pt = quotient(complete_graph(3), singleton_partition(3))
        assert black_neighborhood_weight(pt, 0) == 2

    def test_single_part_has_no_neighbours(self):
        g = complete_graph(3)
        pt = quotient(g, partition_from_blocks(3, [{0, 1, 2}]))
        assert black_neighborhood_weight(pt, 0) == 0

    def test_c4_pairs(self):
        pt = quotient(cycle_graph(4), partition_from_blocks(4, [{0, 2}, {1}, {3}]))
        assert black_neighborhood_weight(pt, 0) == 2

    def test_unknown_part(self):
        pt = quotient(cycle_graph(4), singleton_partition(4))
        with pytest.raises(ValueError):
            black_neighborhood_weight(pt, 9)


class TestBlackWeightBound:
    def test_big_parts_have_small_black_weight_when_biclique_free(self):
        # a black edge is a complete crossing, so a part of size >= t with
        # black weight >= t would witness a K_{t,t}
        import random as _random

        from corpus import random_ktt_free, random_partition

        rng = _random.Random(55)
        for _ in range(40):
            g = random_ktt_free(rng, rng.randint(4, 10))
            p = partition_from_blocks(g.n, random_partition(rng, g.n))
            pt = quotient(g, p)
            for pid, members in p.parts:
                if len(members) >= 2:
                    assert black_neighborhood_weight(pt, pid) <= 1


class TestBlackEdgeViolations:
    def test_singletons_are_too_small(self):
        pt = quotient(cycle_graph(4), singleton_partition(4))
        assert black_edge_violations(pt, 2) == []

    def test_c6_pairs_without_crossings(self):
        pt = quotient(cycle_graph(6), partition_from_blocks(6, [{0, 1}, {3, 4}, {2}, {5}]))
        assert black_edge_violations(pt, 2) == []

    def test_planted_biclique_sides(self):
        g = graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        pt = quotient(g, partition_from_blocks(4, [{0, 1}, {2, 3}]))
        assert black_edge_violations(pt, 2) == [(0, 2)]


class TestCheckWitness:
    def test_four_blob_witness(self):
        g, x1, x2, x3, x4 = four_blobs()
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        w = check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 2)
        assert (w.s, w.w2, w.w3) == (8, 0, 0)

    def test_x1_x4_join_is_rejected(self):
        g, x1, x2, x3, x4 = four_blobs()
        joined = graph_from_edges(g.n, set(g.edges) | {(u, v) for u in x1 for v in x4})
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        with pytest.raises(WitnessViolation) as exc:
            check_witness(joined, p, min(x1), min(x2), min(x3), min(x4), 2)
        assert exc.value.condition == "x1-x4 adjacent"

    def test_t_zero_is_vacuous(self):
        g, x1, x2, x3, x4 = four_blobs(paths=1)
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        w = check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 0)
        assert w.s + w.w2 + w.w3 >= 0

    def test_inequality_failure_is_named(self):
        g, x1, x2, x3, x4 = four_blobs(paths=3)
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        with pytest.raises(WitnessViolation) as exc:
            check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 2)
        assert exc.value.condition == "inequality below 4t"

    def test_quotient_of_another_partition_is_rejected(self):
        # sizes come from p and colours from pt: the singleton quotient has
        # no red edge, so this valid witness would read "x1-x2 not red"
        g, x1, x2, x3, x4 = four_blobs()
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        w = check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 2, pt=quotient(g, p))
        other = quotient(g, singleton_partition(g.n))
        with pytest.raises(ValueError, match="another partition"):
            check_witness(g, p, *w.parts, 2, pt=other)


def _verdict(check, g, p, ids, t, pt):
    try:
        return check(g, p, *ids, t, pt=pt)
    except WitnessViolation as exc:
        return exc.condition


class TestCheckWitnessAgainstNaive:
    """Bounding s by the part sizes before the flow changes no outcome:
    the same WitnessState, or the same failed condition, as the check
    that always runs the flow (`oracles.naive_check_witness`)."""

    def test_random_partitions_every_red_path(self, monkeypatch):
        flows = []
        cut = witness.min_vertex_cut
        monkeypatch.setattr(witness, "min_vertex_cut", lambda *a, **kw: flows.append(a) or cut(*a, **kw))
        rng = random.Random(2024)
        outcomes = {}
        for i in range(300):
            n = rng.randint(8, 20)
            g = random_graph(rng, n, (i % 5 + 1) / 20)
            if i % 3:
                # a few big parts, so that the flow decides some verdicts
                k = rng.randint(4, 7)
                order = rng.sample(range(n), n)
                blocks = [order[j::k] for j in range(k)]
            else:
                blocks = random_partition(rng, n)
            p = partition_from_blocks(n, blocks)
            pt = quotient(g, p)
            for ids in red_paths(pt.quotient.red_adj):
                for t in (1, 2, 3):
                    got = _verdict(check_witness, g, p, ids, t, pt)
                    assert got == _verdict(naive_check_witness, g, p, ids, t, pt), (i, ids, t)
                    kind = got if isinstance(got, str) else "valid"
                    outcomes[kind] = outcomes.get(kind, 0) + 1
        # the naive check runs a flow for every valid state and every
        # inequality failure; the bound settles some failures without one
        naive_flows = outcomes["valid"] + outcomes["inequality below 4t"]
        assert 0 < outcomes["valid"] < len(flows) < naive_flows
        assert outcomes["part too small"] and outcomes["x1-x4 adjacent"]

    def test_paths_may_bypass_x2(self):
        # X1 = {0, 1, 2}, X2 = {3}, X3 = {4, 5, 6}, X4 = {7, 8, 9}: two of
        # the three disjoint paths go X1-X3-X4, so s = 3 > |X2|; part {10}
        # is black to X2, and s + w2 + w3 = 4 = 4t meets the inequality
        edges = [(0, 3), (3, 4), (4, 7), (1, 5), (5, 8), (2, 6), (6, 9), (3, 10)]
        g = graph_from_edges(11, edges)
        p = partition_from_blocks(11, [{0, 1, 2}, {3}, {4, 5, 6}, {7, 8, 9}, {10}])
        w = check_witness(g, p, 0, 3, 4, 7, 1)
        assert (w.s, w.w2, w.w3) == (3, 1, 0)
        assert w == naive_check_witness(g, p, 0, 3, 4, 7, 1)

    def test_bound_names_the_path_count_bound(self):
        g, x1, x2, x3, x4 = four_blobs(size=2, paths=2)
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        with pytest.raises(WitnessViolation) as exc:
            check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 1)
        assert exc.value.condition == "inequality below 4t"
        assert str(exc.value) == "inequality below 4t: s<=2, w2=0, w3=0, 4t=4"


class TestAdvanceWitness:
    def test_outside_split_keeps_everything(self):
        g, x1, x2, x3, x4 = four_blobs()
        extra = frozenset({g.n, g.n + 1})
        g2 = graph_from_edges(g.n + 2, g.edges)
        p = partition_from_blocks(g2.n, [x1, x2, x3, x4, extra])
        w = check_witness(g2, p, min(x1), min(x2), min(x3), min(x4), 2)
        split = Split(min(extra), g.n, frozenset({g.n}), g.n + 1, frozenset({g.n + 1}))
        rep = advance_witness(g2, p, w, split)
        assert rep.verdict == MAINTAINED and rep.case == "outside"
        assert rep.successor.s == w.s

    def test_x1_split_transfers_weight_to_black_neighborhood(self):
        # the carved-off side is completely joined to X2, so its weight
        # moves into ||Nb(X2)|| and the inequality survives
        g, x1, x2, x3, x4 = four_blobs(x1_extra=[tuple(range(8, 16))])
        b = max(x1)
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        w = check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 2)
        split = Split(min(x1), min(x1), x1 - {b}, b, frozenset({b}))
        rep = advance_witness(g, p, w, split)
        assert rep.verdict == MAINTAINED
        assert rep.case == "endpoint split, remainder black to x2"
        assert rep.successor.w2 == w.w2 + 1
        assert rep.successor.s >= w.s - 1

    def test_x4_split_is_mirrored(self):
        # present the bundle backwards, so the black-transfer split hits x4
        g, x1, x2, x3, x4 = four_blobs(x1_extra=[tuple(range(8, 16))])
        b = max(x1)
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        w = check_witness(g, p, min(x4), min(x3), min(x2), min(x1), 2)
        split = Split(min(x1), min(x1), x1 - {b}, b, frozenset({b}))
        rep = advance_witness(g, p, w, split)
        assert rep.verdict == MAINTAINED
        assert rep.case == "endpoint split, remainder black to x2 (mirrored)"
        assert rep.successor.w3 == w.w3 + 1

    def test_x4_split_forcing_a_third_red_edge_dies(self):
        g, x1, x2, x3, x4 = four_blobs()
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        w = check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 2)
        lead = min(x4)
        split = Split(lead, lead, frozenset({lead}), sorted(x4)[1], x4 - {lead})
        rep = advance_witness(g, p, w, split)
        assert rep.verdict == VIOLATED_RED_DEGREE

    def test_x2_split_bridge(self):
        g, x1, x2, x3, x4 = four_blobs(x1_extra=[(0,), (0,)])
        extras = frozenset(range(g.n - 2, g.n))
        x2b = x2 | extras
        x1b = x1 - extras
        p = partition_from_blocks(g.n, [x1b, x2b, x3, x4])
        w = check_witness(g, p, min(x1b), min(x2b), min(x3), min(x4), 2)
        split = Split(min(x2b), min(x2), x2, min(extras), extras)
        rep = advance_witness(g, p, w, split)
        assert rep.verdict == MAINTAINED
        assert rep.case == "middle split, bridge through one side"
        assert rep.successor.parts == (min(x1b), min(x2), min(x3), min(x4))

    def test_x2_split_relay(self):
        g, x1, x2, x3, x4 = four_blobs(x2_layers=2)
        z_layer = frozenset(range(8, 16))
        y_layer = frozenset(range(16, 24))
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        w = check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 2)
        split = Split(min(x2), min(z_layer), z_layer, min(y_layer), y_layer)
        rep = advance_witness(g, p, w, split)
        assert rep.verdict == MAINTAINED
        assert rep.case == "middle split, path shifts into the split part"
        assert rep.successor.parts == (min(z_layer), min(y_layer), min(x3), min(x4))
        assert rep.successor.s >= w.s

    def test_x2_split_with_both_sides_red_dies(self):
        g, x1, x2, x3, x4 = four_blobs()
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        w = check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 2)
        half = frozenset(sorted(x2)[:4])
        split = Split(min(x2), min(half), half, min(x2 - half), x2 - half)
        rep = advance_witness(g, p, w, split)
        assert rep.verdict == VIOLATED_RED_DEGREE
        assert rep.case == "middle split, both sides red to x3"

    def test_invalid_input_witness(self):
        g, x1, x2, x3, x4 = four_blobs(paths=2)
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        bogus = WitnessState(4, min(x1), min(x2), min(x3), min(x4), 2, 9, 0, 0)
        split = Split(min(x1), min(x1), frozenset(sorted(x1)[:4]), sorted(x1)[4], frozenset(sorted(x1)[4:]))
        rep = advance_witness(g, p, bogus, split)
        assert rep.verdict == VIOLATED_STRUCTURE

    def test_conservation_inequality_on_maintained_steps(self):
        # endpoint-style splits never decrease s + w2 + w3
        cases = []
        g, x1, x2, x3, x4 = four_blobs(x1_extra=[tuple(range(8, 16))])
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        w = check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 2)
        for v in sorted(x1)[1:]:
            cases.append((g, p, w, Split(min(x1), min(x1 - {v}), x1 - {v}, v, frozenset({v}))))
        for g2, p2, w2, split in cases:
            rep = advance_witness(g2, p2, w2, split)
            if rep.verdict == MAINTAINED:
                s0 = w2.s + w2.w2 + w2.w3
                s1 = rep.successor.s + rep.successor.w2 + rep.successor.w3
                assert s1 >= min(s0, 4 * w2.t)


def _valid_states(g, p, pt):
    for ids in red_paths(pt.quotient.red_adj):
        for t in (1, 2):
            try:
                yield check_witness(g, p, *ids, t, pt=pt)
            except WitnessViolation:
                pass


def _split_battery():
    """(g, p, w, split) cases: the four-blob splits of TestAdvanceWitness
    and of criterion 6's conservation battery, then every valid t = 1, 2
    state of seeded random partitions with two splits of each of its parts
    and of one part outside it."""
    g, x1, x2, x3, x4 = four_blobs(x1_extra=[tuple(range(8, 16))])
    p = partition_from_blocks(g.n, [x1, x2, x3, x4])
    for ids in ((min(x1), min(x2), min(x3), min(x4)), (min(x4), min(x3), min(x2), min(x1))):
        w = check_witness(g, p, *ids, 2)
        for v in sorted(x1)[1:]:
            yield g, p, w, Split(min(x1), min(x1 - {v}), x1 - {v}, v, frozenset({v}))
        for x in (x2, x3, x4):
            half = frozenset(sorted(x)[:4])
            yield g, p, w, Split(min(x), min(half), half, min(x - half), x - half)
    g, x1, x2, x3, x4 = four_blobs(x1_extra=[(0,), (0,)])
    extras = frozenset(range(g.n - 2, g.n))
    p = partition_from_blocks(g.n, [x1 - extras, x2 | extras, x3, x4])
    w = check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 2)
    yield g, p, w, Split(min(x2), min(x2), x2, min(extras), extras)
    g, x1, x2, x3, x4 = four_blobs(x2_layers=2)
    p = partition_from_blocks(g.n, [x1, x2, x3, x4])
    w = check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 2)
    z_layer, y_layer = frozenset(range(8, 16)), frozenset(range(16, 24))
    yield g, p, w, Split(min(x2), min(z_layer), z_layer, min(y_layer), y_layer)
    rng = random.Random(3031)
    for i in range(120):
        n = rng.randint(8, 16)
        g = random_graph(rng, n, (i % 4 + 1) / 10)
        p = partition_from_blocks(n, random_partition(rng, n))
        pt = quotient(g, p)
        for w in _valid_states(g, p, pt):
            outside = [pid for pid in p.ids() if pid not in w.parts]
            for x in (*w.parts, *outside[:1]):
                members = sorted(p.members(x))
                if len(members) < 2:
                    continue
                for cut in (1, len(members) // 2):
                    a, b = frozenset(members[:cut]), frozenset(members[cut:])
                    yield g, p, w, Split(x, min(a), a, n + max(b), b)


class TestAutomatonAgainstNaive:
    """Each witness state is validated once, where it is made, and the
    automaton reports exactly what the copy that re-validated every state
    (`oracles.naive_advance_witness`, `oracles.naive_audit_sequence`) did."""

    def test_split_battery(self):
        kinds = collections.Counter()
        for g, p, w, split in _split_battery():
            rep = advance_witness(g, p, w, split)
            assert rep == naive_advance_witness(g, p, w, split), (w, split)
            if rep.successor is not None:
                assert rep.successor.index == len(p) + 1
            kinds[rep.verdict] += 1
        assert kinds[MAINTAINED] >= 50 and kinds[VIOLATED_RED_DEGREE] >= 50, kinds

    def test_the_successor_is_built_on_the_split_partition(self):
        # advance_witness builds both quotients itself and takes neither
        # from the caller, so the successor sits on the split partition
        g, x1, x2, x3, x4 = four_blobs()
        extra = frozenset({g.n, g.n + 1})
        g2 = graph_from_edges(g.n + 2, g.edges)
        p = partition_from_blocks(g2.n, [x1, x2, x3, x4, extra])
        w = check_witness(g2, p, min(x1), min(x2), min(x3), min(x4), 2)
        split = Split(min(extra), g.n, frozenset({g.n}), g.n + 1, frozenset({g.n + 1}))
        for kw in ("pt", "pt_next"):
            with pytest.raises(TypeError):
                advance_witness(g2, p, w, split, **{kw: quotient(g2, p)})
        assert advance_witness(g2, p, w, split).successor.index == 6

    def test_unknown_split_parent_is_named(self):
        g, x1, x2, x3, x4 = four_blobs()
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        w = check_witness(g, p, min(x1), min(x2), min(x3), min(x4), 2)
        with pytest.raises(ValueError, match="unknown part id 99"):
            advance_witness(g, p, w, Split(99, 99, frozenset({0}), 100, frozenset({1})))

    @pytest.mark.parametrize("family", ["tww3", "k22-free", "width-2"])
    def test_audits_from_every_valid_state(self, family):
        chains = []
        if family == "tww3":
            for n in range(3, 7):
                g, _ = gen_tww3_family(n)
                chains.append((g, tww3_family_sequence(n)))
        rng = random.Random(4242)
        for _ in range(0 if family == "tww3" else 30):
            if family == "k22-free":
                g = random_ktt_free(rng, rng.randint(10, 16), p=0.3)
                chains.append((g, greedy_sequence(g)[0]))
            else:
                g = random_graph(rng, rng.randint(8, 11), 0.3)
                r = twinwidth_exact(g, 2, 2000)
                if r.sequence is not None:
                    chains.append((g, r.sequence))
        outcomes = collections.Counter()
        for g, seq in chains:
            u = invert(g, seq)
            for i in range(1, g.n + 1):
                p = partitions_at(u, i)
                for w in _valid_states(g, p, quotient(g, p)):
                    r = audit_sequence(g, u, w, w.t)
                    assert r == naive_audit_sequence(g, u, w, w.t), (w, r)
                    outcomes[r.verdict, r.step > w.index] += 1
        assert sum(outcomes.values()) >= 20, outcomes
        if family != "tww3":
            assert outcomes["contradiction-found", True] >= 10, outcomes

    def test_each_state_is_validated_once(self, monkeypatch):
        checked = collections.Counter()
        check = witness.check_witness

        def counting(g, p, *ids_and_t, pt=None):
            checked[p, ids_and_t] += 1
            return check(g, p, *ids_and_t, pt=pt)

        monkeypatch.setattr(witness, "check_witness", counting)
        rng = random.Random(4242)
        audits = 0
        while audits < 40:
            g = random_graph(rng, rng.randint(8, 11), 0.3)
            r = twinwidth_exact(g, 2, 2000)
            if r.sequence is None:
                continue
            u = invert(g, r.sequence)
            for i in range(1, g.n + 1):
                p = partitions_at(u, i)
                for ids in red_paths(quotient(g, p).quotient.red_adj):
                    try:
                        w = check(g, p, *ids, 1)
                    except WitnessViolation:
                        continue
                    checked.clear()
                    audit_sequence(g, u, w, 1)
                    audits += 1
                    assert checked and max(checked.values()) == 1, checked.most_common(1)
        g, x1, x2, x3, x4 = four_blobs(x1_extra=[tuple(range(8, 16))])
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        w = check(g, p, min(x4), min(x3), min(x2), min(x1), 2)
        checked.clear()
        b = max(x1)
        rep = advance_witness(g, p, w, Split(min(x1), min(x1), x1 - {b}, b, frozenset({b})))
        assert rep.case.endswith("(mirrored)")
        # the input once, and the mirrored successor once
        assert sorted(checked.values()) == [1, 1]


class TestAudit:
    def test_c4_has_no_witness(self):
        g = cycle_graph(4)
        s = sequence_from_pairs(4, [(0, 2), (1, 3), (4, 5)])
        u = invert(g, s)
        w0 = WitnessState(4, 0, 1, 2, 3, 1, 0, 0, 0)
        r = audit_sequence(g, u, w0, 1)
        assert r.verdict == "no-witness"

    def test_valid_witness_never_survives(self):
        # with a genuine witness planted, the automaton must report either
        # a forced contradiction or an escape of the ambient sequence
        g, x1, x2, x3, x4 = four_blobs()
        chain = [
            [x1 | x2 | x3 | x4],
            [x1 | x2, x3 | x4],
            [x1, x2, x3 | x4],
            [x1, x2, x3, x4],
        ]
        u = uncontraction_from_chain(g.n, _pad(chain, g.n))
        w0 = check_witness(g, partitions_at(u, 4), min(x1), min(x2), min(x3), min(x4), 2)
        r = audit_sequence(g, u, w0, 2)
        assert r.verdict in ("contradiction-found", "sequence-escaped")

    def test_contradiction_step_is_reported(self):
        g = graph_from_edges(8, [(0, 1), (1, 3), (3, 4), (1, 6), (2, 6), (1, 7), (2, 7), (3, 6), (3, 7)])
        seq = sequence_from_pairs(8, [(6, 7), (4, 5), (1, 2), (0, 10), (3, 9), (11, 12), (8, 13)])
        u = invert(g, seq)
        w0 = check_witness(g, partitions_at(u, 5), 0, 10, 3, 9, 1)
        r = audit_sequence(g, u, w0, 1)
        assert r.verdict == "contradiction-found"
        assert r.step == 6


def _pad(chain, n):
    chain = [list(level) for level in chain]
    while len(chain) < n:
        last = chain[-1]
        big = min((b for b in last if len(b) >= 2), key=min)
        v = min(big)
        chain.append([b for b in last if b is not big] + [frozenset([v]), big - {v}])
    return chain


class TestWidth2WitnessBoundary:
    """The maintenance argument needs biclique-freeness at the witness
    scale; with t = 1 any graph with an edge is outside that regime, and a
    width-2 sequence can in fact pass through a valid t = 1 witness."""

    def test_valid_witness_on_a_width2_certifying_sequence(self):
        g = graph_from_edges(8, [(0, 1), (1, 3), (3, 4), (1, 6), (2, 6), (1, 7), (2, 7), (3, 6), (3, 7)])
        seq = sequence_from_pairs(8, [(6, 7), (4, 5), (1, 2), (0, 10), (3, 9), (11, 12), (8, 13)])
        assert verify_width(g, seq) == 2
        u = invert(g, seq)
        w = check_witness(g, partitions_at(u, 5), 0, 10, 3, 9, 1)
        assert w.s + w.w2 + w.w3 >= 4


class TestPathLayout:
    def test_four_blob_layout(self):
        g, x1, x2, x3, x4 = four_blobs()
        p = partition_from_blocks(g.n, [x1, x2, x3, x4])
        assert check_path_layout(g, p, min(x1), min(x2), min(x3), min(x4)).ok

    def test_direct_x1_x3_edge_is_structural(self):
        g, x1, x2, x3, x4 = four_blobs()
        g2 = graph_from_edges(g.n, set(g.edges) | {(min(x1), min(x3))})
        p = partition_from_blocks(g2.n, [x1, x2, x3, x4])
        r = check_path_layout(g2, p, min(x1), min(x2), min(x3), min(x4))
        assert not r.ok and r.reason == "x1-x3 edge present"

    def test_no_paths_is_vacuously_fine(self):
        # x1 and x4 sit in different components: an empty path family passes
        g = graph_from_edges(8, [(0, 2), (4, 6)])
        p = partition_from_blocks(8, [{0, 1}, {2, 3}, {4, 5}, {6, 7}])
        assert check_path_layout(g, p, 0, 2, 4, 6).ok

    def test_matches_the_edge_scan(self):
        # the adjacencies read from the quotient give the same report, in
        # the same order of checks, as scanning g's edges three times
        rng = random.Random(919)
        reasons = collections.Counter()
        for i in range(200):
            n = rng.randint(6, 16)
            g = random_graph(rng, n, (i % 5 + 1) / 12)
            p = partition_from_blocks(n, random_partition(rng, n))
            paths = red_paths(quotient(g, p).quotient.red_adj)
            for four in rng.sample(paths, min(len(paths), 5)):
                r = check_path_layout(g, p, *four)
                assert r == naive_check_path_layout(g, p, *four), (i, four)
                reasons[r.reason] += 1
        assert {None, "x1-x3 edge present", "x2-x4 edge present", "x1-x4 edge present"} <= set(reasons), reasons


class TestMeshWitnessSearch:
    def test_a_planted_state_is_recovered(self):
        pl = planted_cases()[0]
        assert find_mesh_witness(pl.g, pl.useq, pl.mesh, pl.k, pl.t) == pl.expected

    def test_a_transposed_plant_uses_columns(self):
        rows_plants = [p for p in planted_cases() if p.name.startswith("rows")]
        assert rows_plants
        pl = rows_plants[0]
        assert find_mesh_witness(pl.g, pl.useq, pl.mesh, pl.k, pl.t) == pl.expected

    def test_split_of_unknown_part_is_rejected(self):
        # the chain is checked when it is built, so the bad chain never
        # reaches the search
        pl = planted_cases()[0]
        splits = [split_at(pl.useq, i) for i in range(pl.useq.n - 1)]
        bad = dataclasses.replace(splits[0], parent=-1)
        with pytest.raises(SequenceError):
            useq = uncontraction_from_splits(pl.useq.n, pl.useq.root_id, [bad] + splits[1:])
            find_mesh_witness(pl.g, useq, pl.mesh, pl.k, pl.t)

    def test_starved_controls_miss_with_named_stages(self):
        for pl in starved_cases():
            r = find_mesh_witness(pl.g, pl.useq, pl.mesh, pl.k, pl.t)
            assert isinstance(r, MeshSearchMiss), pl.name
            if pl.stage:
                assert r.stage == pl.stage, pl.name

    def test_found_witness_checks_out(self):
        pl = planted_cases()[0]
        r = find_mesh_witness(pl.g, pl.useq, pl.mesh, pl.k, pl.t)
        assert isinstance(r, MeshWitness)
        p = partitions_at(pl.useq, r.m)
        w = check_witness(pl.g, p, r.x1, r.x2, r.x3, r.x4, pl.t)
        assert w.s >= r.s

    def test_invalid_mesh_is_an_error(self):
        pl = planted_cases()[0]
        broken = type(pl.mesh)(pl.mesh.n, pl.mesh.rows[:-1] + (pl.mesh.rows[-1][:-2],), pl.mesh.cols)
        with pytest.raises(ValueError):
            find_mesh_witness(pl.g, pl.useq, broken, pl.k, pl.t)

    def test_a_chain_over_another_vertex_count_is_refused(self):
        g, wl = gen_wall(6)
        p10 = path_graph(10)
        u = invert(p10, greedy_sequence(p10)[0])
        with pytest.raises(ValueError, match="^chain is over 10 vertices, graph has 36$"):
            find_mesh_witness(g, u, wall_to_mesh(g, wl, 2), 2)


def _random_chain(rng, n):
    """n partitions from {V} to singletons, each splitting a random part
    of at least two vertices into two random nonempty halves."""
    chain = [[frozenset(range(n))]]
    while len(chain) < n:
        level = list(chain[-1])
        big = level.pop(rng.choice([i for i, b in enumerate(level) if len(b) > 1]))
        members = list(big)
        rng.shuffle(members)
        cut = rng.randrange(1, len(members))
        chain.append(level + [frozenset(members[:cut]), frozenset(members[cut:])])
    return chain


def _peeling_chain(n, order):
    """n partitions that peel `order`'s vertices off one by one."""
    return [[frozenset([v]) for v in order[:i]] + [frozenset(order[i:])] for i in range(n)]


class TestMeshSearchAgainstNaive:
    """The level and heavy part read off the splits from the end give the
    same result as the forward replay with its own part and weight maps
    (`oracles.naive_find_mesh_witness`)."""

    def test_walls_and_chains(self):
        rng = random.Random(1820)
        outcomes = collections.Counter()
        for side in (6, 8, 10, 12):
            for times in (0, 1, 2):
                g, wl = gen_wall(side)
                if times:
                    g, wl = subdivide_wall(g, wl, times)
                td = decomposition_from_order(g, min_fill_order(g)[0])
                chains = (
                    invert(g, decomposition_sequence(g, td)),
                    invert(g, random_merge_order(rng, g.n)),
                    uncontraction_from_chain(g.n, _random_chain(rng, g.n)),
                )
                for big_n in range(2, min(5, (side - 2) // 2) + 1):
                    mesh = wall_to_mesh(g, wl, big_n)
                    for u in chains:
                        for k in (1, 2):
                            for t in (1, 2):
                                r = find_mesh_witness(g, u, mesh, k, t)
                                assert r == naive_find_mesh_witness(g, u, mesh, k, t), (side, times, big_n, k, t)
                                outcomes[r.stage if isinstance(r, MeshSearchMiss) else "witness"] += 1
        # walls under these chains miss early, at the red chain or the row escape
        assert len(outcomes) >= 2, outcomes

    def test_plants(self):
        # the plants reach the later stages and find witnesses
        outcomes = collections.Counter()
        for pl in planted_cases() + starved_cases():
            r = find_mesh_witness(pl.g, pl.useq, pl.mesh, pl.k, pl.t)
            assert r == naive_find_mesh_witness(pl.g, pl.useq, pl.mesh, pl.k, pl.t), pl.name
            outcomes[r.stage if isinstance(r, MeshSearchMiss) else "witness"] += 1
        assert outcomes["witness"] >= 40 and len(outcomes) >= 5, outcomes

    @staticmethod
    def _level_read(monkeypatch):
        levels = []
        read = witness.partitions_at
        monkeypatch.setattr(witness, "partitions_at", lambda u, i: levels.append(i) or read(u, i))
        return levels

    def test_a_light_v_is_the_heavy_part(self, monkeypatch):
        # the 2 x 2 mesh has 8 branching vertices: below 4k^2 = 16 for
        # k = 2, so m = 1 and Z = V, which meets 2k^2 = 8, but no line leaves V
        g, wl = gen_wall(6)
        mesh = wall_to_mesh(g, wl, 2)
        u = invert(g, random_merge_order(random.Random(6), g.n))
        levels = self._level_read(monkeypatch)
        r = find_mesh_witness(g, u, mesh, 2)
        assert levels == [1]
        assert r == naive_find_mesh_witness(g, u, mesh, 2)
        assert r == MeshSearchMiss("row escape failed", "only 0 of 2 lines escape the chain parts")
        r = find_mesh_witness(g, u, mesh, 3)
        assert r == naive_find_mesh_witness(g, u, mesh, 3)
        assert r == MeshSearchMiss("no heavy part", "the last split's heavier side holds 8 < 18 branching vertices")

    def test_the_latest_heavy_split(self, monkeypatch):
        # the last split's part has two vertices, never 4k^2 >= 4 branching
        # ones; peeling the branching vertices last makes the fourth-last
        # split heavy for k = 1, the latest a heavy split can be: m = n - 2
        g, wl = gen_wall(6)
        mesh = wall_to_mesh(g, wl, 2)
        order = sorted(range(g.n), key=lambda v: (v in mesh.branching, v))
        u = uncontraction_from_chain(g.n, _peeling_chain(g.n, order))
        levels = self._level_read(monkeypatch)
        for t in (1, 2):
            r = find_mesh_witness(g, u, mesh, 1, t)
            assert r == naive_find_mesh_witness(g, u, mesh, 1, t)
        assert levels == [g.n - 2, g.n - 2]
