import collections
import random
import time
import tracemalloc

import pytest

from corpus import random_graph, random_merge_order, random_tree
from oracles import NaiveReplayState, naive_find_mesh_witness, naive_invert, naive_levels, naive_splits
from twinwidth.graphs import (
    Graph,
    complete_graph,
    contract,
    cycle_graph,
    max_red_degree,
    path_graph,
    relabel,
    trigraph_from_graph,
)
from twinwidth.sequences import (
    ContractionSequence,
    ReplayState,
    SequenceError,
    Split,
    UncontractionSequence,
    apply_prefix,
    invert,
    partitions_at,
    sequence_from_pairs,
    sequence_relabel,
    split_at,
    uncontraction_from_chain,
    uncontraction_from_splits,
    verify_width,
    width_trace,
)
from twinwidth.partitions import quotient
from twinwidth.pipeline import decomposition_sequence
from twinwidth.solver import greedy_sequence
from twinwidth.structure import gen_tww3_family, gen_wall, tww3_family_sequence, wall_to_mesh
from twinwidth.treewidth import decomposition_from_order, min_fill_order
from twinwidth.witness import MeshSearchMiss, find_mesh_witness


def _max_red_row(state: ReplayState) -> int:
    return max((len(row) for row in state.red if row is not None), default=0)


def _naive_trace(g, steps) -> list[int]:
    state = NaiveReplayState(g)
    trace = []
    for u, v in steps:
        state.apply(u, v)
        trace.append(state.max_red_degree())
    return trace


def _lockstep(g, steps, seen=None) -> None:
    """Replay `steps` on the kernel and on `NaiveReplayState`, comparing
    both after every step.  `seen` tallies each merge by how u and v are
    linked and by which side has more neighbours (the kept slot)."""
    fast, slow = ReplayState(g), NaiveReplayState(g)
    for u, v in steps:
        if seen is not None:
            link = "black" if v in slow.black[u] else "red" if v in slow.red[u] else "none"
            du = len(slow.black[u]) + len(slow.red[u])
            dv = len(slow.black[v]) + len(slow.red[v])
            seen[link, "u" if du > dv else "v" if dv > du else "tie"] += 1
        fast.apply(u, v)
        slow.apply(u, v)
        assert fast.snapshot() == slow.snapshot()
        assert fast.max_red_degree() == slow.max_red_degree() == _max_red_row(fast)


def _matching_sweep(m: int):
    """A perfect matching on 2m vertices and the sequence that grows one
    blob from vertex 0 through every even vertex, then every odd one:
    the blob's red degree reaches m."""
    g = Graph(2 * m, frozenset((2 * i, 2 * i + 1) for i in range(m)))
    order = [*range(2, 2 * m, 2), *range(1, 2 * m, 2)]
    return g, sequence_from_pairs(2 * m, [(0 if j == 0 else 2 * m + j - 1, x) for j, x in enumerate(order)])


class TestVerifyWidth:
    def test_single_vertex(self):
        assert verify_width(complete_graph(1), sequence_from_pairs(1, [])) == 0

    def test_c4_twin_merges_stay_width_zero(self):
        s = sequence_from_pairs(4, [(0, 2), (1, 3), (4, 5)])
        assert verify_width(cycle_graph(4), s) == 0
        assert width_trace(cycle_graph(4), s) == [0, 0, 0]

    def test_family_n4_has_width_exactly_3(self):
        g, _ = gen_tww3_family(4)
        assert verify_width(g, tww3_family_sequence(4)) == 3

    def test_malformed_steps(self):
        g = path_graph(4)
        with pytest.raises(SequenceError):
            verify_width(g, sequence_from_pairs(4, [(0, 1), (0, 2), (5, 3)]))  # 0 is dead
        with pytest.raises(SequenceError):
            sequence_from_pairs(4, [(0, 1), (4, 2)])  # wrong step count
        with pytest.raises(SequenceError):
            verify_width(path_graph(3), sequence_from_pairs(4, [(0, 1), (4, 2), (5, 3)]))

    @pytest.mark.parametrize("bad", [0.0, True, "0"], ids=["float", "bool", "str"])
    def test_non_integer_ids_are_rejected(self, bad):
        """A float, bool or string id names its step instead of replaying
        as the vertex it compares equal to."""
        for pairs, j in (([(bad, 1), (2, 3)], 0), ([(0, 1), (bad, 3)], 1), ([(1, bad), (2, 3)], 0)):
            with pytest.raises(SequenceError) as exc:
                sequence_from_pairs(3, pairs)
            assert str(exc.value).startswith(f"step {j} has a non-integer id in (")
            assert repr(bad) in str(exc.value)
        with pytest.raises(SequenceError, match="step 1 has a non-integer id"):
            ContractionSequence(3, ((0, 1), (bad, 3)))

    def test_deterministic_trace(self):
        g = random_graph(random.Random(0), 8)
        s, _ = greedy_sequence(g)
        assert width_trace(g, s) == width_trace(g, s)


class TestKernelAgainstContract:
    """The mutable replay kernel must agree with the immutable reference
    `graphs.contract` after every merge."""

    def test_random_merge_orders(self):
        rng = random.Random(5150)
        for _ in range(60):
            n = rng.randint(2, 11)
            g = random_graph(rng, n)
            state, t = ReplayState(g), trigraph_from_graph(g)
            for j in range(n - 1):
                u, v = sorted(rng.sample(sorted(t.vertices), 2))
                state.apply(u, v)
                t = contract(t, u, v, n + j)
                assert state.snapshot() == t
                assert state.max_red_degree() == max_red_degree(t) == _max_red_row(state)

    def test_running_max_red_degree(self):
        """The kept maximum equals a scan of the red rows after every step,
        on the paper's certificates and on random merge orders."""
        rng = random.Random(2718)
        for n in range(2, 7):
            g, _ = gen_tww3_family(n)
            orders = [tww3_family_sequence(n)] + [random_merge_order(rng, g.n) for _ in range(4)]
            for s in orders:
                state = ReplayState(g)
                for u, v in s.steps:
                    state.apply(u, v)
                    assert state.max_red_degree() == _max_red_row(state)

    def test_apply_rejects_dead_vertices(self):
        state = ReplayState(path_graph(3))
        state.apply(0, 1)
        with pytest.raises(SequenceError):
            state.apply(0, 2)

    def test_apply_rejects_a_self_merge(self):
        """A live vertex merged with itself is refused before any row
        changes; the slot lists would otherwise free the slot it keeps."""
        state = ReplayState(path_graph(4))
        with pytest.raises(SequenceError, match="step contracts 1 with itself"):
            state.apply(1, 1)
        state.apply(1, 2)
        assert state.snapshot() == contract(trigraph_from_graph(path_graph(4)), 1, 2, 4)


class TestKernelAgainstNaive:
    """The slot-keyed kernel must give the same trigraph, maximum red
    degree, trace and errors as the id-keyed kernel it replaced
    (`oracles.NaiveReplayState`), after every step."""

    def test_random_merge_orders(self):
        rng = random.Random(9090)
        seen = collections.Counter()
        for _ in range(400):
            n = rng.randint(2, 14)
            g = random_graph(rng, n)
            _lockstep(g, random_merge_order(rng, n).steps, seen)
        # every link kind under every larger-side outcome
        assert len(seen) == 9 and min(seen.values()) >= 20, seen

    def test_family(self):
        rng = random.Random(2024)
        for n in range(2, 9):
            g, _ = gen_tww3_family(n)
            for s in [tww3_family_sequence(n)] + [random_merge_order(rng, g.n) for _ in range(3)]:
                _lockstep(g, s.steps)

    def test_width_trace_random_orders(self):
        rng = random.Random(1540)
        for n in range(15, 41):
            g, _ = gen_tww3_family(n)
            s = random_merge_order(rng, g.n)
            trace = _naive_trace(g, s.steps)
            assert width_trace(g, s) == trace
            assert verify_width(g, s) == max(trace)
            i = rng.randrange(g.n)
            slow = NaiveReplayState(g)
            for u, v in s.steps[:i]:
                slow.apply(u, v)
            assert apply_prefix(g, s, i) == slow.snapshot()

    def test_errors_match(self):
        rng = random.Random(77)
        for _ in range(200):
            n = rng.randint(3, 12)
            g = random_graph(rng, n)
            pairs = list(random_merge_order(rng, n).pairs())
            j = rng.randrange(1, n - 1)
            dead = sorted({x for p in pairs[:j] for x in p})
            bad = rng.choice([*dead, -1, 3 * n])
            pairs[j] = (bad, pairs[j][1])
            messages = []
            for state in (ReplayState(g), NaiveReplayState(g)):
                with pytest.raises(SequenceError) as exc:
                    for u, v in pairs:
                        state.apply(u, v)
                messages.append(str(exc.value))
            assert messages[0] == messages[1] == f"step merges dead or unknown vertex in ({pairs[j][0]},{pairs[j][1]})"

    @pytest.mark.parametrize("j", [0, 3, 6])
    @pytest.mark.parametrize("bad", ["-1", "-n", "n+j", "2n-1"])
    def test_ids_a_list_index_would_wrap_or_overrun(self, bad, j):
        """Negative ids would wrap around a list index, the unborn product
        n+j at step j and the id 2n-1 past the last product would read
        past the live ids: each is a dead or unknown vertex to both kernels,
        on either side of the pair."""
        n = 8
        g = random_graph(random.Random(31), n)
        pairs = list(random_merge_order(random.Random(j), n).pairs())
        x = {"-1": -1, "-n": -n, "n+j": n + j, "2n-1": 2 * n - 1}[bad]
        for step in ((x, pairs[j][1]), (pairs[j][0], x)):
            for state in (ReplayState(g), NaiveReplayState(g)):
                for u, v in pairs[:j]:
                    state.apply(u, v)
                with pytest.raises(SequenceError) as exc:
                    state.apply(*step)
                assert str(exc.value) == f"step merges dead or unknown vertex in ({step[0]},{step[1]})"


class TestApplyPrefix:
    def test_zero_prefix_is_the_graph(self):
        g = cycle_graph(5)
        s, _ = greedy_sequence(g)
        t = apply_prefix(g, s, 0)
        assert t == trigraph_from_graph(g)

    def test_full_prefix_is_one_vertex(self):
        g = cycle_graph(5)
        s, _ = greedy_sequence(g)
        assert apply_prefix(g, s, 4).n == 1

    def test_c5_first_merge(self):
        s = sequence_from_pairs(5, [(0, 1), (5, 2), (6, 3), (7, 4)])
        t = apply_prefix(cycle_graph(5), s, 1)
        assert t.red == {(2, 5), (4, 5)}

    def test_out_of_range(self):
        s = sequence_from_pairs(3, [(0, 1), (2, 3)])
        with pytest.raises(SequenceError):
            apply_prefix(path_graph(3), s, 3)


class TestInvert:
    def test_extreme_partitions(self):
        g = random_graph(random.Random(2), 7)
        s, _ = greedy_sequence(g)
        u = invert(g, s)
        first = partitions_at(u, 1)
        assert list(first.by_id.values()) == [frozenset(range(7))]
        last = partitions_at(u, 7)
        assert sorted(last.by_id.values(), key=min) == [frozenset([v]) for v in range(7)]

    def test_p4_second_partition(self):
        s = sequence_from_pairs(4, [(0, 1), (4, 2), (5, 3)])
        u = invert(path_graph(4), s)
        p2 = partitions_at(u, 2)
        assert sorted(p2.by_id.values(), key=len) == [frozenset([3]), frozenset([0, 1, 2])]

    def test_duality_exact_on_random_corpus(self):
        rng = random.Random(42)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 9))
            s, _ = greedy_sequence(g)
            u = invert(g, s)
            for i in range(g.n):
                tri = apply_prefix(g, s, i)
                pt = quotient(g, partitions_at(u, g.n - i))
                assert pt.quotient == tri

    def test_chain_builder_round_trip(self):
        chain = [
            [frozenset(range(4))],
            [frozenset({0, 1, 2}), frozenset({3})],
            [frozenset({0}), frozenset({1, 2}), frozenset({3})],
            [frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})],
        ]
        u = uncontraction_from_chain(4, chain)
        for i, level in enumerate(chain, 1):
            assert sorted(partitions_at(u, i).by_id.values(), key=min) == sorted(level, key=min)

    def test_chain_builder_rejects_bad_chain(self):
        with pytest.raises(SequenceError):
            uncontraction_from_chain(3, [[frozenset({0, 1, 2})], [frozenset({0, 1, 2})], [frozenset({0}), frozenset({1}), frozenset({2})]])


class TestInvertAgainstNaive:
    """`invert` walks the certificate once; it builds the same chain, and
    names a bad id with the same message, as the copy that walked it
    twice beside a separate live set (`oracles.naive_invert`)."""

    def test_same_chains(self):
        rng = random.Random(1818)
        cases = [(random_graph(rng, n, 0.1), random_merge_order(rng, n)) for n in (1, 2, 3, *range(4, 201, 7))]
        cases += [(gen_tww3_family(big_n)[0], tww3_family_sequence(big_n)) for big_n in range(1, 9)]
        graphs = [gen_wall(size)[0] for size in (2, 4, 6, 8)]
        graphs += [random_tree(rng, n) for n in (1, 5, 40, 120)] + [random_graph(rng, n, 0.2) for n in (6, 12, 24)]
        cases += [(g, decomposition_sequence(g, decomposition_from_order(g, min_fill_order(g)[0]))) for g in graphs]
        for g, s in cases:
            u = invert(g, s)
            assert u == naive_invert(g, s), (g.n, s.steps[:3])
            _assert_reads_match(u, *naive_splits(g, s))

    def test_chains_with_chosen_ids(self):
        """Hand-built splits whose halves keep the parent's id or take one an
        earlier split freed, and the same chains as explicit levels."""
        rng = random.Random(1919)
        for n in (1, 2, 3, 4, 7, 12, 30, 61):
            for _ in range(4):
                root, splits = _random_splits(rng, n)
                _assert_reads_match(uncontraction_from_splits(n, root, splits), root, splits)
                # the same chain as explicit levels names each part by its minimum
                chain = [level.values() for level in naive_levels(n, root, splits)]
                by_min = []
                for sp in splits:
                    a, b = sorted((sp.set_a, sp.set_b), key=min)
                    by_min.append(Split(min(a | b), min(a), a, min(b), b))
                _assert_reads_match(uncontraction_from_chain(n, chain), 0, by_min)

    def test_reads_out_of_range(self):
        u = invert(path_graph(4), sequence_from_pairs(4, [(0, 1), (4, 2), (5, 3)]))
        for i in (0, 5):
            with pytest.raises(SequenceError, match=f"^partition index {i} out of range 1..4$"):
                partitions_at(u, i)
        for i in (-1, 3):
            with pytest.raises(SequenceError, match=f"^split index {i} out of range 0..2$"):
                split_at(u, i)

    @pytest.mark.parametrize("kind", ["dead", "unborn", "negative", "past the end"])
    def test_bad_ids_are_named_alike(self, kind):
        n = 9
        g = path_graph(n)
        steps = random_merge_order(random.Random(9), n).steps
        named = 0
        for j in (0, n // 2, n - 2):
            bad = {"dead": steps[0][0], "unborn": n + j, "negative": -1, "past the end": 2 * n - 1}[kind]
            if kind == "dead" and j == 0:
                continue  # nothing has died before the first step
            for side in (0, 1):
                step = list(steps[j])
                step[side] = bad
                s = ContractionSequence(n, steps[:j] + (tuple(step),) + steps[j + 1:])
                with pytest.raises(SequenceError) as got:
                    invert(g, s)
                with pytest.raises(SequenceError) as want:
                    naive_invert(g, s)
                assert str(got.value) == str(want.value) == f"step merges dead or unknown vertex in ({step[0]},{step[1]})"
                named += 1
        assert named == (4 if kind == "dead" else 6)


def _assert_reads_match(u, root, splits):
    """Every level and every split read off the merge tree equal the ones
    replayed from the explicit splits by `oracles.naive_levels`."""
    levels = naive_levels(u.n, root, splits)
    assert u.root_id == root
    for i, level in enumerate(levels, 1):
        assert partitions_at(u, i).by_id == level, (u.n, i)
    for i, sp in enumerate(splits):
        assert split_at(u, i) == sp, (u.n, i)


def _random_splits(rng, n):
    """A random chain over 0..n-1 as a root id and explicit splits; each
    half takes an id no live part holds: the parent's, one freed by an
    earlier split, or a fresh one."""
    root = rng.randrange(3 * n)
    parts = {root: frozenset(range(n))}
    splits = []
    while len(parts) < n:
        parent = rng.choice(sorted(pid for pid, members in parts.items() if len(members) > 1))
        whole = sorted(parts.pop(parent))
        rng.shuffle(whole)
        cut = rng.randint(1, len(whole) - 1)
        id_a, id_b = rng.sample([x for x in range(3 * n) if x not in parts], 2)
        parts[id_a], parts[id_b] = frozenset(whole[:cut]), frozenset(whole[cut:])
        splits.append(Split(parent, id_a, parts[id_a], id_b, parts[id_b]))
    return root, tuple(splits)


class TestChainCheckedWhenBuilt:
    """An uncontraction sequence is checked when it is built: a split that
    breaks the split rule raises at construction, naming its index, and is
    never left for `partitions_at` to find."""

    def test_overlapping_halves_from_a_chain(self):
        chain = [[{0, 1, 2}], [{0, 1}, {1, 2}], [{0}, {1}, {1, 2}]]
        with pytest.raises(SequenceError, match="^split 0: children must split"):
            uncontraction_from_chain(3, chain)

    @pytest.mark.parametrize(
        "splits, message",
        [
            ((Split(9, 0, frozenset({0}), 1, frozenset({1, 2})), Split(1, 1, frozenset({1}), 2, frozenset({2}))),
             "split 0: unknown part id 9"),
            ((Split(0, 0, frozenset({0, 1}), 1, frozenset({1, 2})), Split(0, 0, frozenset({0}), 1, frozenset({1}))),
             "split 0: children must split the parent part into two nonempty sets"),
            ((Split(0, 0, frozenset({0}), 1, frozenset({1, 2})), Split(1, 0, frozenset({1}), 2, frozenset({2}))),
             "split 1: child id 0 collides with an existing part"),
            ((Split(0, 0, frozenset({0}), 1, frozenset({1, 2})), Split(1, 2, frozenset({1}), 2, frozenset({2}))),
             "split 1: child id 2 collides with an existing part"),
            ((Split(0, 0, frozenset(), 1, frozenset({0, 1, 2})), Split(1, 1, frozenset({1}), 2, frozenset({2}))),
             "split 0: children must split the parent part into two nonempty sets"),
        ],
    )
    def test_hand_built_chains(self, splits, message):
        with pytest.raises(SequenceError) as exc:
            uncontraction_from_splits(3, 0, splits)
        assert str(exc.value) == message

    def test_wrong_split_count(self):
        with pytest.raises(SequenceError, match="expected 2 splits, got 1"):
            uncontraction_from_splits(3, 0, (Split(0, 0, frozenset({0}), 1, frozenset({1, 2})),))
        with pytest.raises(SequenceError, match="expected 2 splits, got 0"):
            uncontraction_from_chain(3, [[{0, 1, 2}]])

    @pytest.mark.parametrize(
        "n, merges, part_ids, repeated",
        [(2, ((0, 1),), (5, 5, 7), 5), (3, ((0, 1), (2, 3)), (1, 2, 3, 3, 9), 3)],
        ids=["two-leaves", "leaf-and-product"],
    )
    def test_two_live_parts_with_one_id(self, n, merges, part_ids, repeated):
        # these were accepted, and partitions_at raised a bare ValueError
        with pytest.raises(SequenceError, match=f"^part id {repeated} is live twice$"):
            UncontractionSequence(n, merges, part_ids)

    def test_a_dead_id_comes_back(self):
        u = UncontractionSequence(3, ((0, 1), (2, 3)), (1, 2, 3, 1, 1))
        assert [partitions_at(u, i).by_id for i in (1, 2)] == [{1: frozenset({0, 1, 2})},
                                                               {1: frozenset({0, 1}), 3: frozenset({2})}]

    def test_a_valid_chain_reuses_the_parent_id(self):
        u = uncontraction_from_splits(3, 0, (Split(0, 0, frozenset({0, 1}), 2, frozenset({2})),
                                             Split(0, 0, frozenset({0}), 1, frozenset({1}))))
        assert partitions_at(u, 2).by_id == {0: frozenset({0, 1}), 2: frozenset({2})}
        assert partitions_at(u, 3).by_id == {0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2})}

    def test_every_prefix_of_a_long_chain(self):
        """A 1,000-vertex path certificate whose products swallow one vertex
        each: every `partitions_at(u, i)` is one O(n) pass over the merge
        tree (9.6 s when each call re-checked every earlier split)."""
        n = 1000
        s = sequence_from_pairs(n, [(0, 1)] + [(n + j, j + 2) for j in range(n - 2)])
        start = time.perf_counter()
        u = invert(path_graph(n), s)
        sizes = [len(partitions_at(u, i)) for i in range(1, n + 1)]
        assert time.perf_counter() - start < 2.0
        assert sizes == list(range(1, n + 1))


class TestMergeTreeScale:
    """A 2,000-vertex one-accumulator chain holds no member sets: `invert`
    and each read stay linear in n (at 84 MB traced when every split
    carried its halves' member sets)."""

    @staticmethod
    def _accumulator(n):
        return sequence_from_pairs(n, [(0, 1)] + [(n + j, j + 2) for j in range(n - 2)])

    @staticmethod
    def _peak(f):
        """f's result and the peak of the memory traced while it ran."""
        tracemalloc.start()
        try:
            return f(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_invert_and_a_middle_level(self):
        n = 2000
        g, s = path_graph(n), self._accumulator(n)

        def read():
            u = invert(g, s)
            return u, partitions_at(u, n // 2)

        (u, level), peak = self._peak(read)
        assert peak < 8 * 2**20, peak
        # level i holds the product of the first n - i merges and n - i
        # untouched vertices
        want = {2 * n - n // 2 - 1: frozenset(range(n - n // 2 + 1))}
        want.update((v, frozenset((v,))) for v in range(n - n // 2 + 1, n))
        assert level.by_id == want
        assert split_at(u, n - 2) == Split(n, 0, frozenset({0}), 1, frozenset({1}))
        small = path_graph(60)
        _assert_reads_match(invert(small, self._accumulator(60)), *naive_splits(small, self._accumulator(60)))

    def test_mesh_weight_scan(self):
        g, wl = gen_wall(45)
        mesh, s = wall_to_mesh(g, wl, 4), self._accumulator(g.n)
        r, peak = self._peak(lambda: find_mesh_witness(g, invert(g, s), mesh, 2))
        assert peak < 8 * 2**20, peak
        assert isinstance(r, MeshSearchMiss) and r.stage == "red degree above 2 on chain"
        g, wl = gen_wall(12)
        mesh, s = wall_to_mesh(g, wl, 4), self._accumulator(g.n)
        assert find_mesh_witness(g, invert(g, s), mesh, 2) == naive_find_mesh_witness(g, naive_invert(g, s), mesh, 2)


class TestRelabeling:
    def test_width_invariant_under_relabeling(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8))
            s, w = greedy_sequence(g)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert verify_width(relabel(g, perm), sequence_relabel(s, perm)) == w


class TestScale:
    """Replay of a 19,740-vertex trigraph: the running maximum replaces a
    scan of every live row after each step (15-22 s at this size)."""

    def test_paper_certificate(self):
        g, _ = gen_tww3_family(140)
        s = tww3_family_sequence(140)
        start = time.perf_counter()
        assert verify_width(g, s) == 3
        assert time.perf_counter() - start < 2.0

    def test_random_merge_order(self):
        g, _ = gen_tww3_family(140)
        s = random_merge_order(random.Random(140), g.n)
        start = time.perf_counter()
        trace = width_trace(g, s)
        assert len(trace) == g.n - 1 and trace[-1] == 0
        assert time.perf_counter() - start < 5.0

    def test_matching_sweep(self):
        """One blob swallowing 12,000 vertices keeps its slot, so no step
        rewrites its 6,000 red neighbours (12-16 s when each merge moved
        every red row to a fresh product id)."""
        g, s = _matching_sweep(6000)
        start = time.perf_counter()
        assert verify_width(g, s) == 6000
        assert time.perf_counter() - start < 2.0
