"""Contraction sequences, width verification by replay, and the
uncontraction view.

Certificate id convention: the original graph's vertices are 0..n-1 and
the product of the j-th contraction (0-based) is the fresh id n+j, so a
full sequence uses ids 0..2n-2.  A sequence is n and its merge pairs,
each normalised to u < v; a product id is never stored, since it follows
from the step's position.  The replay kernel keys its rows by slot (one
of 0..n-1) and maps slots back to certificate ids only when it takes a
snapshot.

The uncontraction view is a chain of partitions from {V} to singletons,
stored as its merge tree in the same id convention, with the part id
each node carries.  `invert` takes the certificate's steps as the
merges; an explicit chain is checked once, by the split rule of
`partitions.refine_part`, in `uncontraction_from_splits`.  No member set
is stored: `partitions_at` builds a level in O(n), and `split_at` one
split's halves by walking its two subtrees.  Each level's
`VertexPartition` still checks its own cover and disjointness.
"""

from dataclasses import dataclass

from .graphs import Graph, Trigraph, pair
from .partitions import VertexPartition, refine_part


class SequenceError(ValueError):
    """A malformed contraction or uncontraction sequence."""


@dataclass(frozen=True)
class ContractionSequence:
    """n-1 pair-merges turning an n-vertex graph into a single vertex.

    `steps` holds the (u, v) pairs with u < v; step j's product is n+j.
    """

    n: int
    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise SequenceError("sequences are defined for graphs with at least one vertex")
        if len(self.steps) != self.n - 1:
            raise SequenceError(f"expected {self.n - 1} steps, got {len(self.steps)}")
        for j, (u, v) in enumerate(self.steps):
            if type(u) is not int or type(v) is not int:
                raise SequenceError(f"step {j} has a non-integer id in ({u!r},{v!r})")
            if u == v:
                raise SequenceError(f"step {j} contracts {u} with itself")

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self.steps


def _ordered(u, v) -> tuple:
    try:
        return (u, v) if u < v else (v, u)
    except TypeError:  # ids that do not compare; the sequence names the step
        return (u, v)


def sequence_from_pairs(n: int, pairs_list) -> ContractionSequence:
    return ContractionSequence(n, tuple(_ordered(u, v) for u, v in pairs_list))


class ReplayState:
    """Mutable trigraph over certificate ids: the replay kernel.

    It only replays certificates, for `width_trace`, `verify_width` and
    `apply_prefix`; no search builds on it.  `graphs.contract` is the
    immutable reference.  Rows live in two lists indexed by slot (one of
    0..n-1), not by certificate id: the product of a merge takes over the
    slot of the side with more neighbours, so a merge rewrites only the
    rows of the other side's neighbours and of the kept side's black
    neighbours that turn red, and the freed slot's rows become None.
    `_slot` maps each certificate id 0..2n-2 to its slot, or to -1 while
    the id is dead or not yet born; `snapshot` maps slots back to ids.  A
    histogram of the live red degrees, updated by `apply` for the rows it
    changes, makes `max_red_degree` O(1).
    """

    def __init__(self, g: Graph):
        n = g.n
        self.black: list[set[int] | None] = [set() for _ in range(n)]
        for u, v in g.edges:
            self.black[u].add(v)
            self.black[v].add(u)
        self.red: list[set[int] | None] = [set() for _ in range(n)]
        self._slot = list(range(n)) + [-1] * max(n - 1, 0)  # certificate id -> slot, -1 if not live
        self._id = list(range(n))  # slot -> certificate id
        self._next = n  # the next product's certificate id
        self._rows_of_degree = [n] + [0] * n  # red degree -> live rows with it
        self._max_red = 0

    def apply(self, u: int, v: int) -> None:
        """Merge u and v; the product's id is n + the merges applied so far."""
        slot, x = self._slot, self._next
        # a negative index would wrap around the list, so range-check first
        if not (0 <= u < x and 0 <= v < x) or slot[u] < 0 or slot[v] < 0:
            raise SequenceError(f"step merges dead or unknown vertex in ({u},{v})")
        if u == v:
            raise SequenceError(f"step contracts {u} with itself")
        a, b = slot[u], slot[v]
        black, red, hist = self.black, self.red, self._rows_of_degree
        ba, ra, bb, rb = black[a], red[a], black[b], red[b]
        if len(ba) + len(ra) < len(bb) + len(rb):
            a, b, ba, ra, bb, rb = b, a, bb, rb, ba, ra
        slot[u] = slot[v] = -1
        slot[x] = a
        self._id[a] = x
        self._next = x + 1
        black[b] = red[b] = None
        hist[len(ra)] -= 1
        hist[len(rb)] -= 1
        ba.discard(b)
        ra.discard(b)
        bb.discard(a)
        rb.discard(a)
        # only these rows change: b's black neighbours see the product red
        # unless they saw a, b's red neighbours trade b for a, and a's black
        # neighbours outside b's neighbourhood turn red; a's row takes each
        # new red neighbour in the same walk and keeps black only the
        # common black neighbours
        for w in bb:
            black[w].remove(b)
            if w not in ba and w not in ra:
                row = red[w]
                k = len(row)
                row.add(a)
                hist[k] -= 1
                hist[k + 1] += 1
                ra.add(w)
        for w in rb:
            row = red[w]
            row.remove(b)
            if a in row:
                k = len(row)
                hist[k + 1] -= 1
                hist[k] += 1
            else:
                row.add(a)
                black[w].discard(a)
        for w in ba:
            if w in bb:
                continue
            ra.add(w)
            if w in rb:
                continue
            black[w].remove(a)
            row = red[w]
            k = len(row)
            row.add(a)
            hist[k] -= 1
            hist[k + 1] += 1
        ra |= rb
        ba &= bb
        hist[len(ra)] += 1
        # a row gains at most the product; walk down to the first degree held
        top = max(self._max_red + 1, len(ra))
        while top and not hist[top]:
            top -= 1
        self._max_red = top

    def max_red_degree(self) -> int:
        return self._max_red

    def snapshot(self) -> Trigraph:
        ids = self._id
        live = [a for a, row in enumerate(self.black) if row is not None]
        verts = frozenset(ids[a] for a in live)
        black = frozenset(pair(ids[a], ids[b]) for a in live for b in self.black[a] if a < b)
        red = frozenset(pair(ids[a], ids[b]) for a in live for b in self.red[a] if a < b)
        return Trigraph(verts, black, red)


def _check_shape(g: Graph, s: ContractionSequence) -> None:
    if s.n != g.n:
        raise SequenceError(f"sequence is for n={s.n}, graph has n={g.n}")


def width_trace(g: Graph, s: ContractionSequence) -> list[int]:
    """Max red degree of the trigraph after each step (length n-1)."""
    _check_shape(g, s)
    state = ReplayState(g)
    trace = []
    for u, v in s.steps:
        state.apply(u, v)
        trace.append(state.max_red_degree())
    return trace


def verify_width(g: Graph, s: ContractionSequence) -> int:
    """Exact maximum red degree over all trigraphs of the sequence.

    The sequence "has width <= d" iff the result is <= d.  The initial
    trigraph is the graph itself and contributes red degree 0.
    """
    return max(width_trace(g, s), default=0)


def apply_prefix(g: Graph, s: ContractionSequence, i: int) -> Trigraph:
    """The trigraph after the first i contractions, on certificate ids."""
    _check_shape(g, s)
    if not (0 <= i <= g.n - 1):
        raise SequenceError(f"prefix length {i} out of range")
    state = ReplayState(g)
    for u, v in s.steps[:i]:
        state.apply(u, v)
    return state.snapshot()


@dataclass(frozen=True)
class Split:
    """One refinement step: `parent` splits into two nonempty parts."""

    parent: int
    id_a: int
    set_a: frozenset[int]
    id_b: int
    set_b: frozenset[int]


@dataclass(frozen=True)
class UncontractionSequence:
    """Chain of partitions from {V} to singletons, as its merge tree.

    Leaves 0..n-1 are the vertices and node n+j is the product of
    `merges[j]`, so split i undoes merge n-2-i; `part_ids[x]` is the id
    node x's part carries while live.  Each merge must join two live
    nodes, and no two live nodes may carry one id, or a SequenceError
    names the first merge or id that breaks this."""

    n: int
    merges: tuple[tuple[int, int], ...]
    part_ids: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if len(self.merges) != n - 1 or len(self.part_ids) != 2 * n - 1:
            raise SequenceError(f"expected {n - 1} merges and {2 * n - 1} part ids")
        ids, merges = self.part_ids, self.merges
        live: set[int] = set()  # the live nodes' ids; a dead node's id may come back
        dead = bytearray(2 * n - 1)
        for x in range(2 * n - 1):
            if x >= n:
                u, v = merges[x - n]
                # a negative index would wrap around, so range-check first
                if not (0 <= u < x and 0 <= v < x) or u == v or dead[u] or dead[v]:
                    raise SequenceError(f"step merges dead or unknown vertex in ({u},{v})")
                dead[u] = dead[v] = 1
                live.remove(ids[u])
                live.remove(ids[v])
            if ids[x] in live:
                raise SequenceError(f"part id {ids[x]} is live twice")
            live.add(ids[x])

    @property
    def root_id(self) -> int:
        return self.part_ids[-1]


def partitions_at(u: UncontractionSequence, i: int) -> VertexPartition:
    """The i-th partition of the chain; i=1 is {V}, i=n is singletons.
    One pass over the first n-i merges, from the last, labels each node
    with its live ancestor, and the vertices are grouped by theirs."""
    n = u.n
    if not (1 <= i <= n):
        raise SequenceError(f"partition index {i} out of range 1..{n}")
    top = 2 * n - i  # the nodes born by level i
    anc = list(range(top))
    merges = u.merges
    for x in range(top - 1, n - 1, -1):
        a, b = merges[x - n]
        anc[a] = anc[b] = anc[x]
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(anc[v], []).append(v)
    ids = u.part_ids
    return VertexPartition(n, tuple(sorted((ids[x], frozenset(vs)) for x, vs in groups.items())))


def split_at(u: UncontractionSequence, i: int) -> Split:
    """Split i of the chain (0-based), which undoes merge n-2-i; each half
    is the leaves of one subtree, found by one walk of it."""
    n = u.n
    if not (0 <= i < n - 1):
        raise SequenceError(f"split index {i} out of range 0..{n - 2}")
    x = 2 * n - 2 - i
    ids, halves = u.part_ids, []
    for child in u.merges[x - n]:
        nodes = [child]
        for y in nodes:  # the list grows by each inner node's children
            if y >= n:
                nodes += u.merges[y - n]
        halves += (ids[child], frozenset(y for y in nodes if y < n))
    return Split(ids[x], *halves)


def invert(g: Graph, s: ContractionSequence) -> UncontractionSequence:
    """The partition view of a contraction sequence.

    The k-part partition groups original vertices by the live vertex they
    contracted into; part ids are the live certificate ids, and split i
    undoes the (n-i)-th contraction.  The steps are the merge tree.
    """
    _check_shape(g, s)
    return UncontractionSequence(g.n, s.steps, tuple(range(2 * g.n - 1)))


def uncontraction_from_splits(n: int, root_id: int, splits) -> UncontractionSequence:
    """Build an uncontraction sequence from explicit splits, first to last.

    Checked once, here: from {root_id: V}, each of the n-1 splits obeys
    `partitions.refine_part`, or a SequenceError names the first that
    does not.  Undone from the last, the splits give the merge tree."""
    splits = tuple(splits)
    if len(splits) != n - 1:
        raise SequenceError(f"expected {n - 1} splits, got {len(splits)}")
    parts = {root_id: frozenset(range(n))}
    for i, sp in enumerate(splits):
        try:
            refine_part(parts, sp.parent, (sp.id_a, sp.set_a), (sp.id_b, sp.set_b))
        except ValueError as exc:
            raise SequenceError(f"split {i}: {exc}") from None
    node = {pid: v for pid, (v,) in parts.items()}  # the last level is n singletons
    part_ids = sorted(node, key=node.get)  # leaf v carries its singleton's id
    merges = []
    for x, sp in enumerate(reversed(splits), n):
        merges.append((node.pop(sp.id_a), node.pop(sp.id_b)))
        node[sp.parent] = x
        part_ids.append(sp.parent)
    return UncontractionSequence(n, tuple(merges), tuple(part_ids))


def uncontraction_from_chain(n: int, chain) -> UncontractionSequence:
    """Build an uncontraction sequence from an explicit partition chain.

    `chain` lists n partitions as iterables of vertex sets, starting at
    {V} and ending at singletons, each refining the previous by splitting
    exactly one part.  Part ids are each part's minimum vertex.  Each split
    is derived from two adjacent levels; `uncontraction_from_splits`
    checks the rest.
    """
    levels = [{frozenset(b) for b in level} for level in chain]
    if levels[:1] != [{frozenset(range(n))}]:
        raise SequenceError("chain must start at the one-part partition")
    splits = []
    for i in range(1, len(levels)):
        gone, new = levels[i - 1] - levels[i], levels[i] - levels[i - 1]
        if len(gone) != 1 or len(new) != 2:
            raise SequenceError(f"chain step {i} does not split exactly one part in two")
        (parent,) = gone
        a, b = sorted(new, key=min)
        splits.append(Split(min(parent), min(a), a, min(b), b))
    return uncontraction_from_splits(n, 0, splits)


def sequence_relabel(s: ContractionSequence, perm) -> ContractionSequence:
    """Rename original vertices by perm; product ids are positional and stay."""

    def f(x: int) -> int:
        return perm[x] if x < s.n else x

    return sequence_from_pairs(s.n, ((f(u), f(v)) for u, v in s.steps))
