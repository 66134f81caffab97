"""Exact twin-width decision at desk scale, plus heuristic sequences.

The search walks partition states of the original graph depth-first on
`search.walk`'s explicit stack, merging two parts per step.  A state's
quotient colors depend only on the partition, never on the merge order,
so visited canonical keys can be memoized: a state that failed once can
be skipped forever.  Branches are ordered by the child's maximum red
degree, then by the lexicographically smallest certificate pair, which
makes YES certificates and UNKNOWN outcomes deterministic.

A part keeps its slot for life: a product takes the higher slot of its
pair, so slot s holds the part whose largest vertex is s, and the memo
key, the live parts' vertex masks in slot order, is sorted.  Each slot
has two quotient rows, bitmasks over slots: `adjs` (parts joined by any
edge) and `reds` (red joins); `live` lists the slots in certificate-id
order.  A merge rewrites only its pair's rows and their neighbours'.

A merge of parts i, j is scored in two stages.  The merged part is black
to w iff both are, unjoined iff neither is joined, else red, so its red
row is (ai ^ aj) | ri | rj, and the first check is that row's size less
i and j.  Bits i and j of the row are both set exactly when i and j are
joined, so the check passes d iff the row's size is at most d, or at
most d + 2 for a joined pair.  Most pairs fail on one popcount and one
comparison with d + 2; only a pass is masked and listed.  The check
reads rows i and j alone, and a merge leaves the rows of every slot it
does not touch (the pair and their neighbours) as they were, so a child
keeps its parent's passing pairs that avoid the touched slots and checks
afresh only pairs with a touched endpoint.  The second stage reads the
degree classes of all rows, each of which moves by +1, 0 or -1, so it is
redone for every passing pair.  Merges over the bound are pruned, the
rest sorted; a child is built only when the walk asks for it and its
partition is new, and the last child takes over its parent's lists.

A child of the exact search checks fewer pairs still.  Let slots i < j
merge into j, and let M be the merged row of two other live slots x, y.
The merge changes the rows of x and y at bits i and j alone, so the
check of {x, y} moves by c'j - ci - cj, where cs says whether s lies in
M and c'j whether the product lies in M after the merge.  If x is red
to i, x is red to the product.  If x is joined to i and y is not, then
either y is unjoined to the product, which x is joined to, or y is
joined to j alone and so red to it.  With the same for y and for j,
c'j >= max(ci, cj), so a check falls by at most one, and only when i and
j both lie in M: when y is in D_i(x) & D_j(x), where D_s(x) is every slot
if x is red to s, and otherwise the slots whose join to s differs from
x's, together with s's red row.  So a child checks the product against
every live slot, and each other touched x against those slots and its
kept passing partners, whose checks may move either way.  Greedy checks
every pair with a touched endpoint: there this bookkeeping gained
nothing.

Both heuristics are one loop on the same rows, merged in place: greedy
is the search's first branch at unbounded width, stepping the bound up
from the width so far, and the width-0 path is greedy capped at 0.  A
pass at a new bound checks every pair, since a pair failing one bound
may pass the next.  With no red edge the best merge is the first twin
pair, found without scoring.  `sequences` replays every certificate and
shares no code with this module.
"""

from bisect import bisect_left
from dataclasses import dataclass

from .graphs import Graph, adjacency_rows
from .search import walk
from .sequences import ContractionSequence, sequence_from_pairs, verify_width

DEFAULT_BUDGET = 10**7

Pair = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class DecideResult:
    status: str  # "yes" | "no" | "unknown"
    sequence: ContractionSequence | None
    expanded: int


@dataclass(frozen=True)
class ExactResult:
    status: str  # "value" | "exceeds-cap" | "unknown"
    value: int | None
    sequence: ContractionSequence | None
    expanded: int


def _singleton_rows(g: Graph) -> list[int]:
    """The quotient rows of the singleton partition of a nonempty graph."""
    if g.n == 0:
        raise ValueError("twin-width is defined for nonempty graphs")
    return adjacency_rows(g)


def _first_checks(kept: list[Pair], touched: int, live: list[int], adjs: list[int], reds: list[int], d: int) -> list[Pair]:
    """The pairs of live slots i < j whose first check passes bound d, as
    (bits of i and j, i, j, check, merged red row less i and j): the kept
    pairs that avoid the touched slots, and every pair with a touched
    endpoint checked afresh; `touched` -1 checks every pair."""
    out = [pair for pair in kept if not pair[0] & touched]
    fresh = [i for i in live if touched >> i & 1]
    cands = fresh + [j for j in live if not touched >> j & 1]
    joined_bound = d + 2
    for x, i in enumerate(fresh, 1):
        ai, ri = adjs[i], reds[i]
        for j in cands[x:]:
            # red to the merged part: joined to exactly one of i, j, or red to
            # either; bits i and j are both set iff i and j are joined, so a
            # row of more than d + 2 fails whether or not they are
            merged = (ai ^ adjs[j]) | ri | reds[j]
            if (size := merged.bit_count()) <= joined_bound and (size <= d or ai >> j & 1):
                bits = 1 << i | 1 << j
                check = size - 2 * (ai >> j & 1)
                merged &= ~bits
                out.append((bits, i, j, check, merged) if i < j else (bits, j, i, check, merged))
    return out


def _reopened(adjs: list[int], reds: list[int], i: int, j: int) -> dict[int, int]:
    """Before slots i, j merge: for each neighbour x of i or j, the slots y
    with i and j both in the merged row of x and y, as a mask: the failing
    pairs on x that the merge can let pass (see the module docstring)."""
    ai, aj, ri, rj = adjs[i], adjs[j], reds[i], reds[j]
    out = {}
    m = (ai | aj) & ~(1 << i | 1 << j)
    while m:
        b = m & -m
        m ^= b
        # D_s(x): every slot if x is red to s, else the slots joined to s iff
        # x is not, and s's red row
        di = -1 if ri & b else ~ai | ri if ai & b else ai
        dj = -1 if rj & b else ~aj | rj if aj & b else aj
        out[b.bit_length() - 1] = di & dj
    return out


def _child_checks(kept: list[Pair], touched: int, partners: dict[int, int], j: int, livemask: int, live: list[int], adjs: list[int], reds: list[int], d: int) -> list[Pair]:
    """`_first_checks` after a merge into slot j, given `_reopened`'s
    partners, which it extends: the product is checked against every live
    slot, and each other touched slot x only against its partners and the
    other ends of its kept passing pairs."""
    bj = 1 << j
    gone = ~livemask | bj
    out = []
    for pair in kept:
        bits = pair[0]
        if not bits & touched:
            out.append(pair)
        elif not bits & gone:
            a, b = pair[1], pair[2]
            if a in partners:
                partners[a] |= 1 << b
            if b in partners:
                partners[b] |= 1 << a
    joined_bound = d + 2
    rest = livemask & ~bj
    for x, m in partners.items():
        bx = 1 << x
        rest &= ~bx  # x's pairs are all checked here, so later slots skip x
        m &= rest
        ax, rx = adjs[x], reds[x]
        while m:
            b = m & -m
            m ^= b
            y = b.bit_length() - 1
            merged = (ax ^ adjs[y]) | rx | reds[y]
            if (size := merged.bit_count()) <= joined_bound and (size <= d or ax >> y & 1):
                bits = bx | b
                check = size - 2 * (ax >> y & 1)
                merged &= ~bits
                out.append((bits, x, y, check, merged) if x < y else (bits, y, x, check, merged))
    aj, rj = adjs[j], reds[j]
    for y in live:
        if y != j:
            merged = (aj ^ adjs[y]) | rj | reds[y]
            if (size := merged.bit_count()) <= joined_bound and (size <= d or aj >> y & 1):
                bits = bj | 1 << y
                check = size - 2 * (aj >> y & 1)
                merged &= ~bits
                out.append((bits, y, j, check, merged) if y < j else (bits, j, y, check, merged))
    return out


def _ranked(pairs: list[Pair], exts: list[int], live: list[int], reds: list[int], d: int) -> list[tuple[int, tuple[int, int], int, int, int]]:
    """(maxdeg, certificate pair, i, j, merged red row) for every passing
    pair whose merge keeps every red degree <= d, unsorted; the tuple order
    is the search order, and the certificate pair decides every tie.  A row
    with no red edge cannot raise maxdeg, so no class holds it."""
    by_deg: dict[int, int] = {}
    for w in live:
        if r := reds[w]:
            k = r.bit_count()
            by_deg[k] = by_deg.get(k, 0) | 1 << w
    classes = sorted(by_deg.items(), reverse=True)
    out = []
    for bits, i, j, maxdeg, merged in pairs:
        ri, rj = reds[i], reds[j]
        up = merged & ~(ri | rj)  # +1: newly red to the merged part
        both = ri & rj  # -1: red to both; every other row stays
        # walk the degree classes down while one can still raise maxdeg
        for k, rows in classes:
            if k < maxdeg:
                break
            rows &= ~bits
            if rows & up:
                maxdeg = k + 1
            elif rows & ~both:
                maxdeg = k
            elif rows:
                maxdeg = max(maxdeg, k - 1)
        if maxdeg <= d:
            a, b = exts[i], exts[j]
            out.append((maxdeg, (a, b) if a < b else (b, a), i, j, merged))
    return out


def _merge(exts: list[int], live: list[int], adjs: list[int], reds: list[int], i: int, j: int, merged_red: int, ext: int) -> int:
    """Merges slots i < j in place: the product, id ext, takes slot j and
    slot i dies.  Returns the touched slots: i, j and their neighbours."""
    bi, bj = 1 << i, 1 << j
    gone = ~(bi | bj)
    nbrs = (adjs[i] | adjs[j]) & gone
    m = nbrs
    while m:
        b = m & -m
        w = b.bit_length() - 1
        m ^= b
        adjs[w] = adjs[w] & ~bi | bj
        r = reds[w] & gone
        reds[w] = r | bj if merged_red & b else r
    adjs[i] = reds[i] = 0
    adjs[j], reds[j], exts[j] = nbrs, merged_red, ext
    live.remove(i)
    live.remove(j)
    live.append(j)
    return nbrs | bi | bj


def decide_twinwidth_at_most(g: Graph, d: int, budget: int = DEFAULT_BUDGET) -> DecideResult:
    """Does g admit a contraction sequence of width <= d?

    YES carries a certificate that re-verifies at width <= d; NO means the
    memoized search exhausted every width-<= d partition state; UNKNOWN is
    returned only when the expansion budget runs out.
    """
    if d < 0:
        raise ValueError("width bound must be nonnegative")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    adjs = _singleton_rows(g)
    n = g.n
    visited: set[tuple[int, ...]] = set()

    def children(state):
        key, exts, live, adjs, reds, pairs, livemask = state
        scored = sorted(_ranked(pairs, exts, live, reds, d))
        ext = 2 * n - len(live)
        last = scored[-1][1] if scored else None
        for _, uv, i, j, merged_red in scored:
            # the key lists the parts by slot, and slot s's is its first mask >= 1 << s
            a, b = bisect_left(key, 1 << i), bisect_left(key, 1 << j)
            child = (*key[:a], *key[a + 1:b], key[a] | key[b], *key[b + 1:])
            if child not in visited:
                visited.add(child)
                partners = _reopened(adjs, reds, i, j)
                # the last child takes over the lists, which are never read again
                rows = (exts, live, adjs, reds) if uv == last else (exts[:], live[:], adjs[:], reds[:])
                touched = _merge(*rows, i, j, merged_red, ext)
                cmask = livemask & ~(1 << i)
                yield uv, (child, *rows, _child_checks(pairs, touched, partners, j, cmask, *rows[1:], d), cmask)

    live, reds = list(range(n)), [0] * n
    # from a list: tuple() resizes a generator's tuple, which would add one
    # to CPython's free list of n-tuples per call, a list nothing drains
    root = (tuple([1 << v for v in range(n)]), list(range(n)), live, adjs, reds, _first_checks([], -1, live, adjs, reds, d), (1 << n) - 1)
    steps, expanded = walk(root, n - 1, children, budget)
    if steps is not None:
        seq = sequence_from_pairs(n, steps)
        if verify_width(g, seq) > d:
            raise AssertionError("solver produced a certificate wider than requested")
        return DecideResult("yes", seq, expanded)
    return DecideResult("unknown" if expanded > budget else "no", None, expanded)


def twinwidth_exact(g: Graph, d_cap: int, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Smallest d <= d_cap admitting a d-contraction sequence.

    "exceeds-cap" reports an exhaustive NO for every d up to the cap.
    """
    if d_cap < 0:
        raise ValueError("cap must be nonnegative")
    total = 0
    for d in range(d_cap + 1):
        r = decide_twinwidth_at_most(g, d, budget)
        total += r.expanded
        if r.status == "yes":
            return ExactResult("value", d, r.sequence, total)
        if r.status == "unknown":
            return ExactResult("unknown", None, None, total)
    return ExactResult("exceeds-cap", None, None, total)


def _first_twins(live: list[int], adjs: list[int]) -> tuple[int, int] | None:
    """The slots of the first twin pair in certificate-id order, in rows with
    no red edge: false twins share a row, true twins a row plus their own
    bit (keyed apart by ~).  Scanned by position in `live`, so position p's
    first pair has its least partner; a pair at position 0 ends the scan."""
    first: dict[int, int] = {}
    best = None
    for q, s in enumerate(live):
        a = adjs[s]
        for key in (a, ~(a | 1 << s)):
            p = first.setdefault(key, q)
            if p < q and (best is None or p < best[0]):
                if p == 0:
                    return live[0], s
                best = p, q
    return best and (live[best[0]], live[best[1]])


def _greedy(g: Graph, cap: int) -> ContractionSequence | None:
    """`greedy_sequence`'s certificate, or None once a step needs a width
    above `cap`.  With no red edge a merge leaves none iff its parts are
    twins, so the first twin pair is the best merge.  `touched` gathers the
    slots merges touched since the last first-check pass, at `bound`."""
    adjs = _singleton_rows(g)
    n = g.n
    exts, live, reds = list(range(n)), list(range(n)), [0] * n
    steps: list[tuple[int, int]] = []
    width, bound, pairs, touched = 0, -1, [], 0
    while len(live) > 1:
        red = any(reds)
        if not red and (twins := _first_twins(live, adjs)):
            (i, j), merged_red = sorted(twins), 0
        else:
            # the smallest merge under the lowest bound admitting any, stepped
            # up from the width so far, and from 1 if no red edge or twin is left
            width = max(width, 0 if red else 1)
            while width <= cap:
                pairs = _first_checks(pairs, touched if width == bound else -1, live, adjs, reds, width)
                bound, touched = width, 0
                if scored := _ranked(pairs, exts, live, reds, width):
                    break
                width += 1
            else:
                return None
            _, _, i, j, merged_red = min(scored)
        steps.append((exts[i], exts[j]))
        touched |= _merge(exts, live, adjs, reds, i, j, merged_red, n + len(steps) - 1)
    return sequence_from_pairs(n, steps)


def twinwidth_zero(g: Graph) -> ContractionSequence | None:
    """Width-0 fast path: greedy capped at width 0, which merges the first
    twin pair until none is left.  Succeeds exactly on cographs, with a
    certificate that merges only twins and so verifies at width 0."""
    seq = _greedy(g, 0)
    if seq is not None and verify_width(g, seq) != 0:
        raise AssertionError("twin contraction produced a red edge")
    return seq


def greedy_sequence(g: Graph) -> tuple[ContractionSequence, int]:
    """The search's first branch at unbounded width: at each step contract
    the pair minimizing the resulting maximum red degree, ties broken by the
    smallest certificate id pair.  Returns it and its replay-verified width."""
    seq = _greedy(g, g.n)
    return seq, verify_width(g, seq)
