"""Exact tree-width at desk scale, with verified tree decompositions.

The solver walks elimination orderings depth-first on `search.walk`,
each set of eliminated vertices expanded once, pruned by a
degeneracy-style lower bound, a greedy min-fill upper bound, and in each
state by Dirac's two simplicial vertices (see `treewidth_order`).  A
state's fill rows give each live vertex's neighbours in the elimination
graph, and eliminating v rewrites only the rows of v's fill neighbours,
so a state costs O(n + k) word operations, and its last child takes
over its rows.  The first candidate, in (fill degree, id) order, that is
almost simplicial (its fill neighbours less one vertex form a clique) is
the state's only branch, the rule of Bodlaender, Koster and van den
Eijkhof (Comput. Intell. 2005).
`treewidth_exact` decides k upward from the contraction bound, so every
NO raises the lower bound it reports; its one decomposition is rebuilt
from the winning ordering and re-checked by the literal three-condition
verifier.
"""

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, adjacency_rows
from .search import walk

DEFAULT_BUDGET = 10**6  # subset states; the CLIs' default, the library's is unbounded


class BudgetExceeded(RuntimeError):
    """Raised when a bounded search runs out of its state budget."""


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags on a tree; width is max bag size minus one."""

    bags: tuple[tuple[int, frozenset[int]], ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def by_id(self) -> dict[int, frozenset[int]]:
        return dict(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for _, b in self.bags), default=0) - 1


@dataclass(frozen=True)
class TDReport:
    valid: bool
    width: int | None
    violation: str | None


def verify_tree_decomposition(g: Graph, td: TreeDecomposition) -> TDReport:
    """Check treeness and the three decomposition conditions, in that order.

    The bags holding each vertex are indexed once, so every check costs
    about the total size of the bags.
    """
    ids = [i for i, _ in td.bags]
    if len(set(ids)) != len(ids):
        return TDReport(False, None, "duplicate bag id")
    idset = set(ids)
    for a, b in td.edges:
        if a not in idset or b not in idset:
            return TDReport(False, None, f"tree edge ({a},{b}) uses an unknown bag")
    if len(td.edges) != len(ids) - 1:
        return TDReport(False, None, f"{len(ids)} bags need {len(ids) - 1} tree edges, got {len(td.edges)}")
    nbrs: dict[int, set[int]] = {i: set() for i in ids}
    for a, b in td.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    if ids:
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for y in nbrs[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != idset:
            return TDReport(False, None, "bag tree is disconnected")
    holding: list[set[int]] = [set() for _ in range(g.n)]  # vertex -> ids of the bags holding it
    for i, bag in td.bags:
        for v in bag:
            if not (0 <= v < g.n):
                return TDReport(False, None, f"bag vertex {v} out of range")
            holding[v].add(i)
    missing = [v for v in range(g.n) if not holding[v]]
    if missing:
        return TDReport(False, None, f"vertices {missing} are in no bag")
    for u, v in sorted(g.edges):
        if holding[u].isdisjoint(holding[v]):
            return TDReport(False, None, f"edge ({u},{v}) is in no bag")
    # in a tree, k nodes are connected iff k - 1 tree edges join them
    joined = [0] * g.n
    by_id = td.by_id
    for a, b in td.edges:
        for v in by_id[a] & by_id[b]:
            joined[v] += 1
    for v in range(g.n):
        if joined[v] != len(holding[v]) - 1:
            return TDReport(False, None, f"bags holding vertex {v} are not connected in the tree")
    return TDReport(True, td.width, None)


# ------------------------------------------------------- elimination core


def min_fill_order(g: Graph) -> tuple[list[int], int]:
    """Greedy min-fill elimination order and its width (an upper bound).

    Eliminates the live vertex with the smallest (fill, degree, id), where
    fill counts the non-adjacent pairs among its neighbours.  Each vertex
    keeps its fill count, updated by the change one elimination makes, and
    a lazy-deletion heap holds the keys, so a step costs what its fill
    edges touch rather than a rescore of every live vertex.
    """
    nbrs = [set(row) for row in g.adj]
    fill = [0] * g.n
    for v, around in enumerate(nbrs):
        if (d := len(around)) > 1:
            fill[v] = d * (d - 1) // 2 - sum(len(around & nbrs[u]) for u in around) // 2
    keys: list[tuple[int, int] | None] = [(fill[v], len(nbrs[v])) for v in range(g.n)]
    heap = [(f, d, v) for v, (f, d) in enumerate(keys)]
    heapq.heapify(heap)
    order: list[int] = []
    width = 0
    while heap:
        f, d, v = heapq.heappop(heap)
        if keys[v] != (f, d):
            continue  # v is eliminated, or has a newer key in the heap
        keys[v] = None
        width = max(width, d)
        order.append(v)
        around = nbrs[v]
        changed = set(around)
        # v leaves: each neighbour u loses the missing pairs {v, x}, x in N(u) - N(v)
        for u in around:
            row = nbrs[u]
            row.discard(v)
            fill[u] -= len(row) - len(around & row)  # iterates the smaller set
        # each fill edge {a, b} closes the pair in every common neighbour
        # and opens the pairs {b, x}, x in N(a) - N(b), in a (and back in b)
        for a in around:
            for b in around:
                if a < b and b not in nbrs[a]:
                    na, nb = nbrs[a], nbrs[b]
                    common = na & nb
                    for c in common:
                        fill[c] -= 1
                    changed |= common
                    fill[a] += len(na) - len(common)
                    fill[b] += len(nb) - len(common)
                    na.add(b)
                    nb.add(a)
        for u in changed:
            key = (fill[u], len(nbrs[u]))
            if key != keys[u]:
                keys[u] = key
                heapq.heappush(heap, (*key, u))
    return order, width


def minor_min_width(g: Graph) -> int:
    """Degeneracy-style contraction lower bound on tree-width.

    Contracts the live vertex with the smallest (degree, id) into its
    neighbour with the fewest common neighbours (ties to the smaller id),
    taking the largest degree met.  A lazy-deletion heap holds the keys,
    and a contraction rekeys only the vertices whose degree it changes.
    """
    nbrs = [set(row) for row in g.adj]
    degree: list[int | None] = [len(row) for row in nbrs]
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    live = g.n
    lb = 0
    while live > 1:
        d, v = heapq.heappop(heap)
        if degree[v] != d:
            continue  # v is gone, or has a newer key in the heap
        lb = max(lb, d)
        degree[v] = None
        live -= 1
        around = nbrs[v]
        if not around:
            continue
        w = min(around, key=lambda x: (len(around & nbrs[x]), x))
        for u in around:
            row = nbrs[u]
            row.discard(v)
            if u != w and w not in row:
                row.add(w)
                nbrs[w].add(u)
        # w gains v's other neighbours; the common ones lose one
        for u in around:
            if degree[u] != len(nbrs[u]):
                degree[u] = len(nbrs[u])
                heapq.heappush(heap, (degree[u], u))
    return lb


def _almost_simplicial(fill: list[int], v: int) -> bool:
    """Whether some vertex c meets every non-edge among v's fill neighbours,
    so that the neighbours other than c form a clique.

    Eliminating such a v of fill degree <= k first is safe: the graph left
    is the minor that contracts v into c, and v's bag holds at most k + 1
    vertices.  Every vertex of fill degree <= 2 qualifies.
    """
    row = fill[v]
    m = row
    while m:
        w = m & -m
        m ^= w
        miss = row & ~w & ~fill[w.bit_length() - 1]
        if miss:  # c lies on the first non-edge {w, x}; the vertices before w miss nothing,
            # and c = x needs w to miss x alone
            x = miss & -miss
            return _clique(fill, row & ~w, m) or (miss == x and _clique(fill, row & ~x, m & ~x))
    return True


def _clique(fill: list[int], rest: int, m: int) -> bool:
    """Whether each vertex of m is adjacent to all of rest but itself."""
    while m:
        b = m & -m
        m ^= b
        if rest & ~b & ~fill[b.bit_length() - 1]:
            return False
    return True


def _search(g: Graph, k: int, budget: int | None) -> tuple[list[int] | None, int]:
    """`treewidth_order` and the number of subset states it expanded."""
    n = g.n
    if n == 0:
        return [], 0
    if k >= n - 1:
        return list(range(n)), 0
    order, width = min_fill_order(g)
    if width <= k:
        return order, 0
    if minor_min_width(g) > k:
        return None, 0
    return _subset_search(g, k, budget)


def _subset_search(g: Graph, k: int, budget: int | None) -> tuple[list[int] | None, int]:
    """`_search` for 0 <= k < n - 1 without its heuristic pre-checks."""
    n = g.n
    visited: set[int] = set()

    def children(state):
        elim, fill, deg = state
        # an eliminated vertex's degree is n > k, so it is never a candidate
        cands = sorted([v for v, d in enumerate(deg) if d <= k], key=deg.__getitem__)  # stable: ties by id
        if len(cands) < 2:  # more than k + 1 vertices are live: see treewidth_order
            return
        # an almost simplicial candidate is safe to eliminate first
        for v in cands:
            if _almost_simplicial(fill, v):
                cands = [v]
                break
        last = cands[-1] if cands else -1
        for v in cands:
            vbit = 1 << v
            child = elim | vbit
            if child in visited:
                continue
            visited.add(child)
            # only v's fill neighbours gain rows: w reaches what v reached;
            # the last child takes over the rows, which are never read again
            row = fill[v]
            cfill, cdeg = (fill, deg) if v == last else (fill[:], deg[:])
            cdeg[v] = n
            m = row
            while m:
                b = m & -m
                w = b.bit_length() - 1
                m ^= b
                merged = (cfill[w] | row) & ~(b | vbit)
                cfill[w] = merged
                cdeg[w] = merged.bit_count()
            yield v, (child, cfill, cdeg)

    fill = adjacency_rows(g)
    deg = [row.bit_count() for row in fill]
    limit = math.inf if budget is None else budget
    order, expanded = walk((0, fill, deg), n - k - 1, children, limit)
    if expanded > limit:
        raise BudgetExceeded(f"tree-width search exceeded {budget} states")
    if order is not None:  # once k + 1 vertices remain, any order finishes
        order += sorted(set(range(n)).difference(order))
    return order, expanded


def _check_budget(budget: int | None) -> None:
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")


def treewidth_order(g: Graph, k: int, budget: int | None = None) -> list[int] | None:
    """An elimination order of width <= k, or None if none exists.

    Depth-first search over the sets of eliminated vertices, each set
    expanded once.  A state holds one fill row per vertex: for a live w,
    the live vertices reachable from w through eliminated ones, which are
    w's neighbours in the elimination graph, and w's fill degree is the
    row's size.  The candidates, the live vertices of fill degree <= k,
    are tried in (fill degree, id) order, and fewer than two end the
    branch.  That cut is sound: an expanded state has more than k + 1
    live vertices, so if their elimination graph H had tree-width <= k, a
    chordal completion of H with cliques of at most k + 1 vertices would
    not be complete, and would have two non-adjacent simplicial vertices
    (Dirac, 1961), each of degree <= k there and so in H.  Counting the
    live vertices of fill degree above k would not be sound: eliminating
    a neighbour can lower a fill degree.  If any candidate is almost
    simplicial, the first such is tried alone: eliminating it costs a bag
    of at most k + 1 vertices and leaves the minor that contracts it into
    the neighbour outside the clique, so its child succeeds iff the state
    can.  The decisions are those of the search that branches on every
    candidate, and the orders may differ.  Eliminating v changes only the
    rows of v's fill neighbours.  Once k + 1 vertices remain, any order
    finishes.

    May raise BudgetExceeded after `budget` expanded states.
    """
    _check_budget(budget)
    return _search(g, k, budget)[0]


def decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """Bags from an elimination order: bag i is v_i plus its fill neighbours."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must enumerate every vertex exactly once")
    if g.n == 0:
        return TreeDecomposition(((0, frozenset()),), ())
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    nbrs = [set(row) for row in g.adj]
    bags: list[tuple[int, frozenset[int]]] = []
    edges: list[tuple[int, int]] = []
    for i, v in enumerate(order):
        rest = nbrs[v]
        bags.append((i, frozenset(rest | {v})))
        if len(rest) == 1:  # one later neighbour: v leaves and adds no fill
            (u,) = rest
            nbrs[u].discard(v)
            edges.append((i, pos[u]))
        elif rest:
            for u in rest:  # v's fill neighbours become a clique, without v
                nbrs[u] |= rest
                nbrs[u] -= {u, v}
            edges.append((i, min(pos[u] for u in rest)))
        elif i + 1 < g.n:
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges))


@dataclass(frozen=True)
class TreewidthResult:
    status: str  # "exact" | "unknown"
    width: int | None
    decomposition: TreeDecomposition | None
    lb: int
    ub: int
    expanded: int  # subset states over the decisions k = lb, lb + 1, ...; an exhausted one counts its budget


def treewidth_exact(g: Graph, budget: int | None = None) -> TreewidthResult:
    """Exact tree-width with a verified decomposition.

    Climbs from the contraction lower bound: each k = lb, lb + 1, ...
    below the min-fill upper bound is decided by the memoized subset
    search, with its own budget and no pre-checks (lb <= k < ub <= n - 1
    leaves none to fire).  Every NO raises lb to k + 1; the first YES is
    the width, and min-fill's order is taken if none comes.  One
    decomposition is built, from the winning order, and verified.  On
    budget exhaustion the result is UNKNOWN with bounds lb..ub: every
    k below lb is refuted, by the contraction bound or by a search, and
    ub is min-fill's width.
    """
    _check_budget(budget)
    if g.n == 0:
        return TreewidthResult("exact", -1, TreeDecomposition(((0, frozenset()),), ()), -1, -1, 0)
    order, ub = min_fill_order(g)
    lb = max(minor_min_width(g), 0)
    expanded = 0
    try:
        while lb < ub:
            found, states = _subset_search(g, lb, budget)
            expanded += states
            if found is not None:
                order, ub = found, lb
                break
            lb += 1
    except BudgetExceeded:
        return TreewidthResult("unknown", None, None, lb, ub, expanded + budget)
    td = decomposition_from_order(g, order)
    report = verify_tree_decomposition(g, td)
    if not report.valid or report.width != ub:
        raise AssertionError(f"solver produced an invalid decomposition: {report.violation}")
    return TreewidthResult("exact", ub, td, lb, ub, expanded)
