"""Simple graphs, trigraphs, and the exact contraction operation.

A trigraph is a simple graph whose edges are colored black or red.  Red
edges record "inhomogeneous" adjacency created by merging vertices:
contracting x1, x2 into x0 keeps shared black neighbours black and turns
every inherited red neighbour and every neighbour of exactly one of x1, x2
red.  All values here are immutable; every operation returns a new value.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


def pair(u: int, v: int) -> tuple[int, int]:
    """Normalized unordered edge representation."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertex ids 0..n-1.

    Invariants: no loops, no duplicate edges, every endpoint < n.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range or unnormalized for n={self.n}")

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return pair(u, v) in self.edges

    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)


def adjacency_rows(g: Graph) -> list[int]:
    """Each vertex's neighbourhood as a bitmask over vertex ids."""
    rows = [0] * g.n
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def graph_from_edges(n: int, edges) -> Graph:
    return Graph(n, frozenset(pair(u, v) for u, v in edges))


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return graph_from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def grid_graph(rows: int, cols: int | None = None) -> Graph:
    """Square-lattice grid; vertex (r, c) has id r*cols + c."""
    if cols is None:
        cols = rows
    if rows < 0 or cols < 0:
        raise ValueError(f"grid sides must be non-negative, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.append((r * cols + c, (r + 1) * cols + c))
    return graph_from_edges(rows * cols, edges)


def relabel(g: Graph, perm) -> Graph:
    """Apply permutation perm (old id -> new id) to g."""
    return graph_from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))


@dataclass(frozen=True)
class Trigraph:
    """Graph with black/red edge coloring over an explicit vertex id set.

    black and red are disjoint sets of normalized pairs; both endpoints of
    every edge must belong to `vertices`.  Vertex ids need not be dense:
    quotient trigraphs live on part ids, replay states on certificate ids.
    """

    vertices: frozenset[int]
    black: frozenset[tuple[int, int]]
    red: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.black & self.red:
            raise ValueError("an edge cannot be both black and red")
        for u, v in self.black | self.red:
            if u >= v:
                raise ValueError(f"unnormalized edge ({u},{v})")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u},{v}) leaves the vertex set")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def black_adj(self) -> dict[int, frozenset[int]]:
        return _adj_map(self.vertices, self.black)

    @cached_property
    def red_adj(self) -> dict[int, frozenset[int]]:
        return _adj_map(self.vertices, self.red)

    def _check(self, v: int) -> None:
        if v not in self.vertices:
            raise ValueError(f"vertex {v} not in trigraph")


def _adj_map(vertices, edges) -> dict[int, frozenset[int]]:
    nbrs: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return {v: frozenset(s) for v, s in nbrs.items()}


def trigraph_from_graph(g: Graph) -> Trigraph:
    """A plain graph viewed as a trigraph with no red edges."""
    return Trigraph(frozenset(range(g.n)), g.edges, frozenset())


def max_red_degree(t: Trigraph) -> int:
    return max((len(s) for s in t.red_adj.values()), default=0)


def contract(t: Trigraph, x1: int, x2: int, new_id: int | None = None) -> Trigraph:
    """Contract the (not necessarily adjacent) pair x1, x2 into one vertex.

    The product keeps the union of both neighbourhoods; a neighbour stays
    black only when it was a black neighbour of both x1 and x2, everything
    else (inherited red, or seen by exactly one side) turns red.  By
    default the product takes the smallest freed id slot, min(x1, x2);
    replay code passes an explicit fresh id instead.
    """
    t._check(x1)
    t._check(x2)
    if x1 == x2:
        raise ValueError("cannot contract a vertex with itself")
    x0 = min(x1, x2) if new_id is None else new_id
    if x0 != x1 and x0 != x2 and x0 in t.vertices:
        raise ValueError(f"product id {x0} is already a live vertex")
    drop = {x1, x2}
    # one pass over the edges keeps those away from x1 and x2 and collects
    # each side's black (index 0) and red (index 1) neighbours
    around = {x1: (set(), set()), x2: (set(), set())}
    black, red = kept = ([], [])
    for colour, edges in enumerate((t.black, t.red)):
        for e in edges:
            u, v = e
            if u in drop:
                around[u][colour].add(v)
            elif v in drop:
                around[v][colour].add(u)
            else:
                kept[colour].append(e)
    (b1, r1), (b2, r2) = around[x1], around[x2]
    n1, n2 = (b1 | r1) - drop, (b2 | r2) - drop
    reds = ((r1 | r2) - drop) | (n1 ^ n2)
    black.extend(pair(x0, w) for w in (n1 | n2) - reds)
    red.extend(pair(x0, w) for w in reds)
    return Trigraph((t.vertices - drop) | {x0}, frozenset(black), frozenset(red))

