"""Structural generators and detectors: walls, cubic meshes, the
spiked-path family of twin-width 3, and complete-bipartite subgraphs.

Wall convention (0-based): the N x N wall has rows 0..N-1 of N vertices,
id(i, j) = i*N + j, row edges (i,j)-(i,j+1), and a rung (i,j)-(i+1,j)
exactly when i + j is even (the same-parity rule in 1-based coordinates).
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .graphs import Graph, graph_from_edges, pair
from .sequences import ContractionSequence, sequence_from_pairs


# ---------------------------------------------------------------- walls


@dataclass(frozen=True)
class WallLabeling:
    """Row-major labeling of a (possibly subdivided) wall.

    grid[i][j] is the j-th vertex of row path i; edge_paths maps each wall
    edge (as a normalized grid-vertex pair) to the tuple of interior
    subdivision vertices along it, in order from the smaller endpoint.
    """

    size: int
    grid: tuple[tuple[int, ...], ...]
    edge_paths: dict[tuple[int, int], tuple[int, ...]]

    def wall_edges(self):
        m = self.size
        for i in range(m):
            for j in range(m):
                if j + 1 < m:
                    yield pair(self.grid[i][j], self.grid[i][j + 1])
                if i + 1 < m and (i + j) % 2 == 0:
                    yield pair(self.grid[i][j], self.grid[i + 1][j])

    def route(self, a: int, b: int) -> list[int]:
        """Vertices from a to b along the (possibly subdivided) wall edge."""
        interior = self.edge_paths.get(pair(a, b), ())
        if a < b:
            return [a, *interior, b]
        return [b, *interior, a][::-1]


def gen_wall(n: int) -> tuple[Graph, WallLabeling]:
    """The N x N wall (hexagonal grid) with its labeling."""
    if n < 1:
        raise ValueError("wall size must be positive")
    grid = tuple(tuple(i * n + j for j in range(n)) for i in range(n))
    wl = WallLabeling(n, grid, {})
    return graph_from_edges(n * n, wl.wall_edges()), wl


def subdivide_wall(g: Graph, wl: WallLabeling, times: int = 1) -> tuple[Graph, WallLabeling]:
    """Subdivide every wall edge `times` times, appending fresh vertex ids."""
    if times < 0:
        raise ValueError("times must be nonnegative")
    nxt = g.n
    edges: list[tuple[int, int]] = []
    edge_paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for a, b in sorted(wl.wall_edges()):
        old = wl.route(a, b)
        chain = []
        for u, v in zip(old, old[1:]):
            chain.append(u)
            chain.extend(range(nxt, nxt + times))
            nxt += times
        chain.append(old[-1])
        edge_paths[pair(a, b)] = tuple(chain[1:-1])
        edges.extend(zip(chain, chain[1:]))
    return graph_from_edges(nxt, edges), WallLabeling(wl.size, wl.grid, edge_paths)


# ---------------------------------------------------------------- meshes


@dataclass(frozen=True)
class MeshEmbedding:
    """An N x N cubic mesh given as explicit row and column paths.

    Rows and columns are vertex sequences of paths in the host graph; the
    mesh subgraph is their union, has maximum degree 3, and every row
    meets every column in exactly one common subpath of nonzero length
    whose two endpoints are branching (degree-3) vertices.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        es: set[tuple[int, int]] = set()
        for path in self.rows + self.cols:
            es.update(pair(u, v) for u, v in zip(path, path[1:]))
        return frozenset(es)

    @cached_property
    def degree(self) -> dict[int, int]:
        """Each mesh vertex's degree in the mesh subgraph."""
        deg: dict[int, int] = {}
        for u, v in self.edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        return deg

    @cached_property
    def branching(self) -> frozenset[int]:
        return frozenset(v for v, d in self.degree.items() if d == 3)


def verify_mesh(g: Graph, me: MeshEmbedding) -> tuple[bool, str | None]:
    """Exact check of every mesh invariant inside the host graph."""
    if len(me.rows) != me.n or len(me.cols) != me.n:
        return False, "wrong number of rows or columns"
    for kind, paths in (("row", me.rows), ("column", me.cols)):
        seen: set[int] = set()
        for p in paths:
            if not p:
                return False, f"{kind} is empty"
            if len(set(p)) != len(p):
                return False, f"{kind} repeats a vertex"
            if seen & set(p):
                return False, f"{kind}s are not vertex-disjoint"
            seen |= set(p)
            for u, v in zip(p, p[1:]):
                if not g.has_edge(u, v):
                    return False, f"{kind} uses a non-edge ({u},{v})"
    row_verts = {v for p in me.rows for v in p}
    col_verts = {v for p in me.cols for v in p}
    for p in me.rows:
        if p[0] in col_verts or p[-1] in col_verts:
            return False, "a row end lies on a column"
    for p in me.cols:
        if p[0] in row_verts or p[-1] in row_verts:
            return False, "a column end lies on a row"
    if me.degree and max(me.degree.values()) > 3:
        return False, "mesh subgraph exceeds degree 3"
    for r in me.rows:
        rset = set(r)
        for c in me.cols:
            common = [v for v in c if v in rset]
            if not common:
                return False, "a row misses a column"
            ci = [c.index(v) for v in common]
            ri = [r.index(v) for v in common]
            if max(ci) - min(ci) != len(common) - 1 or max(ri) - min(ri) != len(common) - 1:
                return False, "row/column intersection is not one subpath"
            if len(common) < 2:
                return False, "row/column intersection has zero length"
    if len(me.branching) != 2 * me.n * me.n:
        return False, f"expected {2 * me.n * me.n} branching vertices, found {len(me.branching)}"
    return True, None


def wall_to_mesh(g: Graph, wl: WallLabeling, n: int) -> MeshEmbedding:
    """Extract an N x N cubic mesh from a (subdivided) wall of size >= 2N+2.

    Rows are the full odd wall rows 1, 3, ..., 2N-1; column c is the
    zigzag over wall columns (2c+1, 2c+2) descending from row 0 to row 2N,
    crossing each mesh row in exactly one rung-to-rung edge.
    """
    if n < 1:
        raise ValueError("mesh size must be positive")
    need = 2 * n + 2
    if wl.size < need:
        raise ValueError(f"wall of size {wl.size} is too small for an {n}x{n} mesh (needs {need})")
    for a, b in wl.wall_edges():
        route = wl.route(a, b)
        for u, v in zip(route, route[1:]):
            if not g.has_edge(u, v):
                raise ValueError("labeling does not describe a subdivided wall of g")
    rows = []
    for r in range(1, 2 * n, 2):
        path: list[int] = []
        for j in range(need - 1):
            seg = wl.route(wl.grid[r][j], wl.grid[r][j + 1])
            path.extend(seg if not path else seg[1:])
        rows.append(tuple(path))
    cols = []
    for c in range(n):
        a = 2 * c + 1
        # enter each row at the column whose rung continues downward
        path = []
        col_here = a + 1  # rung parity: row 0 descends at the even column
        cur = wl.grid[0][col_here]
        path.append(cur)
        for r in range(2 * n):
            seg = wl.route(wl.grid[r][col_here], wl.grid[r + 1][col_here])
            path.extend(seg[1:])
            if r + 1 == 2 * n:
                break
            nxt = a if col_here == a + 1 else a + 1
            seg = wl.route(wl.grid[r + 1][col_here], wl.grid[r + 1][nxt])
            path.extend(seg[1:])
            col_here = nxt
        cols.append(tuple(path))
    me = MeshEmbedding(n, tuple(rows), tuple(cols))
    ok, why = verify_mesh(g, me)
    if not ok:
        raise AssertionError(f"constructed mesh fails its own invariants: {why}")
    return me


# ------------------------------------------- spiked-path family (tww 3)


@dataclass(frozen=True)
class FamilyLabeling:
    """Vertex layout of the spiked-path family."""

    n: int
    paths: tuple[tuple[int, ...], ...]  # paths[j][i] = i-th vertex of path j
    apexes: tuple[int, ...]  # apexes[i] adjacent to the i-th vertex of every path


def _tww3_labeling(n: int) -> FamilyLabeling:
    """The vertex layout of `gen_tww3_family(n)`, without its graph."""
    if n < 1:
        raise ValueError("family parameter must be positive")
    paths = tuple(tuple(j * n + i for i in range(n)) for j in range(n))
    return FamilyLabeling(n, paths, tuple(n * n + i for i in range(n)))


def gen_tww3_family(n: int) -> tuple[Graph, FamilyLabeling]:
    """N disjoint N-vertex paths plus N apexes; apex i sees the i-th
    vertex of every path.  N^2 + N vertices, no K_{2,2} subgraph,
    twin-width at most 3, tree-width exactly N.
    """
    lab = _tww3_labeling(n)
    edges = []
    for row in lab.paths:
        edges.extend(zip(row, row[1:]))
    for i in range(n):
        edges.extend((lab.apexes[i], row[i]) for row in lab.paths)
    return graph_from_edges(n * n + n, edges), lab


def tww3_family_sequence(n: int) -> ContractionSequence:
    """The width-<=3 certificate for the spiked-path family.

    Merge path j into the accumulated path vertex by vertex (j = 2..N,
    i = 1..N), contract each apex into its column blob (i = 1..N), then
    collapse the remaining red path from its first vertex.
    """
    lab = _tww3_labeling(n)
    total = n * n + n
    blob = list(lab.paths[0])
    pairs: list[tuple[int, int]] = []
    nxt = total
    for j in range(1, n):
        for i in range(n):
            pairs.append((blob[i], lab.paths[j][i]))
            blob[i] = nxt
            nxt += 1
    for i in range(n):
        pairs.append((blob[i], lab.apexes[i]))
        blob[i] = nxt
        nxt += 1
    acc = blob[0]
    for i in range(1, n):
        pairs.append((acc, blob[i]))
        acc = nxt
        nxt += 1
    return sequence_from_pairs(total, pairs)


# ------------------------------------------------ biclique detection


def _has_c4(g: Graph) -> bool:
    """Whether g has a 4-cycle, in O(arboricity * m) (Chiba and Nishizeki,
    SIAM J. Comput. 1985): from each vertex by decreasing (degree, id),
    walk two steps into unvisited vertices; a vertex reached twice closes one."""
    adj, done = g.adj, [False] * g.n
    for v in sorted(range(g.n), key=lambda x: (len(adj[x]), x), reverse=True):
        done[v] = True
        ends = [w for u in adj[v] if not done[u] for w in adj[u] if not done[w]]
        if len(ends) > len(set(ends)):
            return True
    return False


def _wedge_pairs(adj, w: int, nbrs: list[int]):
    """The pairs u < v of w's neighbours, in order, that may share a second
    neighbour.  Per u, the cheaper of two scans: all of w's later
    neighbours, or the first that u's two-step walks past its highest-degree
    neighbour h reach twice, counting one more for each v in N(h)."""
    for i, u in enumerate(nbrs, 1):
        au = adj[u]
        later = len(nbrs) - i
        if later >= len(au):  # below that, a walk past h costs at least as much
            h = max(au, key=lambda y: len(adj[y]))
            if sum(len(adj[y]) for y in au) - len(adj[h]) < later:
                reached: dict[int, int] = {}
                for y in au:
                    if y != h:
                        for x in adj[y]:
                            if x > u:
                                reached[x] = reached.get(x, 0) + 1
                nh, nw = adj[h], adj[w]
                found = [x for x, c in reached.items() if c + (x in nh) >= 2 and x in nw]
                if found:
                    yield u, min(found)
                continue
        for v in nbrs[i:]:
            yield u, v


def has_ktt(g: Graph, t: int):
    """Find a K_{t,t} subgraph: disjoint t-sets A, B with all of A x B
    present.  Returns (A, B) as sorted tuples, or None.  Exact; the search
    is exponential in t only (t=2 scans common-neighbour wedges, only once
    a linear-time scan has found a 4-cycle)."""
    if t < 1:
        raise ValueError("t must be positive")
    if t == 2:
        if not _has_c4(g):
            return None
        adj = g.adj
        for w in range(g.n):
            nbrs = sorted(u for u in adj[w] if len(adj[u]) >= 2)
            # a hub's pairs are quadratic in its degree, but timed on subdivided
            # stars, testing them all is faster up to about 32 neighbours (1.9x at 16)
            pairs = combinations(nbrs, 2) if len(nbrs) <= 32 else _wedge_pairs(adj, w, nbrs)
            for u, v in pairs:
                common = adj[u] & adj[v]  # holds neither u nor v: no loops
                if len(common) >= 2:
                    b = sorted(common)[:2]
                    return ((u, v), (b[0], b[1]))
        raise AssertionError("a 4-cycle without a common-neighbour wedge")
    candidates = [v for v in range(g.n) if g.degree(v) >= t]

    def extend(chosen: list[int], common: frozenset[int], start: int):
        if len(chosen) == t:
            rest = sorted(common - set(chosen))
            if len(rest) >= t:
                return tuple(chosen), tuple(rest[:t])
            return None
        for idx in range(start, len(candidates)):
            v = candidates[idx]
            nxt = common & g.adj[v] if chosen else g.adj[v]
            if len(nxt - set(chosen) - {v}) < t:
                continue
            hit = extend(chosen + [v], nxt, idx + 1)
            if hit:
                return hit
        return None

    return extend([], frozenset(), 0)
