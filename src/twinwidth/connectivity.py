"""Vertex-disjoint A-B paths and minimum vertex separators.

Unit vertex capacities via the standard in/out splitting (Ford &
Fulkerson), held as a vertex-level residual state built from the allowed
vertices alone, so a call costs what `within` holds, not what the whole
graph holds.  Every vertex carries at most one unit, so the flow is one
in-link and one out-link per vertex: the neighbour (or source) that sends
it its unit and the neighbour (or sink) that receives it.  Breadth-first
augmenting paths run over the implicit nodes source 0, sink 1,
v_in = 2 + 2v and v_out = 3 + 2v and visit each node's residual arcs in
node-id order, as the explicit split network would, so flows, paths and
cuts are deterministic.  The path count always equals the separator size,
and a vertex in both A and B counts as a zero-length path that occupies
the vertex.
"""

from .graphs import Graph

_SOURCE = -1
_SINK = -2


class _VertexFlow:
    """Unit flow on the split network of the allowed vertices.

    The allowed vertices are renumbered 0..k-1 in increasing order, which
    keeps node-id order.  `rows[i]` holds the in-nodes of i and of its
    allowed neighbours, in increasing order: the arcs out of i_out.  The
    arc back to i_in is residual only when i carries flow; otherwise i_in
    is i_out's only way in and already seen.  `into[i]` is the vertex
    that sends i its unit, or _SOURCE, and `out[i]` the vertex that
    receives it, or _SINK; both are None when i carries no flow.
    """

    def __init__(self, g: Graph, A, B, within):
        allowed = frozenset(range(g.n) if within is None else within)
        verts = sorted(allowed)
        if verts:
            g._check(verts[0])
            g._check(verts[-1])
        self.A = frozenset(A)
        self.B = frozenset(B)
        for side, name in ((self.A, "A"), (self.B, "B")):
            if not side <= allowed:
                v = min(side - allowed)
                g._check(v)
                raise ValueError(f"{name} contains vertex {v} outside the allowed set")
        if not A or not B:
            raise ValueError("A and B must be nonempty")
        self.verts = verts
        node = {v: 2 + 2 * i for i, v in enumerate(verts)}  # v's in-node
        adj = g.adj
        self.rows = [sorted(map(node.__getitem__, adj[v] & allowed | {v})) for v in verts]
        self.sinks = frozenset(node[b] + 1 for b in self.B)  # out-nodes with an arc to the sink
        self.starts = sorted(map(node.__getitem__, self.A))  # the source's arcs, in order
        self.into: list[int | None] = [None] * len(verts)
        self.out: list[int | None] = [None] * len(verts)
        # search parents, kept across augmentations: the zeros make the
        # source the parent of every A in-node, which no search rediscovers
        self.parent = [0] * (2 * len(verts) + 2)
        self.seen = bytearray()

    def _augment(self) -> bool:
        """Push one unit along a shortest residual path.  When the sink is
        unreachable, return False and leave the nodes reached in `seen`."""
        rows, into, sinks, parent = self.rows, self.into, self.sinks, self.parent
        seen = bytearray(2 * len(rows) + 2)
        queue = self.starts[:]
        for x in queue:
            seen[x] = 1
        # the sink's parent is the first sink-side out-node popped, which
        # is the first one queued: stop there
        for x in queue:
            i = (x - 2) >> 1
            if x & 1:
                for y in rows[i]:
                    if not seen[y]:
                        seen[y] = 1
                        parent[y] = x
                        queue.append(y)
                continue
            # i_in has one residual arc: to i_out when i is free, else back
            # to its sender's out-node (or to the source, already seen)
            u = into[i]
            if u is None:
                u = i
            elif u == _SOURCE:
                continue
            y = 3 + 2 * u
            if not seen[y]:
                seen[y] = 1
                parent[y] = x
                if y in sinks:
                    parent[1] = y
                    break
                queue.append(y)
        else:
            self.seen = seen
            return False
        path = [1]
        while path[-1] != 0:
            path.append(parent[path[-1]])
        path.reverse()
        out = self.out
        for x, y in zip(path, path[1:]):
            if x == 0:
                into[(y - 2) >> 1] = _SOURCE
            elif y == 1:
                out[(x - 3) >> 1] = _SINK
            else:
                i, j = (x - 2) >> 1, (y - 2) >> 1
                if i == j:
                    continue  # a split arc: the links on either side carry it
                if x & 1:
                    out[i] = j
                    into[j] = i
                else:
                    # cancel j -> i; i_in may already have a new sender
                    out[j] = None
                    if into[i] == j:
                        into[i] = None
        return True

    def max_flow(self) -> int:
        value = 0
        while self._augment():
            value += 1
        return value

    def paths(self) -> list[list[int]]:
        """Decompose the flow into vertex paths along the out-links."""
        verts, out = self.verts, self.out
        result = []
        for i, sender in enumerate(self.into):
            if sender != _SOURCE:
                continue
            path = [verts[i]]
            while out[i] != _SINK:
                i = out[i]
                if i is None:
                    raise AssertionError("flow decomposition lost a unit")
                path.append(verts[i])
            result.append(path)
        return sorted(result)


def max_disjoint_paths(g: Graph, A, B, within=None) -> tuple[int, list[list[int]]]:
    """Maximum family of pairwise vertex-disjoint A-B paths.

    Returns (count, paths); each path is a vertex list starting in A and
    ending in B (a single vertex for members of A & B).  `within`
    restricts the search to an induced subgraph.
    """
    net = _VertexFlow(g, A, B, within)
    value = net.max_flow()
    paths = net.paths()
    if len(paths) != value:
        raise AssertionError("path decomposition does not match the flow value")
    seen: set[int] = set()
    for p in paths:
        if not p or p[0] not in net.A or p[-1] not in net.B:
            raise AssertionError("extracted path does not run from A to B")
        if seen & set(p):
            raise AssertionError("extracted paths share a vertex")
        seen |= set(p)
    return value, paths


def min_vertex_cut(g: Graph, A, B, within=None) -> frozenset[int]:
    """A minimum vertex set meeting every A-B path (may include A or B vertices)."""
    net = _VertexFlow(g, A, B, within)
    value = net.max_flow()
    seen = net.seen
    cut = frozenset(v for i, v in enumerate(net.verts) if seen[2 + 2 * i] and not seen[3 + 2 * i])
    if len(cut) != value:
        raise AssertionError("max-flow/min-cut mismatch")
    return cut
