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

One flow gives both answers, and each graph's latest solves are
memoised: `_FLOWS` maps a graph, by identity, to its last `_KEEP` solves
keyed by (A, B, within) as frozensets (within None for the whole graph),
evicting the least recently asked, and a graph's entries die with the
graph.  A walk along a chain asks the same four parts again at the next
t and the next index, so the latest few hundred solves hold its repeats,
and a graph holds at most `_KEEP` entries of O(n) each.  Every answer,
solved or remembered, is checked against the graph as Menger's
certificate before it is handed out: the paths are disjoint A-B paths
of the graph inside `within`, as many as the cut has vertices, and no
A-B path there avoids the cut, so both are optimal whatever computed
them.  Each call returns fresh path lists.
"""

import weakref

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

    def __init__(self, g: Graph, A: frozenset[int], B: frozenset[int], within: frozenset[int] | None):
        allowed = frozenset(range(g.n)) if within is None else within
        verts = sorted(allowed)
        if verts:
            g._check(verts[0])
            g._check(verts[-1])
        self.A, self.B = A, B
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


_FLOWS: dict[int, dict] = {}  # id(graph) -> its latest solves, oldest first
_KEEP = 256  # solves remembered per graph


def _certify(g: Graph, A: frozenset[int], B: frozenset[int], within: frozenset[int] | None, cut, paths) -> None:
    """Check an answer against g as Menger's certificate: as many
    disjoint A-B paths inside `within` as the cut has vertices, and no
    A-B path inside `within` that avoids the cut."""
    adj = g.adj
    used: set[int] = set()
    for p in paths:
        if p[0] not in A or p[-1] not in B:
            raise AssertionError("extracted path does not run from A to B")
        if not used.isdisjoint(p):
            raise AssertionError("extracted paths share a vertex")
        used.update(p)
        if any(v not in adj[u] for u, v in zip(p, p[1:])):
            raise AssertionError("extracted path is not a path of the graph")
    if within is not None and not used <= within:
        raise AssertionError("extracted path leaves the allowed set")
    if len(paths) != len(cut):
        raise AssertionError("max-flow/min-cut mismatch")
    reached = set(A - cut)
    stack = list(reached)
    while stack:
        v = stack.pop()
        if v in B:
            raise AssertionError("the minimum cut misses an A-B path")
        fresh = adj[v] - cut - reached
        if within is not None:
            fresh &= within
        reached |= fresh
        stack += fresh


def _solve(g: Graph, A, B, within) -> tuple[frozenset[int], tuple[tuple[int, ...], ...]]:
    """The minimum cut and the path family for (A, B, within), remembered
    or solved, and certified against g either way."""
    key = (frozenset(A), frozenset(B), None if within is None else frozenset(within))
    solved = _FLOWS.get(id(g))
    if solved is None:
        solved = _FLOWS[id(g)] = {}
        weakref.finalize(g, _FLOWS.pop, id(g))
    hit = solved.pop(key, None)
    if hit is None:
        net = _VertexFlow(g, *key)
        net.max_flow()
        seen = net.seen
        cut = frozenset(v for i, v in enumerate(net.verts) if seen[2 + 2 * i] and not seen[3 + 2 * i])
        hit = (cut, tuple(map(tuple, net.paths())))
        if len(solved) >= _KEEP:
            del solved[next(iter(solved))]
    _certify(g, *key, *hit)
    solved[key] = hit
    return hit


def max_disjoint_paths(g: Graph, A, B, within=None) -> tuple[int, list[list[int]]]:
    """Maximum family of pairwise vertex-disjoint A-B paths.

    Returns (count, paths); each path is a vertex list starting in A and
    ending in B (a single vertex for members of A & B).  `within`
    restricts the search to an induced subgraph.
    """
    cut, paths = _solve(g, A, B, within)
    return len(cut), [list(p) for p in paths]


def min_vertex_cut(g: Graph, A, B, within=None) -> frozenset[int]:
    """A minimum vertex set meeting every A-B path (may include A or B vertices)."""
    return _solve(g, A, B, within)[0]
