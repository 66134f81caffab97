"""Vertex partitions and their quotient trigraphs.

The quotient of (G, P) has one vertex per part; parts P1, P2 are joined
iff some G-edge crosses P1 x P2, and the edge is red iff the crossing is
not complete.  A part pair with zero crossing edges is a non-edge, not a
black edge.  One pass over G's edges counts the crossings of every part
pair, so a quotient costs O(n + m) whatever the number of parts;
`split_part` rebuilds it that way too, after `refine_part`, the one
place the split rule is written.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, Trigraph, pair


@dataclass(frozen=True)
class VertexPartition:
    """Partition of 0..n-1 into nonempty parts, each with a stable id."""

    n: int
    parts: tuple[tuple[int, frozenset[int]], ...]

    def __post_init__(self):
        seen: set[int] = set()
        ids = set()
        for pid, members in self.parts:
            if pid in ids:
                raise ValueError(f"duplicate part id {pid}")
            ids.add(pid)
            if not members:
                raise ValueError(f"empty part {pid}")
            if members & seen:
                raise ValueError("parts are not disjoint")
            seen |= members
        if seen != set(range(self.n)):
            raise ValueError("parts do not cover 0..n-1")

    @cached_property
    def by_id(self) -> dict[int, frozenset[int]]:
        return dict(self.parts)

    @cached_property
    def part_of(self) -> tuple[int, ...]:
        owner = [0] * self.n
        for pid, members in self.parts:
            for v in members:
                owner[v] = pid
        return tuple(owner)

    def ids(self) -> tuple[int, ...]:
        return tuple(pid for pid, _ in self.parts)

    def members(self, pid: int) -> frozenset[int]:
        try:
            return self.by_id[pid]
        except KeyError:
            raise ValueError(f"unknown part id {pid}") from None

    def size(self, pid: int) -> int:
        return len(self.members(pid))

    def __len__(self) -> int:
        return len(self.parts)


def partition_from_blocks(n: int, blocks, ids=None) -> VertexPartition:
    """Build a partition; default part ids are each block's minimum vertex."""
    blocks = [frozenset(b) for b in blocks]
    if ids is None:
        ids = [min(b) for b in blocks if b]
    parts = tuple(sorted(zip(ids, blocks)))
    return VertexPartition(n, parts)


@dataclass(frozen=True)
class PartitionedTrigraph:
    """A partition together with its quotient trigraph over part ids."""

    partition: VertexPartition
    quotient: Trigraph


def quotient(g: Graph, p: VertexPartition) -> PartitionedTrigraph:
    """The partitioned trigraph of (g, p), from one pass over g's edges:
    a part pair is black iff its crossing count is |A|·|B|, else red."""
    if p.n != g.n:
        raise ValueError(f"partition is over {p.n} vertices, graph has {g.n}")
    owner = p.part_of
    crossing = Counter(pair(owner[u], owner[v]) for u, v in g.edges if owner[u] != owner[v])
    size = {pid: len(members) for pid, members in p.parts}
    black = frozenset(e for e, count in crossing.items() if count == size[e[0]] * size[e[1]])
    return PartitionedTrigraph(p, Trigraph(frozenset(p.ids()), black, frozenset(crossing.keys() - black)))


def refine_part(parts: dict[int, frozenset[int]], parent: int, child_a, child_b) -> None:
    """The split rule, applied in place to an id -> members map: part
    `parent` gives way to two nonempty, disjoint halves (id, members) that
    cover it, under ids that no other live part holds.  A ValueError names
    the rule broken and leaves the map half-updated."""
    if parent not in parts:
        raise ValueError(f"unknown part id {parent}")
    whole = parts.pop(parent)
    (_, seta), (_, setb) = child_a, child_b
    if not seta or not setb or (seta & setb) or (seta | setb) != whole:
        raise ValueError("children must split the parent part into two nonempty sets")
    for cid, members in (child_a, child_b):
        if cid in parts:
            raise ValueError(f"child id {cid} collides with an existing part")
        parts[cid] = frozenset(members)


def split_part(
    g: Graph,
    pt: PartitionedTrigraph,
    parent: int,
    child_a: tuple[int, frozenset[int]],
    child_b: tuple[int, frozenset[int]],
) -> PartitionedTrigraph:
    """Refine one part into two by `refine_part`; the refined partition's
    quotient, built by `quotient` in one pass over g's edges."""
    p = pt.partition
    parts = dict(p.parts)
    refine_part(parts, parent, child_a, child_b)
    return quotient(g, VertexPartition(p.n, tuple(sorted(parts.items()))))
