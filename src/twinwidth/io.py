"""Text and JSON formats.

Text formats are 1-indexed (DIMACS-like graphs, partition files, PACE
decompositions); JSON formats use the certificate id convention directly
(originals 0..n-1, products n+j).  Every format with a reader round-trips
bit-exactly through it.  PACE decompositions are output only: the tree-width
solver verifies each one before it is written.
"""

import itertools
import json

from .graphs import Graph, Trigraph
from .partitions import VertexPartition, partition_from_blocks
from .sequences import ContractionSequence, SequenceError
from .structure import MeshEmbedding
from .treewidth import TreeDecomposition


class FormatError(ValueError):
    """Unparseable input, with a 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _int(value, what: str) -> int:
    """A JSON integer; floats, strings and booleans are a FormatError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(1, f"{what} must be an integer, got {value!r}")
    return value


def _load_json(text: str):
    """Parsed JSON; every way json.loads can fail is a FormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(exc.lineno, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise FormatError(1, "invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise FormatError(1, f"invalid JSON: {exc}") from None


# ---------------------------------------------------------------- graphs


def read_dimacs(text: str) -> Graph:
    """Parse `p edge <n> <m>` followed by m `e <u> <v>` lines, 1-indexed."""
    n = None
    m = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "e":
            if n is None:
                raise FormatError(lineno, "edge before problem line")
            if len(parts) != 3:
                raise FormatError(lineno, f"expected 'e <u> <v>', got {raw.strip()!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(lineno, "non-integer endpoint") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(lineno, f"endpoint out of range 1..{n}")
            if u == v:
                raise FormatError(lineno, "loops are not allowed")
            e = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if e in edges:
                raise FormatError(lineno, f"duplicate edge {u} {v}")
            edges.add(e)
        elif parts[0].startswith("c"):
            continue
        elif parts[0] == "p":
            if n is not None:
                raise FormatError(lineno, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError(lineno, f"expected 'p edge <n> <m>', got {raw.strip()!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(lineno, "non-integer counts in problem line") from None
            if n < 0 or m < 0:
                raise FormatError(lineno, "negative counts in problem line")
        else:
            raise FormatError(lineno, f"unrecognized line {raw.strip()!r}")
    if n is None:
        raise FormatError(1, "missing problem line")
    if len(edges) != m:
        raise FormatError(1, f"problem line promises {m} edges, file has {len(edges)}")
    return Graph(n, frozenset(edges))


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def trigraph_to_dot(t: Trigraph) -> str:
    lines = ["graph trigraph {"]
    for v in sorted(t.vertices):
        lines.append(f"  {v};")
    for u, v in sorted(t.black):
        lines.append(f"  {u} -- {v};")
    for u, v in sorted(t.red):
        lines.append(f"  {u} -- {v} [color=red];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- sequences


def steps_payload(s: ContractionSequence) -> list[dict[str, int]]:
    """The `steps` list of the JSON certificate: one {u, v} object per merge."""
    return [{"u": u, "v": v} for u, v in s.steps]


def sequence_to_json(s: ContractionSequence) -> str:
    """The JSON certificate, byte for byte what `json.dumps` writes for
    {"n", "steps": steps_payload(s)} with sorted keys, from one format string."""
    fmt = '{"n": %d, "steps": [' + ", ".join(['{"u": %d, "v": %d}'] * len(s.steps)) + "]}\n"
    return fmt % (s.n, *itertools.chain.from_iterable(s.steps))


def sequence_from_json(text: str) -> ContractionSequence:
    payload = _load_json(text)
    if not isinstance(payload, dict) or "n" not in payload or "steps" not in payload:
        raise FormatError(1, "certificate must be an object with 'n' and 'steps'")
    steps = payload["steps"]
    if not isinstance(steps, list):
        raise FormatError(1, "'steps' must be a list of {u, v} objects")
    # one pass: every step's shape is checked before n, and n before the
    # first non-integer id, which is only remembered until then
    pairs = []
    bad = None
    for x in steps:
        if not isinstance(x, dict) or "u" not in x or "v" not in x:
            raise FormatError(1, "'steps' must be a list of {u, v} objects")
        u, v = x["u"], x["v"]
        if type(u) is int and type(v) is int:
            pairs.append((u, v) if u < v else (v, u))
        elif bad is None:
            bad = (u, v)
    n = _int(payload["n"], "n")
    if bad is not None:
        _int(bad[0], "u")
        _int(bad[1], "v")
    try:
        return ContractionSequence(n, tuple(pairs))
    except SequenceError as exc:
        raise FormatError(1, str(exc)) from None


def verdict_to_json(width: int, trace: list[int]) -> str:
    return json.dumps({"trace": trace, "width": width}, sort_keys=True) + "\n"


# ------------------------------------------------------------ partitions


def read_partition(text: str, n: int) -> VertexPartition:
    """One line per part, space-separated 1-indexed vertex ids.

    Part ids are 1-based line positions (blank and comment lines skipped).
    """
    blocks = []
    owner: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            vals = [int(x) for x in line.split()]
        except ValueError:
            raise FormatError(lineno, "non-integer vertex id") from None
        pid = len(blocks) + 1
        for x in vals:
            if not (1 <= x <= n):
                raise FormatError(lineno, f"vertex {x} out of range 1..{n}")
            if owner.setdefault(x, pid) != pid:
                raise FormatError(lineno, f"vertex {x} is already in part {owner[x]}")
        blocks.append(frozenset(x - 1 for x in vals))
    try:
        return partition_from_blocks(n, blocks, ids=list(range(1, len(blocks) + 1)))
    except ValueError as exc:
        raise FormatError(1, str(exc)) from None


# ---------------------------------------------------------- decompositions


def write_pace_td(td: TreeDecomposition, n: int) -> str:
    """PACE-style: `s td <#bags> <width+1> <n>`, `b <id> <v...>` with bag ids 1..#bags in id order, then tree edges."""
    pace = {bid: k for k, (bid, _) in enumerate(sorted(td.bags), 1)}
    lines = [f"s td {len(td.bags)} {td.width + 1} {n}"]
    lines.extend(" ".join(["b", str(pace[bid]), *(str(v + 1) for v in sorted(bag))]) for bid, bag in sorted(td.bags))
    lines.extend(f"{pace[a]} {pace[b]}" for a, b in sorted(td.edges))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- meshes


def mesh_to_json(me: MeshEmbedding) -> str:
    payload = {"N": me.n, "cols": [list(c) for c in me.cols], "rows": [list(r) for r in me.rows]}
    return json.dumps(payload, sort_keys=True) + "\n"


def mesh_from_json(text: str) -> MeshEmbedding:
    payload = _load_json(text)
    if not isinstance(payload, dict):
        raise FormatError(1, "mesh must be an object with 'N', 'rows' and 'cols'")
    for key in ("N", "rows", "cols"):
        if key not in payload:
            raise FormatError(1, f"mesh object missing {key!r}")

    def paths(key: str) -> tuple[tuple[int, ...], ...]:
        lines = payload[key]
        if not isinstance(lines, list) or any(not isinstance(line, list) for line in lines):
            raise FormatError(1, f"{key!r} must be a list of vertex lists")
        return tuple(tuple(_int(v, "mesh vertex") for v in line) for line in lines)

    return MeshEmbedding(_int(payload["N"], "N"), paths("rows"), paths("cols"))
