"""Command-line entry points: tww, gen, lab, treewidth.

One process per subcommand; exit 0 on definitive answers (and --help),
2 on UNKNOWN/budget exhaustion, 1 on unparseable input or a usage error.
JSON outputs are stable: sorted keys, fixed field names.  Budgets count
expanded search states: `tww` defaults to `solver.DEFAULT_BUDGET` (10^7),
`treewidth` and `lab pipeline` to `treewidth.DEFAULT_BUDGET` (10^6).
"""

import argparse
import json
import sys

from . import io as formats
from .graphs import grid_graph
from .partitions import quotient
from .pipeline import PipelineResult, WidthBoundMissed, pipeline_certify
from .sequences import apply_prefix, invert, width_trace
from .solver import DEFAULT_BUDGET, decide_twinwidth_at_most, greedy_sequence, twinwidth_exact, twinwidth_zero
from .structure import gen_tww3_family, gen_wall, tww3_family_sequence, wall_to_mesh
from . import treewidth
from .witness import (
    MeshWitness,
    WitnessState,
    WitnessViolation,
    audit_sequence,
    black_edge_violations,
    check_witness,
    find_mesh_witness,
)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors at exit status 1, since 2 means UNKNOWN."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _graph(path: str):
    return formats.read_dimacs(_read(path))


def _parts_arg(text: str) -> list[int]:
    try:
        ids = [int(x) for x in text.split(",")]
    except ValueError:
        raise formats.FormatError(1, f"expected comma-separated part ids, got {text!r}") from None
    if len(ids) != 4:
        raise formats.FormatError(1, f"expected four part ids, got {len(ids)}")
    return ids


# -------------------------------------------------------------------- tww


def main_tww(argv=None) -> int:
    ap = _ArgumentParser(prog="tww", description="Twin-width solvers and certificate verification.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("decide", help="decide twin-width <= d")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("graph")

    p = sub.add_parser("exact", help="exact twin-width up to a cap")
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("graph")

    p = sub.add_parser("verify", help="replay a certificate and report its width")
    p.add_argument("--seq", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("graph", nargs="?", default="-")

    p = sub.add_parser("zero", help="width-0 (cograph) fast path")
    p.add_argument("graph")

    p = sub.add_parser("greedy", help="greedy sequence and its verified width")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("graph")

    p = sub.add_parser("prefix", help="trigraph after the first i contractions")
    p.add_argument("-i", type=int, required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--format", choices=("text", "json", "dot"), default="dot")
    p.add_argument("graph")

    args = ap.parse_args(argv)
    try:
        g = _graph(args.graph)
        if args.cmd == "decide":
            r = decide_twinwidth_at_most(g, args.d, args.budget)
            if args.format == "json":
                payload = {"answer": r.status, "d": args.d, "expanded": r.expanded}
                if r.sequence:
                    payload["steps"] = formats.steps_payload(r.sequence)
                print(json.dumps(payload, sort_keys=True))
            else:
                print(f"decide d={args.d}: {r.status}")
                if r.sequence:
                    print(formats.sequence_to_json(r.sequence), end="")
            return 2 if r.status == "unknown" else 0
        if args.cmd == "exact":
            r = twinwidth_exact(g, args.cap, args.budget)
            if args.format == "json":
                payload = {"answer": r.status, "cap": args.cap, "tww": r.value}
                if r.sequence:
                    payload["steps"] = formats.steps_payload(r.sequence)
                print(json.dumps(payload, sort_keys=True))
            else:
                if r.status == "value":
                    print(f"tww: {r.value}")
                    print(formats.sequence_to_json(r.sequence), end="")
                else:
                    print(f"tww: {r.status}")
            return 2 if r.status == "unknown" else 0
        if args.cmd == "verify":
            s = formats.sequence_from_json(_read(args.seq))
            trace = width_trace(g, s)
            width = max(trace, default=0)
            if args.format == "json":
                print(formats.verdict_to_json(width, trace), end="")
            else:
                print(f"width: {width}")
            return 0
        if args.cmd == "zero":
            s = twinwidth_zero(g)
            if s is None:
                print("tww0: no")
            else:
                print("tww0: yes")
                print(formats.sequence_to_json(s), end="")
            return 0
        if args.cmd == "greedy":
            s, width = greedy_sequence(g)
            if args.format == "json":
                payload = {"steps": formats.steps_payload(s), "width": width}
                print(json.dumps(payload, sort_keys=True))
            else:
                print(f"width: {width}")
                print(formats.sequence_to_json(s), end="")
            return 0
        if args.cmd == "prefix":
            s = formats.sequence_from_json(_read(args.seq))
            t = apply_prefix(g, s, args.i)
            if args.format == "dot":
                print(formats.trigraph_to_dot(t), end="")
            elif args.format == "json":
                payload = {
                    "black": sorted(list(e) for e in t.black),
                    "red": sorted(list(e) for e in t.red),
                    "vertices": sorted(t.vertices),
                }
                print(json.dumps(payload, sort_keys=True))
            else:
                print(f"vertices: {sorted(t.vertices)}")
                print(f"black: {sorted(t.black)}")
                print(f"red: {sorted(t.red)}")
            return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unhandled subcommand")


# -------------------------------------------------------------------- gen


def main_gen(argv=None) -> int:
    ap = _ArgumentParser(prog="gen", description="Generators for structural graph families.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("wall", "mesh", "tww3family", "tww3family-seq", "grid"):
        p = sub.add_parser(name)
        p.add_argument("-N", type=int, required=True)
        if name == "grid":
            p.add_argument("-M", type=int, default=None, help="columns (defaults to N)")
    args = ap.parse_args(argv)
    try:
        if args.cmd == "wall":
            g, _ = gen_wall(args.N)
            print(formats.write_dimacs(g), end="")
            return 0
        if args.cmd == "mesh":
            g, wl = gen_wall(2 * args.N + 2)
            me = wall_to_mesh(g, wl, args.N)
            print(formats.mesh_to_json(me), end="")
            return 0
        if args.cmd == "tww3family":
            g, _ = gen_tww3_family(args.N)
            print(formats.write_dimacs(g), end="")
            return 0
        if args.cmd == "tww3family-seq":
            print(formats.sequence_to_json(tww3_family_sequence(args.N)), end="")
            return 0
        if args.cmd == "grid":
            print(formats.write_dimacs(grid_graph(args.N, args.M)), end="")
            return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unhandled subcommand")


# -------------------------------------------------------------------- lab


def main_lab(argv=None) -> int:
    ap = _ArgumentParser(prog="lab", description="Invariant machinery over partitioned trigraphs.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("obs31", help="black edges between big parts")
    p.add_argument("graph")
    p.add_argument("partition")
    p.add_argument("-t", type=int, required=True)

    p = sub.add_parser("witness", help="validate a witness state")
    p.add_argument("graph")
    p.add_argument("partition")
    p.add_argument("--parts", required=True, help="x1,x2,x3,x4 as partition line numbers")
    p.add_argument("-t", type=int, required=True)

    p = sub.add_parser("audit", help="run the invariant automaton down a sequence")
    p.add_argument("graph")
    p.add_argument("sequence")
    p.add_argument("--witness-at", type=int, required=True)
    p.add_argument("--parts", required=True, help="x1,x2,x3,x4 as live certificate ids at the index")
    p.add_argument("-t", type=int, required=True)

    p = sub.add_parser("step1", help="mesh-driven witness search")
    p.add_argument("graph")
    p.add_argument("sequence")
    p.add_argument("mesh")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-t", type=int, default=1)

    p = sub.add_parser("pipeline", help="certify a sequence or refute width 2")
    p.add_argument("graph")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--budget", type=int, default=treewidth.DEFAULT_BUDGET)

    args = ap.parse_args(argv)
    try:
        g = _graph(args.graph)
        if args.cmd == "obs31":
            p = formats.read_partition(_read(args.partition), g.n)
            bad = black_edge_violations(quotient(g, p), args.t)
            print(f"violations: {len(bad)}")
            for a, b in bad:
                print(f"black edge between big parts {a} and {b}")
            return 0
        if args.cmd == "witness":
            p = formats.read_partition(_read(args.partition), g.n)
            x1, x2, x3, x4 = _parts_arg(args.parts)
            try:
                w = check_witness(g, p, x1, x2, x3, x4, args.t, pt=quotient(g, p))
            except WitnessViolation as exc:
                print(f"witness: invalid ({exc.condition})")
                return 0
            print(f"witness: valid s={w.s} w2={w.w2} w3={w.w3}")
            return 0
        if args.cmd == "audit":
            s = formats.sequence_from_json(_read(args.sequence))
            u = invert(g, s)
            x1, x2, x3, x4 = _parts_arg(args.parts)
            w0 = WitnessState(args.witness_at, x1, x2, x3, x4, args.t, 0, 0, 0)
            r = audit_sequence(g, u, w0, args.t)
            print(f"audit: {r.verdict} at {r.step} ({r.reason})")
            return 0
        if args.cmd == "step1":
            s = formats.sequence_from_json(_read(args.sequence))
            me = formats.mesh_from_json(_read(args.mesh))
            r = find_mesh_witness(g, invert(g, s), me, args.k, args.t)
            if isinstance(r, MeshWitness):
                print(f"found: m={r.m} parts={r.x1},{r.x2},{r.x3},{r.x4} s={r.s}")
            else:
                print(f"not found: {r.stage}")
            return 0
        if args.cmd == "pipeline":
            r: PipelineResult = pipeline_certify(g, args.t, args.k, args.budget)
            if r.status == "sequence":
                print(f"sequence: width {r.width} (bound {r.bound})")
                print(formats.sequence_to_json(r.sequence), end="")
                return 0
            if r.status == "tww-exceeds-2":
                flag = " (conditional)" if r.conditional else ""
                print(f"tww-exceeds-2{flag}")
                return 0
            if r.status == "not-applicable":
                print(f"not-applicable: K_t,t at {r.ktt}")
                return 0
            print("unknown: budget exhausted in the tree-width gate")
            return 2
    except WidthBoundMissed as exc:
        print(f"error: width bound missed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unhandled subcommand")


# -------------------------------------------------------------- treewidth


def main_treewidth(argv=None) -> int:
    ap = _ArgumentParser(prog="treewidth", description="Exact tree-width with a PACE decomposition.")
    ap.add_argument("graph")
    ap.add_argument("--budget", type=int, default=treewidth.DEFAULT_BUDGET)
    args = ap.parse_args(argv)
    try:
        g = _graph(args.graph)
        r = treewidth.treewidth_exact(g, args.budget)
        if r.status != "exact":
            print(f"tw: unknown (bounds {r.lb}..{r.ub} after {r.expanded} states)")
            return 2
        print(f"tw: {r.width}")
        print(formats.write_pace_td(r.decomposition, g.n), end="")
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    """Umbrella dispatcher: `python -m twinwidth <tool> ...`."""
    argv = list(sys.argv[1:] if argv is None else argv)
    tools = {"tww": main_tww, "gen": main_gen, "lab": main_lab, "treewidth": main_treewidth}
    if not argv or argv[0] not in tools:
        print(f"usage: twinwidth {{{','.join(tools)}}} ...", file=sys.stderr)
        return 1
    return tools[argv[0]](argv[1:])
