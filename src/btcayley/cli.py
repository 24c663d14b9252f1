"""Command-line front end.

Four subcommands: enumerate (census listings), verify (claim registry),
distance (block-move distance with optional geodesic), export (graphs and
face structures).  Default output is compact JSON with sorted keys, so
identical invocations produce identical bytes; --pretty switches to human
tables, which also carry timing and are not meant for golden files.

Exit codes: 0 ok/verified, 1 a claim failed, 2 usage error, 3 a search
budget was exhausted.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .blocktrans import classify, enumerate_tn, make_bt, partition_counts, tn_realizations
from .budget import NO_BUDGET, Budget, BudgetExceeded
from .graphs import (
    bfs_distance,
    build_cayley,
    dot_text,
    edge_list_text,
    gamma,
    gamma_v,
    graph_json,
)
from .maps import face_lines, prop72_map
from .perms import parse_permutation
from .toric import toric_class_stats
from .verify import claim_keys, run_all, run_claim

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_STATUS_EXIT = {"verified": EXIT_OK, "failed": EXIT_FAILED, "skipped-budget": EXIT_BUDGET}


class UsageError(Exception):
    pass


def _print_json(obj, out):
    out.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _resolve_budget(args) -> Budget:
    ms = args.budget_ms
    if ms is None:
        env = os.environ.get("BTCAYLEY_BUDGET_MS")
        if env is not None:
            try:
                ms = int(env)
            except ValueError:
                raise UsageError(f"BTCAYLEY_BUDGET_MS is not an integer: {env!r}")
    if ms is None:
        return NO_BUDGET
    if ms < 0:
        raise UsageError("budget must be non-negative")
    return Budget(ms)


def _require_range(n: int, lo: int, hi: int, what: str):
    if not lo <= n <= hi:
        raise UsageError(f"{what} supports {lo} <= n <= {hi}, got {n}")


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args, out) -> int:
    _require_range(args.n, 2, 10, "enumerate")
    if args.what == "toric-classes":
        # materializing the orbit partition at degree 9+ is beyond desk scale
        _require_range(args.n, 2, 8, "enumerate --what toric-classes")
    n = args.n
    if args.what == "tn":
        rows = [
            {
                "i": c.i,
                "j": c.j,
                "k": c.k,
                "class": classify(c),
                "image": str(make_bt(c)),
            }
            for c in enumerate_tn(n)
        ]
        if args.pretty:
            for r in rows:
                out.write(f"s({r['i']},{r['j']},{r['k']})  {r['class']}  {r['image']}\n")
            out.write(f"total {len(rows)}\n")
        else:
            _print_json({"n": n, "what": "tn", "count": len(rows), "items": rows}, out)
        return EXIT_OK
    if args.what == "partition":
        counts = partition_counts(n)
        if args.pretty:
            for cls in ("B", "L", "F", "S"):
                out.write(f"{cls} {counts[cls]}\n")
            out.write(f"total {sum(counts.values())}\n")
        else:
            _print_json(
                {"n": n, "what": "partition", "counts": counts, "total": sum(counts.values())},
                out,
            )
        return EXIT_OK
    classes, singletons, histogram = toric_class_stats(n, args.budget)
    if args.pretty:
        out.write(f"classes {classes}\nsingletons {singletons}\n")
        for size in sorted(histogram):
            out.write(f"size {size}: {histogram[size]} classes\n")
    else:
        _print_json(
            {
                "n": n,
                "what": "toric-classes",
                "classes": classes,
                "singletons": singletons,
                "histogram": {str(k): v for k, v in histogram.items()},
            },
            out,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _report_json(report) -> dict:
    # Wall time is left to the pretty table: the JSON surface must be
    # byte-identical across runs.
    out = report.as_json()
    del out["wall_time_ms"]
    return out


def _report_line(report) -> str:
    line = f"{report.claim:18s} n={report.n:<2d} {report.status:14s} {report.wall_time_ms:9.1f} ms"
    if report.counterexample:
        line += f"  counterexample: {report.counterexample}"
    return line


def cmd_verify(args, out) -> int:
    claim = args.claim_pos if args.claim_pos is not None else args.claim
    if claim is None:
        raise UsageError("verify needs a claim key or 'all'")
    if args.claim_pos is not None and args.claim is not None and args.claim_pos != args.claim:
        raise UsageError("claim given twice with different values")
    budget = args.budget
    if claim == "all":
        reports = run_all(args.n, budget)
        if args.pretty:
            for r in reports:
                out.write(_report_line(r) + "\n")
            counts = {"verified": 0, "failed": 0, "skipped-budget": 0}
            for r in reports:
                counts[r.status] += 1
            out.write(
                f"total {len(reports)}: {counts['verified']} verified, "
                f"{counts['failed']} failed, {counts['skipped-budget']} skipped\n"
            )
        else:
            _print_json(
                {
                    "n_requested": args.n,
                    "reports": [_report_json(r) for r in reports],
                    "summary": {
                        "verified": sum(r.status == "verified" for r in reports),
                        "failed": sum(r.status == "failed" for r in reports),
                        "skipped-budget": sum(r.status == "skipped-budget" for r in reports),
                    },
                },
                out,
            )
        if any(r.status == "failed" for r in reports):
            return EXIT_FAILED
        if any(r.status == "skipped-budget" for r in reports):
            return EXIT_BUDGET
        return EXIT_OK
    if claim not in claim_keys():
        raise UsageError(
            f"unknown claim {claim!r}; known: all, " + ", ".join(claim_keys())
        )
    report = run_claim(claim, args.n, budget)
    if args.pretty:
        out.write(_report_line(report) + "\n")
        if report.details:
            out.write(f"details: {report.details}\n")
    else:
        _print_json(_report_json(report), out)
    return _STATUS_EXIT[report.status]


# ---------------------------------------------------------------------------
# distance


def cmd_distance(args, out) -> int:
    _require_range(args.n, 2, 10, "distance")
    try:
        source = parse_permutation(args.source)
        target = parse_permutation(args.target)
    except ValueError as exc:
        raise UsageError(str(exc))
    if source.n != args.n or target.n != args.n:
        raise UsageError(
            f"permutation degrees ({source.n}, {target.n}) do not match --n {args.n}"
        )
    d, path = bfs_distance(source, target, args.budget)
    if args.pretty:
        out.write(f"{d}\n")
        if args.emit_path:
            for c in path:
                out.write(f"{c}\n")
    else:
        payload = {
            "n": args.n,
            "source": str(source),
            "target": str(target),
            "distance": d,
        }
        if args.emit_path:
            payload["path"] = [str(c) for c in path]
        _print_json(payload, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# export


def _export_graph(args) -> "tuple[str, object]":
    n = args.n
    if args.object == "cayley":
        _require_range(n, 2, 6, "export cayley")
        return "cayley", build_cayley(n, tn_realizations(n))
    if args.object == "gamma":
        _require_range(n, 2, 10, "export gamma")
        return "gamma", gamma(n)
    _require_range(n, 4, 10, "export gamma-v")
    return "gamma_v", gamma_v(n)


def cmd_export(args, out) -> int:
    if args.object == "map-faces":
        if args.format == "dot":
            raise UsageError("map-faces has no dot form; use edges or json")
        _require_range(args.n, 3, 6, "export map-faces")
        m = prop72_map(args.n)
        if args.format == "edges":
            out.write(face_lines(m))
            return EXIT_OK
        faces = m.faces()
        k = m.valency
        _print_json(
            {
                "n": args.n,
                "object": "map-faces",
                "dart_count": m.dart_count,
                "face_count": len(faces),
                "faces": [[str(m.elements[d // k]) for d in f] for f in faces],
            },
            out,
        )
        return EXIT_OK
    name, g = _export_graph(args)
    if args.format == "edges":
        out.write(edge_list_text(g))
    elif args.format == "dot":
        out.write(dot_text(g, name))
    else:
        _print_json(graph_json(g), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btcayley",
        description="Block transposition Cayley graphs: census, claims, distances, exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_n=True):
        p.add_argument("--n", type=int, required=need_n, help="degree of the permutations")
        p.add_argument("--pretty", action="store_true", help="human table instead of JSON")
        p.add_argument(
            "--budget-ms",
            type=int,
            default=None,
            help="search budget in milliseconds (default: BTCAYLEY_BUDGET_MS or none)",
        )

    p = sub.add_parser("enumerate", help="list block transpositions or class statistics")
    common(p)
    p.add_argument(
        "--what",
        required=True,
        choices=("tn", "partition", "toric-classes"),
        help="which census to print",
    )
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="check one registered claim, or all of them")
    p.add_argument("claim_pos", nargs="?", metavar="claim", help="claim key, or 'all'")
    p.add_argument("--claim", help="claim key (alternative to the positional)")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("distance", help="block-move distance between two permutations")
    common(p)
    p.add_argument("source", help='permutation literal like "[2 1 3]"')
    p.add_argument("target", help='permutation literal like "[3 1 2]"')
    p.add_argument("--emit-path", action="store_true", help="also print one geodesic")
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("export", help="write a graph or face structure to stdout")
    common(p)
    p.add_argument(
        "--object",
        required=True,
        choices=("cayley", "gamma", "gamma-v", "map-faces"),
        help="which structure to export",
    )
    p.add_argument(
        "--format",
        required=True,
        choices=("edges", "dot", "json"),
        help="output format",
    )
    p.set_defaults(fn=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every subcommand takes --budget-ms, so every one validates it;
        # verify, distance and enumerate --what toric-classes spend it.
        args.budget = _resolve_budget(args)
        return args.fn(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def run() -> None:
    """The one exit path of a btcayley process (python -m btcayley, python
    -m btcayley.cli and the btcayley script): main() on sys.argv, then exit
    with its code.

    gc.freeze() first moves every object into the permanent generation, so
    the collections of interpreter shutdown skip the module heap of a
    process about to end.  atexit handlers, flushing and exit codes are
    those of sys.exit(main()).  main() itself never freezes: tests and
    perfbench call it in their own process.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
