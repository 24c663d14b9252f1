"""In-process side of the benchmark: one task per invocation.

    python3 perfbench/worker.py cli [--trace] <btcayley arguments...>
    python3 perfbench/worker.py geodesic '<json>'
    python3 perfbench/worker.py symmetry '<json>'
    python3 perfbench/worker.py micro

`cli` runs the command line exactly as `python -m btcayley` does, so its
stdout is the program's output byte for byte; with --trace it also writes
the recorded spans as the last line of stderr.  The other tasks print one
JSON object as their last stdout line.  The harness (run.py) starts each
task in a fresh interpreter with src/ on PYTHONPATH.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from contextlib import contextmanager

import common


class Tracer:
    """Spans kept in memory: (name, start_ns, end_ns, parent_index, op)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class NoTracer:
    """Stand-in with the Tracer interface that records nothing."""

    spans: list = []
    op = 0

    @contextmanager
    def span(self, name: str):
        yield

    def wrap(self, name: str, fn):
        return fn


def spanned_names():
    for layer, names in common.SPANNED.items():
        for name in names:
            yield layer, name


def instrument(tracer: Tracer):
    """Wrap the layer entry points as btcayley.verify and btcayley.cli import them."""
    from btcayley import cli, maps, verify

    for module in (verify, cli):
        for layer, name in spanned_names():
            fn = vars(module).get(name)
            if fn is not None and fn.__module__ == f"btcayley.{layer}":
                setattr(module, name, tracer.wrap(f"{layer}.{name}", fn))
    run_claim = verify.run_claim

    def traced_run_claim(key, *args, **kwargs):
        with tracer.span(f"verify.claim.{key}"):
            return run_claim(key, *args, **kwargs)

    verify.run_claim = traced_run_claim
    cli.run_claim = traced_run_claim
    cli._print_json = tracer.wrap("cli.json", cli._print_json)
    maps.CayleyMap.faces = tracer.wrap("maps.faces", maps.CayleyMap.faces)


def layer_api(tracer):
    """The package's entry points as the benchmark calls them, spanned when tracing."""
    api = {}
    for layer, name in spanned_names():
        fn = getattr(importlib.import_module(f"btcayley.{layer}"), name)
        api[name] = tracer.wrap(f"{layer}.{name}", fn)
    faces = importlib.import_module("btcayley.maps").CayleyMap.faces
    api["faces"] = tracer.wrap("maps.faces", faces)
    return api


# ---------------------------------------------------------------------------
# Tasks.


def task_cli(argv: list[str]) -> int:
    tracer = None
    if argv and argv[0] == "--trace":
        argv = argv[1:]
        tracer = Tracer()
        instrument(tracer)
    from btcayley import cli

    if tracer is None:
        return cli.main(argv)
    with tracer.span("cli.main"):
        code = cli.main(argv)
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps({"spans": tracer.spans}) + "\n")
    return code


def task_geodesic(args: dict) -> dict:
    """Closed loop of bfs_distance queries: one caller, one warm process."""
    import btcayley

    tracer = Tracer() if args["trace"] else NoTracer()
    bfs = tracer.wrap("graphs.bfs_distance", btcayley.bfs_distance)
    Permutation = btcayley.Permutation
    latencies, errors, rounds = [], [], []
    start = time.perf_counter()
    for rnd in itertools.count():
        round_start = time.perf_counter()
        for src, tgt, expected in common.geodesic_round(args["seed"], args["pool"], rnd):
            tracer.op = len(latencies)
            t0 = time.perf_counter()
            d, path = bfs(Permutation(src), Permutation(tgt))
            latencies.append((time.perf_counter() - t0) * 1000.0)
            err = common.check_geodesic(src, tgt, d, [(c.i, c.j, c.k) for c in path], expected)
            if err is not None:
                errors.append(err)
        rounds.append(time.perf_counter() - round_start)
        if args["rounds"] is not None:
            if len(rounds) == args["rounds"]:
                break
        elif not common.another_round(rounds, time.perf_counter() - start, args["seconds"]):
            break
    return {
        "elapsed_s": time.perf_counter() - start,
        "latencies_ms": latencies,
        "errors": errors,
        "spans": tracer.spans,
    }


def task_symmetry(args: dict) -> dict:
    """One symmetry pass in a cold process: searches, maps and closures."""
    import btcayley
    from btcayley.graphs import Graph

    tracer = Tracer() if args["trace"] else NoTracer()
    api = layer_api(tracer)
    out: dict = {"aut_orders": {}}
    for n in (8, 9, 10):
        with tracer.span(f"pass.gamma{n}"):
            g = api["gamma"](n)
        with tracer.span(f"pass.aut_group{n}"):
            out["aut_orders"][str(n)] = len(api["aut_group"](g))
    with tracer.span("pass.build_cayley7"):
        c7 = api["build_cayley"](7, btcayley.tn_realizations(7))
    out["cayley7_vertices"] = c7.num_vertices
    del c7
    with tracer.span("pass.stabilizer5"):
        out["stabilizer5"] = len(api["stabilizer_of_identity"](5))

    g5 = api["build_cayley"](5, btcayley.tn_realizations(5))
    out["iso_errors"] = []
    for copy in range(common.ISO_COPIES):
        perm = common.relabelling(args["seed"], args["pass"], copy, g5.num_vertices)
        labels = [None] * g5.num_vertices
        nbrs = [None] * g5.num_vertices
        for v, ns in enumerate(g5.neighbors):
            labels[perm[v]] = g5.labels[v]
            nbrs[perm[v]] = [perm[u] for u in ns]
        h = Graph(labels, nbrs)
        with tracer.span("pass.graphs_isomorphic"):
            mapping = api["graphs_isomorphic"](g5, h)
        error = common.check_isomorphism(g5.neighbors, h.neighbors, mapping)
        if error is not None:
            out["iso_errors"].append(error)

    with tracer.span("pass.cayley_map7"):
        m7 = api["prop72_map"](7)
    with tracer.span("pass.faces7"):
        out["faces7"] = len(api["faces"](m7))
    del m7
    m6 = api["prop72_map"](6)
    with tracer.span("pass.is_regular6"):
        out["regular6"] = api["is_regular"](m6) is not None
    gens = [btcayley.make_bt(c) for c in btcayley.vertex_set_V(8)]
    with tracer.span("pass.generated_subgroup"):
        out["subgroup8"] = len(api["generated_subgroup"](gens))
    out["spans"] = tracer.spans
    return out


def _per_call_ns(fn, calls: int, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return common.median(times) / calls


def _cold_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return common.median(times)


def task_micro() -> dict:
    """Per-call timings of the point operations over all of Sym_7."""
    from btcayley import blocktrans, perms, toric

    P = perms.Permutation
    tuples = list(itertools.permutations(range(1, 8)))
    elems = [P(t) for t in tuples]
    others = elems[1:] + elems[:1]
    shifts = [(p, i % 8) for i, p in enumerate(elems)]
    cuts = blocktrans.enumerate_tn(7) * 90
    count = len(elems)
    make_bt, recognize = blocktrans.make_bt, blocktrans.recognize
    toric_f, bar_f, reverse_g = toric.toric_f, toric.bar_f, toric.reverse_g
    return {
        "perms.construct_ns": _per_call_ns(lambda: [P(t) for t in tuples], count),
        "perms.compose_ns": _per_call_ns(lambda: [a.compose(b) for a, b in zip(elems, others)], count),
        "perms.inverse_ns": _per_call_ns(lambda: [a.inverse() for a in elems], count),
        "perms.sym_group7_ms": _cold_ms(lambda: perms.sym_group.__wrapped__(7), 5),
        "blocktrans.make_bt_ns": _per_call_ns(lambda: [make_bt(c) for c in cuts], len(cuts)),
        "blocktrans.recognize_ns": _per_call_ns(lambda: [recognize(p) for p in elems], count),
        "toric.toric_f_ns": _per_call_ns(lambda: [toric_f(p, r) for p, r in shifts], count),
        "toric.bar_f_ns": _per_call_ns(lambda: [bar_f(p, r) for p, r in shifts], count),
        "toric.reverse_g_ns": _per_call_ns(lambda: [reverse_g(p) for p in elems], count),
        "toric.check_skew_ms": _cold_ms(lambda: toric.bar_f_witness.__wrapped__(6, 1), 3),
    }


def main(argv: list[str]) -> int:
    task, rest = argv[0], argv[1:]
    if task == "cli":
        return task_cli(rest)
    if task == "geodesic":
        result = task_geodesic(json.loads(rest[0]))
    elif task == "symmetry":
        result = task_symmetry(json.loads(rest[0]))
    elif task == "micro":
        result = task_micro()
    else:
        raise SystemExit(f"unknown task {task!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
