"""Benchmark of btcayley: four workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Workloads (BENCHMARK.json declares sweep and symmetry and says why; geodesic
and cli run on request, and every traced run includes them):

  sweep     `btcayley verify all --n 7` in a fresh process, repeated
  geodesic  bfs_distance queries at n=10 in one warm worker process
  symmetry  passes of searches, maps and closures, each in a cold process
  cli       a seeded mix of short fresh-process commands

Every workload reports the same end-to-end metrics, measured with tracing
off: op_p50_ms and op_tail_ms (per operation: one sweep, query, pass or
command), ops_per_s, setup_s (median of fresh interpreters importing
btcayley) and peak_rss_mb (largest resident set of a process doing the
work).  With --trace 1 the run instead prints the per-layer metrics: micro
timings of the point operations, spans around the layer entry points of a
traced sweep, symmetry pass, geodesic rounds and command cycle, and the
tracing overhead on the chosen workload.

Every operation's output is checked; failures are counted in `failed`.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Only one child process runs at a time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import common
import selftest

ROOT = common.HERE.parent
SRC = ROOT / "src"
WORKER = common.HERE / "worker.py"
OUT = common.HERE / "out"
PY = sys.executable
SETUP_SPAWNS = 16
RUN_LIMIT_S = 170.0
TRACE_GEODESIC_ROUNDS = 3
LAYERS = ("cli", "verify", "graphs", "autgroup", "maps", "toric", "perms")


@dataclass
class Child:
    exit: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float


class Harness:
    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.tally = common.Tally()
        self.reference = common.load_reference()
        self.notes: list[str] = []
        self.env = {k: v for k, v in os.environ.items() if k != "BTCAYLEY_BUDGET_MS"}
        self.env["PYTHONPATH"] = str(SRC)

    # -- processes ---------------------------------------------------------

    def run_child(self, argv) -> Child:
        """Run one child to completion; wall time from spawn to reaping."""
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(a) for a in argv], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return Child(proc.returncode, out, err[0], wall, usage.ru_maxrss / 1024.0)

    def worker(self, task: str, args: dict | None = None) -> tuple[Child, dict | None]:
        argv = [PY, WORKER, task] + ([json.dumps(args)] if args is not None else [])
        child = self.run_child(argv)
        if child.exit != 0:
            self.tally.add(f"worker {task} exited {child.exit}: {child.stderr.decode()[-400:]}")
            return child, None
        return child, json.loads(child.stdout.decode().splitlines()[-1])

    def closed_loop(self, op):
        """Call op() (one round) until common.another_round says stop."""
        durations: list[float] = []
        start = time.perf_counter()
        while True:
            durations.append(op())
            elapsed = time.perf_counter() - start
            if not common.another_round(durations, elapsed, self.seconds):
                return durations, elapsed

    # -- set-up ------------------------------------------------------------

    def check_import(self):
        """Refuse to measure a btcayley that is not the checkout's own src/."""
        probe = self.run_child([PY, "-c", "import btcayley; print(btcayley.__file__)"])
        origin = probe.stdout.decode().strip()
        if probe.exit != 0 or not Path(origin).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"btcayley does not import from {SRC}: {probe.stderr.decode()[-400:]}")

    def setup_samples(self, count: int) -> list[float]:
        """Wall times from a fresh interpreter to `import btcayley` returned."""
        return [self.run_child([PY, "-c", "import btcayley"]).wall_s for _ in range(count)]

    # -- single operations -------------------------------------------------

    def cli_command(self, argv, trace: bool) -> tuple[Child, list]:
        launcher = [PY, WORKER, "cli", "--trace"] if trace else [PY, "-m", "btcayley"]
        child = self.run_child(launcher + list(argv))
        ref = self.reference["sweep"] if tuple(argv) == common.SWEEP_ARGV else \
            self.reference["cli"][common.command_key(argv)]
        self.tally.add(common.check_output(ref, child.exit, child.stdout))
        spans = []
        last = child.stderr.decode().rstrip().rpartition("\n")[2]
        if trace and last.startswith('{"spans"'):
            spans = json.loads(last)["spans"]
        return child, spans

    def symmetry_pass(self, index: int, trace: bool) -> tuple[Child, dict | None]:
        child, result = self.worker("symmetry", {"seed": self.seed, "pass": index, "trace": trace})
        if result is not None:
            errors = common.check_symmetry(result, self.reference["symmetry"])
            self.tally.add("; ".join(errors) or None)
        return child, result

    def geodesic(self, trace: bool, rounds: int | None = None) -> tuple[Child, dict | None]:
        args = {"seed": self.seed, "pool": self.reference["geodesic_pool"],
                "seconds": self.seconds, "trace": trace, "rounds": rounds}
        child, result = self.worker("geodesic", args)
        if result is not None:
            self.tally.merge(len(result["latencies_ms"]), result["errors"])
        return child, result

    def cli_cycle(self, cycle: int) -> list[tuple[str, ...]]:
        return common.cli_cycle(self.seed, cycle, common.cli_slots(self.reference))


# ---------------------------------------------------------------------------
# End-to-end workloads.  Each returns latencies in ms, operations per second
# and the peak RSS; setup_s is measured the same way for all of them.


def child_rounds(h: Harness, one_round):
    """Closed loop over rounds of child processes, one latency per child.

    one_round(index) runs round `index` and returns its Child records.
    """
    children: list[Child] = []
    index = itertools.count()

    def op():
        batch = one_round(next(index))
        children.extend(batch)
        return sum(c.wall_s for c in batch)

    _, elapsed = h.closed_loop(op)
    latencies = [c.wall_s * 1000.0 for c in children]
    return latencies, len(children) / elapsed, max(c.rss_mb for c in children)


def run_geodesic(h: Harness):
    child, result = h.geodesic(trace=False)
    if result is None:
        raise SystemExit("geodesic worker failed: " + "; ".join(h.tally.reasons))
    lat = result["latencies_ms"]
    return lat, len(lat) / result["elapsed_s"], child.rss_mb


WORKLOADS = {
    "sweep": lambda h: child_rounds(h, lambda i: [h.cli_command(common.SWEEP_ARGV, trace=False)[0]]),
    "geodesic": run_geodesic,
    "symmetry": lambda h: child_rounds(h, lambda i: [h.symmetry_pass(i, trace=False)[0]]),
    "cli": lambda h: child_rounds(
        h, lambda i: [h.cli_command(argv, trace=False)[0] for argv in h.cli_cycle(i)]),
}


def end_to_end(h: Harness, workload: str) -> dict:
    # Half the set-up samples before the workload and half after it, so a
    # slow spell of the machine does not hit all of them at once.
    h.check_import()
    setup = h.setup_samples(SETUP_SPAWNS // 2)
    latencies, rate, rss = WORKLOADS[workload](h)
    setup += h.setup_samples(SETUP_SPAWNS - SETUP_SPAWNS // 2)
    pct, tail = common.tail_percentile(latencies)
    h.notes.append(f"{len(latencies)} operations; op_tail_ms is p{pct:.0f}"
                   + ("" if pct == 90 else " (too few samples for p90 with ten beyond it)"))
    h.notes.append(f"setup_s is the median of {SETUP_SPAWNS} fresh interpreters")
    return {
        "op_p50_ms": (common.median(latencies), "ms"),
        "op_tail_ms": (tail, "ms"),
        "ops_per_s": (rate, "1/s"),
        "setup_s": (common.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


# ---------------------------------------------------------------------------
# Traced run.


def span_total(spans, name: str) -> float:
    return sum((s[2] - s[1]) / 1e6 for s in spans if s[0] == name)


def span_names() -> list[str]:
    names = [f"{layer}.{name}" for layer, names in common.SPANNED.items() for name in names]
    return names + ["maps.faces", "cli.main", "cli.json", "verify.run_claim"]


def traced(h: Harness, workload: str) -> dict:
    """Per-layer metrics, and the tracing overhead on `workload`."""
    h.check_import()
    startup = [h.cli_command(("enumerate", "--n", "4", "--what", "partition"), trace=False)[0].wall_s
               for _ in range(SETUP_SPAWNS)]

    def untraced_op() -> float:
        if workload == "sweep":
            return h.cli_command(common.SWEEP_ARGV, trace=False)[0].wall_s
        if workload == "symmetry":
            return h.symmetry_pass(0, trace=False)[0].wall_s
        if workload == "geodesic":
            result = h.geodesic(False, TRACE_GEODESIC_ROUNDS)[1]
            if result is None:
                raise SystemExit("geodesic worker failed: " + "; ".join(h.tally.reasons))
            return result["elapsed_s"]
        return sum(h.cli_command(argv, trace=False)[0].wall_s for argv in h.cli_cycle(0))

    untraced_s = untraced_op()

    sweep_child, sweep_spans = h.cli_command(common.SWEEP_ARGV, trace=True)
    sym_child, sym = h.symmetry_pass(0, trace=True)
    _, geo = h.geodesic(True, TRACE_GEODESIC_ROUNDS)
    cli_runs = [(argv, *h.cli_command(argv, trace=True)) for argv in h.cli_cycle(0)]
    _, micro = h.worker("micro")
    if sym is None or geo is None or micro is None:
        raise SystemExit("a traced worker failed: " + "; ".join(h.tally.reasons))

    cli_spans = [s for _, _, spans in cli_runs for s in spans]
    traced_s = {
        "sweep": sweep_child.wall_s,
        "symmetry": sym_child.wall_s,
        "geodesic": geo["elapsed_s"],
        "cli": sum(child.wall_s for _, child, _ in cli_runs),
    }[workload]
    own_spans = {"sweep": sweep_spans, "symmetry": sym["spans"],
                 "geodesic": geo["spans"], "cli": cli_spans}[workload]

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-seed{h.seed}.jsonl", "w") as f:
        for source, spans in (("sweep", sweep_spans), ("symmetry", sym["spans"]),
                              ("geodesic", geo["spans"]), ("cli", cli_spans)):
            for name, start, end, parent, op in spans:
                f.write(json.dumps({"source": source, "name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent, "op": op}) + "\n")

    m: dict = {k: (v, "ns" if k.endswith("_ns") else "ms") for k, v in micro.items()}
    sp = sym["spans"]
    for metric, step in (
        ("graphs.build_cayley7_ms", "pass.build_cayley7"),
        ("graphs.gamma10_ms", "pass.gamma10"),
        ("graphs.graphs_isomorphic_ms", "pass.graphs_isomorphic"),
        ("autgroup.stabilizer5_ms", "pass.stabilizer5"),
        ("autgroup.generated_subgroup_ms", "pass.generated_subgroup"),
        ("maps.cayley_map7_ms", "pass.cayley_map7"),
        ("maps.faces7_ms", "pass.faces7"),
        ("maps.is_regular6_ms", "pass.is_regular6"),
    ):
        m[metric] = (span_total(sp, step), "ms")
    m["autgroup.aut_group_ms"] = (sum(span_total(sp, f"pass.aut_group{n}") for n in (8, 9, 10)), "ms")

    bfs = [(s[2] - s[1]) / 1e6 for s in geo["spans"] if s[0] == "graphs.bfs_distance"]
    pct, tail = common.tail_percentile(bfs)
    m["graphs.bfs_distance_p50_ms"] = (common.median(bfs), "ms")
    m["graphs.bfs_distance_p90_ms"] = (tail, "ms")
    h.notes.append(f"bfs_distance spans: {len(bfs)}; graphs.bfs_distance_p90_ms is p{pct:.0f}")

    sweep_summary = common.summarize_spans(sweep_spans)
    claims = {name[len("verify.claim."):]: row for name, row in sweep_summary.items()
              if name.startswith("verify.claim.")}
    for key in h.reference["claim_keys"]:
        m[f"verify.claim_ms.{key}"] = (claims[key]["total_ms"] if key in claims else 0.0, "ms")
    m["verify.self_ms"] = (sum(row["self_ms"] for row in claims.values()), "ms")
    claim_ms = sum(row["total_ms"] for row in claims.values())
    main_ms = span_total(sweep_spans, "cli.main") - span_total(sweep_spans, "cli.json")
    m["trace.claim_coverage_pct"] = (100.0 * claim_ms / main_ms, "%")

    m["cli.startup_ms"] = (common.median(startup) * 1000.0, "ms")
    m["cli.json_ms"] = (span_total(cli_spans, "cli.json"), "ms")

    m["trace.overhead_ms"] = ((traced_s - untraced_s) * 1000.0, "ms")
    m["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    own = common.summarize_spans(own_spans)
    for layer in LAYERS:
        m[f"trace.self_ms.{layer}"] = (
            sum(row["self_ms"] for name, row in own.items() if name.split(".")[0] == layer), "ms")
    for name in span_names():
        if name == "verify.run_claim":
            calls = sum(row["calls"] for n, row in own.items() if n.startswith("verify.claim."))
        else:
            calls = own.get(name, {}).get("calls", 0)
        m[f"trace.calls.{name}"] = (calls, "count")
    h.notes.append(f"tracing overhead on {workload}: traced {traced_s:.3f} s, untraced {untraced_s:.3f} s")
    h.notes.append(f"spans written to {OUT.relative_to(ROOT)}/spans-{workload}-seed{h.seed}.jsonl")
    return m


# ---------------------------------------------------------------------------
# Reporting.


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    files = sorted(p for p in SRC.rglob("*.py"))
    return common.sha256(b"".join(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes()
                                  for p in files))[:16]


def declared_metrics(trace: bool) -> set[str] | None:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text())
    return {m["name"] for m in data["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "btcayley" / "__init__.py").is_file():
        print(f"error: no btcayley sources under {SRC}", file=sys.stderr)
        return 2
    h = Harness(args.seed, args.seconds)
    problems = selftest.run(h.reference)
    if problems:
        print("error: checker self-tests failed: " + "; ".join(problems), file=sys.stderr)
        return 2

    stamp = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
    metrics = traced(h, args.workload) if args.trace else end_to_end(h, args.workload)
    stamp["loadavg_end"] = os.getloadavg()

    declared = declared_metrics(bool(args.trace))
    if declared is not None and declared != set(metrics):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(stamp))
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.4f} {unit}")
    for note in h.notes:
        print("note: " + note)
    fail_rate = h.tally.failed / h.tally.attempted if h.tally.attempted else 1.0
    print(f"fail_rate {fail_rate:.4f} ({h.tally.failed} of {h.tally.attempted} operations)")
    for reason in h.tally.reasons:
        print("failed: " + reason)
    result = {
        "correct": h.tally.failed == 0 and h.tally.attempted > 0,
        "attempted": h.tally.attempted,
        "failed": h.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
