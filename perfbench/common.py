"""Inputs, checkers and statistics shared by the harness and its worker.

Nothing here imports btcayley: the checkers re-derive every property they
test from plain tuples, so a defect in the package cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

GEODESIC_N = 10
SWEEP_ARGV = ("verify", "all", "--n", "7")

# Layers whose public entry points get a span.  Point operations of perms,
# blocktrans and toric (toric_f, bar_f, reverse_g, compose, ...) run millions
# of times per sweep; a span per call would swamp what it measures, so they
# are timed by the micro benchmarks instead.
SPANNED = {
    "graphs": (
        "bfs_distance", "build_cayley", "degree_profile", "e_edges", "gamma",
        "gamma_v", "graphs_isomorphic", "hamilton_cycle_gamma_v",
        "maximal_2_cliques", "vertex_set_V", "edge_list_text", "dot_text",
        "graph_json",
    ),
    "autgroup": (
        "aut_group", "generated_subgroup", "is_automorphism", "orbit",
        "perm_vertex_map", "stabilizer_of_identity",
    ),
    "maps": (
        "aut_order", "face_lines", "is_regular", "mprime_n5_map",
        "octahedron_map", "prop72_map", "t_balance",
    ),
    "toric": ("bar_f_witness", "toric_class_stats"),
    "perms": ("sym_group",),
}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, error: str | None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(error)

    def merge(self, attempted: int, reasons: list[str]):
        self.attempted += attempted
        self.failed += len(reasons)
        self.reasons.extend(reasons[: max(0, 20 - len(self.reasons))])


# ---------------------------------------------------------------------------
# Statistics.


def median(values) -> float:
    return statistics.median(values)


def another_round(durations: list[float], elapsed: float, seconds: float) -> bool:
    """Closed-loop rule: start another round while half a median round still
    fits in the run's seconds.  A run overruns by at most half a round, and a
    round longer than two thirds of the run runs once.  At least
    one round always runs, and percentiles are taken over whole rounds only,
    so every run carries the same mix of operations."""
    return elapsed + 0.5 * median(durations) <= seconds


def tail_percentile(values) -> tuple[float, float]:
    """(percentile, value): p90 when at least ten samples lie beyond it,
    otherwise the highest percentile that still has ten samples beyond it,
    but never less than the median (fewer than 20 samples)."""
    data = sorted(values)
    n = len(data)
    if n < 20:
        return 50.0, statistics.median(data)
    pct = 90.0 if n >= 100 else 100.0 * (1 - 10 / n)
    rank = pct / 100.0 * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    return pct, data[lo] + (data[hi] - data[lo]) * (rank - lo)


# ---------------------------------------------------------------------------
# Reference outputs (sweep and cli).


def check_output(ref: dict, exit_code: int, stdout: bytes) -> str | None:
    """Byte-exact match against a reference captured from the parent code."""
    if exit_code != ref["exit"]:
        return f"{' '.join(ref['argv'])}: exit {exit_code}, expected {ref['exit']}"
    if len(stdout) != ref["bytes"] or sha256(stdout) != ref["sha256"]:
        return f"{' '.join(ref['argv'])}: stdout differs from the reference"
    return None


# ---------------------------------------------------------------------------
# Geodesic queries.


def apply_cut(t: tuple, i: int, j: int, k: int) -> tuple:
    """Right action of s(i,j,k): swap the adjacent blocks i+1..j and j+1..k."""
    return t[:i] + t[j:k] + t[i:j] + t[k:]


def breakpoints(p: tuple) -> int:
    """Breakpoints of p in the framed one-line form [0 p n+1]."""
    ext = (0,) + tuple(p) + (len(p) + 1,)
    return sum(1 for a, b in zip(ext, ext[1:]) if b != a + 1)


def relative(source: tuple, target: tuple) -> tuple:
    """source^-1 o target: the permutation sorted by any source-target path."""
    inv = [0] * len(source)
    for pos, v in enumerate(source, start=1):
        inv[v - 1] = pos
    return tuple(inv[v - 1] for v in target)


def check_geodesic(source, target, distance, path, expected=None) -> str | None:
    """Independent check of one bfs_distance answer.

    The path's block transpositions must carry source to target, its length
    must be the distance, the distance must respect the breakpoint lower
    bound ceil(b/3) (Bafna and Pevzner), and where the true distance is known
    (identity to reversal: floor(n/2)+1; a reference pair) it must match.
    """
    n = len(source)
    label = f"{list(source)} -> {list(target)}"
    if len(path) != distance:
        return f"{label}: path has {len(path)} steps for distance {distance}"
    t = tuple(source)
    for step in path:
        if len(step) != 3:
            return f"{label}: malformed step {step}"
        i, j, k = step
        if not 0 <= i < j < k <= n:
            return f"{label}: bad cut points {step}"
        t = apply_cut(t, i, j, k)
    if t != tuple(target):
        return f"{label}: path ends at {list(t)}"
    lower = -(-breakpoints(relative(source, target)) // 3)
    if distance < lower:
        return f"{label}: distance {distance} below the breakpoint bound {lower}"
    if tuple(source) == tuple(range(1, n + 1)) and tuple(target) == tuple(range(n, 0, -1)):
        if distance != n // 2 + 1:
            return f"{label}: reversal distance {distance}, expected {n // 2 + 1}"
    if expected is not None and distance != expected:
        return f"{label}: distance {distance}, reference {expected}"
    return None


def geodesic_round(seed: int, pool: list, rnd: int) -> list[tuple]:
    """One round of queries: the identity-reversal pair plus every pool entry.

    A pool entry is a difference delta = source^-1 o target with its reference
    distance.  Every round asks each delta once, from a fresh random source
    drawn from the seed, in a seeded order.  The search cost depends on delta
    only (left translation is a graph automorphism), so every round carries
    the same mix of easy and hard queries while the inputs still vary.
    """
    rng = random.Random(f"geodesic:{seed}:{rnd}")
    n = GEODESIC_N
    queries = [(tuple(range(1, n + 1)), tuple(range(n, 0, -1)), n // 2 + 1)]
    for entry in pool:
        src = list(range(1, n + 1))
        rng.shuffle(src)
        delta = entry["delta"]
        tgt = tuple(src[v - 1] for v in delta)
        queries.append((tuple(src), tgt, entry["distance"]))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# Symmetry pass.


# Relabelled copies of the n=5 Cayley graph that each symmetry pass matches
# against the original.  One copy of the n=6 graph costs 6.5-8.5 s, which
# made a pass about 10 s long and left a run too few passes for a steady
# median; at n=5 a copy costs about 0.15 s and a pass about 2.7 s.
ISO_COPIES = 4


def relabelling(seed: int, pass_index: int, copy: int, nv: int) -> list[int]:
    rng = random.Random(f"symmetry:{seed}:{pass_index}:{copy}")
    perm = list(range(nv))
    rng.shuffle(perm)
    return perm


def check_isomorphism(nbrs1, nbrs2, mapping) -> str | None:
    """mapping must be a bijection carrying every edge of graph 1 to graph 2."""
    nv = len(nbrs1)
    if mapping is None:
        return "graphs_isomorphic found no isomorphism of a relabelled copy"
    if sorted(mapping) != list(range(nv)):
        return "isomorphism is not a bijection of the vertices"
    sets2 = [set(ns) for ns in nbrs2]
    for v, ns in enumerate(nbrs1):
        for u in ns:
            if mapping[u] not in sets2[mapping[v]]:
                return f"isomorphism breaks the edge {v}-{u}"
    return None


def check_symmetry(result: dict, reference: dict) -> list[str]:
    """Check the facts one symmetry pass reports."""
    errors = []
    for n, order in sorted(result["aut_orders"].items()):
        if order != 2 * (int(n) + 1):
            errors.append(f"|Aut(gamma({n}))| = {order}, expected {2 * (int(n) + 1)}")
    if result["stabilizer5"] != 12:
        errors.append(f"stabilizer_of_identity(5) gave {result['stabilizer5']} maps, expected 12")
    if result["subgroup8"] != 20160:
        errors.append(f"subgroup over V at n=8 has order {result['subgroup8']}, expected 8!/2")
    if result["faces7"] != reference["faces7"]:
        errors.append(f"prop72_map(7) has {result['faces7']} faces, reference {reference['faces7']}")
    if result["cayley7_vertices"] != 5040:
        errors.append(f"build_cayley(7) has {result['cayley7_vertices']} vertices")
    if not result["regular6"]:
        errors.append("prop72_map(6) is not regular")
    errors.extend(result["iso_errors"])
    return errors


# ---------------------------------------------------------------------------
# Spans.


def summarize_spans(spans: list) -> dict:
    """Per span name: calls, total and self milliseconds.

    A span is (name, start_ns, end_ns, parent_index, op).  Self time is the
    duration minus the durations of its direct children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = {}
    for idx, (name, start, end, parent, op) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (end - start) / 1e6
        row["self_ms"] += (end - start - child_ns[idx]) / 1e6
    return out


# ---------------------------------------------------------------------------
# Command-line mix.

# Claims whose single run at n=5 costs about as much as interpreter start-up.
CHEAP_CLAIMS = (
    "bfs", "cor3.2", "cor4.2", "cor5.1", "cor5.11", "eq11", "eq16",
    "eqa14oct", "example7.1", "gfg", "lemma2.1", "lemma3.1", "lemma4.1",
    "lemma5.10", "lemma5.12", "lemma5.2", "lemma5.3", "lemma5.4", "lemma6.3",
    "prop5.13", "prop5.15", "prop5.6", "prop5.9", "prop7.2", "remark7",
    "skew-toric", "thm1", "thm7.3", "toric-singletons",
)


def cli_slots(reference: dict) -> list[list[tuple[str, ...]]]:
    """The command kinds of one cycle; the seed picks one variant per slot."""
    pairs = reference["cli_distance_pairs"]
    verify_cheap = [("verify", c, "--n", "5") for c in CHEAP_CLAIMS]
    return [
        [("enumerate", "--n", str(n), "--what", "tn") for n in range(4, 9)],
        [("enumerate", "--n", str(n), "--what", "partition") for n in range(4, 9)],
        [("enumerate", "--n", str(n), "--what", "toric-classes") for n in range(4, 8)],
        [("enumerate", "--n", "8", "--what", "toric-classes")],
        [("distance", "--n", "8", s, t, "--emit-path") for s, t in pairs["8"]],
        [("distance", "--n", "9", s, t, "--emit-path") for s, t in pairs["9"]],
        [("export", "--n", "10", "--object", "gamma", "--format", "edges")],
        [("export", "--n", "6", "--object", "cayley", "--format", "json")],
        [("export", "--n", "5", "--object", "map-faces", "--format", "json")],
        verify_cheap,
        verify_cheap,
        verify_cheap,
        verify_cheap,
        [("verify", "prop5.8", "--n", "4")],
    ]


def cli_cycle(seed: int, cycle: int, slots) -> list[tuple[str, ...]]:
    """One cycle of the mix: every slot once, variants and order from the seed."""
    rng = random.Random(f"cli:{seed}:{cycle}")
    commands = [rng.choice(slot) for slot in slots]
    rng.shuffle(commands)
    return commands


def command_key(argv) -> str:
    return " ".join(argv)
