"""Regenerate perfbench/reference.json from the code in src/.

    python3 perfbench/capture.py

The reference holds what the benchmark's correctness gates compare with:
the stdout bytes and exit code of the sweep and of every command the
command-line mix can run, the pool of geodesic query differences with
their distances, and the face count the symmetry pass checks.  It also
lists the registry's claim keys, which name the per-claim metrics.  Capture it
only from a commit whose outputs are trusted; a later change that alters
any of these outputs shows up as failed operations.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import common

ROOT = common.HERE.parent

# Strata of the geodesic pool: how many uniformly drawn differences of each
# distance one round asks, roughly the shares among uniformly random pairs
# at n=10 (distance 6 is left to the fixed identity-reversal pair).
GEODESIC_STRATA = {3: 3, 4: 14, 5: 17}
CLI_DISTANCE_PAIRS = 6


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BTCAYLEY_BUDGET_MS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(argv) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "btcayley", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, check=False,
    )
    entry = {
        "argv": list(argv),
        "exit": proc.returncode,
        "sha256": common.sha256(proc.stdout),
        "bytes": len(proc.stdout),
    }
    if len(proc.stdout) <= 256:
        entry["stdout"] = proc.stdout.decode()
    return entry


def random_perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return p


def geodesic_pool() -> list[dict]:
    sys.path.insert(0, str(ROOT / "src"))
    from btcayley import Permutation, bfs_distance, identity

    rng = random.Random("geodesic-pool")
    need = dict(GEODESIC_STRATA)
    pool = []
    n = common.GEODESIC_N
    while any(need.values()):
        delta = random_perm(rng, n)
        d, _ = bfs_distance(identity(n), Permutation(tuple(delta)))
        if need.get(d, 0) > 0:
            need[d] -= 1
            pool.append({"delta": delta, "distance": d})
    return pool


def fmt(p) -> str:
    return "[" + " ".join(map(str, p)) + "]"


def main() -> int:
    rng = random.Random("cli-distance-pairs")
    reference = {
        "cli_distance_pairs": {
            str(n): [[fmt(random_perm(rng, n)), fmt(random_perm(rng, n))] for _ in range(CLI_DISTANCE_PAIRS)]
            for n in (8, 9)
        },
        "geodesic_pool": geodesic_pool(),
        "sweep": run_cli(common.SWEEP_ARGV),
    }
    universe = sorted({cmd for slot in common.cli_slots(reference) for cmd in slot})
    reference["cli"] = {common.command_key(cmd): run_cli(cmd) for cmd in universe}

    from btcayley import claim_keys, prop72_map

    reference["claim_keys"] = list(claim_keys())
    reference["symmetry"] = {"faces7": len(prop72_map(7).faces())}
    common.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {common.REFERENCE_FILE} ({len(reference['cli'])} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
