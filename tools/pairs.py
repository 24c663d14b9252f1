"""Alternating fresh-process pairs of one btcayley command on two source trees.

    python tools/pairs.py [--pairs N] TREE_A TREE_B COMMAND...

Each round runs `python -m btcayley COMMAND...` in a fresh process with
PYTHONPATH set to TREE/src, once per tree; pair i runs A first when i is
even and B first when it is odd, so neither side always runs second.
Before the pairs, each side runs one round that is not counted: the first
run of a fresh tree compiles its modules.

Wall time runs from spawn to reaping, and the max RSS is the child's
ru_maxrss from os.wait4.  A child spawned by vfork and exec starts from
its parent's high-water RSS, so this script imports nothing of btcayley
and stays smaller than any child: the RSS it reports is the child's own.

It prints each side's median and quartiles of the wall time, the pairs
each side won (a tie counts for neither), and each side's max RSS.  It
exits 1 when any child's stdout bytes differ from the first round of A,
or its exit code from that round's, and 0 otherwise.
"""

import argparse
import os
import statistics
import sys
import time


def run_once(tree: str, command: list[str]) -> tuple[float, float, int, bytes]:
    """(wall ms, max RSS MB, exit code, stdout) of one fresh child on tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    argv = [sys.executable, "-m", "btcayley", *command]
    read, write = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, write, 1), (os.POSIX_SPAWN_CLOSE, read)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    os.close(write)
    chunks = []
    while chunk := os.read(read, 1 << 16):
        chunks.append(chunk)
    os.close(read)
    _, status, usage = os.wait4(pid, 0)
    wall_ms = (time.perf_counter() - start) * 1e3
    return wall_ms, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status), b"".join(chunks)


def summary(label: str, tree: str, walls: list[float], rss: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    return (
        f"{label} {tree}: wall median {median:.1f} ms, quartiles {q1:.1f}-{q3:.1f} ms;"
        f" max RSS {max(rss):.2f} MB (median {statistics.median(rss):.2f} MB)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pairs", type=int, default=10, help="counted pairs (default 10)")
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="the btcayley arguments")
    args = parser.parse_args()
    if args.pairs < 2 or not args.command:
        parser.error("need at least 2 pairs and a command")
    trees = {"A": args.tree_a, "B": args.tree_b}
    runs = {"A": [], "B": []}
    for side in "AB":
        run_once(trees[side], args.command)
    for i in range(args.pairs):
        for side in ("AB" if i % 2 == 0 else "BA"):
            runs[side].append(run_once(trees[side], args.command))

    print(f"{args.pairs} pairs of: btcayley {' '.join(args.command)}")
    for side in "AB":
        walls, rss = [r[0] for r in runs[side]], [r[1] for r in runs[side]]
        print(summary(side, trees[side], walls, rss))
    pairs = list(zip(runs["A"], runs["B"]))
    wins_a = sum(a[0] < b[0] for a, b in pairs)
    wins_b = sum(b[0] < a[0] for a, b in pairs)
    print(f"wins: A {wins_a}, B {wins_b}, ties {len(pairs) - wins_a - wins_b}")
    _, _, code, out = runs["A"][0]
    differ = [
        f"{side} round {i}"
        for side in "AB"
        for i, r in enumerate(runs[side])
        if (r[2], r[3]) != (code, out)
    ]
    if differ:
        print(f"stdout or exit code differs from A round 0 in: {', '.join(differ)}")
        return 1
    print(f"stdout: identical on both sides ({len(out)} bytes, exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
