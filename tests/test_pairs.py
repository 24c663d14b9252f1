"""tools/pairs.py, the alternating fresh-pair runner, on one tree."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_pairs_on_one_tree_report_times_wins_and_identical_output():
    tree = str(ROOT)
    argv = [sys.executable, str(ROOT / "tools" / "pairs.py"), "--pairs", "2", tree, tree]
    proc = subprocess.run(
        argv + ["verify", "lemma2.1", "--n", "4"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    title, side_a, side_b, wins, same = proc.stdout.splitlines()
    assert title == "2 pairs of: btcayley verify lemma2.1 --n 4"
    for label, line in (("A", side_a), ("B", side_b)):
        number = r"\d+\.\d+"
        want = rf"{label} {re.escape(tree)}: wall median {number} ms, quartiles {number}-{number} ms;"
        assert re.fullmatch(rf"{want} max RSS {number} MB \(median {number} MB\)", line), line
    a, b, ties = map(int, re.fullmatch(r"wins: A (\d), B (\d), ties (\d)", wins).groups())
    assert a + b + ties == 2
    assert re.fullmatch(r"stdout: identical on both sides \(\d+ bytes, exit 0\)", same)
