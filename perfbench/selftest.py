"""Self-tests of the benchmark's checkers.

Each corrupted answer below must be counted as a failed operation, and each
intact one as a success.  run.py runs these before every measurement and
refuses to measure when one of them does not hold; they also run alone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import common

# Identity to reversal at n=4 along s(0,1,2), s(0,2,3), s(0,3,4).
GEODESIC = ((1, 2, 3, 4), (4, 3, 2, 1), [(0, 1, 2), (0, 2, 3), (0, 3, 4)])


def _expect(problems: list, label: str, errors, should_fail: bool):
    tally = common.Tally()
    for err in errors:
        tally.add(err)
    if should_fail and tally.failed == 0:
        problems.append(f"{label}: corrupted answer was accepted")
    if not should_fail and tally.failed:
        problems.append(f"{label}: intact answer was rejected: {tally.reasons}")


def run(reference: dict) -> list[str]:
    problems: list[str] = []

    src, tgt, path = GEODESIC
    _expect(problems, "geodesic", [common.check_geodesic(src, tgt, 3, path)], False)
    corrupted = {
        "dropped step": (2, path[:2]),
        "wrong cut": (3, path[:2] + [(1, 3, 4)]),
        "detour": (5, path + [(0, 1, 2), (0, 1, 2)]),
        "malformed cut": (3, path[:2] + [(0, 4, 3)]),
    }
    for label, (d, steps) in corrupted.items():
        _expect(problems, f"geodesic {label}", [common.check_geodesic(src, tgt, d, steps)], True)
    _expect(problems, "geodesic off reference",
            [common.check_geodesic(src, (1, 3, 2, 4), 1, [(1, 2, 3)], expected=2)], True)

    ref = reference["cli"]["verify prop5.8 --n 4"]
    good = ref["stdout"].encode()
    _expect(problems, "cli output", [common.check_output(ref, ref["exit"], good)], False)
    flipped = bytearray(good)
    flipped[len(flipped) // 2] ^= 0x01
    _expect(problems, "cli flipped byte", [common.check_output(ref, ref["exit"], bytes(flipped))], True)
    _expect(problems, "cli exit code", [common.check_output(ref, 0, good)], True)

    intact = {
        "aut_orders": {"8": 18, "9": 20, "10": 22},
        "stabilizer5": 12,
        "subgroup8": 20160,
        "faces7": reference["symmetry"]["faces7"],
        "cayley7_vertices": 5040,
        "regular6": True,
        "iso_errors": [],
    }

    def symmetry_errors(result):
        return ["; ".join(common.check_symmetry(result, reference["symmetry"])) or None]

    _expect(problems, "symmetry", symmetry_errors(intact), False)
    wrong_aut = dict(intact, aut_orders={"8": 18, "9": 21, "10": 22})
    _expect(problems, "symmetry automorphism count", symmetry_errors(wrong_aut), True)

    square = [[1, 3], [0, 2], [1, 3], [0, 2]]
    _expect(problems, "isomorphism", [common.check_isomorphism(square, square, [1, 2, 3, 0])], False)
    _expect(problems, "isomorphism breaking an edge",
            [common.check_isomorphism(square, square, [0, 2, 1, 3])], True)
    return problems


if __name__ == "__main__":
    found = run(common.load_reference())
    for line in found:
        print(line)
    print("self-tests:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
