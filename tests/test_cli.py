"""Command-line contract: outputs, exit codes, determinism."""

import gc
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tomllib

import pytest

from btcayley import cli
from btcayley.cli import main
from btcayley.toric import clear_cache
from btcayley.verify import claim_keys


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_enumerate_tn_lists_every_element(capsys):
    code, doc = run_json(capsys, "enumerate", "--n", "4", "--what", "tn")
    assert code == 0
    assert doc["count"] == 10
    assert len(doc["items"]) == 10
    first = doc["items"][0]
    assert set(first) == {"i", "j", "k", "class", "image"}
    assert len({(r["i"], r["j"], r["k"]) for r in doc["items"]}) == 10


def test_enumerate_partition_counts(capsys):
    code, doc = run_json(capsys, "enumerate", "--n", "5", "--what", "partition")
    assert code == 0
    assert doc["counts"] == {"B": 4, "L": 6, "F": 6, "S": 4}
    assert doc["total"] == 20


def test_enumerate_toric_classes(capsys):
    code, doc = run_json(capsys, "enumerate", "--n", "4", "--what", "toric-classes")
    assert code == 0
    assert doc["singletons"] == 4
    assert doc["classes"] == 8
    assert doc["histogram"] == {"1": 4, "5": 4}


def test_enumerate_toric_classes_spends_the_budget(capsys):
    argv = ("enumerate", "--n", "8", "--what", "toric-classes", "--budget-ms", "0")
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: budget")


def test_enumerate_toric_classes_bytes_at_degree_eight(capsys):
    # Captured before the budget was spent here.
    code, out, err = run(capsys, "enumerate", "--n", "8", "--what", "toric-classes")
    assert (code, err) == (0, "")
    assert out == (
        '{"classes":4492,"histogram":{"1":6,"3":10,"9":4476},'
        '"n":8,"singletons":6,"what":"toric-classes"}\n'
    )


def test_enumerate_range_is_enforced(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "11", "--what", "tn")
    assert code == 2
    assert "2 <= n <= 10" in err
    code, out, err = run(capsys, "enumerate", "--n", "9", "--what", "toric-classes")
    assert code == 2
    code, out, err = run(capsys, "enumerate", "--n", "9", "--what", "tn")
    assert code == 0


def test_verify_single_claims(capsys):
    code, doc = run_json(capsys, "verify", "thm1", "--n", "5")
    assert (code, doc["status"]) == (0, "verified")
    assert doc["details"]["order"] == 12

    code, doc = run_json(capsys, "verify", "prop5.8", "--n", "7")
    assert (code, doc["status"]) == (0, "verified")
    assert doc["details"]["regular"] == 10

    code, doc = run_json(capsys, "verify", "thm2", "--n", "4")
    assert (code, doc["status"]) == (0, "verified")
    assert doc["details"]["stabilizer"] == 10
    assert doc["details"]["full_group_order"] == 240


def test_verify_failure_exits_one_with_counterexample(capsys):
    code, doc = run_json(capsys, "verify", "prop5.8", "--n", "4")
    assert code == 1
    assert doc["status"] == "failed"
    assert doc["counterexample"]


def test_verify_budget_exit_three(capsys):
    clear_cache()
    code, doc = run_json(capsys, "verify", "lemma4.3", "--n", "5", "--budget-ms", "0")
    assert code == 3
    assert doc["status"] == "skipped-budget"
    clear_cache()


def test_verify_all_covers_the_registry(capsys):
    code, doc = run_json(capsys, "verify", "all", "--n", "5")
    assert code == 0
    assert [r["claim"] for r in doc["reports"]] == list(claim_keys())
    assert doc["summary"] == {"verified": 40, "failed": 0, "skipped-budget": 0}


def test_verify_all_fails_when_a_claim_fails(capsys):
    code, doc = run_json(capsys, "verify", "all", "--n", "4")
    assert code == 1
    failed = [r for r in doc["reports"] if r["status"] == "failed"]
    assert [r["claim"] for r in failed] == ["prop5.8"]
    assert failed[0]["counterexample"]


def test_verify_unknown_claim_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "nonsense", "--n", "5")
    assert code == 2
    assert "unknown claim" in err


def test_verify_accepts_the_claim_flag_form(capsys):
    code, doc = run_json(capsys, "verify", "--claim", "lemma2.1", "--n", "4")
    assert code == 0
    code, out, err = run(capsys, "verify", "thm1", "--claim", "thm2", "--n", "4")
    assert code == 2
    code, out, err = run(capsys, "verify", "--n", "4")
    assert code == 2


def test_distance_contract_values(capsys):
    code, doc = run_json(capsys, "distance", "--n", "4", "[1 2 3 4]", "[1 2 3 4]")
    assert (code, doc["distance"]) == (0, 0)
    code, doc = run_json(capsys, "distance", "--n", "5", "[1 2 3 4 5]", "[2 3 4 5 1]")
    assert (code, doc["distance"]) == (0, 1)
    code, doc = run_json(
        capsys, "distance", "--n", "4", "[1 2 3 4]", "[4 3 2 1]", "--emit-path"
    )
    assert (code, doc["distance"]) == (0, 3)
    assert len(doc["path"]) == 3
    assert all(step.startswith("s(") for step in doc["path"])


def test_distance_without_flag_omits_path(capsys):
    code, doc = run_json(capsys, "distance", "--n", "4", "[1 2 3 4]", "[2 1 3 4]")
    assert code == 0
    assert "path" not in doc


def test_distance_rejects_bad_input(capsys):
    code, out, err = run(capsys, "distance", "--n", "4", "[1 2 3]", "[4 3 2 1]")
    assert code == 2
    code, out, err = run(capsys, "distance", "--n", "4", "nope", "[4 3 2 1]")
    assert code == 2


def test_export_gamma_edges(capsys):
    code, out, err = run(capsys, "export", "--n", "5", "--object", "gamma", "--format", "edges")
    assert code == 0
    assert len(out.strip().split("\n")) == 60


def test_export_gamma_json(capsys):
    code, doc = run_json(capsys, "export", "--n", "5", "--object", "gamma", "--format", "json")
    assert code == 0
    assert doc["vertex_count"] == 20
    assert doc["edge_count"] == 60


def test_export_gamma_v_dot(capsys):
    code, out, err = run(capsys, "export", "--n", "5", "--object", "gamma-v", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 18
    assert out.startswith("graph gamma_v {")


def test_export_map_faces_json(capsys):
    code, doc = run_json(capsys, "export", "--n", "3", "--object", "map-faces", "--format", "json")
    assert code == 0
    assert doc["face_count"] == 8
    assert doc["dart_count"] == 24
    assert all(len(f) == 3 for f in doc["faces"])


# SHA-256 of `btcayley export --object map-faces`, captured while faces were
# still traced as (tail, generator) dart objects.
MAP_FACES_DIGESTS = {
    (3, "json"): "905a0c60bd071965429acecca57e2bf55b5e42c7f34bab0dc69aaa1d913d1dee",
    (3, "edges"): "b1cddd01f0831bea7aa0ee9aab930483c42fa11cec31441165bfee2739263af7",
    (4, "json"): "ac46218cf7cb94c2f1f05cab4fad3e2af930310a7a3b58b5dddb233077a22a0f",
    (4, "edges"): "dae9b3744aacd3b6511d31d45efaac29d4af4bb0106db2a7d71e19e89f8d3c48",
    (5, "json"): "21c94db31703a7e54c8c309457b1424341a77211b792cb64d40e31bf291fea3c",
    (5, "edges"): "c578d248e93b3e161fd1fa2d0b54fca5d53c73466796e2d51d37e73bb5c4196a",
    (6, "json"): "b2051b56347b5b38006a92cf3844741f417bf432f0b05b5d5cbb919374cf2fbb",
    (6, "edges"): "0978fba838098610c46ab6a06351442104e989625963e3a5899dc610bf77cb41",
}


@pytest.mark.parametrize("n,fmt", sorted(MAP_FACES_DIGESTS), ids=lambda v: str(v))
def test_export_map_faces_keeps_its_bytes(capsys, n, fmt):
    code, out, err = run(capsys, "export", "--n", str(n), "--object", "map-faces", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == MAP_FACES_DIGESTS[n, fmt]


def test_export_caps_are_usage_errors(capsys, monkeypatch):
    code, out, err = run(capsys, "export", "--n", "7", "--object", "cayley", "--format", "json")
    assert code == 2

    def unreachable(n):
        raise AssertionError("the map was built for a format that is refused")

    # The dot format is refused before any map is built.
    monkeypatch.setattr(cli, "prop72_map", unreachable)
    code, out, err = run(capsys, "export", "--n", "4", "--object", "map-faces", "--format", "dot")
    assert code == 2
    assert "map-faces has no dot form" in err


def test_export_cayley_within_cap(capsys):
    code, doc = run_json(capsys, "export", "--n", "4", "--object", "cayley", "--format", "json")
    assert code == 0
    assert doc["vertex_count"] == 24
    assert doc["edge_count"] == 24 * 10 // 2


def test_identical_invocations_identical_bytes(capsys):
    invocations = [
        ("verify", "all", "--n", "5"),
        ("enumerate", "--n", "6", "--what", "tn"),
        ("export", "--n", "5", "--object", "gamma", "--format", "json"),
        ("distance", "--n", "4", "[1 2 3 4]", "[4 3 2 1]", "--emit-path"),
    ]
    for argv in invocations:
        clear_cache()
        code1, out1, _ = run(capsys, *argv)
        clear_cache()
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)


def test_env_var_sets_the_default_budget(capsys, monkeypatch):
    clear_cache()
    monkeypatch.setenv("BTCAYLEY_BUDGET_MS", "0")
    code, doc = run_json(capsys, "verify", "lemma4.3", "--n", "5")
    assert code == 3
    # an explicit flag wins over the environment
    clear_cache()
    code, doc = run_json(
        capsys, "verify", "lemma4.3", "--n", "5", "--budget-ms", "600000"
    )
    assert code == 0
    clear_cache()
    monkeypatch.setenv("BTCAYLEY_BUDGET_MS", "bogus")
    code, out, err = run(capsys, "verify", "thm1", "--n", "5")
    assert code == 2


def test_pretty_tables_are_text_not_json(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "4", "--what", "partition", "--pretty")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "total" in out
    code, out, err = run(capsys, "verify", "lemma2.1", "--n", "4", "--pretty")
    assert code == 0
    assert "verified" in out
    code, out, err = run(
        capsys, "distance", "--n", "4", "[1 2 3 4]", "[4 3 2 1]", "--pretty", "--emit-path"
    )
    assert code == 0
    assert out.splitlines()[0] == "3"


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_required_n_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--what", "tn"])
    assert exc.value.code == 2


BUDGET_COMMANDS = [
    ("enumerate", "--n", "4", "--what", "partition"),
    ("verify", "lemma2.1", "--n", "4"),
    ("distance", "--n", "4", "[1 2 3 4]", "[4 3 2 1]"),
    ("export", "--n", "4", "--object", "gamma", "--format", "json"),
]


@pytest.mark.parametrize("argv", BUDGET_COMMANDS, ids=lambda argv: argv[0])
def test_every_subcommand_validates_the_budget(capsys, monkeypatch, argv):
    clear_cache()
    code, out, err = run(capsys, *argv, "--budget-ms", "-1")
    assert code == 2
    assert err.startswith("error:")
    monkeypatch.setenv("BTCAYLEY_BUDGET_MS", "abc")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    monkeypatch.delenv("BTCAYLEY_BUDGET_MS")
    # zero is a legal budget: verify runs out of it; distance reads it once
    # per 64-node stride, so a search smaller than one stride (n=4 here)
    # finishes under every budget; the rest do not read it
    code, out, err = run(capsys, *argv, "--budget-ms", "0")
    assert code == (3 if argv[0] == "verify" else 0)
    assert err == ""
    clear_cache()


GOLDEN = pathlib.Path(__file__).parent / "data"


# Captured from `btcayley verify all --n N`: n = 6 before the table sweeps,
# n = 4 and 5 before the extended permutations became 0-based tuples, n = 7
# before the conjugation routes became column passes, n = 8 before the
# symmetry, power-function and cycle passes moved onto the shared tables,
# n = 12 when the claims that read only T_n, Gamma_n or a chain were widened
# to 16.  At n = 4 prop5.8 fails (the stated degree 3 is wrong there), so
# the exit code is 1.
@pytest.mark.parametrize(
    "n,exit_code",
    [(4, 1), (5, 0), (6, 0), (7, 0), (8, 0), (12, 0)],
    ids=["4", "5", "6", "7", "8", "12"],
)
def test_verify_all_bytes_match_the_golden_file(capsys, n, exit_code):
    clear_cache()
    code, out, err = run(capsys, "verify", "all", "--n", str(n))
    assert code == exit_code
    assert out.encode() == (GOLDEN / f"verify_all_n{n}.json").read_bytes()


REVERSAL_10 = ("[1 2 3 4 5 6 7 8 9 10]", "[10 9 8 7 6 5 4 3 2 1]")


def test_distance_honours_the_budget(capsys):
    code, out, err = run(capsys, "distance", "--n", "10", *REVERSAL_10, "--budget-ms", "0")
    assert (code, out) == (3, "")
    assert err.startswith("error:")
    code, out, err = run(capsys, "distance", "--n", "10", *REVERSAL_10)
    assert (code, err) == (0, "")
    assert out == (
        '{"distance":6,"n":10,"source":"[1 2 3 4 5 6 7 8 9 10]",'
        '"target":"[10 9 8 7 6 5 4 3 2 1]"}\n'
    )


def test_enumerate_partition_matches_the_closed_forms(capsys):
    for n in range(2, 11):
        counts = {
            "B": n - 1,
            "F": (n - 1) * (n - 2) // 2,
            "L": (n - 1) * (n - 2) // 2,
            "S": (n - 1) * (n - 2) * (n - 3) // 6,
        }
        code, out, err = run(capsys, "enumerate", "--n", str(n), "--what", "partition")
        assert code == 0
        assert out == json.dumps(
            {"counts": counts, "n": n, "total": sum(counts.values()), "what": "partition"},
            separators=(",", ":"),
        ) + "\n"
        code, out, err = run(capsys, "enumerate", "--n", str(n), "--what", "partition", "--pretty")
        assert out == "".join(f"{c} {counts[c]}\n" for c in "BLFS") + f"total {sum(counts.values())}\n"


# ---------------------------------------------------------------------------
# The process entry points: each runs main() through cli.run, which freezes
# the heap before the process exits.

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _process(*command):
    """(exit code, stdout, stderr) of a fresh interpreter on this src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *command],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("verify", "prop5.8", "--n", "4"), 1),
        (("verify", "nosuch", "--n", "4"), 2),  # main returns the usage code
        (("verify", "--bogus"), 2),  # argparse exits inside main
    ],
    ids=["failed claim", "unknown claim", "bad option"],
)
def test_both_modules_give_the_same_bytes_and_exit_codes(argv, exit_code):
    package = _process("-m", "btcayley", *argv)
    assert package[0] == exit_code
    assert package[1 if exit_code == 1 else 2]
    assert _process("-m", "btcayley.cli", *argv) == package


def _script_entry_point() -> str:
    """Code that calls the [project.scripts] target as an installed script does."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, name = scripts["btcayley"].split(":")
    return f"import sys; from {module} import {name}; sys.exit({name}())"


ENTRY_POINTS = {
    "python -m btcayley": "import runpy; runpy.run_module('btcayley', run_name='__main__', alter_sys=True)",
    "python -m btcayley.cli": "import runpy; runpy.run_module('btcayley.cli', run_name='__main__', alter_sys=True)",
    "btcayley script": _script_entry_point(),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("argv, exit_code", [(("verify", "eq9", "--n", "3"), 0), (("verify",), 2)])
def test_every_entry_point_freezes_the_heap_before_it_exits(entry, argv, exit_code):
    # An atexit handler runs after the entry point has called sys.exit.
    code = (
        "import atexit, gc\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        + ENTRY_POINTS[entry]
    )
    status, out, err = _process("-c", code, *argv)
    assert status == exit_code, err
    assert out.endswith(b"frozen True\n")
    assert out.startswith(b'{"claim":"eq9"') == (exit_code == 0)


def test_main_does_not_freeze_the_heap(capsys):
    frozen = gc.get_freeze_count()
    assert run(capsys, "verify", "eq9", "--n", "3")[0] == 0
    with pytest.raises(SystemExit):
        main(["verify"])
    assert gc.get_freeze_count() == frozen
