"""Command-line contract: outputs, exit codes, determinism."""

import json
import pathlib

import pytest

from btcayley.cli import main
from btcayley.verify import claim_keys, clear_cache


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


def test_export_caps_are_usage_errors(capsys):
    code, out, err = run(capsys, "export", "--n", "7", "--object", "cayley", "--format", "json")
    assert code == 2
    code, out, err = run(capsys, "export", "--n", "4", "--object", "map-faces", "--format", "dot")
    assert code == 2


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
# n = 4 and 5 before the extended permutations became 0-based tuples.  At
# n = 4 prop5.8 fails (the stated degree 3 is wrong there), so the exit code is 1.
@pytest.mark.parametrize("n,exit_code", [(4, 1), (5, 0), (6, 0)], ids=["4", "5", "6"])
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
