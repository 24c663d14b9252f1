"""Claim registry semantics: clamping, caching, statuses, counterexamples."""

import re
from math import factorial

import pytest

from btcayley import verify
from btcayley.budget import Budget
from btcayley.perms import Permutation
from btcayley.verify import (
    DEFAULT_N,
    REGISTRY,
    claim_keys,
    clear_cache,
    get_claim,
    run_all,
    run_claim,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_registry_is_nonempty_and_sorted():
    keys = claim_keys()
    assert len(keys) == 40
    assert list(keys) == sorted(keys)
    for key in keys:
        c = get_claim(key)
        assert c.key == key
        assert c.summary
        assert c.min_n <= c.max_n


def test_unknown_key_raises_with_the_known_list():
    with pytest.raises(ValueError, match="unknown claim"):
        get_claim("nope")


def test_default_degree_is_clamped_into_each_claims_range():
    for key in claim_keys():
        c = get_claim(key)
        n = c.resolve_n(None)
        if c.fixed_n is not None:
            assert n == c.fixed_n
        else:
            assert c.min_n <= n <= c.max_n
            if c.min_n <= DEFAULT_N <= c.max_n:
                assert n == DEFAULT_N


def test_requested_degree_outside_range_is_clamped():
    c = get_claim("thm1")
    assert c.resolve_n(1) == c.min_n
    assert c.resolve_n(99) == c.max_n
    fixed = get_claim("thm7.3")
    assert fixed.resolve_n(8) == fixed.fixed_n


def test_verified_report_shape():
    r = run_claim("lemma2.1", 4)
    assert r.status == "verified"
    assert r.claim == "lemma2.1"
    assert r.n == 4
    assert r.counterexample is None
    assert r.details
    assert r.wall_time_ms >= 0
    assert set(r.as_json()) == {
        "claim",
        "n",
        "status",
        "details",
        "counterexample",
        "wall_time_ms",
    }


def test_failed_report_always_carries_a_counterexample():
    # the degree-4 regularity value asserted by this claim does not hold
    r = run_claim("prop5.8", 4)
    assert r.status == "failed"
    assert r.counterexample
    assert "degree" in r.counterexample


def test_budget_zero_skips_heavy_claims():
    r = run_claim("lemma4.3", 5, Budget(0))
    assert r.status == "skipped-budget"
    assert r.counterexample is None


def test_verified_reports_are_cached_failures_are_not():
    a = run_claim("prop5.9", 5)
    b = run_claim("prop5.9", 5)
    assert a is b
    f1 = run_claim("prop5.8", 4)
    f2 = run_claim("prop5.8", 4)
    assert f1 is not f2


def test_run_all_is_ordered_and_statuses_are_legal():
    reports = run_all(5)
    assert [r.claim for r in reports] == list(claim_keys())
    assert {r.status for r in reports} <= {"verified", "failed", "skipped-budget"}
    assert all(r.status == "verified" for r in reports)


def test_every_runner_declares_a_usable_range():
    for key, c in REGISTRY.items():
        if c.fixed_n is not None:
            assert c.min_n <= c.fixed_n <= c.max_n, key


def test_kernel_fault_is_reported_with_one_line_permutations(monkeypatch):
    # p -> p o w is an involution but not multiplicative, so the pair sweep
    # of eq12 must catch it and name the pair in one-line notation.
    monkeypatch.setattr(verify, "reverse_image", lambda a: a[::-1])
    r = run_claim("eq12", 3)
    assert r.status == "failed"
    assert set(r.counterexample) == {"rho", "pi"}
    for value in r.counterexample.values():
        assert re.fullmatch(r"\[\d( \d)*\]", value)


@pytest.mark.parametrize("key,n", [("eq12", 5), ("lemma4.3", 4)])
def test_claim_sweeps_do_not_validate_per_pair(monkeypatch, key, n):
    # A validated Permutation per pair would cost about |Sym_n|^2 checks.
    calls = 0
    validate = Permutation.__post_init__

    def counting(self):
        nonlocal calls
        calls += 1
        validate(self)

    monkeypatch.setattr(Permutation, "__post_init__", counting)
    assert run_claim(key, n).status == "verified"
    assert calls < 10 * factorial(n)
