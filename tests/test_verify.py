"""Claim registry semantics: clamping, caching, statuses, counterexamples."""

import re
from math import factorial

import pytest

from btcayley import verify
from btcayley.budget import Budget
from btcayley.perms import Permutation, compose_images, invert_image, parse_permutation
from btcayley.toric import bar_f_conj, reverse_g, reverse_g_conj, toric_f_conj
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


TABLE_CLAIMS = ("eq9", "eq12", "eq13", "eq16", "gfg", "lemma4.3")

# The kernel each table claim ranks, patched below with a faulty version.
FAULTY_KERNELS = {
    "eq9": ("toric_image", lambda a, r: (a[0],) * len(a)),
    "eq12": ("reverse_image", lambda a: (a[0],) * len(a)),
    "gfg": ("reverse_image", lambda a: a[:-1]),
    "eq13": ("bar_f_image", lambda a, r: (0,) + a[1:]),
    "eq16": ("bar_f_image", lambda a, r: (a[0],) * len(a)),
    "lemma4.3": ("bar_f_image", lambda a, r: a + a),
}


@pytest.mark.parametrize("key", TABLE_CLAIMS)
def test_kernel_image_that_is_no_permutation_fails_the_claim(monkeypatch, key):
    name, faulty = FAULTY_KERNELS[key]
    monkeypatch.setattr(verify, name, faulty)
    r = run_claim(key, 4)
    assert r.status == "failed"
    assert re.fullmatch(r"\[\d( \d)*\]", r.counterexample["p"])
    assert set(r.counterexample) <= {"p", "r"}
    assert re.fullmatch(r"\d+", r.counterexample.get("r", "0"))


def _swap_first_two(b):
    return (b[1], b[0]) + b[2:]


def _identity_holds(key, message, ce, K):
    """Re-evaluate the identity a failed report names, pointwise, with kernels K."""
    T, B, R = K["toric_image"], K["bar_f_image"], K["reverse_image"]
    r = int(ce.get("r", 0))
    if "p" in ce:
        p = parse_permutation(ce["p"])
        a = p.image
        m = len(a) + 1
    else:
        rho, pi = parse_permutation(ce["rho"]).image, parse_permutation(ce["pi"]).image
        m = len(rho) + 1
    checks = {
        ("eq9", "zeroth toric map moved a point"): lambda: T(a, 0) == a,
        ("eq9", "defining forms disagree"): lambda: T(a, r) == toric_f_conj(p, r).image,
        ("eq9", "inverse of a toric image is not the mirrored toric image"): lambda: (
            invert_image(T(a, r)) == T(invert_image(a), ((0,) + a)[r])
        ),
        ("eq9", "toric shifts do not add"): lambda: (
            T(T(a, r), int(ce["s"])) == T(a, (r + int(ce["s"])) % m)
        ),
        ("eq12", "defining forms disagree"): lambda: reverse_g(p) == reverse_g_conj(p),
        ("eq12", "reversal is not an involution"): lambda: R(R(a)) == a,
        ("eq12", "reversal is not multiplicative"): lambda: (
            R(compose_images(rho, pi)) == compose_images(R(rho), R(pi))
        ),
        ("gfg", "conjugated toric map is not the mirror shift"): lambda: (
            R(T(R(a), r)) == T(a, -r % m)
        ),
        ("eq13", "defining forms disagree"): lambda: B(a, r) == bar_f_conj(p, r).image,
        ("eq13", "inverse-toric route broke"): lambda: (
            B(a, r) == invert_image(T(invert_image(a), r))
        ),
        ("eq13", "iteration disagrees with direct shift"): lambda: (
            B(a, r) == _iterate(lambda x: B(x, 1), a, r)
        ),
        ("eq16", "conjugated inverse-toric map is not the mirror shift"): lambda: (
            R(B(R(a), r)) == B(a, -r % m)
        ),
        ("lemma4.3", "product rule violated"): lambda: (
            B(compose_images(rho, pi), r)
            == compose_images(B(rho, r), B(pi, ((0,) + invert_image(rho))[r]))
        ),
    }
    return checks[key, message]()


def _iterate(f, x, times):
    for _ in range(times):
        x = f(x)
    return x


@pytest.mark.parametrize(
    "name,keys",
    [
        ("toric_image", ("eq9", "gfg", "eq13")),
        ("bar_f_image", ("eq13", "eq16", "lemma4.3")),
        ("reverse_image", ("eq12", "gfg", "eq16")),
    ],
)
def test_table_counterexamples_break_the_identity_they_name(monkeypatch, name, keys):
    # The kernel is wrong at one element (and one shift) only, and still
    # returns a permutation; every claim that uses it must fail, and the
    # element it names must break the claim's identity pointwise.
    true = getattr(verify, name)
    bad = ((2, 4, 1, 3), 2) if name != "reverse_image" else ((2, 4, 1, 3),)

    def faulty(*args):
        b = true(*args)
        return _swap_first_two(b) if args == bad else b

    monkeypatch.setattr(verify, name, faulty)
    kernels = {k: getattr(verify, k) for k in ("toric_image", "bar_f_image", "reverse_image")}
    for key in keys:
        clear_cache()
        r = run_claim(key, 4)
        assert r.status == "failed", key
        assert not _identity_holds(key, r.details["error"], r.counterexample, kernels), (key, r)


@pytest.mark.parametrize("key,route", [("eq9", "_toric_conj"), ("eq13", "_bar_conj")])
def test_conjugation_route_reports_its_first_fault_in_shift_major_order(
    monkeypatch, key, route
):
    # Wrong at (r=3, an early p) and at (r=1, a late p): a sweep over r
    # outside and p inside meets the second pair first.
    true = getattr(verify, route)
    faults = {((0, 2, 1, 3, 4), 3), ((0, 4, 3, 2, 1), 1)}

    def faulty(*args):
        q = true(*args)
        return Permutation(_swap_first_two(q.image)) if (args[0], args[-1]) in faults else q

    monkeypatch.setattr(verify, route, faulty)
    r = run_claim(key, 4)
    assert r.status == "failed"
    assert r.details["error"] == "defining forms disagree"
    assert r.counterexample == {"p": "[4 3 2 1]", "r": "1"}


def test_table_claims_call_each_kernel_once_per_element_and_shift(monkeypatch):
    counts = {"toric_image": 0, "reverse_image": 0}

    def counting(name):
        kernel = getattr(verify, name)

        def wrapper(*args):
            counts[name] += 1
            return kernel(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(verify, name, counting(name))
    assert run_claim("eq9", 6).status == "verified"
    assert counts["toric_image"] <= 3 * 7 * factorial(6)
    assert run_claim("eq12", 5).status == "verified"
    assert counts["reverse_image"] <= 3 * factorial(5)


@pytest.mark.parametrize("key", TABLE_CLAIMS)
def test_table_claims_honour_a_spent_budget(key):
    r = run_claim(key, get_claim(key).max_n, Budget(0))
    assert r.status == "skipped-budget"
