"""Claim registry semantics: clamping, statuses, counterexamples, the worker pool."""

import os
import re
import threading
import time
from dataclasses import replace
from functools import lru_cache, wraps
from itertools import count, repeat
from math import comb, factorial
from operator import itemgetter
from pathlib import Path

import pytest

from btcayley import cli, graphs, maps, perms, toric, verify
from btcayley.autgroup import (
    VertexMap,
    is_automorphism,
    orbit,
    orbit_images,
)
from btcayley.blocktrans import CutPoints, make_bt, tn_realizations
from btcayley.budget import NO_BUDGET, Budget, BudgetExceeded
from btcayley.perms import (
    Permutation,
    compose_maps,
    parse_permutation,
    sym_group,
    sym_index,
)
from btcayley.toric import (
    bar_f_image,
    clear_cache,
    dihedral_elements,
    reverse_g_conj,
    reverse_image,
    toric_image,
)
from btcayley.verify import (
    DEFAULT_N,
    REGISTRY,
    claim_keys,
    get_claim,
    run_all,
    run_claim,
)
from chain_mutants import DroppingChain, ShortBoundChain
from toric_oracles import bar_f_conj, oracle_compose, oracle_invert, toric_f_conj


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
        assert c.min_n <= n <= c.max_n
        if c.min_n <= DEFAULT_N <= c.max_n:
            assert n == DEFAULT_N


def test_requested_degree_outside_range_is_clamped():
    c = get_claim("thm1")
    assert c.resolve_n(1) == c.min_n
    assert c.resolve_n(99) == c.max_n
    single = get_claim("thm7.3")
    assert single.resolve_n(8) == single.resolve_n(None) == 5


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


def test_a_face_walked_out_of_order_fails_prop72(monkeypatch):
    # Reverse the first face after its first dart: every face keeps its size
    # and the count holds, so only the walk along the cyclic relation sees it.
    faces = maps.CayleyMap.faces

    def reordered(m):
        first, *rest = faces(m)
        return [first[:1] + first[:0:-1], *rest]

    monkeypatch.setattr(maps.CayleyMap, "faces", reordered)
    r = run_claim("prop7.2", 4)
    assert r.status == "failed"
    assert r.details == {"error": "face walk differs"}
    assert r.counterexample == {"expected": str(CutPoints(2, 3, 4, 4))}


def test_prop515_reports_a_cycle_step_that_is_no_edge(monkeypatch):
    # Gamma(V) at n = 6 without the edge between the cycle's first two vertices.
    gv = graphs.gamma_v(6)
    a, b = (gv.index_of(make_bt(c)) for c in graphs.hamilton_cycle_gamma_v(6)[:2])
    rows = [[u for u in gv.neighbors[v] if {u, v} != {a, b}] for v in range(gv.num_vertices)]
    broken = graphs.Graph(gv.labels, rows)
    monkeypatch.setattr(graphs, "gamma_v", lambda n: broken)
    monkeypatch.setattr(verify, "gamma_v", lambda n: broken)
    r = run_claim("prop5.15", 6)
    assert r.status == "failed"
    assert r.details == {"error": "cycle step is not an edge"}
    assert r.counterexample == {"a": str(gv.labels[a]), "b": str(gv.labels[b])}


def test_budget_zero_skips_heavy_claims():
    r = run_claim("lemma4.3", 5, Budget(0))
    assert r.status == "skipped-budget"
    assert r.counterexample is None


def test_a_zero_budget_is_spent_before_the_clock_moves(monkeypatch):
    # A coarse monotonic clock can read the same value for several
    # milliseconds: Budget(0) must be spent at that very reading.
    monkeypatch.setattr(time, "monotonic", lambda: 1000.0)
    with pytest.raises(BudgetExceeded):
        Budget(0).check()
    Budget(1).check()
    NO_BUDGET.check()


def test_run_all_is_ordered_and_statuses_are_legal():
    reports = run_all(5)
    assert [r.claim for r in reports] == list(claim_keys())
    assert {r.status for r in reports} <= {"verified", "failed", "skipped-budget"}
    assert all(r.status == "verified" for r in reports)


def _without_wall_time(reports):
    return [{k: v for k, v in r.as_json().items() if k != "wall_time_ms"} for r in reports]


def test_pool_and_plain_loop_give_the_same_reports(monkeypatch):
    monkeypatch.setattr(verify, "_worker_count", lambda: 1)
    serial = run_all(5)
    clear_cache()
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    pooled = run_all(5)
    assert _without_wall_time(pooled) == _without_wall_time(serial)


@pytest.fixture
def pid_claims(monkeypatch):
    """Every claim reports the id of the process it ran in."""
    for key in claim_keys():
        claim = replace(REGISTRY[key], runner=lambda n, budget: {"pid": os.getpid()})
        monkeypatch.setitem(REGISTRY, key, claim)


@pytest.mark.parametrize("workers", [1, 2])
def test_claims_leave_this_process_only_with_more_than_one_worker(
    monkeypatch, pid_claims, workers
):
    monkeypatch.setattr(verify, "_worker_count", lambda: workers)
    pids = {r.details["pid"] for r in run_all(5)}
    if workers == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids


def test_claims_stay_in_this_process_while_another_thread_runs(monkeypatch, pid_claims):
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10,))
    waiter.start()
    try:
        pids = {r.details["pid"] for r in run_all(5)}
    finally:
        release.set()
        waiter.join(10)
    assert not waiter.is_alive()
    assert pids == {os.getpid()}


def _broken(n, budget):
    raise RuntimeError("runner fault")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_runner_that_raises_makes_run_all_raise(monkeypatch, workers):
    monkeypatch.setattr(verify, "_worker_count", lambda: workers)
    monkeypatch.setitem(REGISTRY, "eq9", replace(REGISTRY["eq9"], runner=_broken))
    with pytest.raises(RuntimeError, match="runner fault"):
        run_all(5)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_spent_budget_skips_every_claim(monkeypatch, workers):
    monkeypatch.setattr(verify, "_worker_count", lambda: workers)
    reports = run_all(5, Budget(0))
    assert [r.claim for r in reports] == list(claim_keys())
    assert {r.status for r in reports} == {"skipped-budget"}
    assert all(r.counterexample is None for r in reports)


@pytest.mark.parametrize("ending", ["returns", "raises", "spent budget"])
def test_no_worker_is_left_after_run_all(monkeypatch, ending):
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    if ending == "raises":
        monkeypatch.setitem(REGISTRY, "eq9", replace(REGISTRY["eq9"], runner=_broken))
        with pytest.raises(RuntimeError, match="runner fault"):
            run_all(5)
    else:
        run_all(5, Budget(0) if ending == "spent budget" else NO_BUDGET)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_killed_mid_claim_makes_run_all_raise(run_python):
    out = run_python(
        "import os, signal\n"
        "from dataclasses import replace\n"
        "from btcayley import verify\n"
        "verify._worker_count = lambda: 2\n"
        "parent = os.getpid()\n"
        "def killed(n, budget):\n"
        "    if os.getpid() != parent:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return {}\n"
        "verify.REGISTRY['eq9'] = replace(verify.REGISTRY['eq9'], runner=killed)\n"
        "try:\n"
        "    verify.run_all(5)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n",
        timeout=60,
    )
    assert re.fullmatch(r"verify worker \d+ exited with -9 before it sent its reports\nno child left\n", out)


def test_text_this_process_has_not_flushed_is_written_once(run_python):
    out = run_python(
        "import sys\n"
        "from btcayley import verify\n"
        "verify._worker_count = lambda: 2\n"
        "sys.stdout.write('written before the fork\\n')\n"
        "print(len(verify.run_all(5)))\n"
    )
    assert out == f"written before the fork\n{len(claim_keys())}\n"


def test_a_forked_run_loads_no_multiprocessing(run_python):
    out = run_python(
        "import sys\n"
        "from btcayley import verify\n"
        "verify._worker_count = lambda: 2\n"
        "verify.run_all(4)\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    assert out == "False\n"


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_run_all_forks_its_workers_inside_a_multiprocessing_daemon(run_python):
    # A daemon of multiprocessing may not start a multiprocessing.Process,
    # but run_all forks with os.fork: inside a pool worker it gives the
    # reports of the plain loop, and its claims run in other processes.
    out = run_python(
        "import multiprocessing, os\n"
        "from dataclasses import replace\n"
        "from btcayley import verify\n"
        "def reports(n):\n"
        "    return [(r.claim, r.n, r.status, r.details, r.counterexample)\n"
        "            for r in verify.run_all(n)]\n"
        "def pids(n):\n"
        "    daemon = multiprocessing.current_process().daemon\n"
        "    return daemon, os.getpid(), {r.details['pid'] for r in verify.run_all(n)}\n"
        "pool = multiprocessing.get_context('fork').Pool\n"
        "with pool(1) as workers:\n"
        "    inside = workers.apply(reports, (5,))\n"
        "count = verify._worker_count\n"
        "verify._worker_count = lambda: 1\n"
        "print(inside == reports(5))\n"
        "verify._worker_count = count\n"
        "for key in verify.claim_keys():\n"
        "    claim = verify.REGISTRY[key]\n"
        "    verify.REGISTRY[key] = replace(claim, runner=lambda n, b: {'pid': os.getpid()})\n"
        "with pool(1) as workers:\n"
        "    daemon, worker, seen = workers.apply(pids, (5,))\n"
        "print(daemon, worker in seen, os.getpid() in seen)\n",
        timeout=60,
    )
    assert out == "True\nTrue False False\n"


def test_every_runner_declares_a_usable_range():
    for key, c in REGISTRY.items():
        assert 1 <= c.min_n <= c.max_n, key
    # The claims about one named map run at its degree only, whatever is asked.
    for key, n in (("example7.1", 3), ("thm7.3", 5), ("remark7", 5)):
        c = REGISTRY[key]
        assert (c.min_n, c.max_n) == (n, n), key
        assert {c.resolve_n(asked) for asked in (None, 1, 2, 3, 4, 5, 8, 99)} == {n}, key


def test_kernel_fault_is_reported_with_one_line_permutations(monkeypatch):
    # p -> p o w is an involution but not multiplicative, so the pair sweep
    # of eq12 must catch it and name the pair in one-line notation.  The
    # conjugation route, which would stop at the first p, is skipped.
    monkeypatch.setattr(toric, "reverse_images", _twin0(lambda a: a[::-1]))
    monkeypatch.setattr(verify, "_check_route", lambda *args, **context: None)
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


TABLE_CLAIMS = ("eq9", "eq12", "eq13", "eq16", "gfg", "lemma4.3", "cor5.11")


def _packed(images):
    """Image tuples as the columns of a packed twin: column t-1 holds every entry t."""
    return tuple(map(bytes, zip(*images)))


def _twin(kernel):
    """A packed twin (n, r) -> image columns of all of Sym_n, made by a per-element kernel."""
    return lambda n, r: _packed(map(kernel, sym_index(n), repeat(r)))


def _twin0(kernel):
    """A packed twin n -> image columns of all of Sym_n, for a kernel without a shift."""
    return lambda n: _packed(map(kernel, sym_index(n)))


def _home(name):
    """The home module, toric or perms, of the packed twin of that name.  No
    module binds a twin under a name of its own (see
    test_no_module_binds_a_packed_twin_by_name), so it is the one that has
    the name."""
    (home,) = [module for module in (perms, toric) if hasattr(module, name)]
    return home


def _plant(monkeypatch, name, twin):
    """Replace the packed twin of that name at its home, where every reader
    takes it when it runs."""
    monkeypatch.setattr(_home(name), name, twin)


# The packed twin each table claim ranks, patched below with a faulty
# version.
FAULTY_KERNELS = {
    "eq9": ("toric_images", _twin(lambda a, r: (a[0],) * len(a))),
    "eq12": ("reverse_images", _twin0(lambda a: (a[0],) * len(a))),
    "gfg": ("reverse_images", _twin0(lambda a: a[:-1])),
    "eq13": ("bar_f_images", _twin(lambda a, r: (0,) + a[1:])),
    "eq16": ("bar_f_images", _twin(lambda a, r: (a[0],) * len(a))),
    "lemma4.3": ("bar_f_images", _twin(lambda a, r: a + a)),
    "cor5.11": ("bar_f_images", _twin(lambda a, r: (a[0],) * len(a))),
}


@pytest.mark.parametrize("key", TABLE_CLAIMS)
def test_kernel_image_that_is_no_permutation_fails_the_claim(monkeypatch, key):
    name, faulty = FAULTY_KERNELS[key]
    _plant(monkeypatch, name, faulty)
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
            oracle_invert(T(a, r)) == T(oracle_invert(a), ((0,) + a)[r])
        ),
        ("eq9", "toric shifts do not add"): lambda: (
            T(T(a, r), int(ce["s"])) == T(a, (r + int(ce["s"])) % m)
        ),
        ("eq12", "defining forms disagree"): lambda: R(a) == reverse_g_conj(p).image,
        ("eq12", "reversal is not an involution"): lambda: R(R(a)) == a,
        ("eq12", "reversal is not multiplicative"): lambda: (
            R(oracle_compose(rho, pi)) == oracle_compose(R(rho), R(pi))
        ),
        ("gfg", "conjugated toric map is not the mirror shift"): lambda: (
            R(T(R(a), r)) == T(a, -r % m)
        ),
        ("eq13", "defining forms disagree"): lambda: B(a, r) == bar_f_conj(p, r).image,
        ("eq13", "inverse-toric route broke"): lambda: (
            B(a, r) == oracle_invert(T(oracle_invert(a), r))
        ),
        ("eq13", "iteration disagrees with direct shift"): lambda: (
            B(a, r) == _iterate(lambda x: B(x, 1), a, r)
        ),
        ("eq16", "conjugated inverse-toric map is not the mirror shift"): lambda: (
            R(B(R(a), r)) == B(a, -r % m)
        ),
        ("lemma4.3", "product rule violated"): lambda: (
            B(oracle_compose(rho, pi), r)
            == oracle_compose(B(rho, r), B(pi, ((0,) + oracle_invert(rho))[r]))
        ),
    }
    return checks[key, message]()


def _iterate(f, x, times):
    for _ in range(times):
        x = f(x)
    return x


# Each per-element kernel, and the packed twin that verify ranks for it.
KERNELS = {
    "toric_image": (toric_image, "toric_images"),
    "bar_f_image": (bar_f_image, "bar_f_images"),
    "reverse_image": (reverse_image, "reverse_images"),
}


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
    true, ranked = KERNELS[name]
    bad = ((2, 4, 1, 3), 2) if name != "reverse_image" else ((2, 4, 1, 3),)

    def faulty(*args):
        b = true(*args)
        return _swap_first_two(b) if args == bad else b

    _plant(monkeypatch, ranked, _twin0(faulty) if name == "reverse_image" else _twin(faulty))
    kernels = {k: kernel for k, (kernel, _) in KERNELS.items()}
    kernels[name] = faulty
    for key in keys:
        clear_cache()
        r = run_claim(key, 4)
        assert r.status == "failed", key
        assert not _identity_holds(key, r.details["error"], r.counterexample, kernels), (key, r)


def _tampered_route(faults, tamper):
    """verify._rotation_route, with tamper(columns, i) applied to the routed
    map of the element of rank i at each (i, r) in faults.  A claim calls
    the route once per shift, from r = 0 up, so its call r routes shift r."""
    true = verify._rotation_route
    shifts = count()

    def route(*args):
        r = next(shifts)
        columns = [bytearray(c) for c in true(*args)]
        for i, s in faults:
            if s == r:
                tamper(columns, i)
        return map(bytes, columns)

    return route


def _swap_entries_1_and_2(columns, i):
    columns[1][i], columns[2][i] = columns[2][i], columns[1][i]


def _send_0_to_1(columns, i):
    columns[0][i] = 1


# The claims whose conjugation form is read off verify._rotation_route.
ROUTES = ["eq9", "eq13"]


@pytest.mark.parametrize("key", ROUTES)
def test_conjugation_route_reports_its_first_fault_in_shift_major_order(monkeypatch, key):
    # Wrong at (r=3, an early p) and at (r=1, a late p): a sweep over r
    # outside and p inside meets the second pair first.
    idx = sym_index(4)
    faults = {(idx[(2, 1, 3, 4)], 3), (idx[(4, 3, 2, 1)], 1)}
    monkeypatch.setattr(verify, "_rotation_route", _tampered_route(faults, _swap_entries_1_and_2))
    r = run_claim(key, 4)
    assert r.status == "failed"
    assert r.details["error"] == "defining forms disagree"
    assert r.counterexample == {"p": "[4 3 2 1]", "r": "1"}


@pytest.mark.parametrize("key", ROUTES)
def test_a_routed_map_that_moves_0_fails_the_claim_at_its_element_and_shift(monkeypatch, key):
    # Only entry 0 is wrong, so only column 0 can show it.
    faults = {(sym_index(4)[(3, 1, 4, 2)], 2)}
    monkeypatch.setattr(verify, "_rotation_route", _tampered_route(faults, _send_0_to_1))
    r = run_claim(key, 4)
    assert r.status == "failed"
    assert r.details["error"] == "defining forms disagree"
    assert r.counterexample == {"p": "[3 1 4 2]", "r": "2"}


def test_eq9_additivity_on_f_1_catches_a_fault_at_shift_2(monkeypatch):
    # f_2 is wrong at x = [2 4 1 3] only (two entries swapped), and the
    # conjugation route is skipped, so only an algebraic check can see it.
    # x(2) != 1, so the inverse rule at r = 1 never reads f_2 at x, and
    # f_1 o f_1 = f_2 at r = 1 is the first check that does.
    x = (2, 4, 1, 3)

    def faulty(a, r):
        b = toric_image(a, r)
        return _swap_first_two(b) if (a, r) == (x, 2) else b

    monkeypatch.setattr(toric, "toric_images", _twin(faulty))
    monkeypatch.setattr(verify, "_check_route", lambda *args, **context: None)
    r = run_claim("eq9", 4)
    assert r.status == "failed"
    assert r.details == {"error": "toric shifts do not add"}
    assert r.counterexample == {"p": "[2 4 1 3]", "r": "1", "s": "1"}
    kernels = {"toric_image": faulty, "bar_f_image": bar_f_image, "reverse_image": reverse_image}
    assert not _identity_holds("eq9", r.details["error"], r.counterexample, kernels)


# claim: (the packed twin it ranks, its kernel, the oracle route of toric_oracles)
TWIN_ROUTES = {
    "eq9": ("toric_images", toric_image, toric_f_conj),
    "eq13": ("bar_f_images", bar_f_image, bar_f_conj),
}


@pytest.mark.parametrize("key", sorted(TWIN_ROUTES))
@pytest.mark.parametrize("n,faults", [(4, (17, 3)), (5, (119, 40, 41)), (6, (2, 700, 333))])
def test_a_faulty_twin_fails_at_the_oracles_lowest_rank_fault(monkeypatch, key, n, faults):
    # The twin that runs is wrong at shift 1 only, at the elements of the
    # given ranks, by two swapped entries; every image is still a
    # permutation.  Shift 0 passes every check, so the route of shift 1 is
    # the first to disagree, at the lowest rank where the kernel leaves the
    # conjugation form of tests/toric_oracles.py.
    name, kernel, route = TWIN_ROUTES[key]
    grp = sym_group(n)
    wrong = {grp[i].image for i in faults}

    def faulty(a, r):
        b = kernel(a, r)
        return _swap_first_two(b) if r == 1 and a in wrong else b

    _plant(monkeypatch, name, _twin(faulty))
    oracle = next(p for p in grp if faulty(p.image, 1) != route(p, 1).image)
    r = run_claim(key, n)
    assert r.status == "failed"
    assert r.details["error"] == "defining forms disagree"
    assert r.counterexample == {"p": str(oracle), "r": "1"}
    assert oracle == grp[min(faults)]


def test_table_claims_call_no_toric_kernel_per_element(monkeypatch):
    # Every kernel table comes from a packed twin, so the table job calls
    # no kernel at all, and toric-reverse-aut, which reads the ranks of
    # T_n in those tables, calls none either; neither do lemma4.3 and
    # prop4.4, which read the product rule off the same tables, eq12,
    # whose conjugation form is read off the lift columns, nor the toric
    # class census.  verify inverts no map one at a time: it does not
    # import _inverse_map.
    assert not hasattr(verify, "_inverse_map")
    counts = {"toric_image": 0, "bar_f_image": 0, "reverse_image": 0}

    def counting(module, name):
        kernel = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return kernel(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(toric, name, counting(toric, name))
    for key in GROUP:
        assert run_claim(key, 6).status == "verified", key
    assert counts == dict.fromkeys(counts, 0)
    for key in ("toric-reverse-aut", "lemma4.3", "prop4.4"):
        assert run_claim(key, 6).status == "verified", key
    assert counts == dict.fromkeys(counts, 0)
    for key in TABLE_CLAIMS:
        assert run_claim(key, 6).status == "verified", key
    clear_cache()
    assert run_claim("eq12", 5).status == "verified"
    assert run_claim("toric-singletons", 7).status == "verified"
    assert toric.toric_class_stats(8)[1] == 6
    assert counts == dict.fromkeys(counts, 0)


def test_a_reversal_twin_wrong_at_one_element_fails_eq12_at_its_conjugation_form(monkeypatch):
    # Two entries of g([3 1 5 2 4]) swapped: every image is still a
    # permutation, and the conjugation form, checked first, names the
    # element and no shift.
    bad = (3, 1, 5, 2, 4)

    def faulty(a):
        b = reverse_image(a)
        return _swap_first_two(b) if a == bad else b

    monkeypatch.setattr(toric, "reverse_images", _twin0(faulty))
    r = run_claim("eq12", 5)
    assert r.status == "failed"
    assert r.details == {"error": "defining forms disagree"}
    assert r.counterexample == {"p": "[3 1 5 2 4]"}


def _f3_fixes_one_more(true, image):
    """The toric twin true, except that f_3 at degree 7 fixes image."""

    def twin(n, r):
        columns = true(n, r)
        if (n, r % (n + 1)) != (7, 3):
            return columns
        i = sym_index(7)[image]
        return tuple(c[:i] + bytes((v,)) + c[i + 1 :] for c, v in zip(columns, image))

    return twin


def test_a_toric_twin_with_one_extra_fixed_point_changes_the_census(monkeypatch, capsys):
    # 3 is prime to 8, so f_3 fixes just what f_1 fixes; a class of size 3
    # appears, and the class count drops.
    image = (2, 4, 1, 3, 7, 5, 6)
    assert len(toric.toric_class(Permutation(image))) == 8
    monkeypatch.setattr(toric, "toric_images", _f3_fixes_one_more(toric.toric_images, image))
    r = run_claim("toric-singletons", 7)
    assert r.status == "failed"
    assert r.details == {"error": "class size does not divide the modulus"}
    assert cli.main(["enumerate", "--n", "7", "--what", "toric-classes"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{"classes":639,"histogram":{"1":4,"2":2,"3":0,"4":10,"8":623}')


@pytest.mark.parametrize("key,n", [("eq12", 7), ("eq12", 8), ("toric-singletons", 8)])
def test_whole_group_claims_on_the_twins_verify_past_their_caps(key, n):
    claim = REGISTRY[key]
    assert claim.max_n < n
    details = claim.runner(n, NO_BUDGET)
    if key == "eq12":
        assert details == {"elements": factorial(n), "pairs": factorial(n) ** 2}
    else:
        histogram = {"1": 6, "3": 10, "9": 4476}
        assert details == {"classes": 4492, "singletons": 6, "histogram": histogram}
    with pytest.raises(BudgetExceeded):
        claim.runner(n, Budget(0))


def test_the_readme_claim_table_matches_the_registry():
    # Each row gives a claim's key, its min_n..max_n (one number when they
    # are equal) and its summary, once, for every claim of the registry.
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = text[text.index("| key | degrees | checks |") :].split("\n\n", 1)[0]
    rows = [
        tuple(cell.strip() for cell in line.strip().strip("|").split("|"))
        for line in table.splitlines()[2:]
    ]
    want = []
    for key in claim_keys():
        c = REGISTRY[key]
        degrees = str(c.min_n) if c.min_n == c.max_n else f"{c.min_n}..{c.max_n}"
        want.append((f"`{key}`", degrees, c.summary))
    assert sorted(rows) == sorted(want)


@pytest.mark.parametrize("key", TABLE_CLAIMS)
def test_table_claims_honour_a_spent_budget(key):
    r = run_claim(key, get_claim(key).max_n, Budget(0))
    assert r.status == "skipped-budget"


# ---------------------------------------------------------------------------
# The kernel table provider and the grouped job.

GROUP = ("cor5.11", "eq13", "eq16", "eq9", "gfg", "lemma4.3", "prop4.4", "skew-toric")


def test_the_table_claims_run_first_as_one_job(monkeypatch):
    order = []
    for key in claim_keys():
        runner = lambda n, budget, key=key: order.append(key) or {}  # noqa: E731
        monkeypatch.setitem(REGISTRY, key, replace(REGISTRY[key], runner=runner))
    monkeypatch.setattr(verify, "_worker_count", lambda: 1)
    reports = run_all(5)
    assert [r.claim for r in reports] == list(claim_keys())
    assert order == list(GROUP) + [k for k in claim_keys() if k not in GROUP]


def test_the_table_claims_share_one_worker(monkeypatch, pid_claims):
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    pids = {r.claim: r.details["pid"] for r in run_all(5)}
    assert len({pids[key] for key in GROUP}) == 1
    assert pids[GROUP[0]] != os.getpid()


@pytest.mark.parametrize("n", [5, 6])
def test_each_kernel_table_is_built_once_in_a_process(monkeypatch, n):
    built = []

    class Recording(dict):
        def __setitem__(self, key, table):
            m, kernel, r = key
            built.append((kernel.__name__, r, m))
            super().__setitem__(key, table)

    monkeypatch.setattr(toric, "_tables", Recording())
    monkeypatch.setattr(verify, "_worker_count", lambda: 1)
    assert {r.status for r in run_all(n)} == {"verified"}
    assert len(built) == len(set(built))
    for name in ("toric_images", "bar_f_images"):
        assert {(name, r, n) for r in range(n + 1)} <= set(built)
    assert {("reverse_images", None, n), ("invert_images", None, n)} <= set(built)


@pytest.mark.parametrize("key", ["eq9", "eq13", "eq16", "gfg"])
def test_a_kernel_patched_after_a_warm_run_is_honoured(monkeypatch, key):
    # After run_all(4) the provider holds the degree-4 tables of every
    # kernel (cor5.11, whose least degree is 5, cannot run on them).
    monkeypatch.setattr(verify, "_worker_count", lambda: 1)
    assert all(r.status == "verified" for r in run_all(4) if r.claim in GROUP)
    names = {kernel.__name__ for n, kernel, r in toric._tables if n == 4}
    assert names == {"toric_images", "bar_f_images", "reverse_images", "invert_images"}
    name, faulty = FAULTY_KERNELS[key]
    # The same name as the kernel it replaces: only the object tells them apart.
    _plant(monkeypatch, name, wraps(getattr(toric, name))(faulty))
    r = run_claim(key, 4)
    assert r.status == "failed"
    assert r.details["error"] == "kernel image is not a permutation"


def test_clear_cache_empties_the_table_provider():
    run_claim("gfg", 4)
    run_claim("skew-toric", 4)
    assert toric._tables and toric._faults and toric.bar_f_witness.cache_info().currsize
    clear_cache()
    assert not toric._tables and not toric._faults
    assert toric.bar_f_witness.cache_info().currsize == 0
    assert run_claim("gfg", 4).status == "verified"


def test_the_provider_keeps_the_tables_of_each_degree(monkeypatch):
    run_claim("eq16", 4)
    run_claim("gfg", 5)
    assert {key[0] for key in toric._tables} == {4, 5}

    class Kept(dict):
        def __setitem__(self, key, table):
            raise AssertionError("every table of degree 4 is kept")

    monkeypatch.setattr(toric, "_tables", Kept(toric._tables))
    assert run_claim("eq16", 4).status == "verified"


def _oracle_cor511(n):
    """The orbit-closure runner cor5.11 had before it read rank tables."""
    dih = dihedral_elements(n)
    target = 2 * (n + 1)
    long_orbit = orbit(dih, make_bt(CutPoints(0, 2, n, n)))
    assert len(long_orbit) == target
    sizes = {}
    seen = set()
    for p in sym_group(n):
        if p.image in seen:
            continue
        orb = orbit_images(dih, p.image)
        seen |= orb
        assert target % len(orb) == 0
        sizes[len(orb)] = sizes.get(len(orb), 0) + 1
    return {"orbit_sizes": {str(k): v for k, v in sorted(sizes.items())}}


@pytest.mark.parametrize("n", range(5, 9))
def test_cor511_on_rank_tables_matches_the_orbit_closure(n):
    r = run_claim("cor5.11", n)
    assert r.status == "verified"
    assert r.details == _oracle_cor511(n)


@lru_cache(maxsize=1)
def _right_columns(n):
    """col[j][i] is the rank of (element i) o (element j), for every j."""
    idx = sym_index(n)
    lifts = [(0,) + a for a in idx]
    return [tuple(map(idx.__getitem__, map(itemgetter(*a), lifts))) for a in idx]


def _oracle_eq12_holds(n, kernel):
    """The all-columns sweep eq12 ran before its generator reduction: True
    when kernel is an involution and multiplicative on every pair."""
    idx = sym_index(n)
    rev = tuple(idx[kernel(a)] for a in idx)
    if compose_maps(rev, rev) != tuple(range(len(idx))):
        return False
    cols = _right_columns(n)
    return all(
        compose_maps(rev, col) == compose_maps(cols[rev[j]], rev) for j, col in enumerate(cols)
    )


def _eq12_kernels(n):
    swap = (2, 1) + tuple(range(3, n + 1))  # an involution that is not central
    odd = (2, 4, 1, 3) + tuple(range(5, n + 1))

    def one_wrong(a):
        b = reverse_image(a)
        return _swap_first_two(b) if a == odd else b

    def last_generator_only(a):
        # (2 3) o a when a(n) = 1, else a: an involution that respects
        # every adjacent transposition fixing n, and no other.
        return oracle_compose((1, 3, 2) + tuple(range(4, n + 1)), a) if a[-1] == 1 else a

    return {
        "reversal": reverse_image,
        "identity": lambda a: a,
        "conjugation": lambda a: oracle_compose(oracle_compose(swap, a), swap),
        "right_reversal": lambda a: a[::-1],
        "inversion": oracle_invert,
        "one_wrong": one_wrong,
        "last_generator_only": last_generator_only,
    }


@pytest.mark.parametrize("n", range(3, 7))
def test_eq12_generator_reduction_agrees_with_the_all_pairs_sweep(monkeypatch, n):
    # The conjugation route would reject every planted twin but the true
    # one, so it is skipped: the verdict is the multiplicativity sweep's.
    monkeypatch.setattr(verify, "_check_route", lambda *args, **context: None)
    for name, kernel in _eq12_kernels(n).items():
        clear_cache()
        monkeypatch.setattr(toric, "reverse_images", _twin0(kernel))
        r = run_claim("eq12", n)
        holds = _oracle_eq12_holds(n, kernel)
        assert (r.status == "verified") == holds, name
        if holds:
            assert r.details == {"elements": factorial(n), "pairs": factorial(n) ** 2}
    assert {"reversal", "identity", "conjugation"} == {
        name for name, k in _eq12_kernels(4).items() if _oracle_eq12_holds(4, k)
    }


def test_toric_reverse_aut_fails_on_a_table_that_is_no_bijection(monkeypatch):
    # Every image is a permutation, but all of them the identity.
    monkeypatch.setattr(toric, "bar_f_images", _twin(lambda a, r: tuple(sorted(a))))
    r = run_claim("toric-reverse-aut", 4)
    assert r.status == "failed"
    assert r.details["error"] == "induced map is not a bijection"
    assert r.counterexample == {"symmetry": "t^0"}


def test_cor511_fails_on_a_symmetry_table_that_is_no_bijection(monkeypatch):
    # bar_f_1 sends [1 3 2 5 4] where it sends [1 5 4 2 3]: every image is
    # still a permutation, but the table of t^1 is no bijection.
    true = toric.bar_f_images

    def faulty(n, r):
        columns = true(n, r)
        if (n, r) == (5, 1):
            idx = sym_index(5)
            images = list(zip(*columns))
            images[idx[(1, 3, 2, 5, 4)]] = images[idx[(1, 5, 4, 2, 3)]]
            columns = _packed(images)
        return columns

    monkeypatch.setattr(toric, "bar_f_images", faulty)
    r = run_claim("cor5.11", 5)
    assert r.status == "failed"
    assert r.details["error"] == "induced map is not a bijection"
    assert r.counterexample == {"symmetry": "t^1"}


# ---------------------------------------------------------------------------
# The product rule on the adjacent transpositions (lemma4.3 and prop4.4),
# against the all-pairs row check it replaced.


def _oracle_product_rule_holds(n):
    """The all-pairs row check lemma4.3 ran before its reduction to the
    adjacent transpositions: True when, with the twin that the claims read,
    B[r] o P[rho] == P[B[r][rho]] o B[s] for every rho and r, with P[rho]
    the row of rho o pi over every pi and s = (rho^-1)_r."""
    images = list(sym_index(n))
    bar = [toric.rank_table(n, NO_BUDGET, toric.bar_f_images, r)[0] for r in range(n + 1)]
    product = list(perms._product_rows(n, images))
    return all(
        compose_maps(b, product[i])
        == compose_maps(product[b[i]], bar[((0,) + oracle_invert(rho))[r]])
        for i, rho in enumerate(images)
        for r, b in enumerate(bar)
    )


def _verdict(key, n):
    """None when the runner of key verifies at n (past its cap too), else
    the message and counterexample of its failure."""
    try:
        REGISTRY[key].runner(n, NO_BUDGET)
    except verify.ClaimFailure as exc:
        return str(exc), exc.counterexample
    return None


def _first_generator_fault(n):
    """The counterexample of the first (rho, t, r) at which the twin that
    the claims read breaks the rule pointwise, t adjacent, swept as
    toric.product_rule_fault sweeps: r, then t, then rho by rank."""
    idx = sym_index(n)
    images = list(idx)
    bar = [toric.rank_table(n, NO_BUDGET, toric.bar_f_images, r)[0] for r in range(n + 1)]

    def image(a, r):
        return images[bar[r][idx[a]]]

    for r in range(n + 1):
        for t in perms.adjacent_transpositions(n):
            for rho in images:
                s = ((0,) + oracle_invert(rho))[r]
                if image(oracle_compose(rho, t), r) != oracle_compose(image(rho, r), image(t, s)):
                    return {"rho": str(Permutation(rho)), "pi": str(Permutation(t)), "r": str(r)}
    return None


def _planted_twins(n):
    """bar_f_images and wrong twins, each of whose images is a permutation."""
    true = toric.bar_f_images
    identities = _twin(lambda a, r: a)
    c = (2, 3, 1) + tuple(range(4, n + 1))
    conjugation = _twin(lambda a, r: oracle_compose(oracle_compose(c, a), oracle_invert(c)))
    return {
        "true": true,
        # Both hold the rule with every s: prop4.4 must still refuse them.
        "identities": identities,
        "conjugation": conjugation,
        "next_shift": lambda n, r: true(n, (r + 1) % (n + 1)),
        "swap_late": _swapped(true, 1, 3, 5),
        "swap_generator": _swapped(true, 2, 1, 4),
        "swap_last": _swapped(true, n, 2, factorial(n) - 1),
    }


@pytest.mark.parametrize("n", [3, 4, 5])
def test_product_rule_claims_agree_with_the_all_pairs_rows(monkeypatch, n):
    verdicts = {}
    for name, twin in _planted_twins(n).items():
        clear_cache()
        monkeypatch.setattr(toric, "bar_f_images", twin)
        holds = _oracle_product_rule_holds(n)
        lemma, prop = _verdict("lemma4.3", n), _verdict("prop4.4", n)
        assert (lemma is None) == holds, name
        if not holds:
            assert prop is not None, name
        verdicts[name] = (holds, lemma is None, prop is None)
    assert verdicts["true"] == (True, True, True)
    assert verdicts["identities"] == verdicts["conjugation"] == (True, True, False)
    assert [name for name, v in verdicts.items() if not v[0]] == [
        "next_shift",
        "swap_late",
        "swap_generator",
        "swap_last",
    ]


@pytest.mark.parametrize(
    "r, pair",
    [
        (2, ((2, 3, 1), (3, 1, 2))),
        (2, ((1, 3, 4, 2), (1, 4, 3, 2))),
        (2, ((1, 2, 4, 5, 3), (1, 2, 5, 4, 3))),
        # One wrong image of the adjacent transposition [1 3 2 4].
        (1, ((1, 3, 2, 4), (2, 4, 1, 3))),
    ],
)
def test_a_twin_that_breaks_the_rule_fails_both_claims_at_its_first_fault(monkeypatch, r, pair):
    # bar_f_r with the images of the pair exchanged, so the table is still
    # a bijection: both claims name the first (rho, t, r) at which the rule
    # breaks pointwise, in sweep order.
    n = len(pair[0])
    i, j = map(sym_index(n).get, pair)
    monkeypatch.setattr(toric, "bar_f_images", _swapped(toric.bar_f_images, r, i, j))
    want = _first_generator_fault(n)
    assert want is not None and want["r"] == str(r)
    for key in ("lemma4.3", "prop4.4"):
        assert _verdict(key, n) == ("product rule violated", want), key


def test_the_b_table_checks_run_once_per_degree(monkeypatch):
    # lemma4.3 reads the product rule; prop4.4 and skew-toric read it and
    # additivity, all off the one provider of the B tables.
    calls = {"product_rule_fault": 0, "additivity_fault": 0}
    for name in calls:

        def counting(*args, check=getattr(toric, name), name=name):
            calls[name] += 1
            return check(*args)

        monkeypatch.setattr(toric, name, counting)
    for key in ("lemma4.3", "prop4.4", "skew-toric"):
        assert run_claim(key, 4).status == "verified", key
    assert calls == {"product_rule_fault": 1, "additivity_fault": 1}


def test_one_planted_b_table_fails_every_claim_that_reads_it(monkeypatch):
    # bar_f_1 with the images of the last two elements exchanged, at every
    # degree, planted once: still a bijection.  thm7.3 reads B[5] alone.
    monkeypatch.setattr(toric, "bar_f_images", _swapped(toric.bar_f_images, 1, -2, -1))
    readers = [("lemma4.3", 5), ("skew-toric", 5), ("prop4.4", 4), ("cor5.11", 5)]
    readers += [("toric-reverse-aut", 4), ("thm2", 4), ("eq13", 5), ("eq16", 5)]
    readers += [("prop7.2", 4), ("example7.1", 3)]
    for key, n in readers:
        assert run_claim(key, n).status == "failed", key


# Each packed twin but the B twin: the shift at which it is planted wrong
# (None for a twin without one), and the claims that must see the fault.
TWIN_READERS = {
    "toric_images": (3, ("eq9", "gfg", "eq13")),
    "reverse_images": (None, ("eq12", "gfg", "eq16", "cor5.11", "thm2", "toric-reverse-aut")),
    "invert_images": (None, ("eq9", "eq13", "skew-toric", "lemma4.3", "prop4.4")),
}


@pytest.mark.parametrize("name", sorted(TWIN_READERS))
def test_one_planted_twin_fails_every_claim_that_reads_it(monkeypatch, name):
    # The twin with the images of the last two elements exchanged, at every
    # degree, planted once at its home after the readers have run on the
    # true twin: still a bijection.  The degree is 5, clamped per claim.
    r, readers = TWIN_READERS[name]
    for key in readers:
        assert run_claim(key, 5).status == "verified", key
    _plant(monkeypatch, name, _swapped(getattr(_home(name), name), r, -2, -1))
    for key in readers:
        assert run_claim(key, 5).status == "failed", key


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("key", ["lemma4.3", "prop4.4"])
def test_product_rule_claims_verify_past_their_caps(key, n):
    claim = REGISTRY[key]
    assert claim.max_n < n
    details = claim.runner(n, NO_BUDGET)
    if key == "lemma4.3":
        assert details == {"pairs": factorial(n) ** 2, "shifts": n + 1}
    else:
        assert details == {"group_order": factorial(n + 1), "doubled_order": 2 * factorial(n + 1)}
    with pytest.raises(BudgetExceeded):
        claim.runner(n, Budget(0))


# ---------------------------------------------------------------------------
# Forked workers, one CPU each.


def _affinity_claims(monkeypatch):
    def runner(n, budget):
        time.sleep(0.005)  # so that both workers take jobs
        return {"pid": os.getpid(), "cpus": sorted(os.sched_getaffinity(0))}

    for key in claim_keys():
        monkeypatch.setitem(REGISTRY, key, replace(REGISTRY[key], runner=runner))


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs in the affinity set",
)
def test_each_worker_is_pinned_to_its_own_cpu(monkeypatch):
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    _affinity_claims(monkeypatch)
    mine = os.sched_getaffinity(0)
    cpus = {}
    for r in run_all(5):
        assert cpus.setdefault(r.details["pid"], r.details["cpus"]) == r.details["cpus"]
    assert len(cpus) == 2
    first, second = (set(c) for c in cpus.values())
    assert len(first) == len(second) == 1
    assert first.isdisjoint(second)
    assert first | second <= mine
    assert os.sched_getaffinity(0) == mine


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_a_worker_that_cannot_be_pinned_runs_unpinned(monkeypatch):
    def refuse(pid, cpus):
        raise OSError("not allowed")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)
    _affinity_claims(monkeypatch)
    reports = run_all(5)
    assert {r.status for r in reports} == {"verified"}
    assert {tuple(r.details["cpus"]) for r in reports} == {tuple(sorted(os.sched_getaffinity(0)))}
    assert os.getpid() not in {r.details["pid"] for r in reports}


# ---------------------------------------------------------------------------
# example7.1 reads its witness.


@pytest.mark.parametrize(
    "field, message",
    [
        ("pi_power", "power function is not the first entry of the inverse"),
        ("psi", "witness is not the basic inverse-toric map"),
    ],
)
def test_example71_fails_when_its_witness_reads_the_next_slot(monkeypatch, field, message):
    # is_regular with every slot-shift read moved on by one: the power
    # function is shifted by one, or psi is read one vertex on.
    true = verify.is_regular

    def shifted(m, budget=NO_BUDGET):
        w = true(m, budget=budget)
        if field == "pi_power":
            return replace(w, pi_power=tuple((e + 1) % w.order for e in w.pi_power))
        return replace(w, psi=w.psi[1:] + w.psi[:1])

    monkeypatch.setattr(verify, "is_regular", shifted)
    r = run_claim("example7.1")
    assert r.status == "failed"
    assert r.details == {"error": message}


# ---------------------------------------------------------------------------
# The group claims checked on generators, against the exhaustive routes
# they replaced, and their negative controls.


def _oracle_prop44_closed(n):
    """The all-pairs sweep prop4.4 ran before its generator reduction: True
    when T(h, r) o T(k, u) is T of the normal form at every pair of the
    (n+1)! tables, with the twin that the claims read."""
    m = n + 1
    idx = sym_index(n)
    images = list(idx)
    bar = [toric.rank_table(n, NO_BUDGET, toric.bar_f_images, r)[0] for r in range(m)]
    rows = list(zip(*perms._rank_columns(n, images)))
    table = [[compose_maps(row, b) for b in bar] for row in rows]
    spots = [(0,) + oracle_invert(a) for a in images]
    return all(
        compose_maps(table[h][r], table[k][u]) == table[table[h][r][k]][(u + spots[k][r]) % m]
        for h in range(len(images))
        for r in range(m)
        for k in range(len(images))
        for u in range(m)
    )


def _swapped(twin, r, i, j):
    """twin with the images of the elements of ranks i and j exchanged at
    shift r, or at every call when r is None (a twin that takes no shift)."""

    def faulty(n, *shift):
        columns = twin(n, *shift)
        if r is not None and shift[0] % (n + 1) != r:
            return columns
        images = list(zip(*columns))
        images[i], images[j] = images[j], images[i]
        return _packed(images)

    return faulty


@pytest.mark.parametrize("n", [3, 4])
def test_prop44_generator_closure_agrees_with_the_all_pairs_sweep(monkeypatch, n):
    assert _oracle_prop44_closed(n)
    assert run_claim("prop4.4", n).status == "verified"
    true = toric.bar_f_images
    # Wrong inputs: bar_f_r with the images of two elements exchanged.
    for r, i, j in [(1, 0, 1), (1, 3, 5), (2, 1, 4), (n, 2, factorial(n) - 1)]:
        clear_cache()
        monkeypatch.setattr(toric, "bar_f_images", _swapped(true, r, i, j))
        assert not _oracle_prop44_closed(n), (r, i, j)
        report = run_claim("prop4.4", n)
        assert report.status == "failed", (r, i, j)


def test_prop44_fails_when_the_generator_images_fall_short_of_the_order(monkeypatch):
    # The closure proof needs <phi(G)> to be the whole symmetric group of
    # {0, ..., n}: a chain that finds half that order must fail the claim.
    class Short(perms.StabilizerChain):
        def order(self):
            return super().order() // 2

    monkeypatch.setattr(verify, "StabilizerChain", Short)
    r = run_claim("prop4.4", 4)
    assert r.status == "failed"
    assert r.details == {"error": "generator images do not generate the target group"}
    assert r.counterexample == {"order": "60"}


def _oracle_dihedral_automorphisms(n):
    """is_automorphism on build_cayley for each dihedral table, as
    toric-reverse-aut checked it before its reduction to T_n."""
    cay = graphs.build_cayley(n, tn_realizations(n))
    return [is_automorphism(cay, VertexMap(cay, t)) for t in verify._dihedral_tables(n, NO_BUDGET)]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_toric_reverse_aut_agrees_with_is_automorphism(n):
    assert all(_oracle_dihedral_automorphisms(n))
    assert run_claim("toric-reverse-aut", n).status == "verified"


def _outside_t_n(n):
    """The rank of the least element of T_n and of the least element outside T_n and iota."""
    idx = sym_index(n)
    tn = sorted(idx[p.image] for p in tn_realizations(n))
    return tn[0], min(set(range(1, factorial(n))) - set(tn))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_toric_reverse_aut_fails_on_a_rotation_that_leaves_t_n(monkeypatch, n):
    # A bijection that fixes the identity but sends the least element t
    # of T_n outside T_n at shift 1.
    t, q = _outside_t_n(n)
    true = toric.bar_f_images
    monkeypatch.setattr(toric, "bar_f_images", _swapped(true, 1, t, _preimage(true, n, 1, q)))
    assert not all(_oracle_dihedral_automorphisms(n))
    r = run_claim("toric-reverse-aut", n)
    assert r.status == "failed"
    assert r.details == {"error": "induced map is not an automorphism"}
    assert r.counterexample == {"symmetry": "t^1", "t": str(sym_group(n)[t])}


def _preimage(twin, n, r, q):
    """The rank of the element whose image under the twin at shift r has rank q."""
    idx = sym_index(n)
    return next(i for i, a in enumerate(zip(*twin(n, r))) if idx[a] == q)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_toric_reverse_aut_fails_on_a_reversal_that_leaves_t_n(monkeypatch, n):
    t, q = _outside_t_n(n)
    idx = sym_index(n)
    true = toric.reverse_images
    images = list(zip(*true(n)))
    j = next(i for i, a in enumerate(images) if idx[a] == q)

    def faulty(n):
        swapped = list(images)
        swapped[t], swapped[j] = swapped[j], swapped[t]
        return _packed(swapped)

    monkeypatch.setattr(toric, "reverse_images", faulty)
    assert not all(_oracle_dihedral_automorphisms(n))
    r = run_claim("toric-reverse-aut", n)
    assert r.status == "failed"
    assert r.details == {"error": "induced map is not an automorphism"}
    assert r.counterexample == {"symmetry": "t^0*g", "t": str(sym_group(n)[t])}


def _oracle_components(n):
    """Components of Cay(Sym_n, V) by breadth-first search over rank
    columns, from every vertex not yet reached, as lemma6.4 traced the
    identity component before it read |<V>| from a chain."""
    gens = [make_bt(c).image for c in graphs.vertex_set_V(n)]
    steps = [column.__getitem__ for column in perms._rank_columns(n, gens)]
    seen: set = set()
    sizes = []
    for v in range(factorial(n)):
        if v not in seen:
            component = perms.closure([v], steps)
            seen |= component
            sizes.append(len(component))
    return sizes


@pytest.mark.parametrize("n", range(4, 9))
def test_group_claims_match_the_listing_and_the_search(n):
    # |<V>|: the breadth-first listing of the words in V from the identity.
    gens = [make_bt(c).image for c in graphs.vertex_set_V(n)]
    steps = list(map(perms._right_multiplier, gens))
    order = len(perms.closure([tuple(range(1, n + 1))], steps))
    assert run_claim("lemma6.3", n).details == {"order": order, "index": factorial(n) // order}
    sizes = _oracle_components(n)
    assert set(sizes) == {order}
    assert run_claim("lemma6.4", n).details == {"components": len(sizes), "component_size": order}


def _planted_v(monkeypatch, cuts):
    monkeypatch.setattr(verify, "vertex_set_V", lambda n: tuple(cuts(n)))


def test_section6_claims_fail_on_a_proper_subgroup(monkeypatch):
    # (1 2) and (2 3), both block transpositions, generate Sym_3 on the
    # first three points.
    _planted_v(monkeypatch, lambda n: [CutPoints(0, 1, 2, n), CutPoints(1, 2, 3, n)])
    r = run_claim("lemma6.3", 7)
    assert r.status == "failed"
    assert r.details == {"error": "subgroup is not the whole group"}
    assert r.counterexample == {"order": "6"}
    r = run_claim("lemma6.4", 7)
    assert r.status == "failed"
    assert r.details == {"error": "component count wrong"}
    assert r.counterexample == {"count": "840"}


@pytest.mark.parametrize("key", ["lemma6.3", "lemma6.4"])
def test_section6_claims_fail_with_a_chain_that_drops_schreier_generators(monkeypatch, key):
    # The n-cycle, its inverse and (1 2) generate Sym_7, but only through
    # Schreier generators: the true chain verifies the claim, and one that
    # leaves a class of them unsifted fails it.
    _planted_v(
        monkeypatch,
        lambda n: [CutPoints(0, 1, n, n), CutPoints(0, n - 1, n, n), CutPoints(0, 1, 2, n)],
    )
    assert run_claim(key, 7).status == "verified"
    clear_cache()
    monkeypatch.setattr(verify, "StabilizerChain", DroppingChain)
    assert run_claim(key, 7).status == "failed"


@pytest.mark.parametrize("key", ["lemma6.3", "lemma6.4"])
@pytest.mark.parametrize("n", [4, 7])
def test_section6_claims_fail_with_a_chain_whose_bound_misses_a_moved_point(monkeypatch, key, n):
    # The true V_n verifies the claim; a chain whose order bound counts one
    # moved point too few stops before <V> is complete, and fails it.
    assert run_claim(key, n).status == "verified"
    clear_cache()
    monkeypatch.setattr(verify, "StabilizerChain", ShortBoundChain)
    assert run_claim(key, n).status == "failed"


# ---------------------------------------------------------------------------
# The claims that read only T_n, Gamma_n or a chain, past the degrees of the
# goldens.


def _paper_details(n):
    """The details of each widened claim at degree n, from the paper's closed
    forms and the loop counts of its runner, with math only."""
    size, left, mixed, interior = comb(n + 1, 3), comb(n, 2), comb(n - 1, 2), comb(n - 1, 3)
    classes = {"B": n - 1, "L": mixed, "F": mixed, "S": interior}
    special = 2 * (n + 1)
    components = 2 if n % 2 == 0 else 1
    return {
        "lemma2.1": {"size": size, "partition": classes},
        "lemma3.1": {"checked": size},
        "eq11": {"checked": size},
        "lemma4.1": {"checked": size},
        "eqa14oct": {"cases": left},  # every left-border element s(0,j,k)
        "cor3.2": {"size": size, "shifts": n + 1},
        "cor4.2": {"size": size, "shifts": n + 1},
        "cor5.1": {"classes": classes},
        "lemma5.2": {"border": n - 1, "interior": interior},
        # Gamma_n is 2(n-2)-regular on C(n+1, 3) vertices.
        "lemma5.3": {"edges": size * (n - 2)},
        "lemma5.4": {"identities": 4 * mixed},
        "lemma5.5": {"candidates": (n - 1) * mixed},
        "prop5.6": {"matching": mixed, "border_degree": n - 2},
        "cor5.7": {"clique_size": n - 1},
        "prop5.8": {"regular": 2 * (n - 2), "vertices": size},
        "prop5.9": {"edges": n + 1, "vertices": special},
        "lemma5.10": {"orbit": special, "symmetries": special},
        "lemma5.12": {"count": n + 1, "disjoint": True},
        "prop5.13": {"vertices": special, "edges": 3 * (n + 1)},
        "prop5.15": {"length": special},
        "lemma6.3": {"order": factorial(n) // components, "index": components},
        "lemma6.4": {"components": components, "component_size": factorial(n) // components},
    }


@pytest.mark.parametrize("n", range(9, 17))
def test_widened_claims_match_the_papers_closed_forms(n):
    for key, want in _paper_details(n).items():
        report = run_claim(key, n)
        assert (report.status, report.n) == ("verified", n), key
        assert report.details == want, key
