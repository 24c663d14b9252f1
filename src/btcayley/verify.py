"""Registry of checkable claims with uniform reporting.

Every structural fact the package knows how to test is registered here
under a short stable key.  A claim is checked by running its runner at
some degree n; the outcome is wrapped in a VerificationReport whose
status is one of "verified", "failed", or "skipped-budget".  Failed
reports always carry a concrete counterexample.

Keys are opaque command-line identifiers.  Each claim declares the
degree range it supports; run_claim clamps a requested degree into that
range, so sweeping the whole registry at any n exercises every key.
Every call runs its claim afresh; only the rank tables and B-table faults
that toric keeps (see toric.rank_table) last between calls.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from math import factorial, gcd
from operator import getitem
from typing import Callable

from .autgroup import (
    aut_group,
    is_automorphism,
    orbit,
    perm_vertex_map,
    stabilizer_of_identity,
)
from .blocktrans import (
    IDENTITY,
    TN_CLASSES,
    CutPoints,
    beta,
    bt_inverse,
    bt_power,
    bt_piecewise,
    classify,
    enumerate_tn,
    make_bt,
    partition_counts,
    recognize,
    tn_realizations,
    tn_size,
)
from .budget import NO_BUDGET, BudgetExceeded
from .graphs import (
    bfs_distance,
    build_cayley,
    degree_profile,
    e_edges,
    gamma,
    gamma_v,
    graphs_isomorphic,
    hamilton_cycle_gamma_v,
    identity_distances,
    maximal_2_cliques,
    vertex_set_V,
)
from .maps import aut_order, is_regular, mprime_n5_map, octahedron_map, prop72_map, t_balance
from .perms import (
    Permutation,
    StabilizerChain,
    _column,
    _lanes,
    _lift_columns,
    _marks,
    _rank_columns,
    _wrap,
    adjacent_transpositions,
    alpha_power,
    compose_maps,
    identity,
    lift,
    reverse,
    sym_group,
    sym_index,
)
from . import perms, toric
from .toric import (
    _miss,
    apply_dihedral,
    bar_f,
    bar_f_witness,
    bar_tables,
    bt_image_closed_form,
    dihedral_compose,
    dihedral_elements,
    euler_phi,
    phi_iso,
    rank_table,
    reverse_g,
    toric_class_stats,
    toric_f,
)

DEFAULT_N = 5


class ClaimFailure(Exception):
    """A claim check found the claim to be false."""

    def __init__(self, message: str, counterexample: dict | None = None):
        super().__init__(message)
        self.counterexample = counterexample or {}


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    n: int
    status: str
    details: dict
    counterexample: dict | None
    wall_time_ms: float

    def as_json(self) -> dict:
        return {
            "claim": self.claim,
            "n": self.n,
            "status": self.status,
            "details": self.details,
            "counterexample": self.counterexample,
            "wall_time_ms": self.wall_time_ms,
        }


@dataclass(frozen=True)
class Claim:
    key: str
    summary: str
    min_n: int
    max_n: int
    runner: Callable = field(compare=False)

    def resolve_n(self, n: int | None) -> int:
        if n is None:
            n = DEFAULT_N
        return min(max(n, self.min_n), self.max_n)


REGISTRY: dict[str, Claim] = {}


def _claim(key: str, summary: str, min_n: int, max_n: int):
    def register(fn):
        REGISTRY[key] = Claim(key, summary, min_n, max_n, fn)
        return fn

    return register


def claim_keys() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def get_claim(key: str) -> Claim:
    try:
        return REGISTRY[key]
    except KeyError:
        known = ", ".join(claim_keys())
        raise ValueError(f"unknown claim {key!r}; known claims: {known}") from None


def run_claim(key: str, n: int | None = None, budget=NO_BUDGET) -> VerificationReport:
    claim = get_claim(key)
    use_n = claim.resolve_n(n)
    start = time.perf_counter()
    counterexample = None
    try:
        budget.check()
        details = claim.runner(use_n, budget)
        status = "verified"
    except ClaimFailure as exc:
        details = {"error": str(exc)}
        counterexample = exc.counterexample or {"reason": str(exc)}
        status = "failed"
    except BudgetExceeded as exc:
        details = {"error": str(exc)}
        status = "skipped-budget"
    wall = round((time.perf_counter() - start) * 1000.0, 3)
    return VerificationReport(key, use_n, status, details, counterexample, wall)


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Claims that read the twins' rank tables or the B-table faults (see
# toric.rank_table).  run_all runs them as one job, ahead of the others, so
# that each table and fault of a degree is built once per run.
_TABLE_GROUP = ("cor5.11", "eq13", "eq16", "eq9", "gfg", "lemma4.3", "prop4.4", "skew-toric")


def _run_claim_job(job: tuple) -> list[VerificationReport]:
    """One (keys, n, budget) job: its claims in order, in one process."""
    keys, n, budget = job
    return [run_claim(key, n, budget) for key in keys]


def run_all(n: int | None = None, budget=NO_BUDGET) -> list[VerificationReport]:
    """Every claim at degree n (clamped per claim), in claim_keys() order.

    Claims are independent, so they run as jobs in forked child processes,
    one per available CPU (see _run_forked).  The claims of _TABLE_GROUP
    form the first job; every other claim is a job of its own.  With one
    CPU, the jobs run in this process, in the same order.  Each call runs
    every claim afresh.
    """
    keys = claim_keys()
    group = [key for key in keys if key in _TABLE_GROUP]
    jobs = [(batch, n, budget) for batch in [group] + [[k] for k in keys if k not in group]]
    workers = min(_worker_count(), len(jobs))
    done = _run_forked(jobs, workers) if workers > 1 else None
    if done is None:
        done = map(_run_claim_job, jobs)
    reports = {report.claim: report for report in chain.from_iterable(done)}
    return [reports[key] for key in keys]


def _run_forked(jobs, workers: int) -> list[list[VerificationReport]] | None:
    """Reports of each job from `workers` forked children, in order; None if none can fork.

    The job numbers go into one pipe before the first fork, two bytes
    each, and each child takes its next job with one two-byte read, so the
    jobs are handed out one at a time, in order (a pipe read of a whole
    number that is there is not split between readers).  Only (keys, n,
    budget) crosses to a child, by the fork itself; the budget's deadline
    is on the system monotonic clock, so it holds there.  Each child sends
    its (job, reports) pairs, or the exception that stopped it, as one
    pickle through a pipe of its own (see _serve).  This process runs no
    claim: it reads every pipe to its end, reaps every child (killing them
    first if it is interrupted), raises if a child died before it sent its
    reports, and re-raises a child's exception.

    Each child is pinned to its own CPU of this process's affinity set,
    the i-th child to the i-th CPU, before it reads a job, so that the
    scheduler cannot stack the children on one CPU; where that call
    fails, or there is no such CPU, the child runs unpinned.

    Nothing is forked where os.fork is missing, or while another thread
    runs: a forked child gets no copy of that thread, so a lock it holds
    would stay held in the child.  A multiprocessing daemon may fork too:
    only multiprocessing's own Process refuses to start there.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        cpus = []
    job_r, job_w = os.pipe()
    try:
        # A few dozen job numbers: they fit in the pipe's buffer at once.
        os.write(job_w, b"".join(i.to_bytes(2, "little") for i in range(len(jobs))))
    finally:
        os.close(job_w)
    pids: list[int] = []
    reads: list[int] = []  # the read end of each child's result pipe
    try:
        for i in range(workers):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(jobs, job_r, r, w, cpus[i] if i < len(cpus) else None)
            finally:
                os.close(w)
            pids.append(pid)
        sent = list(map(_read_to_end, reads))
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(job_r)
        for r in reads:
            os.close(r)
        status = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    done: dict[int, list[VerificationReport]] = {}
    for pid, code, data in zip(pids, status, sent):
        # A child exits 0 only after it has sent everything (see _serve).
        if code != 0:
            raise RuntimeError(f"verify worker {pid} exited with {code} before it sent its reports")
        result = pickle.loads(data)
        if isinstance(result, BaseException):
            raise result
        done.update(result)
    return [done[i] for i in range(len(jobs))]


def _serve(jobs, job_r: int, result_r: int, result_w: int, cpu: int | None):
    """Child side of _run_forked: pin to cpu, run the jobs read from job_r, send the reports, exit.

    The child leaves by os._exit, so it runs no exit handler and never
    flushes a stdio buffer it inherited: text the parent had not yet
    written out is written once, by the parent.
    """
    code = 1
    try:
        os.close(result_r)
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:
                pass  # the child runs unpinned
        pairs = []
        try:
            while raw := os.read(job_r, 2):
                i = int.from_bytes(raw, "little")
                pairs.append((i, _run_claim_job(jobs[i])))
            data = pickle.dumps(pairs)
        except Exception as exc:
            try:
                data = pickle.dumps(exc)
            except Exception:
                data = pickle.dumps(RuntimeError(f"verify worker failed: {exc!r}"))
        with open(result_w, "wb") as out:
            out.write(data)
        code = 0
    finally:
        os._exit(code)


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _fail(message: str, **context):
    raise ClaimFailure(message, {k: str(v) for k, v in context.items()})


def _need(cond: bool, message: str, **context):
    if not cond:
        _fail(message, **context)


def _bt(i: int, j: int, k: int, n: int) -> Permutation:
    return make_bt(CutPoints(i, j, k, n))


def _checked(pair):
    """The value of a (value, fault) pair from toric; a fault fails the claim."""
    value, fault = pair
    if fault is not None:
        _fail(fault[0], **fault[1])
    return value


def _agree(lhs, rhs, images, message: str, key: str = "p", **context):
    """Fail at the first rank where two tables differ, naming that element as key."""
    if (i := _miss(lhs, rhs)) is not None:
        _fail(message, **{key: _wrap(images[i])}, **context)


def _rotation_route(points, left, right):
    """Columns of the routes alpha^c o [0 p] o alpha^s, by rank, as bytes.

    points are the perms._lift_columns of degree n, so points[x][i] is
    entry x of [0 p] for the p of rank i, and c = left[i] and s = right[i]
    are the two shifts of that p, in range(m).  Entry x of [0 p] o alpha^s
    is [0 p]((x + s) % m): a mask of the elements with one s (perms._marks
    of right) keeps their lanes of lift column (x + s) % m (perms._lanes),
    and the OR over s joins them.  The left factor alpha^c acts on a whole
    column as one translate, and a mask of the elements with one c keeps
    their lanes of it.  The rotations come from alpha_power, so a route
    shares no arithmetic with the twin it is checked against.
    """
    m = len(points)
    size = len(left)
    lanes = [_lanes(col) for col in points]
    rights = [(s, mask) for s in range(m) if (mask := _lanes(right.translate(_marks(s))))]
    lefts = [
        (bytes(alpha_power(m - 1, c)) + bytes(256 - m), mask)
        for c in range(m)
        if (mask := _lanes(left.translate(_marks(c))))
    ]
    for x in range(m):
        column = 0
        for s, mask in rights:
            column |= mask & lanes[(x + s) % m]
        column = _column(column, size)
        routed = 0
        for rotation, mask in lefts:
            routed |= mask & _lanes(column.translate(rotation))
        yield _column(routed, size)


def _check_route(columns, twin, images, **context):
    """Fail at the first element, by rank, whose routed map is not its twin image.

    columns yields column x = 0..n of the routed maps of every element, as
    bytes (see _rotation_route), and twin holds the packed twin's columns:
    entry t of every image is twin[t - 1].  Column 0 of a lift is all
    zeros, so a routed map that does not fix 0 misses there.  Columns are
    compared as bytes, and only a column that differs is read entry by
    entry, for its first fault; context (the shift r) names it beyond p.
    """
    size = len(images)
    first = size
    for col, want in zip(columns, (bytes(size),) + tuple(twin)):
        if (i := _miss(col, want)) is not None:
            first = min(first, i)
    if first < size:
        _fail("defining forms disagree", p=_wrap(images[first]), **context)


def _dihedral_tables(n, budget) -> list[tuple[int, ...]]:
    """Rank tables of the 2(n+1) symmetries of dihedral_elements(n), in that order.

    dihedral_image(d, a) is bar_f_image(a, d.r), after reverse_image when
    d.refl is set, so the tables are B[r] and then B[r] o R for r = 0..n,
    read from the twins' rank tables.  A table that is no bijection of the
    ranks fails the claim, naming the first such symmetry.
    """
    rev = _checked(rank_table(n, budget, toric.reverse_images))
    bar = _checked(bar_tables(n, budget))
    tables = bar + [compose_maps(b, rev) for b in bar]
    for d, table in zip(dihedral_elements(n), tables):
        _need(len(set(table)) == len(table), "induced map is not a bijection", symmetry=d)
    return tables


_FIRST_ENTRY = "power function is not the first entry of the inverse"


def _power_rule(w, n, budget, r, message, /, **context):
    """Fail at the first p, by rank, whose power in w is not r'(p^-1)_r mod n+1.

    w is a skew-morphism witness of bar_f_r, r prime to n+1, and r r' = 1
    mod n+1.  By the product rule bar_f_r(p o x) = bar_f_r(p) o
    bar_f_s(x), s = (p^-1)_r, and bar_f_s = bar_f_r^(s r'), so the power
    function at p is s r', unique since distinct powers of bar_f_r differ.
    toric.bar_f_witness derives it as e s with bar_f_1 = bar_f_r^e, read
    off the tables; this closed form, e = r', is the check on that
    derivation.  (p^-1)_r is column r-1 of the packed twin perms.invert_images;
    context names the fault beyond p.
    """
    budget.check()
    m = n + 1
    r_inv = pow(r, -1, m)
    want = tuple(r_inv * s % m for s in perms.invert_images(n)[r - 1])
    _agree(w.pi_power, want, list(sym_index(n)), message, **context)


def _barf_iter(p: Permutation, e: int) -> Permutation:
    for _ in range(e):
        p = bar_f(p, 1)
    return p


# ---------------------------------------------------------------------------
# Block transposition census.


@_claim("lemma2.1", "census of the block transpositions and their four classes", 2, 16)
def _run_lemma21(n, budget):
    cuts = enumerate_tn(n)
    _need(len(cuts) == tn_size(n), "enumeration size mismatch", n=n, got=len(cuts))
    _need(
        tn_size(n) == n * (n + 1) * (n - 1) // 6,
        "size formula mismatch",
        n=n,
        size=tn_size(n),
    )
    counts = partition_counts(n)
    expected = {
        "B": n - 1,
        "L": (n - 1) * (n - 2) // 2,
        "F": (n - 1) * (n - 2) // 2,
        "S": (n - 1) * (n - 2) * (n - 3) // 6,
    }
    _need(counts == expected, "partition sizes mismatch", got=counts, want=expected)
    _need(sum(counts.values()) == len(cuts), "partition does not cover", counts=counts)

    seen = set()
    ident = identity(n)
    for c in cuts:
        p = make_bt(c)
        budget.check()
        _need(p == bt_piecewise(c), "the two construction routes disagree", cuts=c)
        _need(p != ident, "identity found among block transpositions", cuts=c)
        _need(p not in seen, "repeated realization", cuts=c)
        seen.add(p)
        _need(make_bt(bt_inverse(c)) == p.inverse(), "inverse cut points wrong", cuts=c)
        _need(recognize(p) == c, "recognition does not invert construction", cuts=c)
    _need(recognize(ident) is IDENTITY, "identity not flagged")
    if n >= 3:
        w = reverse(n)
        _need(recognize(w) is None, "order-reversing involution misrecognized", n=n)

    b = beta(n)
    _need(b == _bt(0, 1, n, n), "beta is not the basic left-border rotation", n=n)
    for c in cuts:
        base = _bt(c.i, c.i + 1, c.k, n)
        acc = base
        for e in range(2, c.k - c.i):
            acc = acc.compose(base)
            pw = bt_power(c.i, c.k, e, n)
            want = CutPoints(c.i, c.i + e, c.k, n)
            _need(pw == want, "power cut points wrong", i=c.i, k=c.k, e=e)
            _need(make_bt(pw) == acc, "power realization wrong", i=c.i, k=c.k, e=e)
    return {"size": len(cuts), "partition": counts}


# ---------------------------------------------------------------------------
# Toric and reversal maps, pointwise identities.


@_claim("eq9", "toric maps: conjugation form, additivity, inverse rule", 3, 7)
def _run_eq9(n, budget):
    """Exhaustive over Sym_n: every p and every shift r.

    The identities are checked on rank tables: T[r][i] is the rank of
    f_r of the element of rank i, ranked from the packed twin
    toric.toric_images.
    sym_index is a bijection from Sym_n onto range(n!), so a composed table
    equals another exactly when the two composed maps agree at every
    element, and each comparison still covers every element.  The
    conjugation form [0 f_r(p)] = alpha^(m-p_r) o [0 p] o alpha^r is
    compared with the twin's columns as bytes (_rotation_route, _check_route):
    its left shift m-p_r varies with p, and its right shift r does not.

    Additivity f_s o f_r = f_(r+s), shifts mod m, is checked as f_0 = id
    and f_1 o f_r = f_(r+1): by induction f_r = f_1^r, and f_1^m = f_0.
    """
    m = n + 1
    images = list(sym_index(n))
    twin = toric.toric_images
    tor = [_checked(rank_table(n, budget, twin, r)) for r in range(m)]
    inv = _checked(rank_table(n, budget, perms.invert_images))
    _agree(tor[0], tuple(range(len(images))), images, "zeroth toric map moved a point")
    # points[r][i] is p_r for the element p of rank i, in its lift [0 p].
    points = _lift_columns(n)
    negate = bytes(-v % m for v in range(m)) + bytes(256 - m)
    for r, t in enumerate(tor):
        budget.check()
        route = _rotation_route(points, points[r].translate(negate), bytes((r,)) * len(images))
        _check_route(route, twin(n, r), images, r=r)
        # (f_r(p))^-1 = f_{p_r}(p^-1): the shift p_r varies with p.
        mirrored = tuple(map(getitem, map(tor.__getitem__, points[r]), inv))
        _agree(
            compose_maps(inv, t),
            mirrored,
            images,
            "inverse of a toric image is not the mirrored toric image",
            r=r,
        )
        _agree(
            compose_maps(tor[1], t), tor[(r + 1) % m], images, "toric shifts do not add", r=r, s=1
        )
    return {"elements": len(images), "shifts": m}


@_claim("eq12", "reversal map: conjugation form, involution, multiplicativity", 3, 6)
def _run_eq12(n, budget):
    """Both forms and the involution on every p in Sym_n, exhaustively, and
    multiplicativity g(rho o pi) = g(rho) o g(pi) on every pair (rho, pi) in
    Sym_n x Sym_n, by a reduction to the adjacent transpositions.  All three
    are checked on the packed twin toric.reverse_images.

    The conjugation form [0 g(p)] = [0 w] o [0 p] o [0 w], w = reverse(n),
    is computed on the lift columns of all of Sym_n: entry x of it is
    w(p(w(x))), so its column x is lift column w(x) translated through w.
    These columns are compared with the twin's as bytes (_check_route): the
    route takes w from perms.reverse, the twin its v -> m - v table from
    toric._complements.

    On ranks, R[i] is the rank of g of the element of rank i, and col_b[i]
    the rank of (element i) o b.  For each of the n-1 adjacent
    transpositions s, R o col_s == col_g(s) o R is g(rho o s) = g(rho) o g(s)
    for every rho at once, since sym_index is a bijection.  That covers
    every pair, by induction on the length of pi as a word in the s:

    - Length 0: with rho = iota the check reads g(s) = g(iota) o g(s), so
      g(iota) = iota, and g(rho o iota) = g(rho) o g(iota) for every rho.
    - Length k > 0: pi = pi' o s with s adjacent and pi' of length k-1, and
      for every rho
          g(rho o pi) = g(rho o pi') o g(s)        (the check at rho o pi')
                      = g(rho) o g(pi') o g(s)     (induction)
                      = g(rho) o g(pi' o s)        (the check at pi').

    The adjacent transpositions generate Sym_n, so every pi has a length,
    and "pairs" counts the pairs the proof covers.  The columns of the s and
    g(s) come from perms._rank_columns, which memoises them: g(s) of an
    adjacent s is adjacent again, so its column is one already built.
    """
    idx = sym_index(n)
    images = list(idx)
    twin = toric.reverse_images
    rev = _checked(rank_table(n, budget, twin))
    points = _lift_columns(n)
    w = lift(reverse(n))
    flip = bytes(w) + bytes(256 - len(w))
    _check_route((points[x].translate(flip) for x in w), twin(n), images)
    ident = tuple(range(len(images)))
    _agree(compose_maps(rev, rev), ident, images, "reversal is not an involution")
    adjacent = adjacent_transpositions(n)
    mirrors = [images[rev[idx[s]]] for s in adjacent]
    budget.check()
    columns = _rank_columns(n, adjacent + mirrors)
    for s, col_s, col_gs in zip(adjacent, columns, columns[n - 1 :]):
        _agree(
            compose_maps(rev, col_s),
            compose_maps(col_gs, rev),
            images,
            "reversal is not multiplicative",
            key="rho",
            pi=_wrap(s),
        )
    return {"elements": len(images), "pairs": len(images) ** 2}


def _run_mirror(name: str, kind: str, n, budget):
    """Exhaustive over every p in Sym_n and every shift r: R o T[r] o R is
    compared with T[-r] as rank tables, T the tables of the packed twin
    toric.<name>, which agree exactly when the maps agree at every element
    because sym_index is a bijection."""
    m = n + 1
    images = list(sym_index(n))
    twin = getattr(toric, name)
    tables = [_checked(rank_table(n, budget, twin, r)) for r in range(m)]
    rev = _checked(rank_table(n, budget, toric.reverse_images))
    message = f"conjugated {kind} map is not the mirror shift"
    for r, t in enumerate(tables):
        _agree(compose_maps(rev, compose_maps(t, rev)), tables[-r], images, message, r=r)
    return {"elements": len(images), "shifts": m}


# (key, packed twin in toric, kind of map) for each mirror rule g o T_r o g = T_-r.
_MIRRORS = (
    ("gfg", "toric_images", "toric"),
    ("eq16", "bar_f_images", "inverse-toric"),
)
for _key, _name, _kind in _MIRRORS:
    _summary = f"reversal conjugates each {_kind} map to its mirror"
    _claim(_key, _summary, 3, 7)(partial(_run_mirror, _name, _kind))


@_claim("eq13", "inverse-toric maps: defining route and iteration", 3, 7)
def _run_eq13(n, budget):
    """Exhaustive over every p in Sym_n and every shift r.

    Three routes meet: the rotation form [0 bar_f_r(p)] = alpha^(m-r) o
    [0 p] o alpha^((p^-1)_r), on lift columns (_rotation_route: its right
    shift varies with p, and its left shift m-r does not), the definition
    (f_r(p^-1))^-1 as the rank table inv o T[r] o inv, and r-fold iteration
    of bar_f_1 as B[1] o B[r-1] by induction on r from B[0] = id.
    sym_index is a bijection, so each table comparison covers every element.
    """
    m = n + 1
    images = list(sym_index(n))
    bar = _checked(bar_tables(n, budget))
    tor = [_checked(rank_table(n, budget, toric.toric_images, r)) for r in range(m)]
    inv = _checked(rank_table(n, budget, perms.invert_images))
    points = _lift_columns(n)
    for r, b in enumerate(bar):
        budget.check()
        # (p^-1)_r, entry r of the lift of p^-1, for the p of each rank.
        spots = bytes(compose_maps(points[r], inv))
        route = _rotation_route(points, bytes((-r % m,)) * len(images), spots)
        _check_route(route, toric.bar_f_images(n, r), images, r=r)
        _agree(
            compose_maps(inv, compose_maps(tor[r], inv)),
            b,
            images,
            "inverse-toric route broke",
            r=r,
        )
        _agree(
            compose_maps(bar[1], bar[r - 1]) if r else tuple(range(len(images))),
            b,
            images,
            "iteration disagrees with direct shift",
            r=r,
        )
    return {"elements": len(images), "shifts": m}


@_claim("lemma4.3", "product rule for inverse-toric images", 3, 5)
def _run_lemma43(n, budget):
    """bar_f_r(rho o pi) = bar_f_r(rho) o bar_f_s(pi) with s = (rho^-1)_r, for
    every pair (rho, pi) in Sym_n x Sym_n and every r: toric.product_rule_fault
    on the B tables.  "pairs" counts the pairs its proof covers."""
    _checked(bar_tables(n, budget, "product rule"))
    return {"pairs": factorial(n) ** 2, "shifts": n + 1}


# ---------------------------------------------------------------------------
# Closed forms on cut points.


def _run_closed_form(tag: str, image_of, n, budget):
    """The image of every s(i,j,k) under one map against its closed form."""
    for c in enumerate_tn(n):
        budget.check()
        img = bt_image_closed_form(c, tag)
        _need(
            make_bt(img) == image_of(make_bt(c)),
            "closed form disagrees with the map",
            cuts=c,
            image=img,
        )
    return {"checked": tn_size(n)}


# (key, summary, closed-form tag, map) for each closed form over T_n.
_CLOSED_FORMS = (
    ("lemma3.1", "toric image of a block transposition, closed form", "f", partial(toric_f, r=1)),
    ("eq11", "reversal image of a block transposition, closed form", "g", reverse_g),
    ("lemma4.1", "inverse-toric image of a block transposition, closed form", "bar_f", partial(bar_f, r=1)),
)
for _key, _summary, _tag, _map in _CLOSED_FORMS:
    _claim(_key, _summary, 2, 16)(partial(_run_closed_form, _tag, _map))


@_claim("eqa14oct", "iterated inverse-toric images of the left-border elements", 4, 16)
def _run_eqa14oct(n, budget):
    cases = 0

    def check(c, e, want):
        nonlocal cases
        _need(
            _barf_iter(make_bt(c), e) == make_bt(want),
            "iterated image disagrees",
            cuts=c,
            power=e,
            want=want,
        )
        cases += 1

    for c in enumerate_tn(n):
        budget.check()
        if c.i != 0:
            continue
        j, k = c.j, c.k
        if j >= 3:
            check(c, 2, CutPoints(j - 2, k - 2, n - 1, n))
        elif j == 1 and k >= 4:
            check(c, 3, CutPoints(k - 3, n - 2, n - 1, n))
        elif (j, k) == (1, 2):
            check(c, 4, CutPoints(n - 3, n - 2, n - 1, n))
        elif (j, k) == (1, 3):
            check(c, 5, CutPoints(n - 4, n - 3, n - 1, n))
        elif j == 2 and k >= 5:
            check(c, 4, CutPoints(k - 4, n - 3, n - 1, n))
        elif (j, k) == (2, 3):
            check(c, 5, CutPoints(n - 4, n - 2, n - 1, n))
        elif (j, k) == (2, 4):
            # The seventh family needs n >= 5 for its image to be a valid cut.
            if n >= 5:
                check(c, 6, CutPoints(n - 5, n - 3, n - 1, n))
        else:
            raise ClaimFailure("left-border element not covered", {"cuts": str(c)})
    return {"cases": cases}


# ---------------------------------------------------------------------------
# Invariance of the generating set.


def _run_invariance(shifted, fixed, n, budget):
    """A named map at every shift r, and optionally a named fixed map, send
    the set of block transpositions onto itself."""
    name, fn = shifted
    reals = set(tn_realizations(n))
    for r in range(n + 1):
        budget.check()
        _need({fn(p, r) for p in reals} == reals, f"{name} does not preserve the set", r=r)
    if fixed is not None:
        name, fn = fixed
        _need({fn(p) for p in reals} == reals, f"{name} does not preserve the set")
    return {"size": len(reals), "shifts": n + 1}


# (key, summary, shifted map, fixed map) for each invariance of T_n.
_INVARIANCES = (
    (
        "cor3.2",
        "toric maps and reversal permute the block transpositions",
        ("toric map", toric_f),
        ("reversal", reverse_g),
    ),
    (
        "cor4.2",
        "inverse-toric maps permute the block transpositions",
        ("inverse-toric map", bar_f),
        None,
    ),
)
for _key, _summary, _shifted, _fixed in _INVARIANCES:
    _claim(_key, _summary, 2, 16)(partial(_run_invariance, _shifted, _fixed))


# ---------------------------------------------------------------------------
# The translation/inverse-toric product group and its extended image.


@_claim("prop4.4", "translations with inverse-toric maps form a group of order (n+1)!", 3, 4)
def _run_prop44(n, budget):
    """S = {L_h o bar_f_r : h in Sym_n, r mod m}, m = n+1, is a group of
    order (n+1)!, and right translation R by w0 = reverse(n) doubles it.

    Checked on the rank tables B[r]: the product rule, then B[0] = id and
    B[s] = B[1] o B[s-1] mod m (toric.bar_tables); the B[r] are distinct;
    each B[r] fixes w0; w0 o w0 = iota, so R o R, right translation by
    w0 o w0, is id; no B[r] is the table of g(x) = w0 o x o w0 (the
    reverse_images table, checked against that form by eq12).  Then:
      - Additivity: B[r] = B[1]^r by induction and B[1]^m = B[0] = id, so
        bar_f_s o bar_f_u = bar_f_(s+u) (mod m), each a bijection.
      - Closure: (L_h o bar_f_r) o (L_k o bar_f_u) = L_d o bar_f_(s+u) with
        d = h o bar_f_r(k) and s = s(k, r), since bar_f_r(k o bar_f_u(x)) =
        bar_f_r(k) o bar_f_s(bar_f_u(x)).
      - Size: bar_f_r(iota) = iota, so L_h o bar_f_r sends iota to h, and
        for one h the maps differ as the B[r] do: |S| = n! m = (n+1)!.
      - Group: a finite set of bijections closed under composition is one.
      - Doubling: R commutes with each L_h, and with each bar_f_r, since
        bar_f_r(x o w0) = bar_f_r(x) o bar_f_s(w0) = bar_f_r(x) o w0.  A map
        of S equal to R sends iota to w0, so it is L_w0 o bar_f_r with
        bar_f_r = L_w0 o R = g, which no B[r] is.  So R is a central
        involution outside S, and S u R o S is a group of order 2 (n+1)!.
    The chain order of phi_iso of G (the L_t of the adjacent t, and bar_f_u
    for u = 1..n) is a cross-check.  The product over every pair of the
    (n+1)! tables is the oracle in tests/test_verify.py.
    """
    m = n + 1
    idx = sym_index(n)
    images = list(idx)
    bar = _checked(bar_tables(n, budget, "product rule", "additivity"))
    distinct = len(set(bar))
    _need(distinct == m, "maps are not pairwise distinct", count=distinct * len(images))
    gens = [phi_iso(_wrap(t), 0) for t in adjacent_transpositions(n)]
    gens += [phi_iso(identity(n), u) for u in range(1, m)]
    order = StabilizerChain(m, gens, budget).order()
    _need(order == factorial(m), "generator images do not generate the target group", order=order)
    w = reverse(n)
    w0 = idx[w.image]
    _need(all(b[w0] == w0 for b in bar), "the doubling involution does not centralize the group")
    _need(w.compose(w) == identity(n), "the doubling map is not an involution")
    inside = _checked(rank_table(n, budget, toric.reverse_images)) in bar
    _need(not inside, "the doubling involution lies inside the group")
    return {"group_order": factorial(m), "doubled_order": 2 * factorial(m)}


@_claim("skew-toric", "which inverse-toric maps are skew-morphisms of the group", 3, 5)
def _run_skew_toric(n, budget):
    """bar_f_r has a skew-morphism witness exactly at r = 0 and at r prime to
    n+1, of order 1 or n+1, and at each r prime to n+1 its powers follow
    the power rule (_power_rule).  The B tables must first add and hold the
    product rule (toric.bar_tables), the facts bar_f_witness derives its
    answer from, so a wrong table fails here with its counterexample."""
    m = n + 1
    _checked(bar_tables(n, budget, "additivity", "product rule"))
    orders = {}
    for r in range(m):
        budget.check()
        w = bar_f_witness(n, r)
        expect = r == 0 or gcd(r, m) == 1
        _need(
            (w is not None) == expect,
            "skew-morphism pattern disagrees with the coprimality rule",
            r=r,
            modulus=m,
        )
        if w is None:
            continue
        want_order = 1 if r == 0 else m
        _need(w.order == want_order, "witness order wrong", r=r, order=w.order)
        orders[str(r)] = w.order
        if r == 1:
            _power_rule(w, n, budget, 1, _FIRST_ENTRY)
        elif r:
            message = "power function is not r' times entry r of the inverse"
            _power_rule(w, n, budget, r, message, r=r)
    return {"orders": orders, "coprime_count": 1 + euler_phi(m) - 1}


@_claim("toric-singletons", "toric classes: singleton count and size divisors", 3, 7)
def _run_toric_singletons(n, budget):
    classes, singletons, histogram = toric_class_stats(n, budget)
    m = n + 1
    _need(singletons == euler_phi(m), "singleton count mismatch", got=singletons, want=euler_phi(m))
    for size, count in histogram.items():
        _need(m % size == 0, "class size does not divide the modulus", size=size, count=count)
    total = sum(size * count for size, count in histogram.items())
    _need(total == factorial(n), "classes do not partition the group", covered=total)
    return {
        "classes": classes,
        "singletons": singletons,
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
    }


# ---------------------------------------------------------------------------
# Structure of the graph on the block transpositions.


@_claim("cor5.1", "reversal fixes the border classes and swaps the mixed ones", 4, 16)
def _run_cor51(n, budget):
    swap = {"B": "B", "S": "S", "L": "F", "F": "L"}
    by_class = {cls: set() for cls in TN_CLASSES}
    images = {cls: set() for cls in TN_CLASSES}
    for c in enumerate_tn(n):
        budget.check()
        img = recognize(reverse_g(make_bt(c)))
        _need(img is not None and img is not IDENTITY, "image left the set", cuts=c)
        _need(
            classify(img) == swap[classify(c)],
            "class image wrong",
            cuts=c,
            image=img,
        )
        by_class[classify(c)].add(c)
        images[swap[classify(c)]].add(img)
    for cls in TN_CLASSES:
        _need(images[cls] == by_class[cls], "class image set mismatch", cls=cls)
    return {"classes": {cls: len(by_class[cls]) for cls in TN_CLASSES}}


@_claim("lemma5.2", "no edges join the two extreme classes", 4, 16)
def _run_lemma52(n, budget):
    g = gamma(n)
    b_ranks = [g.index_of(make_bt(c)) for c in enumerate_tn(n) if classify(c) == "B"]
    s_ranks = [g.index_of(make_bt(c)) for c in enumerate_tn(n) if classify(c) == "S"]
    for u in b_ranks:
        budget.check()
        for v in s_ranks:
            _need(
                not g.is_edge(u, v),
                "forbidden edge found",
                u=g.labels[u],
                v=g.labels[v],
            )
    return {"border": len(b_ranks), "interior": len(s_ranks)}


@_claim("lemma5.3", "five two-parameter families exhaust the edges", 4, 16)
def _run_lemma53(n, budget):
    g = gamma(n)
    pairs = set()

    def edge_with(a: CutPoints, b: CutPoints, q: CutPoints):
        # a == b o q certifies adjacency of a and b.
        _need(
            make_bt(a) == make_bt(b).compose(make_bt(q)),
            "product certificate broke",
            a=a,
            b=b,
            q=q,
        )
        ra, rb = g.index_of(make_bt(a)), g.index_of(make_bt(b))
        _need(g.is_edge(ra, rb), "certified pair is not an edge", a=a, b=b)
        pairs.add(frozenset((ra, rb)))

    for c in enumerate_tn(n):
        budget.check()
        i, j, k = c.i, c.j, c.k
        for k2 in range(j + 1, k):
            edge_with(c, CutPoints(i, j, k2, n), CutPoints(k2 - j + i, k2, k, n))
        for k2 in range(k + 1, n + 1):
            edge_with(c, CutPoints(j, k, k2, n), CutPoints(i, k2 - k + j, k2, n))
        for i2 in range(i):
            edge_with(c, CutPoints(i2, j, k, n), CutPoints(i2, k - j + i2, k - j + i, n))
        for j2 in range(j + 1, k):
            edge_with(c, CutPoints(i, j2, k, n), CutPoints(i, k - j2 + j, k, n))
    edges = {frozenset(e) for e in g.edges()}
    _need(pairs == edges, "family pairs differ from the edge set", families=len(pairs), edges=len(edges))
    return {"edges": len(edges)}


@_claim("lemma5.4", "four ways to split a right-anchored element", 4, 16)
def _run_lemma54(n, budget):
    checked = 0
    for j in range(1, n):
        budget.check()
        for i in range(1, j):
            a = _bt(i, j, n, n)
            _need(
                a == _bt(0, j, n, n).compose(_bt(0, n - j, n - j + i, n)),
                "first splitting broke",
                i=i,
                j=j,
            )
            _need(
                a == _bt(0, i, j, n).compose(_bt(0, j - i, n, n)),
                "second splitting broke",
                i=i,
                j=j,
            )
            _need(
                _bt(0, j, n, n) == a.compose(_bt(0, i, n - j + i, n)),
                "third splitting broke",
                i=i,
                j=j,
            )
            checked += 3
        for i in range(1, n - j):
            _need(
                _bt(0, j, n, n) == _bt(0, j, j + i, n).compose(_bt(i, j + i, n, n)),
                "fourth splitting broke",
                i=i,
                j=j,
            )
            checked += 1
    return {"identities": checked}


@_claim("lemma5.5", "the border factor in a splitting is forced", 4, 16)
def _run_lemma55(n, budget):
    tested = 0
    for j in range(2, n):
        budget.check()
        for i in range(1, j):
            target = _bt(i, j, n, n)
            for jb in range(1, n):
                left = _bt(0, jb, n, n).inverse().compose(target)
                r = recognize(left)
                if r is not None and r is not IDENTITY:
                    _need(jb == j, "left border parameter not forced", i=i, j=j, found=jb)
                right = target.compose(_bt(0, jb, n, n).inverse())
                r2 = recognize(right)
                if r2 is not None and r2 is not IDENTITY:
                    _need(jb == j - i, "right border parameter not forced", i=i, j=j, found=jb)
                tested += 1
    return {"candidates": tested}


@_claim("prop5.6", "bipartite degrees between classes and the mixed matching", 4, 16)
def _run_prop56(n, budget):
    g = gamma(n)
    classes = {c: classify(c) for c in enumerate_tn(n)}
    rank = {c: g.index_of(make_bt(c)) for c in classes}
    by = {cls: [c for c, cl in classes.items() if cl == cls] for cls in TN_CLASSES}

    for c in by["L"] + by["F"]:
        budget.check()
        nbrs = sum(1 for b in by["B"] if g.is_edge(rank[c], rank[b]))
        _need(nbrs == 1, "mixed vertex with wrong border degree", cuts=c, degree=nbrs)
    for b in by["B"]:
        nbrs = sum(1 for c in by["L"] + by["F"] if g.is_edge(rank[b], rank[c]))
        _need(nbrs == n - 2, "border vertex with wrong mixed degree", cuts=b, degree=nbrs)

    # Between the two mixed classes the edges form a perfect matching whose
    # pairs are given by a closed form.
    for c in by["F"]:
        budget.check()
        partners = [l for l in by["L"] if g.is_edge(rank[c], rank[l])]
        want = CutPoints(0, c.i, c.j, n)
        _need(partners == [want], "matching partner wrong", cuts=c, partners=partners)
        quotient = recognize(make_bt(want).inverse().compose(make_bt(c)))
        _need(
            quotient == CutPoints(0, c.j - c.i, n, n),
            "matching certificate wrong",
            cuts=c,
            quotient=quotient,
        )
    for c in by["L"]:
        partners = [f for f in by["F"] if g.is_edge(rank[c], rank[f])]
        _need(len(partners) == 1, "matching is not one to one", cuts=c, partners=partners)
    return {"matching": len(by["F"]), "border_degree": n - 2}


@_claim("cor5.7", "the border class is the unique clique of its size", 4, 16)
def _run_cor57(n, budget):
    g = gamma(n)
    b_ranks = [g.index_of(make_bt(c)) for c in enumerate_tn(n) if classify(c) == "B"]
    _need(len(b_ranks) == n - 1, "border class size wrong", size=len(b_ranks))
    for u in b_ranks:
        budget.check()
        for v in b_ranks:
            if u < v:
                _need(g.is_edge(u, v), "border class is not a clique", u=g.labels[u], v=g.labels[v])
                common = g.neighbor_sets[u] & g.neighbor_sets[v]
                _need(
                    common <= set(b_ranks),
                    "border edge has a common neighbor outside",
                    u=g.labels[u],
                    v=g.labels[v],
                )
    outside = [v for v in range(g.num_vertices) if v not in set(b_ranks)]
    for v in outside:
        _need(
            not all(g.is_edge(v, u) for u in b_ranks),
            "border clique extends",
            vertex=g.labels[v],
        )
    return {"clique_size": n - 1}


@_claim("prop5.8", "degree of the graph on the block transpositions", 4, 16)
def _run_prop58(n, budget):
    budget.check()
    g = gamma(n)
    profile = degree_profile(g)
    want = 3 if n == 4 else 2 * (n - 2)
    bad = next((u for u in range(g.num_vertices) if g.degree(u) != want), None)
    if bad is not None:
        # Report the true profile; for n = 4 the stated value 3 does not
        # match the graph, which is 2(n-2)-regular there as well.
        raise ClaimFailure(
            f"expected {want}-regular, found degree {g.degree(bad)}",
            {
                "vertex": str(g.labels[bad]),
                "degree": str(g.degree(bad)),
                "profile": str(sorted(set(profile))),
            },
        )
    return {"regular": want, "vertices": g.num_vertices}


@_claim("prop5.9", "n+1 disjoint edges that are maximal 2-cliques", 5, 16)
def _run_prop59(n, budget):
    g = gamma(n)
    ee = e_edges(n)
    _need(len(ee) == n + 1, "edge count wrong", count=len(ee))
    seen = set()
    for m, (a, b) in enumerate(ee):
        budget.check()
        _need(a not in seen and b not in seen, "edges are not disjoint", index=m)
        seen |= {a, b}
        ra, rb = g.index_of(make_bt(a)), g.index_of(make_bt(b))
        _need(g.is_edge(ra, rb), "distinguished pair is not an edge", index=m)
        _need(
            not (g.neighbor_sets[ra] & g.neighbor_sets[rb]),
            "distinguished edge has a common neighbor",
            index=m,
        )
    for m in range(n - 2):
        a, b = ee[m]
        _need(make_bt(a).inverse() == make_bt(b), "ladder endpoints are not mutual inverses", index=m)
    # The basic inverse-toric map cycles the edges.
    fs = [frozenset(p) for p in ee]
    for m, (a, b) in enumerate(ee):
        img = frozenset(
            (recognize(bar_f(make_bt(a), 1)), recognize(bar_f(make_bt(b), 1)))
        )
        want = fs[m - 1] if m >= 1 else fs[n]
        _need(img == want, "edge cycle broken", index=m, image=sorted(map(str, img)))
    return {"edges": n + 1, "vertices": len(seen)}


@_claim("lemma5.10", "the dihedral symmetries act regularly on the special vertices", 5, 16)
def _run_lemma510(n, budget):
    V = vertex_set_V(n)
    reals = {make_bt(c) for c in V}
    _need(len(reals) == 2 * (n + 1), "special vertex count wrong", count=len(reals))
    dih = dihedral_elements(n)
    _need(len(dih) == 2 * (n + 1), "symmetry count wrong", count=len(dih))
    for d in dih:
        budget.check()
        _need(
            {apply_dihedral(d, p) for p in reals} == reals,
            "symmetry does not preserve the special vertices",
            symmetry=d,
        )
    seed = make_bt(CutPoints(0, 2, n, n))
    orb = orbit(dih, seed)
    _need(orb == frozenset(reals), "special vertices are not a single orbit", orbit_size=len(orb))
    for d in dih:
        if d.r == 0 and d.refl == 0:
            continue
        fixed = [p for p in reals if apply_dihedral(d, p) == p]
        _need(not fixed, "non-identity symmetry fixes a special vertex", symmetry=d)
    gv = gamma_v(n)
    for d in dih:
        vm = perm_vertex_map(gv, lambda p, d=d: apply_dihedral(d, p))
        _need(is_automorphism(gv, vm), "induced map is not an automorphism", symmetry=d)

    # Action of the reversal on the distinguished edges.
    ee = e_edges(n)
    fs = [frozenset(p) for p in ee]
    for m, (a, b) in enumerate(ee):
        ia, ib = recognize(reverse_g(make_bt(a))), recognize(reverse_g(make_bt(b)))
        img = frozenset((ia, ib))
        if m <= n - 3:
            want = fs[n - 3 - m]
        elif m == n - 2:
            want = fs[n]
        elif m == n - 1:
            want = fs[n - 1]
            _need(ia == b and ib == a, "reversal does not swap the fixed edge", index=m)
        else:
            want = fs[n - 2]
        _need(img == want, "reversal edge action wrong", index=m, image=sorted(map(str, img)))
    return {"orbit": len(orb), "symmetries": len(dih)}


@_claim("cor5.11", "orbit sizes of the dihedral symmetries divide 2(n+1)", 5, 8)
def _run_cor511(n, budget):
    """Exhaustive: the orbits of all of Sym_n, labelled on ranks in one pass.

    The 2(n+1) symmetries are the rank tables of _dihedral_tables, each
    checked there to be a bijection of the ranks.  Every rank starts with
    itself as its label; a round gives each rank the least label among its
    own and those of its images under the tables, and rounds repeat until
    no label changes.  Then the label of each rank is the least rank of its
    orbit:
      - A label only ever moves to a label held in the same orbit, so it
        starts and stays a rank of that orbit, and it never falls below
        the least rank o of the orbit; o itself keeps o throughout.
      - When no label changes, label(i) <= label(t(i)) for every rank i and
        table t, so labels never increase along a path of table steps.
        Each table is a bijection of a finite set, so t^-1 is a power of t
        and the rank of a step back is reached by steps forward: every
        rank of an orbit is reached from every other, and the label is
        constant on it.  It equals label(o) = o.
    Labels only decrease, so the rounds end.  The tables are the whole
    group, so the first round already reaches every image and the second
    sees no change.  The orbit of rank i is then the ranks labelled
    label(i), and the orbits come in the order of their least ranks, the
    order in which a sweep by rank meets them.
    """
    target = 2 * (n + 1)
    idx = sym_index(n)
    images = list(idx)
    tables = _dihedral_tables(n, budget)
    label = tuple(range(len(images)))
    while True:
        budget.check()
        moved = tuple(map(min, label, *[compose_maps(label, t) for t in tables]))
        if moved == label:
            break
        label = moved
    orbit_size = Counter(label)
    long_orbit = orbit_size[label[idx[_bt(0, 2, n, n).image]]]
    _need(long_orbit == target, "special orbit is not long", size=long_orbit)
    sizes = {}
    for least, size in orbit_size.items():
        if target % size:
            _fail("orbit size does not divide", p=_wrap(images[least]), size=size)
        sizes[size] = sizes.get(size, 0) + 1
    return {"orbit_sizes": {str(k): v for k, v in sorted(sizes.items())}}


@_claim("lemma5.12", "the distinguished edges are the only maximal 2-cliques", 4, 16)
def _run_lemma512(n, budget):
    budget.check()
    g = gamma(n)
    found = maximal_2_cliques(g)
    _need(len(found.edges) == n + 1, "count of maximal 2-cliques wrong", count=len(found.edges))
    _need(None not in found.em_index, "an untagged maximal 2-clique appeared")
    _need(
        sorted(found.em_index) == list(range(n + 1)),
        "tags do not cover the distinguished edges",
        tags=found.em_index,
    )
    return {"count": n + 1, "disjoint": n >= 5}


@_claim("prop5.13", "the subgraph on the special vertices is cubic", 5, 16)
def _run_prop513(n, budget):
    budget.check()
    gv = gamma_v(n)
    _need(gv.num_vertices == 2 * (n + 1), "vertex count wrong", count=gv.num_vertices)
    profile = sorted(set(degree_profile(gv)))
    _need(profile == [3], "subgraph is not cubic", profile=profile)
    return {"vertices": gv.num_vertices, "edges": gv.num_edges}


@_claim("prop5.15", "explicit Hamilton cycle through the special vertices", 5, 16)
def _run_prop515(n, budget):
    budget.check()
    cycle = hamilton_cycle_gamma_v(n)
    gv = gamma_v(n)
    _need(len(cycle) == gv.num_vertices, "cycle length wrong", length=len(cycle))
    ranks = [gv.index_of(make_bt(c)) for c in cycle]
    _need(len(set(ranks)) == len(ranks), "cycle repeats a vertex")
    for a, b in zip(ranks, ranks[1:] + ranks[:1]):
        _need(gv.is_edge(a, b), "cycle step is not an edge", a=gv.labels[a], b=gv.labels[b])
    return {"length": len(cycle)}


# ---------------------------------------------------------------------------
# Automorphism groups.


@_claim("thm1", "automorphisms of the graph on the block transpositions", 4, 6)
def _run_thm1(n, budget):
    g = gamma(n)
    induced = {
        perm_vertex_map(g, partial(apply_dihedral, d)).images for d in dihedral_elements(n)
    }
    _need(len(induced) == 2 * (n + 1), "induced symmetries are not faithful", count=len(induced))
    auts = aut_group(g, budget=budget)
    got = {m.images for m in auts}
    extra = got - induced
    missing = induced - got
    _need(
        not extra and not missing,
        "automorphism group is not the induced dihedral group",
        extra=len(extra),
        missing=len(missing),
    )
    return {"order": len(auts)}


@_claim("thm2", "stabilizer of the identity in the full Cayley graph", 4, 5)
def _run_thm2(n, budget):
    """The stabilizer search against the 2(n+1) dihedral rank tables.

    The vertices of the Cayley graph are sym_group(n), ranked by sym_index,
    so a vertex map of the stabilizer is an image tuple over those ranks,
    as the tables of _dihedral_tables are.
    """
    stab = stabilizer_of_identity(n, budget=budget)
    _need(len(stab) == 2 * (n + 1), "stabilizer order wrong", order=len(stab))
    induced = set(_dihedral_tables(n, budget))
    _need(
        {m.images for m in stab} == induced,
        "stabilizer differs from the induced symmetries",
        stabilizer=len(stab),
        induced=len(induced),
    )
    full_order = factorial(n) * len(stab)
    return {"stabilizer": len(stab), "full_group_order": full_order}


@_claim("toric-reverse-aut", "dihedral symmetries are automorphisms fixing the identity", 4, 6)
def _run_toric_reverse_aut(n, budget):
    """Each of the 2(n+1) dihedral maps is an automorphism of
    Cay(Sym_n, T_n) fixing the identity, the maps are distinct, and the
    normal-form product agrees with composition for every pair (a, b) at
    every p in Sym_n.

    The maps are the rank tables of _dihedral_tables: table[d][v] is the
    rank of d(p) for the vertex p of rank v, and each is a bijection of
    the ranks.  The edges of the graph join rho and rho o t, t in T_n.
      - The rotation form gives bar_f_r(rho o t) = bar_f_r(rho) o
        bar_f_s(t), with s the position of r in [0 rho]: write [0 x] as x
        and s' for the position of s in [0 t], the position of r in
        [0 rho o t]; then alpha^-r o rho t o alpha^s' = (alpha^-r o rho o
        alpha^s) o (alpha^-s o t o alpha^s').  So once bar_f_s(T_n) lies in
        T_n for every s, each bar_f_r sends every edge to an edge.  A
        bijection of a finite graph that sends edges to edges permutes
        them, so it is an automorphism.
      - The reversal is conjugation by w0 = [n ... 1] (eq12), so g(rho o t)
        = g(rho) o g(t), and g is an automorphism once g(T_n) lies in T_n.
        bar_f_0 is the identity, so g is the symmetry t^0*g, and every
        t^r*g = bar_f_r o g is a product of two automorphisms.
      - Conversely an automorphism fixing the identity permutes its
        neighbours T_n.
    So all 2(n+1) maps are automorphisms exactly when the n+1 rotation
    tables and the reversal table send the ranks of T_n into T_n, which is
    (n+2)|T_n| lookups.  is_automorphism on build_cayley is the oracle in
    tests/test_verify.py.

    table[ab] = table[a] o table[b] holds exactly when ab(p) = a(b(p)) for
    every p in Sym_n.  It is checked for every a and each x of t^1 and
    t^0*g, with table[t^0] the identity; then it holds for every pair, by
    induction on b as a word in t^1 and t^0*g (dihedral_compose is the
    group law of the normal forms, so it is associative): with b = c x,
    table[a b] = table[(a c) x] = table[a c] o table[x] = table[a] o
    table[c] o table[x] = table[a] o table[b].
    """
    index = sym_index(n)
    tn = sorted(index[p.image] for p in tn_realizations(n))
    members = set(tn)
    dih = dihedral_elements(n)
    tables = dict(zip(dih, _dihedral_tables(n, budget)))
    rotations = [(d, tables[d]) for d in dih[: n + 1]]
    vertices = list(index)
    for d, table in rotations + [(dih[n + 1], _checked(rank_table(n, budget, toric.reverse_images)))]:
        budget.check()
        for t in tn:
            if table[t] not in members:
                _fail("induced map is not an automorphism", symmetry=d, t=_wrap(vertices[t]))
    ident_rank = index[tuple(range(1, n + 1))]
    for d, table in tables.items():
        _need(table[ident_rank] == ident_rank, "identity vertex moved", symmetry=d)
    images = set(tables.values())
    _need(len(images) == 2 * (n + 1), "induced maps are not distinct", count=len(images))
    _agree(tables[dih[0]], tuple(range(len(vertices))), vertices, "t^0 is not the identity")
    for a in dih:
        budget.check()
        for b in (dih[1], dih[n + 1]):
            _agree(
                compose_maps(tables[a], tables[b]),
                tables[dihedral_compose(a, b)],
                vertices,
                "normal-form product disagrees with composition",
                a=a,
                b=b,
            )
    return {"maps": len(images)}


# ---------------------------------------------------------------------------
# Generated subgroups and components.


@_claim("lemma6.3", "the special vertices generate the whole or even half", 4, 16)
def _run_lemma63(n, budget):
    """|<V>| from a stabilizer chain of the lifts [0 v] of V, against n!/2 or n!.

    The chain's order is |<V>| (see perms.StabilizerChain); with V all
    even at even n, <V> lies in the alternating group, and at odd n an odd
    generator rules that out.  The breadth-first search of the identity's
    component is the oracle in tests/test_verify.py, and the chain is
    checked against breadth-first closures and sympy in tests/test_perms.py.
    """
    budget.check()
    gens = [make_bt(c) for c in vertex_set_V(n)]
    if n % 2 == 0:
        _need(
            all(p.is_even() for p in gens),
            "an odd generator appeared at even degree",
        )
        want, message = factorial(n) // 2, "subgroup is not the even half"
    else:
        _need(
            any(not p.is_even() for p in gens),
            "no odd generator at odd degree",
        )
        want, message = factorial(n), "subgroup is not the whole group"
    order = StabilizerChain(n + 1, map(lift, gens), budget).order()
    _need(order == want, message, order=order)
    return {"order": order, "index": factorial(n) // order}


@_claim("lemma6.4", "components of the Cayley graph over the special vertices", 4, 16)
def _run_lemma64(n, budget):
    """n!/|<V>| components, each of |<V>| vertices.

    V is symmetric (checked), so the edges p -- p o v join p to every
    p o v1 o ... o vj, and in a finite group every element of <V> is such
    a word: the component of the identity is <V>.  Left translation by g
    is a graph automorphism, so the component of g is the coset g<V>, and
    the cosets split Sym_n into n!/|<V>| blocks of |<V>| vertices.  |<V>|
    comes from a stabilizer chain; a breadth-first search of every
    component is the oracle in tests/test_verify.py.
    """
    gens = [make_bt(c) for c in vertex_set_V(n)]
    gen_set = set(gens)
    _need(all(p.inverse() in gen_set for p in gens), "connection set is not symmetric")
    order = StabilizerChain(n + 1, map(lift, gens), budget).order()
    components = factorial(n) // order
    _need(components == (1 if n % 2 else 2), "component count wrong", count=components)
    return {"components": components, "component_size": order}


# ---------------------------------------------------------------------------
# Distances.


@_claim("bfs", "meet-in-the-middle distances match a full search", 3, 5)
def _run_bfs(n, budget):
    """Every target's meet-in-the-middle distance against its breadth-first
    layer from the identity, checked in rank order."""
    gens = tn_realizations(n)
    source = identity(n)
    dist = identity_distances(n, budget)
    reached = len(dist) - dist.count(None)
    _need(reached == factorial(n), "search did not reach the whole group", reached=reached)
    for target, want in zip(sym_group(n), dist):
        budget.check()
        d, path = bfs_distance(source, target)
        _need(d == want, "distance mismatch", target=target, got=d, want=want)
        _need(len(path) == d, "geodesic length mismatch", target=target)
        cur = source
        for c in path:
            cur = cur.compose(make_bt(c))
        _need(cur == target, "geodesic does not reach the target", target=target)
    # Left invariance on a few shifted pairs.
    w = reverse(n)
    d2, _ = bfs_distance(source, w)
    for shift in gens[:3]:
        d1, _ = bfs_distance(shift, shift.compose(w))
        _need(d1 == d2, "distance is not left invariant", shift=shift)
    return {"targets": reached, "diameter": max(dist)}


# ---------------------------------------------------------------------------
# Rotation systems.


@_claim("example7.1", "the four-generator rotation system is the octahedron", 3, 3)
def _run_example71(n, budget):
    budget.check()
    m = octahedron_map()
    _need(m.dart_count == 24, "dart count wrong", count=m.dart_count)
    faces = m.faces()
    _need(len(faces) == 8, "face count wrong", count=len(faces))
    _need(all(len(f) == 3 for f in faces), "faces are not triangles")
    _need(m.euler_characteristic() == 2, "not spherical", chi=m.euler_characteristic())
    w = is_regular(m, budget=budget)
    _need(w is not None, "no regularity witness")
    # The map is prop72_map(3) (checked below), so its witness has the
    # columns prop7.2 reads at n = 3.
    psi = _checked(rank_table(n, budget, toric.bar_f_images, 1))
    _need(w.psi == psi, "witness is not the basic inverse-toric map")
    _power_rule(w, n, budget, 1, _FIRST_ENTRY)
    _need(aut_order(m, w) == 24, "symmetry count wrong", order=aut_order(m, w))
    other = prop72_map(3)
    _need(m.gens == other.gens, "differs from the general construction at its smallest size")
    g = build_cayley(3, m.gens)
    _need(g.num_vertices == 6 and sorted(set(degree_profile(g))) == [4], "skeleton wrong")
    for v in range(g.num_vertices):
        non = g.num_vertices - 1 - g.degree(v)
        _need(non == 1, "skeleton is not the octahedron", vertex=g.labels[v])
    return {"darts": 24, "faces": 8, "aut_order": 24}


@_claim("prop7.2", "the (n+1)-generator rotation system is regular, not balanced", 3, 6)
def _run_prop72(n, budget):
    m = prop72_map(n)
    _need(m.valency == n + 1, "valency wrong", valency=m.valency)
    _need(m.dart_count == (n + 1) * factorial(n), "dart count wrong", count=m.dart_count)
    faces = m.faces()
    _need(all(len(f) == n for f in faces), "face sizes wrong")
    _need(len(faces) == m.dart_count // n, "face count wrong", count=len(faces))

    w = is_regular(m, budget=budget)
    _need(w is not None, "no regularity witness")
    psi = _checked(rank_table(n, budget, toric.bar_f_images, 1))
    _need(w.psi == psi, "witness is not the basic inverse-toric map")
    _need(t_balance(w, m.gens) is None, "map is balanced after all")
    first = _bt(0, 1, n, n)
    _need(w.pi_power_of(first) == n, "power at the long generator wrong", got=w.pi_power_of(first))
    small = _bt(1, 2, 3, n)
    _need(w.pi_power_of(small) == 1, "power at the short generator wrong", got=w.pi_power_of(small))
    _power_rule(w, n, budget, 1, _FIRST_ENTRY)
    _need(aut_order(m, w) == factorial(n + 1), "symmetry count wrong", order=aut_order(m, w))

    # The face at the identity along the long generator walks the cyclic
    # relation through all the short generators.  Its first dart is dart 0,
    # (iota, gens[0]), the least dart, so it is the first face.
    gens_seq = [CutPoints(0, 1, n, n)]
    gens_seq += [CutPoints(l, l + 1, l + 2, n) for l in range(n - 2, -1, -1)]
    k = m.valency
    tail = identity(n)
    for d, c in zip(faces[0], gens_seq):
        x = make_bt(c)
        _need(m.elements[d // k] == tail and m.gens[d % k] == x, "face walk differs", expected=c)
        tail = tail.compose(x)
    _need(tail == identity(n), "face relation does not close")
    _need(len(faces[0]) == len(gens_seq), "face walk does not return")
    return {
        "valency": n + 1,
        "faces": len(faces),
        "aut_order": factorial(n + 1),
        "witness_order": w.order,
    }


@_claim("thm7.3", "a second regular unbalanced system at the critical valency", 5, 5)
def _run_thm73(n, budget):
    m = mprime_n5_map()
    _need(m.valency == 6, "valency wrong", valency=m.valency)
    _need(m.dart_count == 720, "dart count wrong", count=m.dart_count)
    w = is_regular(m, budget=budget)
    _need(w is not None, "no regularity witness")
    psi = _checked(rank_table(5, budget, toric.bar_f_images, 5))
    _need(w.psi == psi, "witness is not the mirrored inverse-toric map")
    _need(w.order == 6, "witness order wrong", order=w.order)
    _need(t_balance(w, m.gens) is None, "map is balanced after all")
    _power_rule(w, n, budget, 5, "power function is not the mirrored last entry")
    _need(aut_order(m, w) == 720, "symmetry count wrong", order=aut_order(m, w))
    other = prop72_map(5)
    wo = is_regular(other, budget=budget)
    _need(wo is not None and aut_order(other, wo) == 720, "companion symmetry count wrong")
    return {"valency": 6, "aut_order": 720, "witness_order": 6}


@_claim("remark7", "the two critical connection sets give different graphs", 5, 5)
def _run_remark7(n, budget):
    g1 = build_cayley(5, prop72_map(5).gens)
    g2 = build_cayley(5, mprime_n5_map().gens)
    for g in (g1, g2):
        _need(g.num_vertices == 120, "vertex count wrong", count=g.num_vertices)
        _need(sorted(set(degree_profile(g))) == [6], "graph is not 6-regular")
    bijection = graphs_isomorphic(g1, g2, budget=budget)
    if bijection is not None:
        raise ClaimFailure(
            "an isomorphism exists after all",
            {"bijection": str(bijection[:12]) + "..."},
        )
    return {"vertices": 120, "degree": 6, "isomorphic": False}
