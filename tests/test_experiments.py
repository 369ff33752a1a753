import contextlib
import math
import signal
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qrstats import experiments, residue_scan, sieve
from qrstats.arith import jacobi
from qrstats.errors import DegenerateSetError, ParameterError, RangeError, ResourceError
from qrstats.experiments import (
    ERDOS_X_BUDGET,
    WITNESS_CAP,
    ExceptionalDensity,
    ExceptionalState,
    check_erdos,
    check_exceptional,
    check_trace,
    erdos_constant,
    erdos_mean,
    erdos_mean_curve,
    exceptional_blocks,
    exceptional_density_sweep,
    gap_tail_scan,
    h_multiples,
    h_quarter_power,
    proof_trace,
    squarefree_pair_density,
)
from qrstats.charsums import rough_partition
from qrstats.residue_scan import first_nonresidues_after, least_nonresidues
from qrstats.sieve import feller_tornier_A, primes_in, rough_set

import oracles


# --- Erdos mean ----------------------------------------------------------

def test_erdos_constant():
    assert erdos_constant() == 3.6746439660109136


def test_erdos_constant_partial():
    # partial sums of the series, summed apart from the package: all terms
    # are positive, so they climb to the constant, and 60 terms reach it
    primes = oracles.eratosthenes(300).tolist()[:60]
    partial = [math.fsum(p / 2.0**k for k, p in enumerate(primes[:n], start=1)) for n in (1, 5, 60)]
    assert partial[:2] == [1.0, 3.15625]
    assert all(s < erdos_constant() for s in partial[:2])
    assert abs(partial[2] - erdos_constant()) < 1e-9


def test_erdos_constant_stops_at_its_tail_bound(monkeypatch):
    # the sum runs until the tail after p_k, at most p_k / 2**(k-1), is
    # below the bound; the same loop over an independent prime list
    primes = oracles.eratosthenes(10**4).tolist()
    for bound in (1.0, 1e-3, 1e-6, 1e-12, 1e-300):
        total = 0.0
        for k, p in enumerate(primes, start=1):
            total += p / 2.0**k
            if p / 2.0 ** (k - 1) < bound:
                break
        else:
            raise AssertionError("prime list too short")
        monkeypatch.setattr(experiments, "ERDOS_TAIL_BOUND", bound)
        assert erdos_constant() == total, bound


def test_erdos_mean_small():
    em = erdos_mean(10)
    assert em.primes == 3
    assert em.mean == pytest.approx(7 / 3)
    em100 = erdos_mean(100)
    assert em100.primes == 24
    assert em100.mean == 2.9583333333333335


def test_erdos_curve_matches_single_points():
    curve = erdos_mean_curve([100, 10])
    assert [r.x for r in curve] == [10, 100]
    assert curve[0].mean == erdos_mean(10).mean
    assert curve[1].mean == erdos_mean(100).mean


def test_erdos_curve_collapses_duplicates():
    assert len(erdos_mean_curve([100, 100, 10])) == 2


def test_erdos_curve_worker_invariant():
    a = erdos_mean_curve([10**3, 10**4], workers=1)
    b = erdos_mean_curve([10**3, 10**4], workers=3)
    assert [(r.x, r.primes, r.mean) for r in a] == [(r.x, r.primes, r.mean) for r in b]


class _SpyContext:
    """A fork context whose Pool records its process count and maps in
    the calling process, so nothing is started."""

    def __init__(self):
        self.processes = []

    def Pool(self, processes, initializer):
        self.processes.append(processes)
        return contextlib.nullcontext(types.SimpleNamespace(imap=map))


def test_map_chunks_pool_has_at_most_one_process_per_chunk(monkeypatch):
    spy = _SpyContext()
    monkeypatch.setattr(experiments, "multiprocessing", types.SimpleNamespace(get_context=lambda method: spy))
    # erdos at x = 10**6 has 16 blocks, cut into 16 runs at 64 workers
    want = erdos_mean_curve([10**6])
    assert erdos_mean_curve([10**6], workers=64) == want and spy.processes == [16]
    ps = [11, 13, 17, 19, 23]
    assert gap_tail_scan(ps, 2, workers=8) == gap_tail_scan(ps, 2) and spy.processes == [16, 5]
    # one chunk needs no pool
    assert gap_tail_scan([11], 2, workers=8) == gap_tail_scan([11], 2) and spy.processes == [16, 5]
    with pytest.raises(ParameterError):
        gap_tail_scan(ps, 2, workers=0)


def _signal_dispositions(args):
    chunk, = args
    return [(signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)) for _ in chunk]


def test_map_chunks_workers_leave_interrupts_to_the_parent():
    # pool workers ignore SIGINT and die on SIGTERM, the parent keeps its
    # handlers
    handlers = signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)
    got = list(experiments._map_chunks(_signal_dispositions, range(4), 1, 2))
    assert got == [(signal.SIG_IGN, signal.SIG_DFL)] * 4
    assert (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)) == handlers


@pytest.mark.parametrize("items, cap, workers, sizes", [
    (range(10), 4, 1, [4, 4, 2]),
    (range(10), 4, 2, [2, 2, 2, 2, 2]),
    (range(3), 64, 8, [1, 1, 1]),
    (range(0), 16, 2, []),
])
def test_map_chunks_cuts_and_keeps_item_order(monkeypatch, items, cap, workers, sizes):
    spy = _SpyContext()
    monkeypatch.setattr(experiments, "multiprocessing", types.SimpleNamespace(get_context=lambda method: spy))
    seen = []

    def fn(args):
        chunk, tag = args
        seen.append(len(chunk))
        return [(tag, item) for item in chunk]

    assert list(experiments._map_chunks(fn, items, cap, workers, "t")) == [("t", i) for i in items]
    assert seen == sizes


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_erdos_curve_points_inside_runs(workers):
    # the points cut [3, 700001] into 15 blocks, scanned in runs of 7, 3
    # or 1 blocks at 1, 2 or 8 workers, so points fall inside runs
    xs = [65535, 65536, 65537, 100003, 300000, 524288, 700001]
    primes = primes_in(3, max(xs))
    sums = np.cumsum(least_nonresidues(primes))
    want = []
    for x in xs:
        k = int(np.searchsorted(primes, x, side="right"))
        want.append((x, k, int(sums[k - 1]) / k))
    assert [(r.x, r.primes, r.mean) for r in erdos_mean_curve(xs, workers=workers)] == want


def test_erdos_validation():
    with pytest.raises(ParameterError):
        erdos_mean_curve([])
    with pytest.raises(ParameterError):
        erdos_mean_curve([2])
    with pytest.raises(ResourceError):
        erdos_mean_curve([ERDOS_X_BUDGET + 1])


def test_erdos_distance_shrinks():
    curve = erdos_mean_curve([100, 1000, 10**4, 10**5])
    gaps = [abs(r.mean - r.constant_partial) for r in curve]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


@pytest.mark.xfail(
    strict=True,
    reason="the x=100 mean is 2.958, just under the 3.0 floor this range check assumes",
)
def test_erdos_mean_documented_range():
    for x in (100, 1000, 10**4, 10**5, 10**6):
        assert 3.0 <= erdos_mean(x).mean <= 3.8


# --- Exceptional-set density ---------------------------------------------

def test_exceptional_pinned():
    ed = exceptional_density_sweep(10**5, 0, [2])[0]
    assert (ed.exceptional, ed.total_primes) == (4194, 8392)
    assert ed.density == 4194 / 8392
    assert not ed.u_exceeds_2q


def test_exceptional_h1_matches_direct_scan():
    ed = exceptional_density_sweep(200, 5, [1])[0]
    brute = [p for p in primes_in(200, 400).tolist() if oracles.first_nonresidue_after(p, 5) > 1]
    assert ed.exceptional == len(brute)
    assert ed.witness_list == tuple(brute)
    assert ed.total_primes == primes_in(200, 400).size


def test_exceptional_sweep_monotone_in_h():
    sweep = exceptional_density_sweep(1000, 0, [1, 2, 3, 5])
    counts = [d.exceptional for d in sweep]
    assert counts == [135, 66, 31, 15]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert all(d.total_primes == sweep[0].total_primes for d in sweep)


def test_exceptional_sweep_sorts_h():
    a = exceptional_density_sweep(500, 0, [3, 1])
    assert [d.h for d in a] == [1, 3]


def test_exceptional_witness_cap(monkeypatch):
    full = exceptional_density_sweep(10**3, 0, [1])[0]
    monkeypatch.setattr(experiments, "WITNESS_CAP", 5)
    capped = exceptional_density_sweep(10**3, 0, [1])[0]
    assert len(capped.witness_list) == 5
    assert capped.witness_list == full.witness_list[:5]
    assert capped.exceptional == full.exceptional


def test_exceptional_u_flag():
    assert exceptional_density_sweep(10, 100, [1])[0].u_exceeds_2q
    assert not exceptional_density_sweep(10, 20, [1])[0].u_exceeds_2q


def test_exceptional_worker_invariant():
    a = exceptional_density_sweep(10**5, 7, [2, 4], workers=1)
    b = exceptional_density_sweep(10**5, 7, [2, 4], workers=4)
    assert a == b


@pytest.mark.parametrize("workers", [1, 4])
def test_exceptional_many_u_equals_single_u_sweeps(workers):
    Q, hs = 10**5, [2, 4]
    us = [7, 250001, 7]
    many = exceptional_density_sweep(Q, us, hs, workers=workers)
    assert many == [d for u in us for d in exceptional_density_sweep(Q, u, hs)]


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_exceptional_runs_equal_one_direct_scan(monkeypatch, workers):
    # 16 blocks in runs of 8, 4 or 1; at u = 0 and h = 20 the first 100
    # witnesses span seven blocks, so the witness room carries across
    # blocks inside a run and across runs
    Q, us, hs, cap = 10**6, [0, 12345, 1999999], [1, 9, 20], 100
    primes = primes_in(Q, 2 * Q)
    want = []
    for u in us:
        d = first_nonresidues_after(primes, u, hs[-1])
        for h in hs:
            w = primes[d > h]
            want.append(ExceptionalDensity(Q, u, h, w.size, primes.size, w.size / primes.size,
                                           tuple(w[:cap].tolist()), u > 2 * Q))
    assert want[2].witness_list[-1] > Q + 6 * experiments.BLOCK_SPAN
    # forked workers inherit the patched cap
    monkeypatch.setattr(experiments, "WITNESS_CAP", cap)
    assert exceptional_density_sweep(Q, us, hs, workers) == want


def test_exceptional_resume_equals_full_run():
    Q = 10**5
    states = []
    full = exceptional_density_sweep(Q, 0, [2, 3], block_done=states.append)
    assert len(states) == len(exceptional_blocks(Q))
    assert states[-1].next_block == len(states)
    partial = states[0]
    assert partial.next_block == 1
    resumed = exceptional_density_sweep(Q, 0, [2, 3], resume=partial)
    assert resumed == full


def test_block_done_states_equal_a_direct_scan_of_the_merged_blocks():
    # at u = 1 the windows of h = 2 and 3 differ by 4, a square, so their
    # counts are equal; h = 40 has no hit and falls outside the prefix
    Q, u, hs = 10**5, 1, [2, 3, 40]
    states = []
    full = exceptional_density_sweep(Q, u, hs, block_done=states.append)
    primes = primes_in(Q, 2 * Q)
    d = np.array([oracles.first_nonresidue_after(p, u) for p in primes.tolist()])
    want = []
    for done, (_, hi) in enumerate(exceptional_blocks(Q), start=1):
        seen = primes <= hi
        found = [w for w in (primes[seen & (d > h)] for h in hs) if w.size]
        want.append(ExceptionalState(done, int(np.count_nonzero(seen)), tuple(w.size for w in found),
                                     tuple(tuple(w[:WITNESS_CAP].tolist()) for w in found)))
    assert len(states) == 2 and states == want
    assert states[0].counts[0] > WITNESS_CAP and len(states[-1].counts) == 2
    # a resume state may carry its counts and witnesses as any int array-likes
    as_arrays = states[0]._replace(counts=np.array(states[0].counts), witnesses=[list(w) for w in states[0].witnesses])
    assert exceptional_density_sweep(Q, u, hs, resume=as_arrays) == full


def test_exceptional_resume_from_final_state_scans_nothing():
    states = []
    full = exceptional_density_sweep(10**5, 0, [2], block_done=states.append)
    resumed = exceptional_density_sweep(10**5, 0, [2], resume=states[-1])
    assert resumed == full


def test_exceptional_validation():
    with pytest.raises(ParameterError):
        exceptional_density_sweep(5, 0, [1])
    with pytest.raises(ParameterError):
        exceptional_density_sweep(100, -1, [1])
    with pytest.raises(ParameterError):
        exceptional_density_sweep(100, 0, [])
    with pytest.raises(ParameterError):
        exceptional_density_sweep(100, 0, [0])
    with pytest.raises(ParameterError):
        exceptional_density_sweep(100, 0, [1], resume=ExceptionalState(99, 0, (), ()))
    # totals the scan cannot reach: 0 primes in [100, 200], or more than its 101 integers
    for total in (0, 102):
        with pytest.raises(ParameterError):
            exceptional_density_sweep(100, 0, [1], resume=ExceptionalState(1, total, (), ()))
    with pytest.raises(ParameterError):
        exceptional_density_sweep(100, 0, [1], resume=ExceptionalState(1, 21, (1,), ((2**70,),)))
    with pytest.raises(ParameterError):
        exceptional_density_sweep(100, [], [1])
    with pytest.raises(ParameterError):
        exceptional_density_sweep(100, [0, 1], [1], resume=ExceptionalState(0, 0, (), ()))
    with pytest.raises(ParameterError):
        exceptional_density_sweep(100, [0, 1], [1], block_done=print)


# --- Gap-tail scaling ----------------------------------------------------

def test_gap_tail_scan_p11():
    summary = gap_tail_scan([11], 2)
    row = summary.rows[0]
    assert (row.p, row.h, row.N_h, row.S_h) == (11, 2, 2, 6)
    assert row.c1 == pytest.approx(2 * 4 / math.sqrt(11))
    assert row.c2 == pytest.approx(6 * 2 / math.sqrt(11))
    assert summary.max_c1 == row.c1 and summary.max_c2 == row.c2


def test_gap_tail_scan_callable_h():
    summary = gap_tail_scan([11, 101, 997], h_quarter_power)
    assert [r.h for r in summary.rows] == [h_quarter_power(p) for p in (11, 101, 997)]
    for row in summary.rows:
        assert row.S_h >= row.h * row.N_h


def test_gap_tail_scan_oversized_h():
    row = gap_tail_scan([11], 20).rows[0]
    assert (row.N_h, row.S_h, row.c1, row.c2) == (0, 0, 0.0, 0.0)


def test_gap_tail_scan_worker_invariant():
    ps = [int(p) for p in primes_in(3, 2000).tolist()]
    a = gap_tail_scan(ps, h_quarter_power, workers=1)
    b = gap_tail_scan(ps, h_quarter_power, workers=3)
    assert a == b


def test_h_quarter_power():
    assert h_quarter_power(11) == 2
    assert h_quarter_power(10**4) == 10
    assert h_quarter_power(10**4 + 1) == 11
    # p**0.25 rounds 10**20 + 1 down to exactly 10**5
    assert h_quarter_power(10**20 + 1) == 10**5 + 1
    for k in range(2, 10**5, 97):
        for p in (k**4 - 1, k**4, k**4 + 1):
            h = h_quarter_power(p)
            assert (h - 1) ** 4 < p <= h**4


def test_gap_tail_scan_validation():
    with pytest.raises(ParameterError):
        gap_tail_scan([], 2)
    with pytest.raises(ParameterError):
        gap_tail_scan([10], 2)


# --- Square-free pair density --------------------------------------------

def test_squarefree_pair_density_small():
    sf = squarefree_pair_density(10, 5)
    assert sf.count == 4 and sf.pair_count == 2
    assert sf.expected == pytest.approx(feller_tornier_A(10**6) * 5)
    assert sf.ratio == pytest.approx(sf.pair_count / sf.expected)


def test_squarefree_pair_density_empty_window():
    assert squarefree_pair_density(3, 1).pair_count == 0


def test_squarefree_pair_density_medium():
    sf = squarefree_pair_density(10**6, 10**3)
    assert sf.pair_count == 324
    assert 0.9 < sf.ratio < 1.1


# --- Bound-chain trace ---------------------------------------------------

def _assert_chain(t):
    assert t.exceptional * (t.N_size - 1) ** 2 <= t.S_direct <= t.S_rough
    assert t.square_pair_sum <= t.square_pair_bound == t.T * t.rough_size
    assert t.nonsquare_pair_sum == t.S_rough - t.square_pair_sum
    assert t.exceptional_bound == t.S_direct / (t.N_size - 1) ** 2
    assert set(t.rhs_terms) == {
        "square_product_term",
        "charsum_main_term",
        "charsum_remainder_term",
    }
    assert all(v > 0 for v in t.rhs_terms.values())


def test_trace_large_h_pinned():
    t = proof_trace(1000, 0, 12, 0.15)
    assert t.regime == "large-h" and t.forced_regime
    assert t.class_mod4 == 3
    assert (t.N_size, t.T) == (3, 3)
    assert t.rough_size == rough_set(0.15, 2000).count == 667
    assert (t.exceptional, t.S_direct, t.S_rough) == (3, 391, 1841)
    members = rough_set(0.15, 2000).members.tolist()
    assert t.square_pair_sum == sum(1 for n in (3, 7, 11) for m in members if math.gcd(m, n * n) == 1)
    assert t.h_exceeds_log_q
    assert not t.u_exceeds_2q
    _assert_chain(t)


@pytest.mark.parametrize("u", [10**4, 2**70 + 3])
@pytest.mark.parametrize("h", [8, 9, 10])
def test_trace_small_h_matches_scalar_sums(u, h):
    Q, eta = 10**4, 0.15
    t = proof_trace(Q, u, h, eta)
    assert t.regime == "small-h"
    ns = [n for n in range(u + 1, u + h + 1) if n % 4 == 1]
    primes = primes_in(Q, 2 * Q).tolist()
    assert t.exceptional == sum(1 for p in primes if oracles.first_nonresidue_after(p, u) > h)
    assert t.S_direct == sum(sum(jacobi(n % p, p) for n in ns) ** 2 for p in primes)
    members = rough_set(eta, 2 * Q).members.tolist()
    assert t.S_rough == sum(sum(jacobi(n % m, m) for n in ns) ** 2 for m in members)
    pairs = oracles.square_product_pairs(ns)
    assert t.square_pair_sum == sum(1 for i, j in pairs for m in members if math.gcd(m, ns[i] * ns[j]) == 1)


def test_trace_small_h_pinned():
    t = proof_trace(10**4, 10**4, 8, 0.15)
    assert t.regime == "small-h" and not t.forced_regime
    assert t.class_mod4 == 1
    assert (t.N_size, t.T) == (2, 2)
    assert (t.S_direct, t.S_rough) == (2168, 11558)
    _assert_chain(t)


def test_trace_regime_threshold():
    # at u = 10**4 the cut sits at sqrt(u)/log u = 10.857..
    assert proof_trace(10**4, 10**4, 11, 0.15).regime == "large-h"
    assert proof_trace(10**4, 10**4, 10, 0.15).regime == "small-h"


def _window_set(u, h):
    """N of proof_trace, built from its definition: the larger class mod 4
    (ties to 1) of the square-free window in the large-h regime, every
    n = 1 mod 4 of the window in the small-h regime."""
    window = range(u + 1, u + h + 1)
    if u >= 3 and h < math.sqrt(u) / math.log(u):
        return "small-h", [n for n in window if n % 4 == 1]
    ones, threes = ([n for n in window if n % 4 == r and oracles.is_squarefree_slow(n)] for r in (1, 3))
    return "large-h", threes if len(threes) > len(ones) else ones


@given(
    st.integers(min_value=100, max_value=3000),
    st.one_of(st.integers(min_value=0, max_value=10**4), st.integers(min_value=0, max_value=10**6),
              st.integers(min_value=2**70, max_value=2**70 + 99)),
    st.integers(min_value=8, max_value=60),
    st.sampled_from([0.15, 0.2, 0.3, 0.45]),
)
@example(1000, 0, 12, 0.15)
@example(10**4, 10**4, 11, 0.15)
@example(10**4, 10**4, 10, 0.15)
@example(10**4, 2**70 + 3, 9, 0.15)
@example(3000, 10**6, 60, 0.3)
@settings(max_examples=60, deadline=None)
def test_trace_square_pairs_match_oracle(Q, u, h, eta):
    # T and square_pair_sum against every ordered pair of N tested for a
    # square product, and each pair's rough members counted by gcd
    regime, ns = _window_set(u, h)
    assume(len(ns) >= 2)
    t = proof_trace(Q, u, h, eta)
    assert (t.regime, t.N_size) == (regime, len(ns))
    pairs = oracles.square_product_pairs(ns)
    members = rough_set(eta, 2 * Q).members.tolist()
    assert t.T == len(pairs)
    assert t.square_pair_sum == sum(1 for i, j in pairs for m in members if math.gcd(m, ns[i] * ns[j]) == 1)
    assert t.square_pair_bound == len(pairs) * len(members)


def _lane_sums(ns, moduli):
    """The squared sums over a list of moduli by the lanes route, one
    _fixed_numerator call per member: sum over m of (sum over n of
    (n|m))**2, and the count of nonzero (n|m)."""
    acc, nonzero = np.zeros(moduli.size, dtype=np.int64), 0
    for n in ns:
        symbols = residue_scan._fixed_numerator(n, moduli)
        acc += symbols
        nonzero += int(np.count_nonzero(symbols))
    return int((acc * acc).sum()), nonzero


def _traced(monkeypatch, Q, u, h, eta):
    """proof_trace(Q, u, h, eta) with the set N it used."""
    seen = []
    real = experiments._direct_rows

    def spy(ns, primes):
        seen.append(list(ns))
        return real(ns, primes)

    monkeypatch.setattr(experiments, "_direct_rows", spy)
    t = proof_trace(Q, u, h, eta)
    monkeypatch.setattr(experiments, "_direct_rows", real)
    return t, seen[0]


@pytest.mark.parametrize("cost", [0, 32])
@settings(deadline=None, max_examples=30)
@example(case=(40000, 0, 30, 0.1))  # a rough mask of 80,001 flags, two windows
@example(case=(40000, 10**6, 40, 0.15))  # small h
@example(case=(10**6, 12345, 9, 0.1))  # 70,435 primes, two windows of them
@example(case=(1000, 2**70 + 3, 9, 0.15))  # members past int64
@given(case=st.tuples(
    st.integers(10, 3000),
    st.one_of(st.integers(0, 60), st.integers(10**4, 10**12)),
    st.integers(2, 80),
    st.sampled_from([0.1, 0.15, 0.3]),
))
def test_trace_sums_by_ranges_equal_the_lanes_route(cost, case):
    Q, u, h, eta = case
    try:
        check_trace(Q, u, h, eta)
    except ParameterError:
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residue_scan, "_TABLE_COST", cost)
        try:
            t, ns = _traced(mp, Q, u, h, eta)
        except DegenerateSetError:
            assume(False)
        rough = rough_set(eta, 2 * Q)
        s_direct, _ = _lane_sums(ns, primes_in(Q, 2 * Q))
        s_rough, square_pair_sum = _lane_sums(ns, rough.members)
    assert (t.N_size, t.T, t.rough_size) == (len(ns), len(ns), rough.count)
    assert (t.S_direct, t.S_rough, t.square_pair_sum) == (s_direct, s_rough, square_pair_sum)
    assert t.nonsquare_pair_sum == s_rough - square_pair_sum
    assert t.square_pair_bound == len(ns) * rough.count
    assert t.exceptional_bound == s_direct / (len(ns) - 1) ** 2
    assert t.exceptional == int(np.count_nonzero(first_nonresidues_after(primes_in(Q, 2 * Q), u, h) > h))
    _assert_chain(t)


def test_trace_and_partition_never_list_rough_members(monkeypatch):
    def refuse(self):
        raise AssertionError("RoughSet.members listed")

    monkeypatch.setattr(sieve.RoughSet, "members", property(refuse))
    for cost in (0, 32):
        monkeypatch.setattr(residue_scan, "_TABLE_COST", cost)
        proof_trace(40000, 0, 30, 0.1)
        proof_trace(40000, 10**6, 40, 0.15)
        rough_partition(0.1, 10**5, 1000003)
        rough_partition(0.1, 10**5, 10007)


def test_direct_sums_take_one_remainder_per_prime(monkeypatch):
    # proof_trace(10**5, 0, 3200, 0.1): one m mod l per odd prime l of the
    # members of N over the 8,392 primes of [Q, 2Q], not one per member
    # and factor
    window = sieve.squarefree_in_interval(0, 3200)
    n1, n3 = window.members_mod4(1), window.members_mod4(3)
    ns = (n3 if n3.size > n1.size else n1).tolist()
    primes = primes_in(10**5, 2 * 10**5)
    want = _lane_sums(ns, primes)  # builds every Legendre table needed
    calls = []
    real = residue_scan._remainder

    def spy(x, k, out):
        calls.append(k)
        return real(x, k, out)

    monkeypatch.setattr(residue_scan, "_remainder", spy)
    assert experiments._squared_symbol_sums(experiments._direct_rows(ns, primes)) == want
    odd_primes = {l for n in ns for l in oracles.factorize(n) if l != 2}
    assert sorted(calls) == sorted(odd_primes)
    assert len(calls) == 315


def test_trace_u_past_range_is_flagged():
    t = proof_trace(20, 50, 10, 0.3)
    assert t.u_exceeds_2q
    assert any("exceeds 2Q" in n for n in t.notes)
    _assert_chain(t)


def test_trace_validation():
    with pytest.raises(ParameterError):
        proof_trace(1000, 0, 1000, 0.15)
    with pytest.raises(ParameterError):
        proof_trace(100, 0, 5, 0.95)
    with pytest.raises(ParameterError):
        proof_trace(1000, 0, 12, 0.08)
    with pytest.raises(DegenerateSetError):
        proof_trace(100, 0, 2, 0.3)


def test_check_erdos_raises_like_erdos_mean_curve():
    for xs in [[], [2], [100, 1]]:
        with pytest.raises(ParameterError):
            check_erdos(xs)
        with pytest.raises(ParameterError):
            erdos_mean_curve(xs)
    check_erdos([3])


def test_gap_tail_scan_allocates_nothing_p_sized_once_warm():
    # Fresh p-sized temporaries for every prime of an ascending scan were
    # a storm of page faults; the kernel's warm buffers must absorb them.
    ps = primes_in(120000, 121000).tolist()
    assert len(ps) == 88
    gap_tail_scan(ps[-1:], h_quarter_power)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gap_tail_scan(ps, h_quarter_power, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 512 * 1024


def test_check_exceptional_raises_like_exceptional_density_sweep():
    for Q, u, hs in [(5, 0, [1]), (100, -1, [1]), (100, 0, []), (100, 0, [0, 3])]:
        with pytest.raises(ParameterError):
            check_exceptional(Q, u, hs)
        with pytest.raises(ParameterError):
            exceptional_density_sweep(Q, u, hs)
    check_exceptional(10, 0, [50])


def test_q_range_budget_before_blocks(monkeypatch):
    monkeypatch.setattr(sieve, "SPAN_BUDGET", 10**4)
    for call in (lambda: exceptional_blocks(10**4 + 1), lambda: h_multiples(10**4 + 1, 1),
                 lambda: check_exceptional(10**4 + 1, 0, [5]), lambda: exceptional_density_sweep(10**4 + 1, 0, [5])):
        with pytest.raises(ResourceError):
            call()
    assert exceptional_blocks(10**4)[0][0] == 10**4
    monkeypatch.setattr(sieve, "MAX_ENDPOINT", 2 * 10**4 - 1)
    with pytest.raises(RangeError):
        exceptional_blocks(10**4)


def test_check_trace_raises_like_proof_trace():
    # the last three break 2 <= (2Q)**eta < Q
    for args in [(9, 0, 2, 0.3), (1000, -1, 12, 0.15), (1000, 0, 0, 0.15), (1000, 0, 1000, 0.15),
                 (1000, 0, 12, 1.5), (1000, 0, 12, 0.0), (1000, 0, 12, 0.08), (100, 25, 2, 1e-300),
                 (10, 100, 2, 0.9)]:
        with pytest.raises(ParameterError):
            check_trace(*args)
        with pytest.raises(ParameterError):
            proof_trace(*args)
    check_trace(1000, 0, 12, 0.15)


def test_trace_lane_budget(monkeypatch):
    # proof_trace(1000, 0, 12, 0.15) bounds its lanes by (12 // 4 + 1) * 3000
    def no_sieve(*args):
        raise AssertionError("sieved before the lane budget was checked")

    for name in ("primes_in", "rough_set", "squarefree_in_interval"):
        monkeypatch.setattr(experiments, name, no_sieve)
    monkeypatch.setattr(residue_scan, "SYMBOL_LANE_BUDGET", 11999)
    for call in (check_trace, proof_trace):
        with pytest.raises(ResourceError, match="symbol lanes"):
            call(1000, 0, 12, 0.15)
    monkeypatch.setattr(residue_scan, "SYMBOL_LANE_BUDGET", 12000)
    check_trace(1000, 0, 12, 0.15)
    monkeypatch.undo()
    # Q = 10**5, h = 3200 bounds its lanes by 801 * 3 * 10**5, inside 2**30
    assert residue_scan.SYMBOL_LANE_BUDGET == 2**30
    check_trace(10**5, 0, 3200, 0.1)
    with pytest.raises(ResourceError):
        check_trace(10**6, 0, 200000, 0.1)


def test_h_multiples():
    assert h_multiples(100000, 3) == [12, 24, 36]
    with pytest.raises(ParameterError):
        h_multiples(100000, 0)
    with pytest.raises(ParameterError):
        h_multiples(5, 2)
    # ceil(log 10) = 3; the grid may reach 2Q = 20 but not pass it
    assert h_multiples(10, 6)[-1] == 18
    for k in [7, 3000000]:
        with pytest.raises(ParameterError):
            h_multiples(10, k)
