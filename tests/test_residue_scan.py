import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qrstats import residue_scan, sieve
from qrstats.arith import jacobi, jacobi_many
from qrstats.charsums import burgess_sweep, incomplete_char_sum, rough_partition
from qrstats.errors import ParameterError, ResourceError, ScanError
from qrstats.experiments import _gap_tail_row, proof_trace
from qrstats.residue_scan import (
    _KERNEL,
    _fixed_numerator,
    _gap_tail_of,
    check_crt,
    check_tail,
    crt_adversarial_u,
    first_nonresidue_after,
    first_nonresidues_after,
    gap_stats,
    gap_tail,
    least_nonresidue,
    least_nonresidues,
    longest_qr_run,
    residue_map,
)
from qrstats.sieve import primes_in

import oracles
from oracles import classify_residue, legendre_by_squares, longest_run_brute, squares_mod

small_primes = st.sampled_from([int(p) for p in primes_in(3, 500).tolist()])


def test_residue_map_p7():
    rm = residue_map(7)
    assert rm.bools().tolist() == [True, True, True, False, True, False, False]
    rm2 = residue_map(7, zero_as_residue=False)
    assert not rm2.bools()[0]
    assert rm2.bools().tolist()[1:] == rm.bools().tolist()[1:]


def test_residue_map_popcount():
    # exactly (p-1)/2 nonzero residues for an odd prime
    for p in (3, 10007):
        for zero in (True, False):
            bits = residue_map(p, zero_as_residue=zero).bools()
            assert bits.size == p and bits[0] == zero
            assert np.count_nonzero(bits[1:]) == (p - 1) // 2


@given(small_primes)
def test_residue_map_matches_classifier(p):
    bits = residue_map(p).bools()
    for n in range(p):
        assert bits[n] == classify_residue(n, p, True)


def test_residue_map_validates():
    with pytest.raises(ParameterError):
        residue_map(8)
    with pytest.raises(ParameterError):
        residue_map(1)
    with pytest.raises(ResourceError):
        residue_map(2**31 + 1)


def test_least_nonresidue_known_values():
    assert least_nonresidue(3) == 2
    assert least_nonresidue(7) == 3
    assert least_nonresidue(23) == 5
    assert least_nonresidue(71) == 7
    assert least_nonresidue(311) == 11


def test_one_prime_calls_validate_like_batch_scans():
    for bad in (4, 1, -3, 2):
        with pytest.raises(ParameterError, match=f"^need an odd p >= 3, got {bad}$"):
            least_nonresidue(bad)
        with pytest.raises(ParameterError, match=f"^need an odd p >= 3, got {bad}$"):
            first_nonresidue_after(bad, 0)
    with pytest.raises(ParameterError):
        first_nonresidue_after(7, -1)
    with pytest.raises(ScanError, match=r"^no non-residue found below 9; is p=9 prime\?$"):
        least_nonresidue(9)
    with pytest.raises(ScanError, match=r"^no non-residue within 25 steps after u=3; is p=25 prime\?$"):
        first_nonresidue_after(25, 3)


@given(small_primes)
def test_least_nonresidue_matches_oracle_scan(p):
    expect = next(n for n in range(2, p) if legendre_by_squares(n, p) == -1)
    assert least_nonresidue(p) == expect


def test_gap_stats_p11():
    gs = gap_stats(11)
    assert gs.n_seq.tolist() == [2, 6, 7, 8, 10]
    assert gs.deltas.tolist() == [4, 1, 1, 2]


@given(small_primes)
def test_gap_stats_structure(p):
    gs = gap_stats(p)
    assert gs.n_seq.size == (p - 1) // 2
    assert gs.deltas.size == gs.n_seq.size - 1
    assert (gs.deltas >= 1).all()
    assert int(gs.deltas.sum()) == int(gs.n_seq[-1] - gs.n_seq[0])


def test_gap_tail_of_matches_gap_tail_below_3000():
    # p = 1 mod 4 ends its classes in a residue run up to p-1, which is
    # no gap; p = 3 mod 4 ends in the non-residue p-1
    classes = set()
    for p in primes_in(3, 2999).tolist():
        stats = gap_stats(p)
        widest = int(stats.deltas.max()) if stats.deltas.size else 0
        for h in [*range(1, widest + 3), p]:
            assert _gap_tail_of(p, h) == gap_tail(stats, h), (p, h)
        classes.add(p % 4)
    assert classes == {1, 3}
    assert not np.shares_memory(gap_stats(2999).n_seq, _KERNEL.spare)


def test_gap_tail_p11():
    gs = gap_stats(11)
    assert gap_tail(gs, 1) == (4, 8)
    assert gap_tail(gs, 2) == (2, 6)
    assert gap_tail(gs, 4) == (1, 4)
    assert gap_tail(gs, 5) == (0, 0)
    with pytest.raises(ParameterError):
        gap_tail(gs, 0)


@given(small_primes, st.integers(min_value=1, max_value=50))
def test_gap_tail_sum_dominates_count(p, h):
    n_h, s_h = gap_tail(gap_stats(p), h)
    assert s_h >= h * n_h


def test_first_nonresidue_after_known_values():
    assert first_nonresidue_after(11, 2) == 4
    assert first_nonresidue_after(7, 6) == 4
    assert first_nonresidue_after(7, 0) == 3


@given(small_primes, st.integers(min_value=0, max_value=10**6))
def test_first_nonresidue_after_periodic_and_correct(p, u):
    d = first_nonresidue_after(p, u)
    assert 1 <= d <= p
    assert legendre_by_squares(u + d, p) == -1
    for step in range(1, d):
        assert legendre_by_squares(u + step, p) != -1
    assert first_nonresidue_after(p, u % p) == d


@given(small_primes)
def test_first_nonresidue_at_zero_is_least_nonresidue(p):
    assert first_nonresidue_after(p, 0) == least_nonresidue(p)


def test_least_nonresidues_matches_scalar_below_1e5():
    # the prime steps against the oracle's scan over every n, for every
    # odd prime below 10**5
    P = primes_in(3, 10**5)
    assert least_nonresidues(P).tolist() == [oracles.least_nonresidue(p) for p in P.tolist()]


def test_least_nonresidues_past_int64():
    p = 2**64 - 59  # the largest prime below 2**64
    assert least_nonresidues([p]).tolist() == [least_nonresidue(p)] == [oracles.least_nonresidue(p)]


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**80), st.integers(min_value=1, max_value=40))
def test_first_nonresidues_after_matches_scalar(u, cap):
    P = primes_in(3, 3000)
    want = [min(oracles.first_nonresidue_after(p, u), cap + 1) for p in P.tolist()]
    assert first_nonresidues_after(P, u, cap).tolist() == want


def test_batched_scans_validate_like_scalar(monkeypatch):
    with pytest.raises(ParameterError):
        least_nonresidues(np.array([7, 4]))
    with pytest.raises(ParameterError):
        least_nonresidues(np.array([1]))
    with pytest.raises(ParameterError, match="got 4$"):
        least_nonresidues([2**70 + 1, 4])
    with pytest.raises(ParameterError):
        first_nonresidues_after(np.array([7]), -1)
    assert least_nonresidues(np.array([], dtype=np.int64)).size == 0
    # every lane through numpy steps, then every lane through the scalar
    # jacobi: both routes give the oracle's values and the same errors
    P = primes_in(3, 10**5)
    least = [oracles.least_nonresidue(p) for p in P.tolist()]
    Q = primes_in(3, 3000)
    big = 2**64 - 59  # the largest prime below 2**64
    first = {u: [oracles.first_nonresidue_after(p, u) for p in Q.tolist()] for u in (0, 12345, 2**64 + 5, 3**50)}
    for lanes in (0, 10**9):
        monkeypatch.setattr(residue_scan, "_SCALAR_LANES", lanes)
        assert least_nonresidues(P).tolist() == least
        for u, want in first.items():
            for cap in (None, 1, 7, 40):
                got = first_nonresidues_after(Q, u, cap).tolist()
                assert got == [h if cap is None else min(h, cap + 1) for h in want], (lanes, u, cap)
        assert least_nonresidues([big]).tolist() == [oracles.least_nonresidue(big)]
        for u in (0, 2**70):
            assert first_nonresidues_after([big, 7], u).tolist() == [
                oracles.first_nonresidue_after(big, u), oracles.first_nonresidue_after(7, u)]
        with pytest.raises(ScanError, match=r"^no non-residue found below 9; is p=9 prime\?$"):
            least_nonresidues(np.array([7, 9]))
        with pytest.raises(ScanError, match=r"^no non-residue within 25 steps after u=3; is p=25 prime\?$"):
            first_nonresidues_after(np.array([25]), 3)


def test_longest_qr_run_small_values():
    assert longest_qr_run(7, True) == 3
    assert longest_qr_run(7, False) == 2
    assert longest_qr_run(3, True) == 2
    assert longest_qr_run(3, False) == 1


@given(small_primes, st.booleans())
def test_longest_qr_run_matches_brute_force(p, zero_as_residue):
    assert longest_qr_run(p, zero_as_residue) == longest_run_brute(p, zero_as_residue)


@given(small_primes)
def test_longest_qr_run_cyclic_dominates_interior(p):
    assert longest_qr_run(p, True) >= longest_qr_run(p, False)


# The widest residue run strictly between the first and last non-residue
# is 0 (3, 5), 1 (7), 2 (13), 3 (11), 6 (67), 7 (83), 14 (1607) and
# 15 (2543), the edges of each word width.  Past 10**5: the widest run of
# 100207 (22) and 100363 (15) starts and ends off an 8-byte boundary, and
# the cyclic run of 102001 (45) and 100799 (17) wraps through 0.
RUN_PRIMES = {3: 0, 5: 0, 7: 1, 13: 2, 11: 3, 67: 6, 83: 7, 1607: 14, 2543: 15,
              100207: 22, 100363: 15, 102001: 22, 100799: 13}


def _runs_brute(marks, lo, hi):
    """The lengths of the maximal False runs of marks[lo:hi], one by one."""
    runs, length = [], 0
    for flag in marks[lo:hi].tolist() + [True]:
        if not flag:
            length += 1
        elif length:
            runs.append(length)
            length = 0
    return sorted(runs)


@pytest.mark.parametrize("p", sorted(RUN_PRIMES))
def test_residue_runs_finds_every_run_of_each_width(p):
    marks = _KERNEL.square_marks(p).copy()
    nonres = np.flatnonzero(marks[1:]) + 1
    lo, hi = int(nonres[0]), int(nonres[-1]) + 1
    runs = _runs_brute(marks, lo, hi)
    assert max(runs, default=0) == RUN_PRIMES[p]
    for least in range(1, 24):
        got = residue_scan._residue_runs(marks, lo, hi, least)
        assert sorted(got.tolist()) == [r for r in runs if r >= least], least


@pytest.mark.parametrize("p", sorted(RUN_PRIMES))
def test_longest_qr_run_drops_word_width_only_when_no_run_fits(p, monkeypatch):
    # 8-byte words answer every widest run of 15 or more in one pass
    asked = []

    def spy(marks, lo, hi, least):
        asked.append(least)
        return finder(marks, lo, hi, least)

    finder = residue_scan._residue_runs
    monkeypatch.setattr(residue_scan, "_residue_runs", spy)
    widest = RUN_PRIMES[p]
    passes = next(i + 1 for i, least in enumerate((15, 7, 3, 1, 0)) if least <= widest)
    for flag in (True, False):
        asked.clear()
        assert longest_qr_run(p, flag) == longest_run_brute(p, flag)
        assert asked == [15, 7, 3, 1][:passes]
    # the cyclic run wraps through 0 past the widest run inside 1..p-1
    assert (longest_qr_run(p) > widest) == (p in (3, 5, 7, 13, 102001, 100799))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([int(p) for p in primes_in(10**3, 3 * 10**4).tolist()]), st.booleans())
def test_longest_qr_run_matches_brute_force_past_15(p, zero_as_residue):
    assert longest_qr_run(p, zero_as_residue) == longest_run_brute(p, zero_as_residue)


# --- the squaring kernel -------------------------------------------------

def _kernel_order():
    """3, 5, 7, then large, small, large: the kernel's buffers grow past a
    power of two (8192, 16384), are reused for smaller p with stale
    entries beyond p, and grow again."""
    rng = random.Random(5)
    large = primes_in(4000, 17000).tolist()
    small = primes_in(11, 400).tolist()
    return [3, 5, 7, 8191, *rng.sample(small, 2), 8209, *rng.sample(large, 2), 16411,
            *rng.sample(small, 2), *rng.sample(large, 2), 13]


def test_kernel_tables_match_oracles_in_any_order():
    for p in _kernel_order():
        squares = squares_mod(p)
        nonres = [n for n in range(1, p) if n not in squares]
        gs = gap_stats(p)
        assert gs.n_seq.tolist() == nonres
        assert gs.deltas.tolist() == np.diff(nonres).tolist()
        assert gs.n_seq.dtype == gs.deltas.dtype == np.int64
        for flag in (True, False):
            want = [classify_residue(n, p, flag) for n in range(p)]
            rm = residue_map(p, flag)
            assert rm.bools().tolist() == want
            assert rm.packed.tobytes() == np.packbits(want).tobytes()
            assert longest_qr_run(p, flag) == longest_run_brute(p, flag)
        for h in (1, 2, 5, 9):
            assert _gap_tail_row(p, h)[2:4] == gap_tail(gs, h)


def _marks_want(p):
    want = np.ones(p, dtype=bool)
    want[list(squares_mod(p))] = False
    return want


def _chunk_edge_primes(chunk):
    """For each offset -1, 0 and 1, the least prime p whose (p-1)/2 is
    c * chunk + offset for some c >= 1."""
    found = []
    for offset in (-1, 0, 1):
        c = 1
        while not sieve.is_prime_u64(2 * (c * chunk + offset) + 1):
            c += 1
        found.append(2 * (c * chunk + offset) + 1)
    return found


def _fresh_squares(monkeypatch, cap=None):
    """Start the shared squares table empty, under an optional smaller
    cap, for this test only."""
    monkeypatch.setattr(residue_scan, "_square_table", np.empty(0, dtype=np.uint64))
    if cap is not None:
        monkeypatch.setattr(residue_scan, "_SQUARES_CAP", cap)


@pytest.mark.parametrize("chunk", [None, 64])
def test_kernel_marks_at_chunk_edges_in_any_order(monkeypatch, chunk):
    # (p-1)/2 just below, on and just past a multiple of the chunk size,
    # for the real chunk (131071, 65537, 65539) and a small one (127, 257, 131)
    if chunk is not None:
        monkeypatch.setattr(residue_scan, "_SQUARE_CHUNK", chunk)
    _fresh_squares(monkeypatch)
    edges = _chunk_edge_primes(residue_scan._SQUARE_CHUNK)
    primes = edges + [3, 5, 7, 8191, 1021]
    want = {p: _marks_want(p) for p in primes}
    rng = random.Random(21)
    for _ in range(2):
        for p in rng.sample(primes, len(primes)):
            assert np.array_equal(_KERNEL.square_marks(p), want[p]), p
    assert residue_scan._square_table.size <= residue_scan._SQUARES_CAP


@pytest.mark.parametrize("cap, chunk", [(1024, None), (1000, 256), (1024, 256)])
def test_kernel_marks_past_the_squares_cap(monkeypatch, cap, chunk):
    # primes near 10**4 have (p-1)/2 past the cap: chunks inside the
    # table, across its end and wholly past it square their own k
    if chunk is not None:
        monkeypatch.setattr(residue_scan, "_SQUARE_CHUNK", chunk)
    _fresh_squares(monkeypatch, cap)
    primes = [9973, 10007, 2003, 2053, 12289, 1009, 13]
    for p in primes + primes[::-1]:
        assert np.array_equal(_KERNEL.square_marks(p), _marks_want(p)), p
        assert 0 < residue_scan._square_table.size <= cap
    assert residue_scan._square_table.size == cap
    assert np.array_equal(residue_scan._square_table, np.arange(1, cap + 1, dtype=np.uint64) ** 2)


def test_squares_table_grows_never_shrinks_and_is_read_only(monkeypatch):
    # p up and down: the table grows by doubling to cover (p-1)/2, is
    # only sliced for smaller p, and stays within the cap
    _fresh_squares(monkeypatch)
    assert residue_scan._square_table.size == 0
    sizes = []
    for p in [101, 4099, 13, 20011, 1009, 65537, 3, 20011, 257]:
        assert np.array_equal(_KERNEL.square_marks(p), _marks_want(p)), p
        sizes.append(residue_scan._square_table.size)
    assert sizes == [64, 4096, 4096, 16384, 16384, 32768, 32768, 32768, 32768]
    table = residue_scan._square_table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0
    assert residue_scan._SQUARES_CAP * table.itemsize == 8 << 20


def test_gap_stats_never_aliases_the_kernel():
    gs = gap_stats(10007)
    n_seq, deltas = gs.n_seq.copy(), gs.deltas.copy()
    for p in (10009, 3, 20011):
        gap_stats(p)
        longest_qr_run(p)
        longest_qr_run(p, zero_as_residue=False)
        residue_map(p)
        _gap_tail_row(p, 4)
        _gap_tail_row(10037, 4)
    assert np.array_equal(gs.n_seq, n_seq)
    assert np.array_equal(gs.deltas, deltas)
    for buffer in (_KERNEL.marks, _KERNEL.spare):
        assert not np.shares_memory(gs.n_seq, buffer)
        assert not np.shares_memory(gs.deltas, buffer)


def test_kernel_buffers_are_per_thread(monkeypatch):
    # the symbol tables too, through a cache that holds about two of them
    monkeypatch.setattr(residue_scan, "_TABLE_COST", 10**18)
    monkeypatch.setattr(residue_scan, "_TABLE_CACHE_BUDGET", 30000)
    primes = [10007, 4099, 20011, 8191, 12289, 3001]
    m = np.arange(3000)

    def values(p):
        return longest_qr_run(p), gap_stats(p).deltas.sum(), _modulus_symbols(m, p).tolist()

    want = {p: values(p) for p in primes}
    wrong = []
    # the threads race to grow one shared squares table from empty, and
    # 20011 runs past a cap of 8192 entries
    _fresh_squares(monkeypatch, 8192)

    def work(order):
        for _ in range(15):
            for p in order:
                if values(p) != want[p]:
                    wrong.append(p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(primes[i:] + primes[:i],)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert residue_scan._square_table.size == 8192


def test_crt_small_example():
    u = crt_adversarial_u([(3, 1), (5, 2), (7, 6)])
    assert u == 97
    assert u % 3 == 1 and u % 5 == 2 and u % 7 == 6


def test_crt_single_congruence():
    assert crt_adversarial_u([(11, 4)]) == 4


def test_crt_windows_transfer():
    # gluing per-prime u_i preserves each first-non-residue offset
    pairs = [(11, 2), (13, 5), (17, 9)]
    u = crt_adversarial_u(pairs)
    for l, r in pairs:
        assert first_nonresidue_after(l, u) == first_nonresidue_after(l, r)


@given(st.permutations([3, 5, 7, 11, 13])
       .flatmap(lambda ps: st.tuples(st.just(ps), st.tuples(*[st.integers(0, p - 1) for p in ps]))))
def test_crt_postcondition_randomized(pairs_data):
    moduli, residues = pairs_data
    pairs = list(zip(moduli, residues))
    u = crt_adversarial_u(pairs)
    product = 3 * 5 * 7 * 11 * 13
    assert 0 <= u < product
    for l, r in pairs:
        assert u % l == r


@given(st.lists(
    st.tuples(st.sampled_from([int(p) for p in primes_in(3, 200).tolist()]), st.integers(0, 10**6)),
    min_size=1,
    max_size=8,
    unique_by=lambda pair: pair[0],
))
def test_crt_windows_transfer_randomized(pairs):
    u = crt_adversarial_u(pairs)
    for l, r in pairs:
        assert first_nonresidue_after(l, u) == first_nonresidue_after(l, r % l)


def test_crt_validates():
    with pytest.raises(ParameterError):
        crt_adversarial_u([])
    with pytest.raises(ParameterError):
        crt_adversarial_u([(3, 1), (3, 2)])
    with pytest.raises(ParameterError):
        crt_adversarial_u([(4, 1)])
    big = [int(p) for p in primes_in(3, 110).tolist()]
    with pytest.raises(ResourceError):
        crt_adversarial_u([(p, 1) for p in big])


def test_check_tail_raises_like_gap_tail():
    stats = gap_stats(11)
    for h in [0, -4]:
        with pytest.raises(ParameterError):
            check_tail(h)
        with pytest.raises(ParameterError):
            gap_tail(stats, h)
    check_tail(1)


def test_check_crt_raises_like_crt_adversarial_u():
    big = [(18446744073709551557, 1), (18446744073709551533, 2)]
    cases = [([], ParameterError), ([(3, 1), (3, 2)], ParameterError), ([(4, 1)], ParameterError),
             ([(1, 0)], ParameterError), (big, ResourceError)]
    for pairs, error in cases:
        with pytest.raises(error):
            check_crt(pairs)
        with pytest.raises(error):
            crt_adversarial_u(pairs)
    check_crt([(3, 1), (5, 2)])


def test_first_nonresidue_after_checks_its_window():
    # dup's precondition: the same check_window as squarefree_in_interval
    with pytest.raises(ParameterError):
        first_nonresidue_after(11, -1)


# --- symbols from Legendre tables ----------------------------------------

# primes = 1 mod 4 (5, 13, 17, 29, 101, 1009, 1013) and = 3 mod 4 (3, 7,
# 11, 19, 23, 31, 103, 1019)
_TABLE_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101, 103, 1009, 1013, 1019]


@st.composite
def _fixed_sides(draw, odd):
    """0, 1, or a product of prime powers up to 2**20: repeated factors,
    squares and, unless odd, powers of 2."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([1] if odd else [0, 1]))
    primes = _TABLE_PRIMES if odd else [2, *_TABLE_PRIMES]
    n = 1
    for l, e in draw(st.lists(st.tuples(st.sampled_from(primes), st.integers(1, 5)), max_size=4)):
        if n * l**e <= 1 << 20:
            n *= l**e
    return n


def _lanes(extra, fixed, odd):
    """Random lanes plus 1 (the modulus 1) and multiples of each odd prime
    factor of fixed (symbol 0)."""
    factors = [l for l in oracles.factorize(fixed) if l != 2] if fixed else []
    special = [1] + [l * k for l in factors for k in (1, 3, 5)] + [fixed | 1]
    lanes = special + extra
    return np.array([2 * m + 1 if odd and m % 2 == 0 else m for m in lanes], dtype=np.int64)


def _outcome(fn, *args):
    """fn(*args) as a list, or the type and message of its error."""
    try:
        return fn(*args).tolist()
    except Exception as exc:
        return type(exc), str(exc)


def _modulus_symbols(m, q):
    """(m|q) over int64 lanes m >= 0 by the fixed-modulus route of the
    rough partition: the cost rule decides for m.size lanes, and one
    window from 0 keeps the lanes of m."""
    keep = np.zeros(int(m.max()) + 1, dtype=bool)
    keep[m] = True
    return residue_scan._masked_symbols(q, False, residue_scan._table_route(q, m.size, False), 0, keep)[m]


def _spy_on_jacobi_many(mp):
    calls = []

    def spy(m, q):
        calls.append((m, q))
        return jacobi_many(m, q)

    mp.setattr(residue_scan, "jacobi_many", spy)
    return calls


@pytest.mark.parametrize("cost", [0, 10**18])
@settings(deadline=None)
@given(a=_fixed_sides(odd=False), more=st.lists(st.integers(1, 10**6), max_size=40))
def test_fixed_numerator_matches_scalar_jacobi(cost, a, more):
    m = _lanes(more, a, odd=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residue_scan, "_TABLE_COST", cost)
        calls = _spy_on_jacobi_many(mp)
        got = _fixed_numerator(a, m).tolist()
    assert got == [jacobi(a, int(q)) for q in m]
    # tables for every a >= 1 once the cost rule allows them, never for
    # a = 0; at cost 0 only for a = 1, whose tables cost nothing
    assert bool(calls) == (a == 0 or (cost == 0 and a != 1))


@pytest.mark.parametrize("cost", [0, 10**18])
@settings(deadline=None)
@given(q=_fixed_sides(odd=True), more=st.lists(st.integers(0, 10**6), max_size=40))
def test_fixed_modulus_matches_scalar_jacobi(cost, q, more):
    m = np.concatenate(([0], _lanes(more, q, odd=False)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residue_scan, "_TABLE_COST", cost)
        calls = _spy_on_jacobi_many(mp)
        got = _modulus_symbols(m, q).tolist()
    assert got == [jacobi(int(x), q) for x in m]
    assert bool(calls) == (cost == 0 and q != 1)
    # the oracle that is the rough partition's lanes-route reference
    assert oracles.fixed_modulus(m, q).tolist() == got


def test_table_route_hands_other_lanes_to_jacobi_many(monkeypatch):
    monkeypatch.setattr(residue_scan, "_TABLE_COST", 10**18)
    cases = [
        # lanes past int64, as object and uint64 arrays
        (15, np.array([3, 5, 2**70 + 1, 2**64 - 59], dtype=object)),
        (15, np.array([3, 2**70 + 1], dtype=object)),
        (15, np.array([3, 2**64 - 59], dtype=np.uint64)),
        # a fixed side past int64 and a negative one
        (2**70 + 1, np.array([3, 5, 7])),
        (-3, np.array([3, 5])),
    ]
    for a, m in cases:
        assert _outcome(_fixed_numerator, a, m) == _outcome(jacobi_many, a, m), (a, m)
    # no tables for a fixed modulus that is zero, past int64 or negative
    for q in (0, 2**70 + 1, 2**70 + 3, -3):
        assert residue_scan._table_route(q, 3, False) is None, q
    # the cost rule's boundaries, at its own cost and past any cost
    five, hundred = np.array([3, 5, 7, 9, 11]), np.arange(1, 200, 2)
    cases = [
        # distinct factors summing to 32 * 5 = 160, a square among them
        (32, 9 * 157, five, True),
        (32, 3 * 7 * 151, five, False),
        # a cofactor prime above the trial bound 32 * 100
        (32, 3 * 1000003, hundred, False),
        # a factor past 2**20: the first prime above it
        (10**18, 1048583, five, False),
        # factors that cost little, on a fixed side past int64
        (10**18, 3**40, five, False),
    ]
    for cost, fixed, m, tables in cases:
        with monkeypatch.context() as mp:
            mp.setattr(residue_scan, "_TABLE_COST", cost)
            calls = _spy_on_jacobi_many(mp)
            assert _fixed_numerator(fixed, m).tolist() == [jacobi(fixed, int(x)) for x in m]
            assert _modulus_symbols(m, fixed).tolist() == [jacobi(int(x), fixed) for x in m]
        assert len(calls) == (0 if tables else 2), fixed


def test_table_factors_trial_divide_up_to_the_square_root(monkeypatch):
    # a prime fixed side near 10**6 is left as its own cofactor after a
    # % over the 168 primes up to isqrt(1000003) = 1000, so the base-prime
    # table is never grown towards 10**6
    monkeypatch.setattr(sieve, "_base_table", (0, np.empty(0, dtype=np.int64)))
    # 2**15 lanes at cost 32 allow factors summing to 2**20
    m = np.arange(1, 2**16, 2, dtype=np.int64)
    for fixed, factors in [(1000003, [(1000003, 1)]), (3 * 3 * 1000003, [(3, 2), (1000003, 1)]),
                           (997 * 1009, [(997, 1), (1009, 1)]), (2 * 1048583, None)]:
        assert residue_scan._table_factors(fixed, m.size) == factors
    # 31,250 lanes allow 10**6, one short of the cofactor
    assert residue_scan._table_factors(1000003, 31250) is None
    assert sieve._base_table[0] < 4096
    calls = _spy_on_jacobi_many(monkeypatch)
    assert _modulus_symbols(m, 1000003).tolist() == [jacobi(int(x), 1000003) for x in m]
    assert _fixed_numerator(1000003, m).tolist() == [jacobi(1000003, int(x)) for x in m]
    assert calls == []


def test_first_hit_scans_cross_symbol_windows(monkeypatch):
    # the 70,435 primes of [10**6, 2*10**6] are more lanes than one window
    # of the lanes route, so the first step takes two
    P = primes_in(10**6, 2 * 10**6)
    chunk = residue_scan._SYMBOL_CHUNK
    assert P.size > chunk
    sizes = []
    real = residue_scan._numerator_rows

    def spy(ns, routes, m):
        sizes.append(m.size)
        return real(ns, routes, m)

    monkeypatch.setattr(residue_scan, "_numerator_rows", spy)
    primes = P.tolist()
    assert least_nonresidues(P).tolist() == [oracles.least_nonresidue(p) for p in primes]
    assert sizes[:2] == [chunk, P.size - chunk] and max(sizes) == chunk
    for u in (12345, 10**12 + 12345):
        sizes.clear()
        got = first_nonresidues_after(P, u, 31).tolist()
        assert got == [min(oracles.first_nonresidue_after(p, u), 32) for p in primes], u
        assert sizes[:2] == [chunk, P.size - chunk]


def test_table_cost_changes_no_result(monkeypatch):
    def results():
        primes = primes_in(10**4, 2 * 10**4)
        return (
            proof_trace(10**4, 10**4, 20, 0.15),
            proof_trace(10**4, 0, 12, 0.15),
            rough_partition(0.2, 10**5, 10007),
            incomplete_char_sum(5000, 3 * 3 * 5 * 7 * 11),
            first_nonresidues_after(primes, 12345, 30).tolist(),
            burgess_sweep(5, 10**4, 10**5, seed=1),
            first_nonresidues_after(primes, 10**12 + 12345, 30).tolist(),
        )

    monkeypatch.setattr(residue_scan, "_TABLE_COST", 0)
    euclid = results()
    monkeypatch.setattr(residue_scan, "_TABLE_COST", 10**18)
    assert results() == euclid


def test_table_cache_stays_within_its_budget(monkeypatch):
    # tables of at most 1019 bytes, so no large array is allocated
    monkeypatch.setattr(residue_scan, "_TABLE_COST", 10**18)
    moduli = primes_in(3, 3000)
    ns = [3 * 5 * 7, 1009, 3 * 1013, 9 * 101, 8 * 1019, 997, 11 * 13 * 17 * 19]
    want = [[jacobi(n, int(m)) for m in moduli] for n in ns]
    for budget in (0, 1500, 2500, 1 << 20):
        monkeypatch.setattr(residue_scan, "_TABLE_CACHE_BUDGET", budget)
        monkeypatch.setattr(_KERNEL, "tables", {})
        monkeypatch.setattr(_KERNEL, "table_bytes", 0)
        for _ in range(2):
            for n, symbols in zip(ns, want):
                assert _fixed_numerator(n, moduli).tolist() == symbols
                assert _KERNEL.table_bytes == sum(t.nbytes for t in _KERNEL.tables.values()) <= budget
        assert bool(_KERNEL.tables) == (budget > 0)
    # least recently used out first: 1013 goes, 1009 was used since
    monkeypatch.setattr(residue_scan, "_TABLE_CACHE_BUDGET", 2100)
    monkeypatch.setattr(_KERNEL, "tables", {})
    monkeypatch.setattr(_KERNEL, "table_bytes", 0)
    for l in (1009, 1013, 1009, 1019):
        _KERNEL.legendre(l)
    assert sorted(_KERNEL.tables) == [1009, 1019]


# --- prefix sums: tables, or the symbols at the primes --------------------

_ODD_PRIMES = primes_in(3, 10**7)


@st.composite
def _prefix_cases(draw):
    """n <= 5000 and an odd q <= 10**7 made of prime powers drawn from the
    primes up to isqrt(n), in (isqrt(n), n] and past n, perhaps squared:
    primes, composites and squares, with factors on every side of the
    sieve."""
    n = draw(st.integers(0, 5000))
    root = math.isqrt(n)
    q = 1
    for lo, hi in draw(st.lists(st.sampled_from([(3, root), (root + 1, n), (n + 1, 10**7)]), min_size=1, max_size=4)):
        i, j = np.searchsorted(_ODD_PRIMES, [lo, hi + 1]).tolist()
        if i < j:
            factor = int(_ODD_PRIMES[draw(st.integers(i, j - 1))]) ** draw(st.integers(1, 3))
            if q * factor <= 10**7:
                q *= factor
    if draw(st.booleans()) and q * q <= 10**7:
        q *= q
    return n, q


def _spy_on_prime_route(mp):
    lengths, prime_route = [], residue_scan._prime_symbol_sum

    def spy(n, q):
        lengths.append(n)
        return prime_route(n, q)

    mp.setattr(residue_scan, "_prime_symbol_sum", spy)
    return lengths


@pytest.mark.parametrize("cost", [0, 32, 10**18])
@settings(deadline=None)
@example(case=(5000, 9999991))  # a prime
@example(case=(4999, 3 * 5 * 7 * 11 * 13 * 17))
@example(case=(3000, 3**2 * 7**2 * 11**2))  # a square
@example(case=(5000, 7 * 101 * 5003))  # factors below 70, in (70, 5000] and past 5000
@given(case=_prefix_cases())
def test_prefix_symbol_sum_matches_scalar_jacobi(cost, case):
    # cost 0 refuses tables for every q >= 3, so the primes take over;
    # 10**18 takes them for every n >= 1 and q with no prime factor past
    # 2**20
    n, q = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residue_scan, "_TABLE_COST", cost)
        lengths = _spy_on_prime_route(mp)
        got = residue_scan._prefix_symbol_sum(n, q)
    assert got == sum(jacobi(m, q) for m in range(1, n + 1))
    if cost == 0 and q > 1:
        assert lengths == [n]
    if cost == 10**18 and n and max(oracles.factorize(q), default=1) <= residue_scan._TABLE_LIMIT:
        assert lengths == []


def test_prefix_symbol_sum_at_square_and_two_prime_lengths(monkeypatch):
    # n = l**2 is flipped by the slice of l**2, n = l * l' with l' > isqrt(n)
    # by the one scatter; the cost rule refuses q near 10**6 at these
    # lengths, so the primes take over
    qs = [p for p in primes_in(10**6, 10**6 + 3000).tolist() if jacobi(89, p) == jacobi(97, p) == -1][:2]
    lengths = _spy_on_prime_route(monkeypatch)
    for q in qs + [3 * qs[0], 9 * qs[1]]:
        for l, k in ((97, 97), (89, 97), (3, 3331), (7, 1423)):
            for n in (l * k - 1, l * k, l * k + 1):
                assert residue_scan._prefix_symbol_sum(n, q) == sum(jacobi(m, q) for m in range(1, n + 1)), (n, q)
    assert len(lengths) == 4 * 4 * 3


def test_prefix_symbol_sum_at_the_table_limit(monkeypatch):
    # 15 * 1048583 has a factor past 2**20, so tables are refused at any
    # length: 2**20 lanes and one more take the primes, and past the
    # route's bound every lane goes through jacobi_many
    q, n = 15 * 1048583, residue_scan._TABLE_LIMIT
    want = sum(jacobi(m, q) for m in range(1, n + 1))
    lengths = _spy_on_prime_route(monkeypatch)
    calls = _spy_on_jacobi_many(monkeypatch)
    assert residue_scan._prefix_symbol_sum(n, q) == want
    assert lengths == [n]
    assert [np.size(m) for m, _ in calls] == [primes_in(2, n).size]
    del calls[:]
    assert residue_scan._prefix_symbol_sum(n + 1, q) == want + jacobi(n + 1, q)
    assert lengths == [n, n + 1]
    assert [np.size(m) for m, _ in calls] == [primes_in(2, n + 1).size]
    del calls[:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residue_scan, "TABLE_BUDGET", n)
        assert residue_scan._prefix_symbol_sum(n + 1, q) == want + jacobi(n + 1, q)
    assert lengths == [n, n + 1]
    assert sum(np.size(m) for m, _ in calls) == n + 1
    # the flags and the scatter's positions stay within a few MB
    tracemalloc.start()
    try:
        residue_scan._prime_symbol_sum(n, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20
    # the tables serve 3 * 1000003 at any length; refused, 2**24 + 1 lanes
    # take the primes, many windows of them, for the same sum
    q, n = 3 * 1000003, (1 << 24) + 1
    del lengths[:]
    monkeypatch.setattr(residue_scan, "_TABLE_COST", 10**18)
    want = residue_scan._prefix_symbol_sum(n, q)
    monkeypatch.setattr(residue_scan, "_TABLE_COST", 0)
    tracemalloc.start()
    try:
        assert residue_scan._prefix_symbol_sum(n, q) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lengths == [n]
    assert peak < 64 << 20


# --- symbols over ranges ---------------------------------------------------

_CHUNK = residue_scan._SYMBOL_CHUNK


@st.composite
def _range_cases(draw):
    """A fixed numerator >= 1, or an odd fixed modulus, and a range of n
    lanes from lo: lo = 0, large, or just below a window's end."""
    numerator = draw(st.booleans())
    fixed = draw(_fixed_sides(odd=not numerator).filter(lambda f: f >= 1))
    lo = draw(st.one_of(st.just(0), st.integers(0, 10**12), st.integers(1, 4).map(lambda k: k * _CHUNK - 7)))
    return numerator, fixed, lo, draw(st.one_of(st.integers(0, 40), st.integers(0, 3000)))


@settings(deadline=None, max_examples=80)
@example(case=(False, 3**2 * 5 * 1009, 0, 0))
@example(case=(False, 1048573, 1048573 - 10, 3000))  # the prime below 2**20, wrapping once
@example(case=(True, 8 * 7**2 * 1019, _CHUNK - 1, 2500))
@example(case=(True, 1, 10**12 + 3, 17))
@given(case=_range_cases())
def test_range_symbols_match_the_lanes_route_and_scalar_jacobi(case):
    numerator, fixed, lo, n = case
    route = residue_scan._table_route(fixed, 10**9, numerator)
    m = np.arange(lo, lo + n, dtype=np.int64)
    got = residue_scan._range_symbols(lo, n, *route)
    assert got.dtype == np.int8 and got.shape == (n,)
    # every lane, odd or even, equals the lanes route, which divides them
    lanes = next(residue_scan._numerator_rows([fixed], [route], m)).tolist()
    assert got.tolist() == lanes
    # and the scalar jacobi where the symbol exists
    for x, s in zip(m.tolist(), got.tolist()):
        if numerator and x % 2:
            assert s == jacobi(fixed, x), (fixed, x)
        elif not numerator:
            assert s == jacobi(x, fixed), (x, fixed)
    # a fresh row: writing to it leaves the Legendre tables alone
    got[:] = 5
    assert residue_scan._range_symbols(lo, n, *route).tolist() == lanes


@pytest.mark.parametrize("q", [3**3 * 5**2 * 7, 65537, 1048573, 9 * 1000003])
def test_prefix_symbol_sum_by_ranges_across_window_edges(monkeypatch, q):
    # windows of 1..n end at multiples of the chunk; tables for every q
    # here, each factor below and above the window length
    monkeypatch.setattr(residue_scan, "_TABLE_COST", 10**18)
    lengths = _spy_on_prime_route(monkeypatch)
    calls = _spy_on_jacobi_many(monkeypatch)
    m = np.arange(1, 3 * _CHUNK + 3, dtype=np.int64)
    prefix = np.cumsum(oracles.fixed_modulus(m, q))
    for n in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 3 * _CHUNK + 2):
        assert residue_scan._prefix_symbol_sum(n, q) == int(prefix[n - 1]), n
    assert lengths == [] and calls == []
    assert residue_scan._prefix_symbol_sum(_CHUNK + 1, q) == sum(jacobi(x, q) for x in range(1, _CHUNK + 2))
