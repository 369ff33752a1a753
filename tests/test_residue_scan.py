import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrstats.errors import ParameterError, ResourceError, ScanError
from qrstats.experiments import _scan_gap_chunk
from qrstats.residue_scan import (
    _KERNEL,
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

from oracles import classify_residue, legendre_by_squares, longest_run_brute, squares_mod

small_primes = st.sampled_from([int(p) for p in primes_in(3, 500).tolist()])


def test_residue_map_p7():
    rm = residue_map(7)
    assert rm.bools().tolist() == [True, True, True, False, True, False, False]
    assert rm.is_residue(2) and not rm.is_residue(3)
    assert rm.is_residue(0) and rm.is_residue(14)
    rm2 = residue_map(7, zero_as_residue=False)
    assert not rm2.is_residue(0)
    assert rm2.bools().tolist()[1:] == rm.bools().tolist()[1:]


def test_residue_map_popcount():
    # exactly (p-1)/2 nonzero residues for an odd prime
    assert residue_map(10007).popcount() == 5003
    assert residue_map(10007, zero_as_residue=False).popcount() == 5003
    assert residue_map(3).popcount() == 1


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
    P = primes_in(3, 10**5)
    assert least_nonresidues(P).tolist() == [least_nonresidue(p) for p in P.tolist()]


def test_least_nonresidues_past_int64():
    p = 2**64 - 59  # the largest prime below 2**64
    assert least_nonresidues([p]).tolist() == [least_nonresidue(p)]


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**80), st.integers(min_value=1, max_value=40))
def test_first_nonresidues_after_matches_scalar(u, cap):
    P = primes_in(3, 3000)
    want = [min(first_nonresidue_after(p, u), cap + 1) for p in P.tolist()]
    assert first_nonresidues_after(P, u, cap).tolist() == want


def test_batched_scans_validate_like_scalar():
    with pytest.raises(ParameterError):
        least_nonresidues(np.array([7, 4]))
    with pytest.raises(ParameterError):
        least_nonresidues(np.array([1]))
    with pytest.raises(ParameterError):
        first_nonresidues_after(np.array([7]), -1)
    with pytest.raises(ScanError):
        least_nonresidues(np.array([7, 9]))
    with pytest.raises(ScanError):
        first_nonresidues_after(np.array([25]), 3)
    assert least_nonresidues(np.array([], dtype=np.int64)).size == 0


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
            assert _scan_gap_chunk(((p,), h))[0][2:4] == gap_tail(gs, h)


def test_gap_stats_never_aliases_the_kernel():
    gs = gap_stats(10007)
    n_seq, deltas = gs.n_seq.copy(), gs.deltas.copy()
    for p in (10009, 3, 20011):
        gap_stats(p)
        longest_qr_run(p)
        longest_qr_run(p, zero_as_residue=False)
        residue_map(p)
        _scan_gap_chunk(((p, 10037), 4))
    assert np.array_equal(gs.n_seq, n_seq)
    assert np.array_equal(gs.deltas, deltas)
    for buffer in (_KERNEL.marks, _KERNEL.nonres):
        assert not np.shares_memory(gs.n_seq, buffer)
        assert not np.shares_memory(gs.deltas, buffer)


def test_kernel_buffers_are_per_thread():
    primes = [10007, 4099, 20011, 8191, 12289, 3001]
    want = {p: (longest_qr_run(p), gap_stats(p).deltas.sum()) for p in primes}
    wrong = []

    def work(order):
        for _ in range(15):
            for p in order:
                if (longest_qr_run(p), gap_stats(p).deltas.sum()) != want[p]:
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
