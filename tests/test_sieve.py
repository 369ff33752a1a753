import itertools
import math
import random
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qrstats import sieve
from qrstats.errors import ParameterError, RangeError, ResourceError
from qrstats.experiments import exceptional_blocks
from qrstats.sieve import (
    EULER_GAMMA,
    SEGMENT,
    ascending_primes,
    check_eta,
    check_range,
    check_rough,
    check_squarefree,
    check_window,
    feller_tornier_A,
    is_prime_u64,
    mertens_product,
    primes_in,
    primes_upto,
    rough_set,
    rough_threshold,
    squarefree_in_interval,
)

from oracles import eratosthenes, factorize, is_squarefree_slow, power_floor, spf_table, trial_primes


def test_primes_upto_matches_trial_division():
    assert primes_upto(500).tolist() == trial_primes(500)
    assert primes_upto(1).size == 0
    assert primes_upto(2).tolist() == [2]


@pytest.mark.parametrize("n", [-3, 0, 1, 2, 3, 500, 3 * SEGMENT + 5])
def test_primes_upto_is_a_fresh_copy_of_the_reference(n):
    got = primes_upto(n)
    assert got.dtype == np.int64 and got.flags.writeable
    assert np.array_equal(got, eratosthenes(n))
    got[:1] = 4
    assert np.array_equal(primes_upto(n), eratosthenes(n))


def test_primes_upto_budget(monkeypatch):
    monkeypatch.setattr(sieve, "TABLE_BUDGET", 1000)
    with pytest.raises(ResourceError):
        primes_upto(1001)
    assert np.array_equal(primes_upto(1000), eratosthenes(1000))


def test_ascending_primes_matches_eratosthenes(monkeypatch):
    want = eratosthenes(104729).tolist()  # the first 10,000 primes
    monkeypatch.setattr(sieve, "_base_table", (0, np.empty(0, dtype=np.int64)))
    got = list(itertools.islice(ascending_primes(), 10_000))
    assert got == want and all(type(p) is int for p in got)
    # a table already built past the doubling limits changes nothing
    sieve._base_primes(10**6)
    assert list(itertools.islice(ascending_primes(), 10_000)) == want


def test_ascending_primes_budget(monkeypatch):
    monkeypatch.setattr(sieve, "_base_table", (0, np.empty(0, dtype=np.int64)))
    monkeypatch.setattr(sieve, "TABLE_BUDGET", 1000)
    got = []
    # limits 64, 128, ..., 512 pass; 1024 is past the budget
    with pytest.raises(ResourceError, match="^prime table up to 1024 exceeds the budget of 1000$"):
        for p in ascending_primes():
            got.append(p)
    assert got == eratosthenes(512).tolist()


def test_primes_in_small_ranges():
    assert primes_in(2, 30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in(14, 16).size == 0
    assert primes_in(23, 23).tolist() == [23]
    assert primes_in(3, 3).tolist() == [3]


def test_primes_in_across_segment_boundary():
    lo, hi = (1 << 20) - 50, (1 << 20) + 50
    got = primes_in(lo, hi).tolist()
    expect = [n for n in range(lo, hi + 1) if is_prime_u64(n)]
    assert got == expect


def _primes_by_mr(lo, hi):
    return [n for n in range(lo, hi + 1) if is_prime_u64(n)]


def test_primes_in_across_several_segments():
    # segments start at lo + k * SEGMENT; the plain sieve is the reference
    got = primes_in(2, 3 * SEGMENT + 5)
    assert got.dtype == np.int64
    assert np.array_equal(got, eratosthenes(3 * SEGMENT + 5))
    lo = 10**9 + 7
    got = primes_in(lo, lo + 2 * SEGMENT + 100).tolist()
    for edge in (lo + SEGMENT, lo + 2 * SEGMENT):
        assert [p for p in got if edge - 200 <= p <= edge + 100] == _primes_by_mr(edge - 200, edge + 100)


def test_primes_in_with_lo_among_the_base_primes():
    assert primes_in(2, 5000).tolist() == trial_primes(5000)
    assert primes_in(3000, 70000).tolist() == _primes_by_mr(3000, 70000)


@pytest.mark.parametrize("p", [4093, 4099])
def test_primes_in_hi_at_a_base_prime_square(p):
    # the primes on either side of the strided/scatter threshold
    assert 4093 < sieve._STRIDE_LIMIT < 4099
    for hi in (p * p - 1, p * p):
        assert primes_in(hi - 3000, hi).tolist() == _primes_by_mr(hi - 3000, hi)


def _divisor_parity(lo, size, moduli, floors):
    # the parity of #{i : moduli[i] divides m and m >= floors[i]}, m by m
    m = np.arange(lo, lo + size, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    for p, floor in zip(moduli.tolist(), floors.tolist()):
        counts += (m % p == 0) & (m >= floor)
    return counts % 2 == 1


@pytest.mark.parametrize(
    "lo, size, moduli",
    [
        # 67**2 and 67**3 both past the split, sharing every multiple of 67**3
        (0, SEGMENT, [67**2, 67**3]),
        (1, SEGMENT + 3, [2, 3, 4, 67, 67**2, 67**3, 4099, 4111]),
        # a window across 4099 * 4111, the first multiple the two share
        (4099 * 4111 - 5000, 2 * SEGMENT + 77, [3, 9, 4093, 4099, 4111, 4099 * 4111]),
        # short masks on both sides of the split min(_STRIDE_LIMIT, size >> 8)
        (7, 255, [2, 3, 4, 5, 25, 27, 261]),  # 261 at the mask's end
        (1000, 5 * 256, [2, 4, 5, 7, 25, 49]),
        (1000, 5 * 256 - 1, [2, 4, 5, 7, 25, 49]),
        (10**6, 3000, [2, 3, 8, 9, 11, 13, 121, 169, 1331, 2003]),
        (0, 1 << 14, [2, 3, 61, 64, 67, 127, 4096, 20000]),
    ],
)
def test_strike_flip_counts_the_parity_of_divisors(lo, size, moduli):
    moduli = np.array(moduli, dtype=np.int64)
    floors = moduli * (1 + np.arange(moduli.size) % 3)
    flags = np.random.default_rng(size).integers(0, 2, size).astype(bool)
    want = flags ^ _divisor_parity(lo, size, moduli, floors)
    sieve._strike(flags, lo, moduli, floors, flip=True)
    assert np.array_equal(flags, want)


@pytest.mark.parametrize("size", [1, 255, 256, 7 * 256 - 1, 7 * 256, 3000, 1 << 14, (1 << 16) + 1])
def test_primes_in_short_ranges_across_the_split(size):
    # base primes up to about 10**6 reach past the split of every mask
    for lo in (10**12 + 39, 2 * SEGMENT + 5):
        assert primes_in(lo, lo + size - 1).tolist() == _primes_by_mr(lo, lo + size - 1)


def test_primes_in_random_windows_near_1e15():
    rng = random.Random(20260)
    # highest first, so one base table serves every window
    for lo in sorted((10**15 - rng.randrange(10**12) for _ in range(4)), reverse=True):
        width = rng.randrange(1, 3000)
        assert primes_in(lo, lo + width).tolist() == _primes_by_mr(lo, lo + width)


def test_primes_in_counts_against_pi():
    # pi(10**6) = 78498 and pi(2 * 10**6) = 148933 are table values
    assert primes_in(2, 10**6).size == 78498
    assert primes_in(10**6, 2 * 10**6).size == 148933 - 78498


def test_primes_in_validates_arguments():
    with pytest.raises(ParameterError):
        primes_in(1, 10)
    with pytest.raises(ParameterError):
        primes_in(20, 10)
    with pytest.raises(ResourceError):
        primes_in(2, 2 * 10**9)


def test_spf_table_against_factorization():
    table = spf_table(2000)
    assert table[0] == 0 and table[1] == 0
    for n in range(2, 2001):
        assert table[n] == min(factorize(n))


def test_is_prime_u64_small_against_trial_division():
    small = set(trial_primes(10**4))
    for n in range(10**4 + 1):
        assert is_prime_u64(n) == (n in small)


def test_is_prime_u64_known_hard_cases():
    assert not is_prime_u64(561)       # Carmichael
    assert not is_prime_u64(6601)      # Carmichael
    assert not is_prime_u64(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime_u64(2**61 - 1)
    assert not is_prime_u64(2**61 + 1)
    assert is_prime_u64(18446744073709551557)  # largest prime below 2**64


def test_is_prime_u64_past_twelve_bases():
    # the least strong pseudoprimes to the first twelve and thirteen prime
    # bases (Sorenson and Webster, Math. Comp. 86, 2017)
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441
    assert psi13 == 1287836182261 * 2575672364521
    assert not is_prime_u64(psi12)
    for n in (psi13, psi13 + 2, 10**30):
        with pytest.raises(ResourceError, match="Miller-Rabin"):
            is_prime_u64(n)
    assert is_prime_u64(2**64 - 59)  # the largest prime below 2**64
    assert is_prime_u64(psi13 - 168)  # the largest prime below psi13
    assert not is_prime_u64(psi13 - 170)


def test_rough_threshold_exact_dyadic_cases():
    assert rough_threshold(0.5, 25) == 5
    assert rough_threshold(0.5, 24) == 4
    assert rough_threshold(0.5, 26) == 5
    assert rough_threshold(0.25, 16) == 2
    assert rough_threshold(0.75, 16) == 8
    assert rough_threshold(0.5, 2**40) == 2**20


def test_rough_threshold_float_path_cases():
    # these eta have denominators 2**53 and more, so no tie can occur
    assert rough_threshold(0.1, 200000) == 3
    assert rough_threshold(0.3, 1000) == 7
    assert rough_threshold(0.9, 100) == 63
    # 1**eta == 1 is a tie at every eta
    assert rough_threshold(0.1, 1) == 1


@given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=2, max_value=10**6))
@settings(max_examples=200)
def test_rough_threshold_brackets_the_power(eta, M):
    t = rough_threshold(eta, M)
    # allow one ulp of slack on the float comparison; exactness is
    # checked by the pinned cases above
    power = M**eta
    assert t <= power * (1 + 1e-12)
    assert (t + 1) > power * (1 - 1e-12)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       st.integers(min_value=2, max_value=2 * 10**9))
@settings(max_examples=300, deadline=None)
def test_rough_threshold_matches_mpmath(eta, M):
    # a denominator of at least M.bit_length() rules out an exact tie,
    # which the escalation could not settle; ties are checked below
    assume(eta.as_integer_ratio()[1] >= M.bit_length())
    assert rough_threshold(eta, M) == power_floor(eta, M)


def test_rough_threshold_exact_at_ties():
    for den in (2, 4, 8, 16, 32, 64):
        for num in range(1, den, 2):
            for r in (2, 3, 10):
                for M in (r**den - 1, r**den, r**den + 1):
                    t = rough_threshold(num / den, M)
                    assert t**den <= M**num < (t + 1) ** den


def test_rough_threshold_large_cases():
    # pinned from the Newton-root and mpmath evaluation this replaced
    assert rough_threshold(0.1, 10**400) == 10**40 + 51127659728013065583315198
    assert rough_threshold(0.5, 10**400) == 10**200
    assert rough_threshold(0.3, 3**1000 + 1) == int(
        "13689147905858670631957952351225844017031014339260044534601095703368672401467613981837"
        "8048655067265688572761607765783512504032481175135173337315"
    )
    assert rough_threshold(0.5, 2**128) == 2**64
    assert rough_threshold(0.5, 2**128 - 1) == 2**64 - 1
    assert rough_threshold(0.7, 10**60 + 7) == 10**42 - 6135319167361533364701645498
    assert rough_threshold(0.0625, 5**16) == 5
    assert rough_threshold(0.0625, 5**16 - 1) == 4
    assert rough_threshold(4095 / 4096, 2 * 10**9) == 1989570057


def test_rough_set_small_example():
    rs = rough_set(0.5, 30)
    assert rs.members.tolist() == [1, 7, 11, 13, 17, 19, 23, 29]
    assert rs.cutoff == 5
    assert rs.count == 8
    assert rs.ratio_c0 == pytest.approx(8 * 0.5 * math.log(30) / 30)


def test_rough_set_threshold_tie_excludes_the_prime():
    # 25**0.5 is exactly 5, and 5 must land on the sieved side
    rs = rough_set(0.5, 25)
    assert 5 not in rs.members.tolist()
    assert rs.members.tolist() == [1, 7, 11, 13, 17, 19, 23]


def test_rough_set_tiny_eta_keeps_everything():
    rs = rough_set(0.01, 10)
    assert rs.cutoff == 1
    assert rs.members.tolist() == list(range(1, 11))


def test_rough_set_always_contains_one():
    for eta in (0.1, 0.5, 0.9):
        assert rough_set(eta, 100).members[0] == 1


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
def test_rough_set_against_smallest_prime_factors(eta):
    M = 2 * SEGMENT + 1000
    rs = rough_set(eta, M)
    spf = spf_table(M)
    keep = spf > rs.cutoff
    keep[1] = True
    assert np.array_equal(rs.members, np.flatnonzero(keep))


@given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=2, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_rough_set_members_match_slow_filter(eta, M):
    # a denominator of at least M.bit_length() keeps power_floor exact
    assume(eta.as_integer_ratio()[1] >= M.bit_length())
    cutoff = power_floor(eta, M)
    expect = [m for m in range(1, M + 1) if m == 1 or min(factorize(m)) > cutoff]
    rs = rough_set(eta, M)
    assert rs.members.dtype == np.int64
    assert rs.members.tolist() == expect
    assert rs.count == rs.members.size == len(expect)
    assert rs.members is rs.members


def test_mertens_product_exact_small():
    got = mertens_product(10).product
    assert got == pytest.approx(float(Fraction(1, 2) * Fraction(2, 3) * Fraction(4, 5) * Fraction(6, 7)), abs=1e-15)
    assert mertens_product(2).product == pytest.approx(0.5)


def test_mertens_product_normalization_tends_to_one():
    n3 = mertens_product(10**3).normalized
    n5 = mertens_product(10**5).normalized
    assert abs(n5 - 1.0) < abs(n3 - 1.0)
    assert n5 == pytest.approx(1.0, abs=0.01)


def test_euler_gamma_value():
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)


def test_feller_tornier_partial_values():
    assert feller_tornier_A(7) == pytest.approx((1 - 2 / 4) * (1 - 2 / 9) * (1 - 2 / 25) * (1 - 2 / 49), abs=1e-15)
    a_small = feller_tornier_A(100)
    a_big = feller_tornier_A(10**4)
    assert a_big < a_small
    assert a_big == pytest.approx(0.3226, abs=0.001)


@pytest.mark.parametrize("y", [2, 3, 10, 97, 1000, 65537, 99991, 10**6])
def test_euler_products_equal_the_per_prime_loop(y):
    # one numpy division for the terms, then math.log1p and math.fsum on
    # each, gives the bits of a Python expression per prime
    primes = eratosthenes(y).tolist()
    assert feller_tornier_A(y) == math.exp(math.fsum([math.log1p(-2.0 / (p * p)) for p in primes]))
    assert mertens_product(y).product == math.exp(math.fsum([math.log1p(-1.0 / p) for p in primes]))


def test_squarefree_window_example():
    w = squarefree_in_interval(10, 5)
    assert w.members.tolist() == [11, 13, 14, 15]
    assert w.count == 4
    assert w.pair_count == 2
    assert w.members_mod4(1).tolist() == [13]
    assert w.members_mod4(3).tolist() == [11, 15]


@given(st.integers(min_value=0, max_value=10**4), st.integers(min_value=1, max_value=200))
@example(0, 1)
@example(1, 1)
@example(2, 1)
@example(3, 1)
@settings(max_examples=150)
def test_squarefree_window_matches_slow_filter(u, h):
    w = squarefree_in_interval(u, h)
    expect = [n for n in range(u + 1, u + h + 1) if is_squarefree_slow(n)]
    assert w.members.dtype == np.int64 and w.members.tolist() == expect
    assert w.count == len(expect)
    pairs = [n for n in expect if is_squarefree_slow(n + 1)]
    assert w.pair_count == len(pairs)
    # every residue class, whatever u is mod 4
    for r in range(4):
        got = w.members_mod4(r)
        assert got.dtype == np.int64 and got.tolist() == [n for n in expect if n % 4 == r]
        assert w.members_mod4(r + 4).tolist() == got.tolist()


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_census_holds_no_member_list():
    # flags take one byte per integer; a list of the 607,940 square-free
    # members, or of the 333,333 rough ones, would take 8 bytes a member
    u, h = 10**12, 10**6
    sieve._base_primes(math.isqrt(u + h + 1))
    squarefree_in_interval(u, 100).pair_count
    rough_set(0.1, 100).count

    def window():
        w = squarefree_in_interval(u, h)
        assert (w.count, w.pair_count) == (607940, 322662)

    assert _traced_peak(window) < 4 << 20
    assert _traced_peak(lambda: rough_set(0.1, 10**6).count) < 4 << 20


def test_squarefree_pair_count_holds_no_second_window():
    # the 10**7 flags are the result; a pair test over the whole window at
    # once would hold a second 10 MB array beside them
    u, h = 10**12, 10**7
    squarefree_in_interval(u + h, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        w = squarefree_in_interval(u, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (w.count, w.pair_count) == (6079246, 3226332)
    assert peak - before < 1.25 * h


def test_rough_set_lists_members_on_first_use_only():
    rs = rough_set(0.3, 1000)
    assert rs.count == int(rs.mask.sum())
    assert "members" not in vars(rs)
    members = rs.members
    assert vars(rs)["members"] is members
    assert members.tolist() == np.flatnonzero(rs.mask).tolist()


@pytest.mark.parametrize("u", [10**12, 10**12 + 1, 10**12 + 6, 10**12 + 3])
def test_squarefree_window_members_past_int32(u):
    # members near 10**12 need int64; u runs through every class mod 4, and
    # each n in [u+1, u+h+1] is checked against every prime square up to n
    h = 400
    squares = eratosthenes(math.isqrt(u + h + 1)) ** 2
    n = np.arange(u + 1, u + h + 2, dtype=np.int64)
    keep = np.ones(n.size, dtype=bool)
    for i in range(0, squares.size, 4096):
        keep &= (n[:, None] % squares[None, i : i + 4096] != 0).all(axis=1)
    expect = n[:-1][keep[:-1]].tolist()
    w = squarefree_in_interval(u, h)
    assert w.members.tolist() == expect
    assert w.count == len(expect)
    assert w.pair_count == int((keep[:-1] & keep[1:]).sum())
    for r in range(4):
        assert w.members_mod4(r).tolist() == [m for m in expect if m % 4 == r]


@pytest.mark.parametrize("p", [61, 67, 4093, 4099])
def test_squarefree_window_at_a_square_on_each_side_of_the_threshold(p):
    # 61**2 < 2**12 < 67**2 splits the squares; 4093, 4099 the base primes
    u = p * p - 150
    w = squarefree_in_interval(u, 300)
    expect = [n for n in range(u + 1, u + 301) if is_squarefree_slow(n)]
    assert w.members.tolist() == expect
    assert w.pair_count == sum(1 for n in expect if is_squarefree_slow(n + 1))


def test_squarefree_window_across_kernel_windows():
    # Q(10**7) = 6079291 square-free integers up to 10**7 (OEIS A071172)
    w = squarefree_in_interval(0, 10**7)
    assert w.count == 6079291
    for edge in (SEGMENT + 1, 2 * SEGMENT + 1, 9 * SEGMENT + 1):
        near = w.members[(edge - 40 <= w.members) & (w.members < edge + 40)].tolist()
        assert near == [n for n in range(edge - 40, edge + 40) if is_squarefree_slow(n)]
    adjacent = int(np.count_nonzero(np.diff(w.members) == 1))
    assert w.pair_count == adjacent + (w.members[-1] == 10**7 and is_squarefree_slow(10**7 + 1))


def test_squarefree_window_validates():
    with pytest.raises(ParameterError):
        squarefree_in_interval(-1, 5)
    with pytest.raises(ParameterError):
        squarefree_in_interval(5, 0)


# Each check_* helper raises what its function raised before it existed.

def test_check_range_raises_like_primes_in():
    for lo, hi in [(1, 10), (0, 0), (10, 9)]:
        with pytest.raises(ParameterError):
            check_range(lo, hi)
        with pytest.raises(ParameterError):
            primes_in(lo, hi)
    check_range(2, 2)


def test_check_eta_raises_like_rough_threshold():
    for eta in [0.0, 1.0, -0.5, 1.5, float("nan")]:
        with pytest.raises(ParameterError):
            check_eta(eta)
        with pytest.raises(ParameterError):
            rough_threshold(eta, 100)
    check_eta(0.5)


def test_check_rough_raises_like_rough_set():
    for eta, M in [(0.5, 1), (0.5, -3), (1.5, 100), (0.0, 100)]:
        with pytest.raises(ParameterError):
            check_rough(eta, M)
        with pytest.raises(ParameterError):
            rough_set(eta, M)
    check_rough(0.5, 2)


def test_rough_set_budget_before_its_mask(monkeypatch):
    monkeypatch.setattr(sieve, "TABLE_BUDGET", 1000)
    for fn in (check_rough, rough_set):
        with pytest.raises(ResourceError):
            fn(0.5, 1001)
    assert rough_set(0.5, 1000).M == 1000


def test_check_window_raises_like_squarefree_in_interval():
    for u, h in [(-1, 5), (0, 0), (10, -2)]:
        with pytest.raises(ParameterError):
            check_window(u, h)
        with pytest.raises(ParameterError):
            squarefree_in_interval(u, h)
    check_window(0, 1)
    check_window(0)


def test_sieve_budgets_in_check_helpers(monkeypatch):
    monkeypatch.setattr(sieve, "TABLE_BUDGET", 1000)
    monkeypatch.setattr(sieve, "SPAN_BUDGET", 10**4)
    # isqrt(1002001) = 1001, one past the table budget
    for check, fn, args in [
        (check_range, primes_in, (1002001, 1002100)),
        (check_range, primes_in, (2, 10**4 + 3)),
        (check_squarefree, squarefree_in_interval, (1001990, 10)),
        (check_squarefree, squarefree_in_interval, (0, 10**4 + 1)),
    ]:
        with pytest.raises(ResourceError):
            check(*args)
        with pytest.raises(ResourceError):
            fn(*args)
    assert primes_in(1001900, 1002000).tolist() == _primes_by_mr(1001900, 1002000)
    assert squarefree_in_interval(1001989, 10).h == 10
    monkeypatch.setattr(sieve, "MAX_ENDPOINT", 10**5)
    for check, fn, args in [(check_range, primes_in, (10**5 - 5, 10**5 + 1)),
                            (check_squarefree, squarefree_in_interval, (10**5 - 5, 6))]:
        with pytest.raises(RangeError):
            check(*args)
        with pytest.raises(RangeError):
            fn(*args)


def test_base_table_is_built_o_log_times(monkeypatch):
    builds = []

    def counting_primes_upto(n):
        builds.append(n)
        return primes_upto(n)

    def limits_after(ranges):
        limits = []
        for lo, hi in ranges:
            primes_in(lo, hi)
            if sieve._base_table[0] not in limits:
                limits.append(sieve._base_table[0])
        return limits

    monkeypatch.setattr(sieve, "primes_upto", counting_primes_upto)
    monkeypatch.setattr(sieve, "_base_table", (0, np.empty(0, dtype=np.int64)))
    blocks = exceptional_blocks(10**6)
    # isqrt(hi) runs from 1032 to 1414: one build, then one doubling
    assert len(blocks) == 16 and limits_after(blocks) == [1032, 2064]
    monkeypatch.setattr(sieve, "_base_table", (0, np.empty(0, dtype=np.int64)))
    # 62 ascending blocks, isqrt(hi) from 256 to 2015
    blocks = [(lo, lo + (1 << 16) - 1) for lo in range(2, 4 * 10**6, 1 << 16)]
    assert limits_after(blocks) == [256, 512, 1024, 2048]
    # the table grows by primes_in alone, from empty
    assert builds == []


def test_base_table_extended_equals_primes_upto(monkeypatch):
    monkeypatch.setattr(sieve, "_base_table", (0, np.empty(0, dtype=np.int64)))
    for limit in (-1, 0, 1):
        assert sieve._base_primes(limit).size == 0
    assert sieve._base_table[0] == 0
    assert sieve._base_primes(10).tolist() == [2, 3, 5, 7]
    # the extension's own base primes (up to 1000) grow the table first
    table = sieve._base_primes(10**6)
    assert sieve._base_table[0] == 10**6 and not table.flags.writeable
    assert np.array_equal(table, eratosthenes(10**6))
    assert np.array_equal(sieve._base_primes(2 * 10**6 + 1), eratosthenes(2 * 10**6 + 1))


def test_base_table_keeps_its_limit_under_threads(monkeypatch):
    # a growth to 3000 is held inside its sieve until a growth to 5000,
    # started after it, has published; the late one must not publish
    # 3000 with the longer table, or the next growth appends duplicates
    inside, done = threading.Event(), threading.Event()
    real_primes_in = sieve.primes_in

    def held_primes_in(lo, hi):
        more = real_primes_in(lo, hi)
        if hi == 3000:
            inside.set()
            assert done.wait(timeout=60)
        return more

    def grow(limit):
        sieve._base_primes(limit)
        if limit == 5000:
            done.set()

    monkeypatch.setattr(sieve, "_base_table", (1000, eratosthenes(1000)))
    monkeypatch.setattr(sieve, "primes_in", held_primes_in)
    small = threading.Thread(target=grow, args=(3000,))
    small.start()
    assert inside.wait(timeout=60)
    large = threading.Thread(target=grow, args=(5000,))
    large.start()
    for thread in (large, small):
        thread.join(timeout=60)
        assert not thread.is_alive()
    built, table = sieve._base_table
    assert built == 5000 and np.array_equal(table, eratosthenes(5000))
    assert np.array_equal(sieve._base_primes(12000), eratosthenes(12000))


def test_base_table_is_read_only():
    table = sieve._base_primes(1000)
    assert table.tolist() == trial_primes(1000)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 4
