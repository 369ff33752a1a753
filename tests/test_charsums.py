import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qrstats import residue_scan
from qrstats.arith import jacobi
from qrstats.charsums import (
    burgess_exponent,
    check_burgess,
    check_modulus,
    check_nonprincipal,
    check_sweep,
    burgess_report,
    burgess_sweep,
    default_sweep_length,
    incomplete_char_sum,
    rough_char_sum,
    rough_error_scale,
    rough_partition,
)
from qrstats.errors import (
    InvalidModulusError,
    ParameterError,
    PerfectSquareModulusError,
    ResourceError,
)
from qrstats.sieve import rough_set

odd_moduli = st.integers(min_value=1, max_value=49).map(lambda k: 2 * k + 1)


@given(st.integers(min_value=0, max_value=300), odd_moduli)
def test_incomplete_sum_matches_brute_force(M, q):
    assert incomplete_char_sum(M, q) == sum(jacobi(m, q) for m in range(1, M + 1))


def test_incomplete_sum_pinned():
    assert incomplete_char_sum(966, 30021) == -14


def test_full_period_sums():
    # one period cancels unless q is a square, where the symbol is the
    # coprimality indicator and the period sum is phi(q)
    assert incomplete_char_sum(15, 15) == 0
    assert incomplete_char_sum(30021, 30021) == 0
    assert incomplete_char_sum(9, 9) == 6
    assert incomplete_char_sum(225, 225) == 120


@given(odd_moduli, st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=3))
def test_period_reuse_consistent(q, rem, full):
    M = full * q + rem
    direct = sum(jacobi(m, q) for m in range(1, M + 1))
    assert incomplete_char_sum(M, q) == direct


def test_incomplete_sum_spans_chunks():
    q = 200003  # prime, so the 150000-term tail crosses several 2**16 chunks
    assert incomplete_char_sum(150000, q) == sum(jacobi(m, q) for m in range(1, 150001))
    q = 509 * 509  # square: the period is evaluated, and sums to phi(q)
    assert incomplete_char_sum(2 * q + 5, q) == 2 * 509 * 508 + 5


def test_incomplete_sum_validates():
    with pytest.raises(InvalidModulusError):
        incomplete_char_sum(10, 8)
    with pytest.raises(InvalidModulusError):
        incomplete_char_sum(10, 1)
    with pytest.raises(ParameterError):
        incomplete_char_sum(-1, 9)


def test_burgess_exponents():
    assert burgess_exponent(1) == 0.5
    assert burgess_exponent(2) == 3 / 16
    assert burgess_exponent(3) == 1 / 9
    with pytest.raises(ParameterError):
        burgess_exponent(0)


def test_burgess_report_basic():
    rep = burgess_report(100, 1003, nu=2)
    assert rep.sum == incomplete_char_sum(100, 1003)
    assert rep.benchmark == pytest.approx(100**0.5 * 1003 ** (3 / 16))
    assert rep.ratio == pytest.approx(abs(rep.sum) / rep.benchmark)
    assert not rep.nu_beyond_classical


def test_burgess_report_rejects_square_modulus():
    with pytest.raises(PerfectSquareModulusError):
        burgess_report(100, 225)


def test_burgess_report_flags_large_nu():
    assert burgess_report(100, 1003, nu=5).nu_beyond_classical
    assert not burgess_report(100, 1003, nu=3).nu_beyond_classical


def test_default_sweep_length():
    assert default_sweep_length(1000) == 100
    assert default_sweep_length(10**6) == 10**4


def test_burgess_sweep_deterministic():
    a = burgess_sweep(20, 10**4, 10**6, nu=2, seed=7)
    b = burgess_sweep(20, 10**4, 10**6, nu=2, seed=7)
    assert [r.q for r in a.reports] == [r.q for r in b.reports]
    assert a.max_ratio == b.max_ratio and a.median_ratio == b.median_ratio


def test_burgess_sweep_seed1_head():
    s = burgess_sweep(5, 10**4, 10**6, nu=2, seed=1)
    assert [r.q for r in s.reports] == [550629, 291743, 287175, 908311, 692183]
    for r in s.reports:
        assert r.M == default_sweep_length(r.q)


def test_burgess_sweep_explicit_M():
    s = burgess_sweep(5, 10**4, 10**6, nu=2, seed=1, M=500)
    assert all(r.M == 500 for r in s.reports)


def test_burgess_sweep_validates():
    with pytest.raises(ParameterError):
        burgess_sweep(0, 10, 100)
    with pytest.raises(ParameterError):
        burgess_sweep(5, 2, 100)
    with pytest.raises(ParameterError):
        burgess_sweep(5, 100, 102)


def test_rough_partition_example():
    part = rough_partition(0.5, 30, 7)
    assert (part.count_plus, part.count_minus, part.count_zero) == (4, 3, 1)
    assert part.total == rough_set(0.5, 30).count
    assert part.deviation_plus == pytest.approx(part.count_plus - part.main_term)
    assert part.ratio_plus == pytest.approx(part.deviation_plus / part.error_scale)


def test_rough_char_sum_example():
    assert rough_char_sum(0.5, 30, 7) == 1


@settings(deadline=None)
@given(
    st.sampled_from([0.3, 0.5, 0.7]),
    st.integers(min_value=10, max_value=200),
    st.sampled_from([7, 11, 15, 21, 33]),
)
def test_rough_partition_identity(eta, M, q):
    rs = rough_set(eta, M)
    part = rough_partition(eta, M, q)
    assert part.total == rs.count
    assert part.count_plus - part.count_minus == rough_char_sum(eta, M, q)


@settings(deadline=None)
@given(
    st.sampled_from([0.1, 0.3, 0.5]),
    st.integers(min_value=10, max_value=5000),
    st.sampled_from([7, 11, 15, 21, 33, 9907, 1000003]),
)
def test_rough_char_sum_matches_direct_sum(eta, M, q):
    rs = rough_set(eta, M)
    assert rough_char_sum(eta, M, q) == sum(jacobi(m % q, q) for m in rs.members.tolist())


def test_rough_char_sum_rejects_square_modulus():
    with pytest.raises(PerfectSquareModulusError):
        rough_char_sum(0.5, 30, 9)


def test_rough_error_scale():
    got = rough_error_scale(0.25, 100)
    assert got == pytest.approx(0.25 ** (2 / 4 - 1) * 100 / math.log(100))
    with pytest.raises(ParameterError):
        rough_error_scale(1.5, 100)
    with pytest.raises(ParameterError):
        rough_error_scale(0.5, 1)


def test_check_modulus_raises_like_incomplete_char_sum():
    for q in [8, 1, 0, -7]:
        with pytest.raises(InvalidModulusError):
            check_modulus(q)
        with pytest.raises(InvalidModulusError):
            incomplete_char_sum(10, q)
    check_modulus(9)


def test_check_nonprincipal_raises_like_rough_char_sum():
    for q, error in [(9, PerfectSquareModulusError), (225, PerfectSquareModulusError), (8, InvalidModulusError)]:
        with pytest.raises(error):
            check_nonprincipal(q)
        with pytest.raises(error):
            rough_char_sum(0.5, 30, q)
    check_nonprincipal(7)


def test_check_burgess_raises_like_burgess_report():
    cases = [((100, 8, 2), InvalidModulusError), ((100, 225, 2), PerfectSquareModulusError),
             ((0, 7, 2), ParameterError), ((100, 7, 0), ParameterError)]
    for args, error in cases:
        with pytest.raises(error):
            check_burgess(*args)
        with pytest.raises(error):
            burgess_report(*args)
    check_burgess(1, 7, 1)
    check_burgess(None, None, 2)


def test_lane_budget_counts_m_mod_q_and_sweep_lengths(monkeypatch):
    with pytest.raises(ResourceError, match="symbol lanes"):
        check_burgess(10**13, 10**18 + 9, 2)
    # full periods sum to 0: only M mod q lanes are evaluated
    check_burgess(10**18 + 9 + 5, 10**18 + 9, 2)
    # about 100 * 10**4 lanes, as the sums benchmark sweeps
    check_sweep(100, 10**4, 10**6)
    with pytest.raises(ResourceError):
        check_sweep(2, 3, 10**400)
    monkeypatch.setattr(residue_scan, "SYMBOL_LANE_BUDGET", 999_999)
    for call in (lambda: check_sweep(100, 10**4, 10**6), lambda: burgess_sweep(100, 10**4, 10**6),
                 lambda: check_sweep(3, 7, 100, M=333_334), lambda: burgess_report(10**6, 1_000_003)):
        with pytest.raises(ResourceError):
            call()


def test_check_sweep_raises_like_burgess_sweep():
    cases = [
        dict(count=0, q_lo=10, q_hi=100),
        dict(count=5, q_lo=2, q_hi=100),
        dict(count=5, q_lo=100, q_hi=102),
        dict(count=5, q_lo=100, q_hi=1000, nu=0),
        dict(count=5, q_lo=100, q_hi=1000, M=0),
    ]
    for kwargs in cases:
        with pytest.raises(ParameterError):
            check_sweep(**kwargs)
        with pytest.raises(ParameterError):
            burgess_sweep(**kwargs)
    check_sweep(1, 3, 6)


def _spy(monkeypatch, name, seen, measure):
    real = getattr(residue_scan, name)

    def spy(*args):
        seen.append(measure(*args))
        return real(*args)

    monkeypatch.setattr(residue_scan, name, spy)


def test_incomplete_sum_checks_the_lane_budget_before_any_symbol(monkeypatch):
    with pytest.raises(ResourceError, match="symbol lanes"):
        incomplete_char_sum(10**15, 10**15 + 37)
    evaluated = []
    _spy(monkeypatch, "jacobi_many", evaluated, lambda m, q: m)
    _spy(monkeypatch, "_table_symbols", evaluated, lambda m, factors, signs: m)
    _spy(monkeypatch, "_range_symbols", evaluated, lambda lo, n, factors, signs: n)
    monkeypatch.setattr(residue_scan, "SYMBOL_LANE_BUDGET", 10)
    # 1000 tail lanes; 3 tail lanes but the 961 of the principal period
    for M, q in ((1000, 1009), (2 * 961 + 3, 961)):
        with pytest.raises(ResourceError, match="symbol lanes"):
            incomplete_char_sum(M, q)
    assert evaluated == []
    monkeypatch.setattr(residue_scan, "SYMBOL_LANE_BUDGET", 961)
    assert incomplete_char_sum(2 * 961 + 3, 961) == 2 * 930 + 3
    assert evaluated


def test_burgess_sweep_takes_refused_moduli_to_the_primes(monkeypatch):
    # the cost rule refuses tables for 20 of the sums benchmark's 100
    # moduli; their 132,006 terms need symbols at the primes up to M alone
    lengths, lanes = [], []
    _spy(monkeypatch, "_prime_symbol_sum", lengths, lambda n, q: n)
    _spy(monkeypatch, "jacobi_many", lanes, lambda m, q: m.size)
    burgess_sweep(100, 10**4, 10**6, seed=1)
    assert len(lengths) == 20
    assert sum(lengths) == 132_006
    assert sum(lanes) == 16_924


@pytest.mark.parametrize("cost", [0, 32])
@settings(deadline=None, max_examples=40)
@example(eta=0.1, M=200_000, q=1000003)  # four windows of the mask
@example(eta=0.05, M=30, q=9 * 25 * 7)  # cutoff below 2: even members
@example(eta=0.3, M=70_000, q=3**4 * 1019)
@given(
    eta=st.sampled_from([0.05, 0.1, 0.2, 0.5]),
    M=st.one_of(st.integers(2, 3000), st.integers(60_000, 140_000)),
    q=st.one_of(odd_moduli, st.sampled_from([1009 * 1013, 3**2 * 5**3 * 7, 65537, 1048573, 15 * 1048583])),
)
def test_rough_partition_by_ranges_equals_the_lanes_route(cost, eta, M, q):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residue_scan, "_TABLE_COST", cost)
        part = rough_partition(eta, M, q)
        symbols = residue_scan._fixed_modulus(rough_set(eta, M).members, q)
    plus, minus = int(np.count_nonzero(symbols == 1)), int(np.count_nonzero(symbols == -1))
    assert (part.count_plus, part.count_minus, part.count_zero) == (plus, minus, symbols.size - plus - minus)
