"""Incomplete character sums for the quadratic symbol and their
comparison against the classical cancellation benchmarks.

Sums are exact integers.  The benchmark M**(1 - 1/nu) * q**((nu+1)/(4 nu**2))
is evaluated in floating point with every o(1) and multiplicative
constant dropped, so observed/benchmark ratios are reported rather than
asserted against any particular constant.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arith import is_perfect_square
from .errors import InvalidModulusError, ParameterError, PerfectSquareModulusError, ResourceError
from .residue_scan import _prefix_symbol_sum, _rough_rows, check_symbol_lanes
from .rng import XorShift64Star
from .sieve import check_rough, mertens_product, rough_set


# The benchmarks are floats: q, M and nu below this keep every power in them finite
_FLOAT_BOUND = 2**1023


def check_modulus(q: int) -> None:
    """A symbol modulus must be odd and >= 3."""
    if q < 3 or q % 2 == 0:
        raise InvalidModulusError(f"modulus must be odd and >= 3, got {q}")


def check_nonprincipal(q: int) -> None:
    """check_modulus, and q must not be a perfect square: for a square the
    symbol is the principal character and the sums only count coprimality."""
    check_modulus(q)
    if is_perfect_square(q):
        raise PerfectSquareModulusError(f"q={q} is a perfect square; the symbol is principal")


def incomplete_char_sum(M: int, q: int) -> int:
    """Exact value of sum_{m=1..M} (m|q).

    The symbol has period q in m, so only the final partial period, the
    prefix 1..M mod q, is summed.  A full period sums to 0 unless q is a
    perfect square, where the symbol is principal and the period sums to
    phi(q); only then is the period evaluated, once, and reused.  Both
    prefixes come from residue_scan._prefix_symbol_sum, by Legendre tables
    or from the symbols at the primes, and each is checked against
    SYMBOL_LANE_BUDGET before any symbol is evaluated.
    """
    check_modulus(q)
    if M < 0:
        raise ParameterError(f"need M >= 0, got {M}")
    full, rem = divmod(M, q)
    check_symbol_lanes(rem)
    principal = full > 0 and is_perfect_square(q)
    if principal:
        check_symbol_lanes(q)
    tail = _prefix_symbol_sum(rem, q)
    if not principal:
        return tail
    return full * _prefix_symbol_sum(q, q) + tail


def _check_float(name: str, value: int) -> None:
    if value >= _FLOAT_BOUND:
        raise ResourceError(f"{name} of {value.bit_length()} bits is past the float range of the benchmark, 2**1023")


def _check_nu(nu: int) -> None:
    if nu < 1:
        raise ParameterError(f"need nu >= 1, got {nu}")
    _check_float("nu", nu)


def burgess_exponent(nu: int) -> float:
    """(nu + 1) / (4 nu**2): one half, 3/16, 1/9 for nu = 1, 2, 3."""
    _check_nu(nu)
    return (nu + 1) / (4 * nu * nu)


@dataclass(frozen=True)
class CharSumReport:
    """One incomplete sum next to its cancellation benchmark.

    ratio = |sum| / benchmark.  nu_beyond_classical flags nu > 3, where
    the benchmark shape is only justified for restricted moduli; the
    value is still reported.
    """

    M: int
    q: int
    nu: int
    sum: int
    benchmark: float
    ratio: float
    nu_beyond_classical: bool


def check_burgess(M: int | None, q: int | None, nu: int) -> None:
    """Preconditions of burgess_report: check_nonprincipal(q), M >= 1,
    nu >= 1, q, M and nu below 2**1023 so the benchmark is a finite
    float, and check_symbol_lanes on M mod q lanes, since full periods of
    a non-square q sum to 0.  None skips q or M, for a sweep that draws
    its own moduli or uses the default length."""
    if q is not None:
        _check_float("q", q)
        check_nonprincipal(q)
    if M is not None:
        if M < 1:
            raise ParameterError(f"need M >= 1, got {M}")
        _check_float("M", M)
    _check_nu(nu)
    if q is not None and M is not None:
        check_symbol_lanes(M % q)


def burgess_report(M: int, q: int, nu: int = 2) -> CharSumReport:
    """Evaluate the sum to M and compare against
    M**(1 - 1/nu) * q**((nu+1)/(4 nu**2))."""
    check_burgess(M, q, nu)
    s = incomplete_char_sum(M, q)
    benchmark = M ** (1.0 - 1.0 / nu) * q ** burgess_exponent(nu)
    return CharSumReport(M, q, nu, s, benchmark, abs(s) / benchmark, nu > 3)


class SweepSummary(NamedTuple):
    reports: tuple[CharSumReport, ...]
    max_ratio: float
    median_ratio: float


def default_sweep_length(q: int) -> int:
    """ceil(q**(2/3)), the sum length used by seeded sweeps when no M is
    given: long enough to be non-trivial, short inside the cancellation
    range for nu = 2."""
    return math.ceil(q ** (2.0 / 3.0))


def check_sweep(count: int, q_lo: int, q_hi: int, nu: int = 2, M: int | None = None) -> None:
    """Preconditions of burgess_sweep: count >= 1, q_lo >= 3, q_hi >= q_lo + 3
    so the range holds an odd non-square, q_hi below 2**1023,
    check_burgess on M and nu, and check_symbol_lanes on count times M
    or default_sweep_length(q_hi) lanes."""
    if count < 1:
        raise ParameterError(f"need count >= 1, got {count}")
    if q_lo < 3:
        raise ParameterError(f"need q_lo >= 3, got {q_lo}")
    if q_hi - q_lo < 3:
        raise ParameterError(f"range [{q_lo}, {q_hi}] too narrow to sample")
    _check_float("q_hi", q_hi)
    check_burgess(M, None, nu)
    check_symbol_lanes(count * (default_sweep_length(q_hi) if M is None else M))


def burgess_sweep(
    count: int,
    q_lo: int,
    q_hi: int,
    nu: int = 2,
    seed: int = 1,
    M: int | None = None,
) -> SweepSummary:
    """Draw `count` odd non-square moduli from [q_lo, q_hi] with the
    package generator and report each ratio plus the max and median.

    The draw rule is fixed: uniform in the range, even values nudged up
    by one (down by two on overflow), perfect squares redrawn.  With M
    omitted each modulus uses default_sweep_length(q).
    """
    check_sweep(count, q_lo, q_hi, nu, M)
    rng = XorShift64Star(seed)
    reports = []
    for _ in range(count):
        q = rng.draw_odd_nonsquare(q_lo, q_hi)
        length = default_sweep_length(q) if M is None else M
        reports.append(burgess_report(length, q, nu))
    ratios = [r.ratio for r in reports]
    return SweepSummary(tuple(reports), max(ratios), statistics.median(ratios))


@dataclass(frozen=True)
class RoughPartition:
    """Symbol values over a rough set, split into +1, -1, and 0 counts.

    main_term is (1/2) * M * prod_{p <= M**eta} (1 - 1/p), the expected
    size of either nonzero class; deviation_plus and deviation_minus are
    the observed counts minus that.  error_scale is
    eta**(eta**(-1/2)/4 - 1) * M / log M, the shape each deviation is
    measured against (constants dropped), as ratio_plus and ratio_minus.
    """

    eta: float
    M: int
    q: int
    count_plus: int
    count_minus: int
    count_zero: int
    main_term: float
    deviation_plus: float
    deviation_minus: float
    error_scale: float

    @property
    def total(self) -> int:
        return self.count_plus + self.count_minus + self.count_zero

    @property
    def ratio_plus(self) -> float:
        return self.deviation_plus / self.error_scale

    @property
    def ratio_minus(self) -> float:
        return self.deviation_minus / self.error_scale


def rough_error_scale(eta: float, M: int) -> float:
    """eta**(eta**(-1/2)/4 - 1) * M / log M."""
    check_rough(eta, M)
    return eta ** (eta**-0.5 / 4.0 - 1.0) * M / math.log(M)


def rough_partition(eta: float, M: int, q: int) -> RoughPartition:
    """Classify every member of rough_set(eta, M), sieved afresh on each
    call, by its symbol mod q.

    The symbols come from residue_scan._rough_rows, a window of the rough
    set at a time and zero off its members, so no member list is made: a
    window's nonzero count and sum give its +1 and -1 counts.
    """
    check_modulus(q)
    rs = rough_set(eta, M)
    nonzero = total = 0
    for (symbols,) in _rough_rows([q], False, rs):
        nonzero += int(np.count_nonzero(symbols))
        total += int(symbols.sum())
    plus, minus = (nonzero + total) // 2, (nonzero - total) // 2
    zero = rs.count - plus - minus
    prod = mertens_product(rs.cutoff).product if rs.cutoff >= 2 else 1.0
    main = 0.5 * M * prod
    return RoughPartition(
        eta,
        M,
        q,
        plus,
        minus,
        zero,
        main,
        plus - main,
        minus - main,
        rough_error_scale(eta, M),
    )


def rough_char_sum(eta: float, M: int, q: int) -> int:
    """Sum of (m|q) over the rough set, via the partition identity
    plus_count - minus_count."""
    check_nonprincipal(q)
    part = rough_partition(eta, M, q)
    return part.count_plus - part.count_minus
