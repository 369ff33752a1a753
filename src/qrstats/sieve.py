"""Prime generation, rough numbers, square-free windows, and the Euler
products used as comparison terms.

All sieves are numpy boolean arrays.  Returned arrays are treated as
immutable after construction and can be shared freely across processes.
A square-free window or rough set keeps its sieve flags and their count;
its members are built from the flags only when a caller asks for them
(a rough set's once, a window's on every call), so a census holds one
byte per integer sieved and no int64 member list.
Memory budgets are enforced up front so a typo in an exponent raises a
ResourceError instead of thrashing the machine.

The three interval sieves (primes_in, squarefree_in_interval and
rough_set) share one strike kernel, _strike, which clears every
multiple m >= floor[i] of each modulus[i] in a mask.  It walks the mask
one SEGMENT window at a time, so the window stays cache resident and
its temporaries stay bounded.  Moduli below _STRIDE_LIMIT (2**12, set
by measurement) clear a strided slice each.  Every larger modulus has
few multiples in a window, so all of them are listed at once (np.repeat
of the per-modulus counts, summed into positions) and cleared by one
scatter, in the manner of the bucket sieve for large sieving primes of
Oliveira e Silva, Herzog and Pardi (Math. Comp. 83, 2014).  The first
multiple of each large modulus is found afresh for every window, by one
vector division; carrying it over would touch every modulus per window
all the same.

The base primes come from one table per process, _base_primes, which
starts empty, grows by doubling up to TABLE_BUDGET, is sliced by
searchsorted and is read-only; fork-pool workers inherit the table their
parent built.  A growth appends primes_in(old limit + 1, new limit),
whose own base primes come from the table, so the table bootstraps
itself; primes_upto is primes_in(2, n), and every list of primes here
comes out of the one kernel.  Beside its own mask and result, a sieve
holds at most that table (the primes up to TABLE_BUDGET, 5.76 million of
them, 46 MB; a growth briefly holds the new primes and a joined copy)
plus the temporaries of one window: a few int64 arrays over the large
moduli and one over their multiples in the window.  primes_in hands the
kernel one SEGMENT at a time, so it holds its output and one window,
never the whole span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ParameterError, RangeError, ResourceError

EULER_GAMMA = float(np.euler_gamma)

MAX_ENDPOINT = 2**63 - 1
"""The largest endpoint an int64 sieve can index.  The limit that binds
is lower: a sieve up to hi needs base primes up to isqrt(hi) <=
TABLE_BUDGET, so every endpoint stays below (TABLE_BUDGET + 1)**2, about
10**16 (see check_range and check_squarefree)."""
SEGMENT = 1 << 20
SPAN_BUDGET = 10**9
TABLE_BUDGET = 10**8
FLAG_BUDGET = 2**28  # bytes: the h + 1 flags of one square-free window

_STRIDE_LIMIT = 1 << 12

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n in ascending order: primes_in(2, n), or an empty
    array for n < 2."""
    _check_prime_table(n)
    if n < 2:
        return np.empty(0, dtype=np.int64)
    return primes_in(2, n)


def _check_prime_table(n: int) -> None:
    if n > TABLE_BUDGET:
        raise ResourceError(f"prime table up to {n} exceeds the budget of {TABLE_BUDGET}")


_base_table = (0, np.empty(0, dtype=np.int64))


def _base_primes(limit: int) -> np.ndarray:
    """The primes <= limit, as a read-only slice of one table per process.

    The table starts empty and grows only when a request passes its
    limit, then to at least twice that limit (capped at TABLE_BUDGET), so
    an ascending run of sieves grows it O(log) times.  A growth appends
    primes_in(built + 1, new limit), whose base primes come from this
    table, recursively, log log deep; a limit below 2 ends the recursion
    with an empty slice.  Callers check limit <= TABLE_BUDGET first.
    """
    global _base_table
    built, table = _base_table
    if limit > max(built, 1):
        grown = min(TABLE_BUDGET, max(limit, 2 * built))
        more = primes_in(max(built + 1, 2), grown)
        built, table = _base_table
        table = np.concatenate([table, more[more > built]])
        table.flags.writeable = False
        _base_table = (grown, table)
    return table[: int(np.searchsorted(table, limit, side="right"))]


def ascending_primes() -> Iterator[int]:
    """2, 3, 5, 7, ... as Python ints, read off the base-prime table at
    doubling limits; a limit past TABLE_BUDGET raises primes_upto's
    ResourceError."""
    done, limit = 0, 64
    while True:
        _check_prime_table(limit)
        primes = _base_primes(limit)
        yield from primes[done:].tolist()
        done, limit = primes.size, 2 * limit


def _strike(mask: np.ndarray, lo: int, moduli: np.ndarray, floors: np.ndarray) -> None:
    """Clear mask[m - lo] for every multiple m >= floors[i] of moduli[i]
    with lo <= m < lo + mask.size.  moduli is ascending int64 and floors
    an int64 array of the same length."""
    split = int(np.searchsorted(moduli, _STRIDE_LIMIT))
    small = list(zip(moduli[:split].tolist(), floors[:split].tolist()))
    large, large_floors = moduli[split:], floors[split:]
    for offset in range(0, mask.size, SEGMENT):
        window = mask[offset : offset + SEGMENT]
        w_lo = lo + offset
        w_hi = w_lo + window.size - 1
        for p, floor in small:
            start = -(-max(floor, w_lo) // p) * p
            if start <= w_hi:
                window[start - w_lo :: p] = False
        first = -(-np.maximum(large_floors, w_lo) // large) * large
        hit = first <= w_hi
        step = large[hit]
        if not step.size:
            continue
        first = first[hit] - w_lo
        count = (window.size - 1 - first) // step + 1
        # The positions are a running sum of steps: each modulus steps by
        # itself between its own multiples, and its first step jumps from
        # the last multiple of the modulus before it to its own first.
        steps = np.repeat(step, count)
        last = first + (count - 1) * step
        steps[(np.cumsum(count) - count)[1:]] = first[1:] - last[:-1]
        steps[0] = first[0]
        window[np.cumsum(steps)] = False


def _check_budgets(lo: int, hi: int) -> None:
    """The budgets of sieving [lo, hi]: the endpoint, the span and the
    base primes up to isqrt(hi), each checked before anything is built."""
    if hi > MAX_ENDPOINT:
        raise RangeError(f"endpoint {hi} exceeds the supported range")
    if hi - lo > SPAN_BUDGET:
        raise ResourceError(f"span {hi - lo} exceeds the budget of {SPAN_BUDGET}")
    if math.isqrt(hi) > TABLE_BUDGET:
        raise ResourceError(
            f"endpoint {hi} needs a prime table up to {math.isqrt(hi)}, over the budget of {TABLE_BUDGET}"
        )


def check_range(lo: int, hi: int) -> None:
    """Preconditions of primes_in: 2 <= lo <= hi, hi within MAX_ENDPOINT,
    hi - lo within SPAN_BUDGET and isqrt(hi) within TABLE_BUDGET."""
    if lo < 2 or hi < lo:
        raise ParameterError(f"need 2 <= lo <= hi, got lo={lo} hi={hi}")
    _check_budgets(lo, hi)


def primes_in(lo: int, hi: int) -> np.ndarray:
    """Primes p with lo <= p <= hi, ascending, via a segmented sieve:
    each segment of 2**20 values is struck by the base primes p <=
    isqrt(hi), from p*p on."""
    check_range(lo, hi)
    base = _base_primes(math.isqrt(hi))
    squares = base * base
    chunks = []
    for seg_lo in range(lo, hi + 1, SEGMENT):
        mask = np.ones(min(SEGMENT, hi - seg_lo + 1), dtype=bool)
        _strike(mask, seg_lo, base, squares)
        chunks.append(np.flatnonzero(mask) + seg_lo)
    return np.concatenate(chunks)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin with the first twelve prime bases,
    correct for all n < 3.3 * 10**24 and therefore for 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_eta(eta: float) -> None:
    """The rough-set exponent must satisfy 0 < eta < 1."""
    if not 0.0 < eta < 1.0:
        raise ParameterError(f"need 0 < eta < 1, got {eta}")


def rough_threshold(eta: float, M: int) -> int:
    """Largest integer t with t <= M**eta, where eta is taken at its exact
    binary64 value.

    A decimal estimate of M**eta, at a few digits more than M has, lies
    within a step or two of the answer; the walk from it to the largest
    t that passes _at_most_power settles every comparison exactly.
    """
    check_eta(eta)
    if M < 1:
        raise ParameterError(f"need M >= 1, got {M}")
    eta = float(eta)
    with localcontext() as ctx:
        ctx.prec = Decimal(M).adjusted() + 10
        t = int((Decimal(eta) * Decimal(M).ln()).exp())
    while not _at_most_power(t, eta, M):
        t -= 1
    while _at_most_power(t + 1, eta, M):
        t += 1
    return t


def _at_most_power(t: int, eta: float, M: int) -> bool:
    """Whether t <= M**eta exactly, for integers t and M >= 1.

    The sign of eta*ln M - ln t is read from decimal, with eta exact, at
    doubling precision.  At prec digits every ln, product and difference
    is rounded within one unit of its last digit, so the computed
    difference is within (ln M + 1) * 10**(2 - prec) of the true one.  A
    difference inside that bound can be an exact tie only if t**den ==
    M**num for eta = num / den in lowest terms, which makes M a perfect
    den-th power, so den <= M.bit_length() when t >= 2; only then are the
    integers compared.
    """
    if t < 2:
        return True
    num, den = eta.as_integer_ratio()
    with localcontext() as ctx:
        ctx.prec = Decimal(M).adjusted() + 10
        while True:
            log_m = Decimal(M).ln()
            diff = Decimal(eta) * log_m - Decimal(t).ln()
            if abs(diff) > (log_m + 1).scaleb(2 - ctx.prec):
                return diff > 0
            if den <= M.bit_length():
                return t**den <= M**num
            ctx.prec *= 2


@dataclass(frozen=True, eq=False)
class RoughSet:
    """Integers in [1, M] with no prime factor p <= M**eta.

    mask[m] is set for each member m (mask[1] always, mask[0] never),
    and count is their number.  cutoff is the exact integer threshold:
    primes <= cutoff are sieved out, and a prime equal to M**eta exactly
    is excluded from the set.  ratio_c0 is count * eta * log(M) / M, the
    count measured against M/(eta log M).
    """

    eta: float
    M: int
    cutoff: int
    mask: np.ndarray
    count: int
    ratio_c0: float

    @cached_property
    def members(self) -> np.ndarray:
        """The members, ascending int64 from 1, listed on first use."""
        return np.flatnonzero(self.mask).astype(np.int64, copy=False)


def check_rough(eta: float, M: int) -> None:
    """Preconditions of rough_set: 0 < eta < 1 and 2 <= M <= TABLE_BUDGET,
    the bound checked before the M+1 mask is allocated."""
    check_eta(eta)
    if M < 2:
        raise ParameterError(f"need M >= 2, got {M}")
    if M > TABLE_BUDGET:
        raise ResourceError(f"rough mask up to {M} exceeds the budget of {TABLE_BUDGET}")


def rough_set(eta: float, M: int) -> RoughSet:
    """Sieve [1, M] down to the integers free of primes <= M**eta."""
    check_rough(eta, M)
    cutoff = rough_threshold(eta, M)
    mask = np.ones(M + 1, dtype=bool)
    mask[0] = False
    primes = _base_primes(min(cutoff, M))
    _strike(mask, 0, primes, primes)
    count = int(np.count_nonzero(mask))
    return RoughSet(eta, M, cutoff, mask, count, count * eta * math.log(M) / M)


class MertensProduct(NamedTuple):
    product: float
    normalized: float


def mertens_product(y: float) -> MertensProduct:
    """The product of (1 - 1/p) over primes p <= y.

    Accumulated as compensated summation of log1p terms (math.fsum), then
    exponentiated, so the result does not drift with the number of
    factors.  normalized is product * e**gamma * log y, which tends to 1.
    """
    if y < 2:
        raise ParameterError(f"need y >= 2, got {y}")
    logs = [math.log1p(-1.0 / p) for p in primes_upto(int(math.floor(y))).tolist()]
    product = math.exp(math.fsum(logs))
    return MertensProduct(product, product * math.exp(EULER_GAMMA) * math.log(y))


def feller_tornier_A(p_max: int) -> float:
    """Partial Euler product of (1 - 2/p**2) over primes p <= p_max,
    the density constant for pairs of adjacent square-free integers."""
    if p_max < 2:
        raise ParameterError(f"need p_max >= 2, got {p_max}")
    logs = [math.log1p(-2.0 / (p * p)) for p in primes_upto(p_max).tolist()]
    return math.exp(math.fsum(logs))


@dataclass(frozen=True, eq=False)
class SquarefreeWindow:
    """Square-free integers in the window [u+1, u+h]: flags[i] is set
    when u+1+i is square-free, count is their number, and pair_count
    counts the n in the window with n and n+1 both square-free."""

    u: int
    h: int
    flags: np.ndarray
    count: int
    pair_count: int

    @property
    def members(self) -> np.ndarray:
        """The square-free integers of the window, ascending int64."""
        return np.flatnonzero(self.flags) + (self.u + 1)

    def members_mod4(self, r: int) -> np.ndarray:
        """Members congruent to r mod 4, read off every fourth flag."""
        first = (r - self.u - 1) % 4
        return np.flatnonzero(self.flags[first::4]) * 4 + (self.u + 1 + first)


def check_window(u: int, h: int = 1) -> None:
    """A window [u+1, u+h], square-free or residue scanned, needs u >= 0
    and h >= 1."""
    if u < 0:
        raise ParameterError(f"need u >= 0, got {u}")
    if h < 1:
        raise ParameterError(f"need h >= 1, got {h}")


def check_squarefree(u: int, h: int) -> None:
    """Preconditions of squarefree_in_interval: check_window, the sieved
    range [u+1, u+h+1] within the endpoint, span and table budgets of
    check_range, and its h + 1 flag bytes within FLAG_BUDGET."""
    check_window(u, h)
    _check_budgets(u + 1, u + h + 1)
    if h + 1 > FLAG_BUDGET:
        raise ResourceError(f"window of h={h} needs {h + 1} flag bytes, past the budget of {FLAG_BUDGET}")


def squarefree_in_interval(u: int, h: int) -> SquarefreeWindow:
    """Sieve the window [u+1, u+h] by squares of primes up to
    sqrt(u+h+1); one extra flag past the window settles the pair count,
    which is taken one SEGMENT at a time so no second window is held."""
    check_squarefree(u, h)
    lo = u + 1
    squares = _base_primes(math.isqrt(lo + h)) ** 2
    flags = np.ones(h + 1, dtype=bool)
    _strike(flags, lo, squares, squares)
    window = flags[:-1]
    pair_count = sum(
        int(np.count_nonzero(window[i : i + SEGMENT] & flags[i + 1 : i + SEGMENT + 1])) for i in range(0, h, SEGMENT)
    )
    return SquarefreeWindow(u, h, window, int(np.count_nonzero(window)), pair_count)
