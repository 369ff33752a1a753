"""Per-prime quadratic residue structure.

Residue tables, least non-residues, gaps between non-residues, first
non-residues past a shifted origin, longest residue runs, and a CRT
construction that glues prescribed windows across several primes.

Two conventions for multiples of p coexist in the literature and both
are supported here.  With zero_as_residue=True (the default everywhere)
a multiple of p counts as a residue, which makes the classification
periodic and run statistics cyclic.  With False only 1..p-1 are
classified and runs cannot wrap.

Every per-prime residue table (residue_map, gap_stats, longest_qr_run
and the gap-tail scan) comes from one squaring kernel.  It marks
k*k mod p for 1 <= k <= (p-1)/2 in a bool buffer, so the unmarked
classes of 1..p-1 are the non-residues, at least (p-1)/2 of them for
any odd p >= 3, prime or not.  Only gap_stats lists them, by one
flatnonzero; longest_qr_run finds its widest run as zero words of
the marks, and the gap-tail scan reads long gaps as residue runs in the
marks.  Its buffers are kept per process (per thread, strictly) and
grow to the next power of two, so a scan over ascending primes
allocates nothing p-sized once warm.  The squares k*k do not depend on
p, only their reduction does, so they come from one read-only uint64
table per process, _squares, shared by every prime and thread: built on
first use (never at import), grown by doubling, and capped at
_SQUARES_CAP entries (8 MiB), which covers every p < 2**21; a chunk of
k past the cap squares its own k.  Squares are reduced and scattered
in chunks of _SQUARE_CHUNK (256 KiB of uint64), so a table near
RESIDUE_TABLE_BUDGET bytes has only small intermediates beside it.

The same marks give the Legendre table of a prime l, (r|l) for
0 <= r < l, and these tables evaluate Jacobi symbols with one side fixed
without the Euclid loop of jacobi_many, by one of two routes; only this
module picks the route, cuts the windows and gives the cost rule its
lane count.  The lanes route gives (n|m) for numerators n over explicit
odd moduli m: _lane_rows cuts them into windows of _SYMBOL_CHUNK lanes,
and _numerator_rows reads each at one gather of m mod l per prime l,
shared by the numerators, plus one sign from m mod 8.  The first-hit
scans take it with one numerator (_fixed_numerator), and S_direct of
proof_trace with the members of N over the primes of [Q, 2Q].  The
range route, _range_symbols, takes consecutive lanes lo, lo+1, ..., and
divides none of them: the row of l is a slice of its table, or the
table tiled from lo mod l, and the signs are tiled the same way.
Prefix sums (below) take it a window of _SYMBOL_CHUNK lanes at a time,
and _rough_rows, for the rough partition of charsums and S_rough of
proof_trace, a window of the rough mask at a time, zero off the mask
(_masked_symbols), so no member list is made.  _table_route holds the
decision and the signs for both routes.  One cost rule, in
_table_factors, picks tables over jacobi_many: int64 lanes, and a fixed
side whose distinct prime factors sum to at most _TABLE_COST (32, set by
measurement) times the lane count, each at most _TABLE_LIMIT (2**20),
found by one numpy trial division over the base primes; every other
call goes to jacobi_many unchanged.  Neither route re-checks the lanes'
domain: each caller checks it once.  The tables are kept per process
(per thread, like the kernel) in a cache of at most _TABLE_CACHE_BUDGET
bytes (4 MiB), least recently used out first, so proof_trace's two sums
and the runs of a scan share them; none is built at import.

Prefix sums, sum_{1 <= m <= n} (m|q) for incomplete_char_sum, come from
_prefix_symbol_sum, decided once for all n lanes by the same cost rule.
Tables it accepts serve every window of 1..n by the range route.  A q it
refuses with n <= sieve.TABLE_BUDGET needs symbols at the primes l <= n
alone, since (m|q) is completely multiplicative in m: pi(n) lanes go
through jacobi_many instead of n, and the sieve's strike kernel turns
their signs into the sum (_prime_symbol_sum).  Past that bound a
refused q still sends all n lanes through jacobi_many, a chunk at a
time.

The least non-residue is the u = 0 case of the first non-residue past
u, and both come from one first-hit scan, _first_hits: it walks steps
(value, a, bound) and records, lane by lane, the first value with
(a|p) = -1.  least_nonresidues steps over the primes l, with a = l;
first_nonresidues_after over h = 1, 2, ..., with a = u + h.  The lanes
are checked odd and >= 3 once, and each step is one _fixed_numerator
call over the lanes still undecided, the windows of _lane_rows joined,
until at most arith._SCALAR_LANES (64) remain; those step through the
scalar jacobi on Python ints, so a one-prime call pays no numpy
overhead per step.
"""

from __future__ import annotations

import collections
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .arith import _SCALAR_LANES, _lanes, jacobi, jacobi_many
from .errors import ParameterError, ResourceError, ScanError
from .sieve import SEGMENT, TABLE_BUDGET, RoughSet, _base_primes, _strike, ascending_primes, check_window

RESIDUE_TABLE_BUDGET = 2**30  # bytes
SYMBOL_LANE_BUDGET = 2**30

# Squares are reduced 2**15 at a time (256 KiB of uint64).  Interleaved
# timings of 2**12 to 2**16 at p near 1.25*10**5 and 10**6 (2-vCPU Xeon,
# 2 MiB L2 a core, numpy 2.4) read 2**15 best, 2**14 and 2**16 within a
# few percent, and 2**12 up to 6% slower than squaring every k per prime.
_SQUARE_CHUNK = 1 << 15
_SQUARES_CAP = 1 << 20  # entries of _square_table, 8 MiB

_TABLE_COST = 32
_TABLE_LIMIT = 1 << 20
_TABLE_CACHE_BUDGET = 4 << 20
_SYMBOL_CHUNK = 1 << 16


def _check_p(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise ParameterError(f"need an odd p >= 3, got {p}")


def check_symbol_lanes(lanes: int, what: str = "") -> None:
    """At most SYMBOL_LANE_BUDGET symbol lanes for one character sum or
    trace, checked before any sieve; what names the request."""
    if lanes > SYMBOL_LANE_BUDGET:
        raise ResourceError(f"up to {lanes} symbol lanes{what} exceed the budget of {SYMBOL_LANE_BUDGET}")


def _capacity(n: int) -> int:
    """The least power of two >= n, so an ascending scan regrows a buffer
    only when p doubles."""
    return 1 << (n - 1).bit_length()


def check_table(p: int, buffers: int = 1) -> None:
    """The kernel's buffers for p, or for any prime up to p, one byte a
    class grown to _capacity(p), must fit RESIDUE_TABLE_BUDGET bytes:
    the marks alone, or with the spare flags of the gap-tail scan (2)."""
    size = buffers * _capacity(p)
    if size > RESIDUE_TABLE_BUDGET:
        raise ResourceError(
            f"residue table for p up to {p} needs {size} bytes, past the budget of {RESIDUE_TABLE_BUDGET}"
        )


def _remainder(x: np.ndarray, k, out: np.ndarray) -> np.ndarray:
    """x mod k for x >= 0, into out, as x - (x // k) * k: a scalar
    floor_divide is several times faster than %."""
    np.floor_divide(x, k, out=out)
    np.multiply(out, k, out=out)
    return np.subtract(x, out, out=out)


_square_table = np.empty(0, dtype=np.uint64)
_square_lock = threading.Lock()


def _squares(n: int) -> np.ndarray:
    """(j+1)**2 for 0 <= j < min(n, _SQUARES_CAP), as a read-only uint64
    slice of one table per process.

    The table starts empty and grows only when a request passes its
    size, to the next power of two (capped at _SQUARES_CAP), so an
    ascending scan grows it O(log) times.  A growth replaces the table
    under a lock and never writes one in place, so a thread still reading
    the old table reads it whole; fork-pool workers inherit the table
    their parent built.
    """
    global _square_table
    n = min(n, _SQUARES_CAP)
    table = _square_table
    if table.size < n:
        with _square_lock:
            table = _square_table
            if table.size < n:
                table = np.arange(1, min(_capacity(n), _SQUARES_CAP) + 1, dtype=np.uint64)
                np.multiply(table, table, out=table)
                table.flags.writeable = False
                _square_table = table
    return table[:n]


class _SquareKernel(threading.local):
    """The one squaring kernel behind every per-prime residue table.

    Its buffers belong to one thread and are reused from prime to prime:
    they grow to the next power of two and are never freed, so a warm
    scan allocates nothing p-sized.  Each call overwrites what the last
    one returned, so callers finish with a view before the next call.
    The squares themselves are not the kernel's: they are read from the
    process-wide _squares table (up to 8 MiB, built on first use), and
    only reduced mod p in the kernel's one chunk buffer.
    """

    def __init__(self) -> None:
        self.marks = np.empty(0, dtype=bool)
        self.spare = np.empty(0, dtype=bool)
        self.chunk = np.empty(0, dtype=np.uint64)
        self.tables: dict = {}
        self.table_bytes = 0

    def square_marks(self, p: int) -> np.ndarray:
        """A view of p bools, False exactly at the classes k*k mod p for
        1 <= k <= (p-1)/2."""
        _check_p(p)
        check_table(p)
        if self.marks.size < p:
            self.marks = np.empty(_capacity(p), dtype=bool)
        half = (p - 1) // 2
        if self.chunk.size < min(half, _SQUARE_CHUNK):
            self.chunk = np.empty(min(_capacity(half), _SQUARE_CHUNK), dtype=np.uint64)
        marks = self.marks[:p]
        marks.fill(True)
        squares = _squares(half)
        P = np.uint64(p)
        for lo in range(0, half, _SQUARE_CHUNK):
            hi = min(lo + _SQUARE_CHUNK, half)
            r = self.chunk[: hi - lo]
            if hi <= squares.size:
                sq = squares[lo:hi]
            else:  # past the table's cap: this chunk squares its own k
                sq = np.arange(lo + 1, hi + 1, dtype=np.uint64)
                np.multiply(sq, sq, out=sq)
            _remainder(sq, P, r)
            # An int64 index scatters directly; a uint64 one is first
            # copied to intp.
            marks[r.view(np.int64)] = False
        return marks

    def spare_flags(self, p: int) -> np.ndarray:
        """A view of p bools beside the marks, for work on a copy of them;
        its contents are undefined."""
        if self.spare.size < p:
            self.spare = np.empty(_capacity(p), dtype=bool)
        return self.spare[:p]

    def legendre(self, l: int) -> np.ndarray:
        """(r|l) for 0 <= r < l as int8, for an odd prime l: 0 at r = 0,
        then +1 at the squares and -1 elsewhere.  The tables kept, by l,
        hold at most _TABLE_CACHE_BUDGET bytes, least recently used out
        first; a table past the budget is returned and not kept."""
        table = self.tables.pop(l, None)
        if table is None:
            table = self.square_marks(l).view(np.int8) * np.int8(-2)
            table += 1
            table[0] = 0
        else:
            self.table_bytes -= table.nbytes
        if table.nbytes <= _TABLE_CACHE_BUDGET:
            while self.table_bytes + table.nbytes > _TABLE_CACHE_BUDGET:
                self.table_bytes -= self.tables.pop(next(iter(self.tables))).nbytes
            self.tables[l] = table
            self.table_bytes += table.nbytes
        return table


_KERNEL = _SquareKernel()


def _table_factors(fixed, lanes: int) -> list[tuple[int, int]] | None:
    """The prime factors (l, e) of fixed when its symbols against that
    many int64 lanes should come from Legendre tables; None sends them to
    jacobi_many.  The decision takes a lane count, not the lanes, so it
    allocates nothing lane-sized; the callers check the lanes' dtype.

    The cost rule: the table of a prime l holds l entries and costs 3-7 ns
    an entry to build up to 2**20 entries (13-19 ns past that), while the
    Euclid loop of jacobi_many costs 150-350 ns a lane (2-vCPU Xeon,
    numpy 2.4; a table wins twice over at 32 entries a lane, from 1,000
    lanes to 65,536).  So tables need 1 <= fixed < 2**63 and distinct
    prime factors, each at most _TABLE_LIMIT, that sum to at most
    _TABLE_COST times the lanes.  One numpy % by the base primes up to
    min(that bound, _TABLE_LIMIT, isqrt(fixed)) finds them.  A cofactor
    c > 1 left over is one prime if c <= min(bound, _TABLE_LIMIT), and
    is taken if the summed cost allows; a larger one has only prime
    factors past the cap, so it is refused untested.  The bound grows
    with the lanes, so fixed refused for some lanes is refused for fewer.
    """
    bound = _TABLE_COST * lanes
    if not 1 <= fixed < 1 << 63:
        return None
    fixed = int(fixed)
    cap = min(bound, _TABLE_LIMIT)
    primes = _base_primes(min(cap, math.isqrt(fixed)))
    factors, cost = [], 0
    for l in primes[np.int64(fixed) % primes == 0].tolist():
        cost += l
        if cost > bound:
            return None
        e = 0
        while fixed % l == 0:
            fixed //= l
            e += 1
        factors.append((l, e))
    if fixed > 1:
        if fixed > cap or cost + fixed > bound:
            return None
        factors.append((fixed, 1))
    return factors


def _table_route(fixed, lanes: int, numerator: bool):
    """(factors, signs) for the lanes route (_numerator_rows) or the range
    route (_range_symbols) when the cost rule of _table_factors takes
    tables for fixed against that many int64 lanes m, else None:
    (fixed|m) for a fixed numerator, (m|fixed) for a fixed modulus.  A
    fixed modulus must be odd; every caller passes one that
    charsums.check_modulus has checked, so it is not checked again here.

    With a = 2**e * prod l**e_l, (a|m) = (2|m)**e * prod (l|m)**e_l, and
    by reciprocity (l|m) = (m mod l | l), flipped when l = m = 3 mod 4
    (Ireland and Rosen, ch. 5; Cohen, section 1.4).  All the flips and
    (2|m) = -1 for m = 3, 5 mod 8 make the numerator's signs, one per
    m mod 8; a fixed modulus q = prod l**e_l has no signs, since
    (m|q) = prod (m mod l | l)**e_l.
    """
    factors = _table_factors(fixed, lanes)
    if factors is None:
        return None
    if not numerator:
        return factors, np.ones(8, dtype=np.int8)
    r = np.arange(8)
    flip = np.zeros(8, dtype=bool)
    for l, e in factors:
        if e % 2 and l == 2:
            flip ^= (r == 3) | (r == 5)
        elif e % 2 and l % 4 == 3:
            flip ^= r % 4 == 3
    return factors, np.where(flip, -1, 1).astype(np.int8)


def _tile(table: np.ndarray, r: int, n: int) -> np.ndarray:
    """table[(r + i) mod table.size] for 0 <= i < n, so no lane is
    divided: a slice of table (a view) when the n lanes fit in one period
    from r, else one period from r and doubling copies of it."""
    period = table.size
    if r + n <= period:
        return table[r : r + n]
    out = np.empty(n, dtype=table.dtype)
    k = min(period - r, n)
    out[:k] = table[r : r + k]
    j = min(r, n - k)
    out[k : k + j] = table[:j]
    k += j
    while k < n:  # out[:k] holds whole periods
        step = min(k, n - k)
        out[k : k + step] = out[:step]
        k += step
    return out


def _range_symbols(lo: int, n: int, factors: list[tuple[int, int]], signs: np.ndarray) -> np.ndarray:
    """The lanes route's row (_numerator_rows) for the consecutive lanes
    lo, lo+1, ..., lo+n-1, without the lanes: signs tiled from lo mod 8
    times, per odd factor l, the Legendre table of l tiled from lo mod l
    (_tile), a slice of it when the lanes fit in one period.  Fresh int8;
    callers pass one window, at most _SYMBOL_CHUNK lanes."""
    out = np.array(_tile(signs, lo % 8, n))
    for l, e in factors:
        if l != 2:
            f = _tile(_KERNEL.legendre(l), lo % l, n)
            out *= f
            if e % 2 == 0:
                out *= f
    return out


def _masked_symbols(fixed, numerator: bool, route, lo: int, keep: np.ndarray) -> np.ndarray:
    """The symbols of the lanes m = lo + i with keep[i] set, 0 at the
    others, as int8: (fixed|m) for a fixed numerator, else (m|fixed).
    route is _table_route's for fixed: tables give every lane of the
    window by _range_symbols, and None sends the kept lanes alone through
    jacobi_many."""
    if route is None:
        symbols = np.zeros(keep.size, dtype=np.int8)
        m = np.flatnonzero(keep) + lo
        symbols[keep] = jacobi_many(fixed, m) if numerator else jacobi_many(m, fixed)
        return symbols
    symbols = _range_symbols(lo, keep.size, *route)
    symbols *= keep
    return symbols


def _numerator_rows(ns: Sequence[int], routes: list, m: np.ndarray) -> Iterator[np.ndarray]:
    """(n|m) for each n of ns in turn, with routes[i] _table_route's for
    ns[i], over one window of odd int64 moduli m >= 1: the one code that
    reads Legendre tables at explicit lanes.  A row is signs[m mod 8]
    times (m mod l | l)**e per odd prime factor l of n.

    Rows are shared within the window: the sign row once per distinct
    signs, and m mod l with its Legendre gather once per odd prime l of
    the members; the gathers of a prime that divides two or more of them
    are kept.  Two members of N divisible by l lie in one
    class mod 4, so they differ by a multiple of 4l: at most pi(h / 4)
    rows are kept for a window [u+1, u+h].  Rows the cost rule refuses
    come from jacobi_many.
    Each yielded row is overwritten by the next.
    """
    uses = collections.Counter(l for route in routes if route for l, _ in route[0] if l != 2)
    rem = np.empty(m.size, dtype=np.int64)
    out, spare = np.empty(m.size, dtype=np.int8), np.empty(m.size, dtype=np.int8)
    shared = {}
    for n, route in zip(ns, routes):
        if route is None:
            yield jacobi_many(n, m)
            continue
        factors, signs = route
        key = signs.tobytes()
        if key not in shared:
            shared[key] = np.take(signs, np.bitwise_and(m, 7, out=rem))
        np.copyto(out, shared[key])
        for l, e in factors:
            if l == 2:
                continue
            f = shared.get(l)
            if f is None:
                f = np.take(_KERNEL.legendre(l), _remainder(m, l, rem), out=spare if uses[l] == 1 else None)
                if uses[l] > 1:
                    shared[l] = f
            out *= f
            if e % 2 == 0:
                out *= f
        yield out


def _lane_rows(ns: Sequence[int], m: np.ndarray) -> Iterator[Iterator[np.ndarray]]:
    """(n|m) for the numerators n of ns over odd moduli m >= 1 by the lanes
    route: per window of _SYMBOL_CHUNK lanes, one _numerator_rows iterator
    of a row per n.  The cost rule decides each n's route once for all
    m.size lanes; lanes that are not int64 (past 2**63) go to jacobi_many."""
    routes = [_table_route(n, m.size, True) if m.dtype == np.int64 else None for n in ns]
    for lo in range(0, m.size, _SYMBOL_CHUNK):
        yield _numerator_rows(ns, routes, m[lo : lo + _SYMBOL_CHUNK])


def _rough_rows(ns: Sequence[int], numerator: bool, rough: RoughSet) -> Iterator[Iterator[np.ndarray]]:
    """(n|m) for numerators n, else (m|n) for odd moduli n, over the
    members m of rough by the range route: per window of _SYMBOL_CHUNK
    positions of its mask, one row per n of ns, zero off the mask.  The
    cost rule decides each n's route for rough.count lanes, as the lanes
    route would.  The one program code that reads RoughSet.mask."""
    routes = [_table_route(n, rough.count, numerator) for n in ns]
    for lo in range(0, rough.mask.size, _SYMBOL_CHUNK):
        keep = rough.mask[lo : lo + _SYMBOL_CHUNK]
        yield (_masked_symbols(n, numerator, route, lo, keep) for n, route in zip(ns, routes))


def _fixed_numerator(a, m: np.ndarray) -> np.ndarray:
    """(a|m) over the odd moduli m >= 1 of a first-hit step: the windows
    of _lane_rows joined."""
    return np.concatenate([next(rows) for rows in _lane_rows([a], m)])


def _prefix_symbol_sum(n: int, q: int) -> int:
    """sum_{1 <= m <= n} (m|q) for n >= 0 and odd q >= 1.

    The cost rule of _table_factors decides once for all n lanes.  Tables
    it accepts give the symbols of 1..n a window at a time by the range
    route (_range_symbols), which divides no lane.  Refused and
    n <= TABLE_BUDGET, the sum comes from the symbols at the primes up to
    n (_prime_symbol_sum); refused past that, every lane goes through
    jacobi_many a window at a time.
    """
    route = _table_route(q, n, False)
    if route is None and n <= TABLE_BUDGET:
        return _prime_symbol_sum(n, q)
    total = 0
    for lo in range(1, n + 1, _SYMBOL_CHUNK):
        size = min(_SYMBOL_CHUNK, n + 1 - lo)
        if route is None:
            symbols = jacobi_many(np.arange(lo, lo + size, dtype=np.int64), q)
        else:
            symbols = _range_symbols(lo, size, *route)
        total += int(symbols.sum())
    return total


def _prime_symbol_sum(n: int, q: int) -> int:
    """sum_{1 <= m <= n} (m|q) from (l|q) at the primes l <= n alone.

    (m|q) is completely multiplicative in m: 0 when a prime factor of m
    divides q, else -1 to the number of powers l**e dividing m of the
    primes with (l|q) = -1.  _strike flips the multiples of each such
    power and clears those of the primes dividing q, a window of 1..n at
    a time.  A q the cost rule refuses for n lanes it refuses for the
    pi(n) primes, so their symbols come from jacobi_many.
    """
    P = _base_primes(n)
    symbols = jacobi_many(P, q)
    zero, minus = P[symbols == 0], P[symbols == -1]
    powers, power = [minus], minus[: int(np.searchsorted(minus, math.isqrt(n), side="right"))]
    while power.size:
        power = power * minus[: power.size]
        power = power[power <= n]
        powers.append(power)
    powers = np.concatenate(powers)
    powers.sort()
    # windows of about pi(n) flags, 2**18 to SEGMENT: int64 parity counts
    # the size of the primes, and each pass over the moduli spread wide
    total, size = 0, min(SEGMENT, max(P.size, SEGMENT >> 2))
    for lo in range(1, n + 1, size):
        live = np.ones(min(size, n + 1 - lo), dtype=bool)
        odd = np.zeros(live.size, dtype=bool)
        _strike(live, lo, zero, zero)
        _strike(odd, lo, powers, powers, flip=True)
        total += int(np.count_nonzero(live)) - 2 * int(np.count_nonzero(odd & live))
    return total


@dataclass(frozen=True, eq=False)
class ResidueMap:
    """Bit-packed residue classification for one period 0..p-1.

    Bit n is set when n is classified a quadratic residue mod p under the
    stored convention.  Bits are packed most significant first within
    each byte, matching numpy's packbits layout.
    """

    p: int
    packed: np.ndarray
    zero_as_residue: bool

    def bools(self) -> np.ndarray:
        """The classification unpacked to one bool per class."""
        return np.unpackbits(self.packed, count=self.p).view(np.bool_)


def residue_map(p: int, zero_as_residue: bool = True) -> ResidueMap:
    """Tabulate the residues mod p by squaring 1..(p-1)/2.

    p must be an odd prime (primality is the caller's responsibility;
    oddness is checked).
    """
    marks = _KERNEL.square_marks(p)
    if zero_as_residue:
        marks[0] = False
    packed = np.packbits(marks)
    np.invert(packed, out=packed)
    if p % 8:
        packed[-1] &= 0xFF << (8 - p % 8) & 0xFF
    return ResidueMap(p, packed, zero_as_residue)


def least_nonresidue(p: int) -> int:
    """The smallest n >= 2 with (n|p) = -1: least_nonresidues on the one
    lane p."""
    return int(least_nonresidues([p])[0])


def _first_hits(P, steps: Iterable[tuple[int, int, int]], fill: int, message: Callable[[int], str]) -> np.ndarray:
    """For each odd p >= 3 of P, in order, the value of the first step
    (value, a, bound) with (a|p) = -1, or fill when the steps run out, as
    a 1-d int64 array.

    P is checked here once.  Each step evaluates (a|p) over the lanes
    still undecided, with the numerator fixed (_fixed_numerator), so the
    work shrinks with them; once at most _SCALAR_LANES remain, the rest
    step through the scalar jacobi on Python ints, which costs less than
    numpy's per-call overhead.  A lane still undecided below a step's bound has no
    non-residue at all: the first such lane p raises
    ScanError(message(p)).
    """
    P = _lanes(P).reshape(-1)
    bad = (P < 3) | ((P & 1) == 0)
    if bad.any():
        _check_p(P[bad][0])
    out = np.empty(P.size, dtype=np.int64)
    active, live = np.arange(P.size), P
    lanes = None  # {index: p} once the scan turns scalar
    for value, a, bound in steps:
        if lanes is None and active.size <= _SCALAR_LANES:
            lanes = dict(zip(active.tolist(), live.tolist()))
        if lanes is None:
            if live.min() < bound:
                raise ScanError(message(int(live[live < bound][0])))
            # Every active lane takes the value, and a later step or the
            # fill overwrites the lanes kept.  One flatnonzero and integer
            # gathers cost less than three boolean selections: 17-21 ms
            # against 45-61 ms over the odd primes below 10**7.
            out[active] = value
            keep = np.flatnonzero(_fixed_numerator(a, live) != -1)
            active, live = active[keep], live[keep]
        elif not lanes:
            break
        else:
            for i, p in list(lanes.items()):
                if p < bound:
                    raise ScanError(message(p))
                if jacobi(a, p) == -1:
                    out[i] = value
                    del lanes[i]
    out[active if lanes is None else list(lanes)] = fill
    return out


def least_nonresidues(P) -> np.ndarray:
    """least_nonresidue(p) for every odd prime p of P, in order.

    (n|p) is completely multiplicative in n, so the least n with
    (n|p) = -1 is a prime l, and the scan (_first_hits) steps over the
    primes l only.  A p still undecided once l - 1 passes it has no
    non-residue at all and is reported as a scan error.
    """
    steps = ((l, l, l - 1) for l in ascending_primes())
    return _first_hits(P, steps, 0, lambda p: f"no non-residue found below {p}; is p={p} prime?")


@dataclass(frozen=True, eq=False)
class GapStats:
    """All non-residues of p in [1, p-1] and their consecutive gaps.

    n_seq has length (p-1)/2 for prime p; deltas[k] = n_seq[k+1] - n_seq[k].
    """

    p: int
    n_seq: np.ndarray
    deltas: np.ndarray


def gap_stats(p: int) -> GapStats:
    """List the unmarked classes of 1..p-1 in the kernel's marks, the
    non-residues, into a fresh array and difference them."""
    n_seq = np.flatnonzero(_KERNEL.square_marks(p)[1:])
    n_seq += 1
    return GapStats(p, n_seq, np.diff(n_seq))


def check_tail(h: int) -> None:
    """The gap-tail threshold must satisfy h >= 1."""
    if h < 1:
        raise ParameterError(f"need h >= 1, got {h}")


def gap_tail(stats: GapStats, h: int) -> tuple[int, int]:
    """(N, S) for the gap sequence: N counts the gaps >= h and S sums
    them.  Both are exact integers."""
    check_tail(h)
    sel = stats.deltas >= h
    return int(np.count_nonzero(sel)), int(stats.deltas[sel].sum())


def _last_true(flags: np.ndarray) -> int:
    """The index of the last True in flags, which holds one.  A reversed
    view scans slowly, so only tails of doubling size are reversed."""
    size = 64
    while not flags[-size:].any():
        size *= 2
    return flags.size - 1 - int(np.argmax(flags[-size:][::-1]))


def _gap_tail_of(p: int, h: int) -> tuple[int, int]:
    """gap_tail(gap_stats(p), h) for the gap-tail scan, read straight off
    the kernel's marks without listing the non-residues.

    A gap >= h between consecutive non-residues is a run of >= h-1
    residues with a non-residue on each side.  The non-residue flags of
    1..p-1 are widened by log-doubling ORs until flag i says whether the
    h-1 classes from i+1 on hold a non-residue.  Each maximal run of
    cleared flags, a run of window starts, is one such residue run, and
    a run of k starts is a gap of k + h - 1; the runs at either end lie
    before the first or after the last non-residue and are no gaps.  The
    ORs alternate between the marks and the kernel's spare flags, so
    nothing p-sized is allocated.
    """
    check_tail(h)
    check_table(p, buffers=2)
    nonres = _KERNEL.square_marks(p)[1:]
    n = p - 1
    if h == 1:
        return int(np.count_nonzero(nonres)) - 1, _last_true(nonres) - int(np.argmax(nonres))
    w = h - 1
    if w >= n:
        return 0, 0
    # a[i]: a non-residue lies among classes i+1, ..., i+k, for i <= n - k
    a, b, k = nonres, _KERNEL.spare_flags(n), 1
    while k < w:
        step = min(k, w - k)
        a, b = np.logical_or(a[: n - k - step + 1], a[step : n - k + 1], out=b[: n - k - step + 1]), a
        k += step
    m = n - w + 1
    a = a[:m]
    # cleared runs that follow a set flag, less the one that ends at p-1
    lead, trail = int(np.argmax(a)), m - 1 - _last_true(a)
    runs = int(np.count_nonzero(np.less(a[1:], a[:-1], out=b[: m - 1]))) - (trail > 0)
    width = m - int(np.count_nonzero(a)) - lead - trail
    return runs, width + runs * w


def first_nonresidue_after(p: int, u: int) -> int:
    """The least h >= 1 such that u + h is a non-residue mod p:
    first_nonresidues_after on the one lane p.  Running past p steps
    means the modulus was not prime and is reported as a scan error."""
    return int(first_nonresidues_after([p], u)[0])


def first_nonresidues_after(P, u: int, cap: int | None = None) -> np.ndarray:
    """first_nonresidue_after(p, u) for every odd prime p of P, in order,
    as a 1-d int64 array; with a cap, values past it read cap + 1.

    The scan (_first_hits) steps over h = 1, 2, ... with numerator
    u + h.  A prime still undecided after h = p steps has no non-residue
    at all and is reported as a scan error.
    """
    check_window(u)
    steps = ((h, u + h, h) for h in (itertools.count(1) if cap is None else range(1, cap + 1)))
    return _first_hits(
        P, steps, -1 if cap is None else cap + 1,
        lambda p: f"no non-residue within {p} steps after u={u}; is p={p} prime?",
    )


def _residue_runs(marks: np.ndarray, lo: int, hi: int, least: int) -> np.ndarray:
    """The lengths of the maximal residue runs of at least least that lie
    strictly between the non-residues at lo and hi - 1, in any order.

    A run of at least 2w - 1 False bytes holds a w-byte aligned word that
    is all zero, so with w the largest of 8, 4, 2 and 1 that has
    2w - 1 <= least, one flatnonzero over the aligned words of
    marks[lo:hi] finds every such run.  Consecutive zero words make one
    run, which extends by fewer than w bytes on each side; those bytes
    are gathered with clipping into [lo, hi), whose ends are non-residues.
    """
    w = next(w for w in (8, 4, 2, 1) if 2 * w - 1 <= least)
    flags = marks[lo:hi]
    head = -lo % w
    count = (flags.size - head) // w
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    zero = np.flatnonzero(flags[head : head + count * w].view(f"u{w}") == 0)
    if not zero.size:
        return zero
    split = np.flatnonzero(zero[1:] != zero[:-1] + 1)
    start = zero[np.concatenate(([0], split + 1))] * w + head
    end = zero[np.concatenate((split, [zero.size - 1]))] * w + head + w
    runs = end - start
    if w > 1:
        # the first non-residue in the w - 1 bytes before and after each
        # group; none there means the run takes all w - 1
        reach = np.arange(1, w)
        before = flags.take(start[:, None] - reach, mode="clip")
        after = flags.take(end[:, None] + reach - 1, mode="clip")
        for side in (before, after):
            runs += np.where(side.any(axis=1), side.argmax(axis=1), w - 1)
    return runs[runs >= least]


def longest_qr_run(p: int, zero_as_residue: bool = True) -> int:
    """Longest run of consecutive integers all classified residues mod p.

    Under the default convention the classification has period p and the
    run is measured cyclically, so a run may straddle a multiple of p.
    Under zero_as_residue=False runs live strictly inside 1..p-1.

    The run is read off the kernel's marks without listing the
    non-residues: the first and last non-residue bound the runs at either
    end, and _residue_runs finds the widest one between them, first on
    8-byte words (runs of at least 15), then on 4-, 2- and 1-byte words
    only while no run is that long.
    """
    marks = _KERNEL.square_marks(p)
    nonres = marks[1:]
    first = int(np.argmax(nonres)) + 1
    last = _last_true(nonres) + 1
    # marks, not nonres, so that aligned words are aligned in memory
    for least in (15, 7, 3, 1):
        runs = _residue_runs(marks, first, last + 1, least)
        if runs.size:
            break
    widest = int(runs.max()) if runs.size else 0
    if zero_as_residue:
        return max(widest, first + p - last - 1)
    return max(widest, first - 1, p - 1 - last)


def check_crt(pairs: Sequence[tuple[int, int]]) -> None:
    """Preconditions of crt_adversarial_u: at least one pair, pairwise
    distinct odd moduli >= 3 (primality is the caller's responsibility),
    and a modulus product below 2**127."""
    if not pairs:
        raise ParameterError("at least one congruence is required")
    moduli = [l for l, _ in pairs]
    if len(set(moduli)) != len(moduli):
        raise ParameterError(f"moduli must be pairwise distinct, got {moduli}")
    product = 1
    for l in moduli:
        _check_p(l)
        product *= l
        if product >= 1 << 127:
            raise ResourceError("modulus product exceeds the 128-bit budget")


def crt_adversarial_u(pairs: Sequence[tuple[int, int]]) -> int:
    """The least u >= 0 with u = u_i mod l_i for each (l_i, u_i), for
    pairwise distinct odd prime moduli (see check_crt).  Because u matches
    u_i mod l_i, the first non-residue past u agrees with the first
    non-residue past u_i for every modulus."""
    check_crt(pairs)
    product = math.prod(l for l, _ in pairs)
    u = 0
    for l, r in pairs:
        rest = product // l
        u = (u + (r % l) * rest * pow(rest, -1, l)) % product
    return u
