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
classes of 1..p-1 are the non-residues.  Only gap_stats lists them;
longest_qr_run finds its widest run as zero machine words of the marks,
and the gap-tail scan reads its long gaps as long residue runs in the
marks.  Its buffers are kept per process (per thread, strictly) and
grow to the next power of two, so a scan over ascending primes
allocates nothing p-sized once warm; squares are taken in chunks of
_SQUARE_CHUNK, so a table near RESIDUE_TABLE_BUDGET bytes has only
small intermediates beside it.

The same marks give the Legendre table of a prime l, (r|l) for
0 <= r < l, and these tables evaluate Jacobi symbols with one side fixed
without the Euclid loop of jacobi_many: _fixed_numerator for (a|m) over
odd moduli m (the scans past u + h and the squared sums of
proof_trace), _fixed_modulus for (m|q) over numerators m (character
sums).  Each costs one gather of m mod l per prime factor l of the fixed
side, plus one sign from m mod 8.  One cost rule, in _table_factors,
picks tables over jacobi_many: int64 lanes, and a fixed side whose
distinct prime factors sum to at most _TABLE_COST (32, set by
measurement) times the lane count, each at most _TABLE_LIMIT (2**20),
found by one numpy trial division over the base primes; every other
call, out-of-domain lanes included, goes to jacobi_many unchanged.  The
tables are kept per process (per thread, like the kernel) in a cache of
at most _TABLE_CACHE_BUDGET bytes (4 MiB), least recently used out
first, so proof_trace's two sums and the runs of a scan share them;
none is built at import.

The least non-residue is the u = 0 case of the first non-residue past
u, and both come from one first-hit scan, _first_hits: it walks steps
(value, a, bound) and records, lane by lane, the first value with
(a|p) = -1.  least_nonresidues steps over the primes l, with a = l;
first_nonresidues_after over h = 1, 2, ..., with a = u + h.  Each step
is one _fixed_numerator call over the lanes still undecided, until at
most _SCALAR_LANES (64) remain; those step through the scalar jacobi on
Python ints, so a one-prime call pays no numpy overhead per step.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .arith import _lanes, jacobi, jacobi_many
from .errors import ParameterError, ResourceError, ScanError
from .sieve import _base_primes, ascending_primes, check_window

RESIDUE_TABLE_BUDGET = 2**30  # bytes

_SQUARE_CHUNK = 1 << 16
_POSITION_SLICE = 1 << 14

_TABLE_COST = 32
_TABLE_LIMIT = 1 << 20
_TABLE_CACHE_BUDGET = 4 << 20
_SYMBOL_CHUNK = 1 << 16
# A numpy step costs 40-50 us by tables and 200-350 us by jacobi_many at
# up to 128 lanes, the scalar jacobi 1-3 us a lane (2-vCPU Xeon, numpy
# 2.4): the scalar route wins below about 40 lanes on tables and 100 on
# the Euclid loop, and whole scans read the same from 32 to 128.
_SCALAR_LANES = 64


def _check_p(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise ParameterError(f"need an odd p >= 3, got {p}")


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


class _SquareKernel(threading.local):
    """The one squaring kernel behind every per-prime residue table.

    Its buffers belong to one thread and are reused from prime to prime:
    they grow to the next power of two and are never freed, so a warm
    scan allocates nothing p-sized.  Each call overwrites what the last
    one returned, so callers finish with a view before the next call.
    """

    def __init__(self) -> None:
        self.marks = np.empty(0, dtype=bool)
        self.spare = np.empty(0, dtype=bool)
        self.steps = np.empty(0, dtype=np.uint64)
        self.k = np.empty(0, dtype=np.uint64)
        self.sq = np.empty(0, dtype=np.uint64)
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
        if self.steps.size < min(half, _SQUARE_CHUNK):
            size = min(_capacity(half), _SQUARE_CHUNK)
            self.steps = np.arange(size, dtype=np.uint64)
            self.k = np.empty(size, dtype=np.uint64)
            self.sq = np.empty(size, dtype=np.uint64)
        marks = self.marks[:p]
        marks.fill(True)
        P = np.uint64(p)
        for start in range(1, half + 1, _SQUARE_CHUNK):
            m = min(_SQUARE_CHUNK, half + 1 - start)
            k, sq = self.k[:m], self.sq[:m]
            np.add(self.steps[:m], start, out=k)
            np.multiply(k, k, out=sq)
            # k*k - (k*k // p) * p, with k reused for the quotient: a
            # scalar floor_divide is several times faster than %.
            np.floor_divide(sq, P, out=k)
            np.multiply(k, P, out=k)
            np.subtract(sq, k, out=sq)
            # An int64 index scatters directly; a uint64 one is first
            # copied to intp.
            marks[sq.view(np.int64)] = False
        return marks

    def spare_flags(self, p: int) -> np.ndarray:
        """A view of p bools beside the marks, for work on a copy of them;
        its contents are undefined."""
        if self.spare.size < p:
            self.spare = np.empty(_capacity(p), dtype=bool)
        return self.spare[:p]

    def cached(self, key, build: Callable[[], np.ndarray]) -> np.ndarray:
        """The table stored under key, or build() kept for next time.

        The tables kept hold at most _TABLE_CACHE_BUDGET bytes in all: the
        least recently used go first, and a table larger than the budget
        is returned without being kept.
        """
        table = self.tables.pop(key, None)
        if table is None:
            table = build()
        else:
            self.table_bytes -= table.nbytes
        if table.nbytes <= _TABLE_CACHE_BUDGET:
            while self.table_bytes + table.nbytes > _TABLE_CACHE_BUDGET:
                self.table_bytes -= self.tables.pop(next(iter(self.tables))).nbytes
            self.tables[key] = table
            self.table_bytes += table.nbytes
        return table

    def legendre(self, l: int) -> np.ndarray:
        """(r|l) for 0 <= r < l as int8, for an odd prime l: 0 at r = 0,
        then +1 at the squares and -1 elsewhere."""

        def build() -> np.ndarray:
            table = self.square_marks(l).view(np.int8) * np.int8(-2)
            table += 1
            table[0] = 0
            return table

        return self.cached(("legendre", l), build)


_KERNEL = _SquareKernel()


def _table_factors(fixed, lanes: np.ndarray) -> list[tuple[int, int]] | None:
    """The prime factors (l, e) of fixed when its symbols against the
    lanes should come from Legendre tables; None sends them to
    jacobi_many.

    The cost rule: the table of a prime l holds l entries and costs 3-7 ns
    an entry to build up to 2**20 entries (13-19 ns past that), while the
    Euclid loop of jacobi_many costs 150-350 ns a lane (2-vCPU Xeon,
    numpy 2.4; a table wins twice over at 32 entries a lane, from 1,000
    lanes to 65,536).  So tables need int64 lanes, 1 <= fixed < 2**63 and
    distinct prime factors, each at most _TABLE_LIMIT, that sum to at most
    _TABLE_COST times the lanes.  One numpy % by the base primes up to
    min(that bound, _TABLE_LIMIT, isqrt(fixed)) finds them.  A cofactor
    c > 1 left over is one prime if c <= min(bound, _TABLE_LIMIT), and
    is taken if the summed cost allows; a larger one has only prime
    factors past the cap, so it is refused untested.
    """
    bound = _TABLE_COST * lanes.size
    if lanes.dtype != np.int64 or not 1 <= fixed < 1 << 63:
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


def _remainder(x: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """x mod k for int64 x >= 0, into out, as x - (x // k) * k: a scalar
    floor_divide is faster than %."""
    np.floor_divide(x, k, out=out)
    np.multiply(out, k, out=out)
    return np.subtract(x, out, out=out)


def _table_symbols(m: np.ndarray, factors: list[tuple[int, int]], signs: np.ndarray) -> np.ndarray:
    """signs[m mod 8] times the product of (m mod l | l)**e over the odd
    factors (l, e), lane by lane as int8, 2**16 lanes at a time."""
    tables = [(l, e % 2 == 0, _KERNEL.legendre(l)) for l, e in factors if l != 2]
    out = np.empty(m.shape, dtype=np.int8)
    flat_m, flat_out = m.reshape(-1), out.reshape(-1)
    size = min(flat_m.size, _SYMBOL_CHUNK)
    rem, symbol = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int8)
    for lo in range(0, flat_m.size, _SYMBOL_CHUNK):
        chunk, acc = flat_m[lo : lo + _SYMBOL_CHUNK], flat_out[lo : lo + _SYMBOL_CHUNK]
        r, f = rem[: chunk.size], symbol[: chunk.size]
        np.bitwise_and(chunk, 7, out=r)
        np.take(signs, r, out=acc)
        for l, even, table in tables:
            np.take(table, _remainder(chunk, l, r), out=f)
            acc *= f
            if even:
                acc *= f
    return out


def _fixed_numerator(a, m) -> np.ndarray:
    """jacobi_many(a, m) for one numerator a >= 0 over odd moduli m > 0.

    With a = 2**e * prod l**e_l, (a|m) = (2|m)**e * prod (l|m)**e_l, and
    by reciprocity (l|m) = (m mod l | l), flipped when l = m = 3 mod 4
    (Ireland and Rosen, ch. 5; Cohen, section 1.4).  All the flips and
    (2|m) = -1 for m = 3, 5 mod 8 make one sign of m mod 8; the rest is a
    table lookup of m mod l per factor.  Lanes the cost rule of
    _table_factors refuses, or outside the domain, go to jacobi_many.
    """
    m = np.asarray(m)
    factors = _table_factors(a, m)
    if factors is None or (m.size and (m.min() < 1 or not np.bitwise_and(m, 1).all())):
        return jacobi_many(a, m)
    r = np.arange(8)
    flip = np.zeros(8, dtype=bool)
    for l, e in factors:
        if e % 2 and l == 2:
            flip ^= (r == 3) | (r == 5)
        elif e % 2 and l % 4 == 3:
            flip ^= r % 4 == 3
    return _table_symbols(m, factors, np.where(flip, -1, 1).astype(np.int8))


def _fixed_modulus(m, q) -> np.ndarray:
    """jacobi_many(m, q) for numerators m >= 0 and one odd modulus q > 0:
    with q = prod l**e_l, (m|q) = prod (m mod l | l)**e_l, one table
    lookup per factor.  Lanes the cost rule of _table_factors refuses, or
    outside the domain, go to jacobi_many."""
    m = np.asarray(m)
    factors = _table_factors(q, m) if q % 2 else None
    if factors is None or (m.size and m.min() < 0):
        return jacobi_many(m, q)
    return _table_symbols(m, factors, np.ones(8, dtype=np.int8))


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

    Each step evaluates (a|p) over the lanes still undecided, with the
    numerator fixed (_fixed_numerator), so the work shrinks with them;
    once at most _SCALAR_LANES remain, the rest step through the scalar
    jacobi on Python ints, which costs less than numpy's per-call
    overhead.  A lane still undecided below a step's bound has no
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
    marks = _KERNEL.square_marks(p)
    n_seq = np.empty(int(np.count_nonzero(marks[1:])), dtype=np.int64)
    # Slices keep each flatnonzero temporary under malloc's 128 KB mmap
    # threshold, so it is recycled from the heap, not mapped anew.
    pos = 0
    for start in range(1, p, _POSITION_SLICE):
        idx = np.flatnonzero(marks[start : start + _POSITION_SLICE])
        np.add(idx, start, out=n_seq[pos : pos + idx.size])
        pos += idx.size
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
    if not marks[first]:
        raise ScanError(f"every class mod {p} marked residue; is p={p} prime?")
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
        if l < 3 or l % 2 == 0:
            raise ParameterError(f"modulus {l} is not an odd prime")
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
