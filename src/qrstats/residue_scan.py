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
k*k mod p for 1 <= k <= (p-1)/2 in a bool buffer and lists the unmarked
classes of 1..p-1, the non-residues, in ascending order; the gap-tail
scan skips the list and reads its long gaps as long residue runs in the
marks.  Its buffers
are kept per process (per thread, strictly) and grow to the next power
of two, so a scan over ascending primes allocates nothing p-sized once
warm; squares are taken in chunks of _SQUARE_CHUNK, so a p near
RESIDUE_TABLE_BUDGET holds only small intermediates beside its table.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arith import jacobi, jacobi_many
from .errors import ParameterError, ResourceError, ScanError
from .sieve import check_window

RESIDUE_TABLE_BUDGET = 2**31

_SQUARE_CHUNK = 1 << 16
_POSITION_SLICE = 1 << 14


def _check_p(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise ParameterError(f"need an odd p >= 3, got {p}")


def check_table(p: int) -> None:
    """A residue table for p, or for any prime up to p, must fit
    RESIDUE_TABLE_BUDGET."""
    if p > RESIDUE_TABLE_BUDGET:
        raise ResourceError(f"residue table for p up to {p} exceeds the budget of {RESIDUE_TABLE_BUDGET}")


def _capacity(n: int) -> int:
    """The least power of two >= n, so an ascending scan regrows a buffer
    only when p doubles."""
    return 1 << (n - 1).bit_length()


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
        self.nonres = np.empty(0, dtype=np.int64)
        self.steps = np.empty(0, dtype=np.uint64)
        self.k = np.empty(0, dtype=np.uint64)
        self.sq = np.empty(0, dtype=np.uint64)

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

    def nonresidues(self, p: int, owned: bool = False) -> np.ndarray:
        """The ascending non-residues of p in [1, p-1]: a view of the
        kernel's buffer, or a fresh array when owned."""
        marks = self.square_marks(p)
        count = int(np.count_nonzero(marks[1:]))
        if owned:
            n = np.empty(count, dtype=np.int64)
        else:
            if self.nonres.size < count:
                self.nonres = np.empty(_capacity(count), dtype=np.int64)
            n = self.nonres[:count]
        # Slices keep each flatnonzero temporary under malloc's 128 KB
        # mmap threshold, so it is recycled from the heap, not mapped anew.
        pos = 0
        for start in range(1, p, _POSITION_SLICE):
            idx = np.flatnonzero(marks[start : start + _POSITION_SLICE])
            np.add(idx, start, out=n[pos : pos + idx.size])
            pos += idx.size
        return n


_KERNEL = _SquareKernel()


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

    def is_residue(self, n: int) -> bool:
        n %= self.p
        return bool(self.packed[n >> 3] >> (7 - (n & 7)) & 1)

    def popcount(self) -> int:
        """Set bits over 1..p-1, excluding the class of 0."""
        total = int(np.unpackbits(self.packed, count=self.p).sum())
        return total - (1 if self.zero_as_residue else 0)


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
    """The smallest n >= 2 with (n|p) = -1, by direct symbol evaluation.

    No residue table is built; the scan is a handful of Jacobi symbols
    for almost every prime.
    """
    _check_p(p)
    for n in range(2, p + 1):
        if jacobi(n, p) == -1:
            return n
    raise ScanError(f"no non-residue found below {p}; is p={p} prime?")


def least_nonresidues(P) -> np.ndarray:
    """least_nonresidue(p) for every odd prime p of P, in order, stepping
    all of them together through first_nonresidues_after."""
    return first_nonresidues_after(P, 1) + 1


@dataclass(frozen=True, eq=False)
class GapStats:
    """All non-residues of p in [1, p-1] and their consecutive gaps.

    n_seq has length (p-1)/2 for prime p; deltas[k] = n_seq[k+1] - n_seq[k].
    """

    p: int
    n_seq: np.ndarray
    deltas: np.ndarray


def gap_stats(p: int) -> GapStats:
    """Enumerate the non-residues of p and difference them."""
    n_seq = _KERNEL.nonresidues(p, owned=True)
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
    """The least h >= 1 such that u + h is a non-residue mod p.

    Works from u mod p, so u far beyond p costs nothing extra.  For an
    odd prime the scan is bounded by p; running past that bound means the
    modulus was not prime and is reported as a scan error.
    """
    _check_p(p)
    check_window(u)
    base = u % p
    for h in range(1, p + 1):
        if jacobi((base + h) % p, p) == -1:
            return h
    raise ScanError(f"no non-residue within {p} steps after u={u}; is p={p} prime?")


def first_nonresidues_after(P, u: int, cap: int | None = None) -> np.ndarray:
    """first_nonresidue_after(p, u) for every odd prime p of P, in order,
    as a 1-d int64 array; with a cap, values past it read cap + 1.

    Each step h evaluates (u + h | p) with one jacobi_many call over the
    primes still undecided, so the work shrinks with the active set.  A
    prime still undecided after h = p steps has no non-residue at all
    and is reported as a scan error, as first_nonresidue_after does.
    """
    P = np.asarray(P).reshape(-1)
    if P.size and (P.min() < 3 or (P % 2 == 0).any()):
        raise ParameterError(f"need odd p >= 3, got {P[(P < 3) | (P % 2 == 0)][0]}")
    check_window(u)
    steps = itertools.count(1) if cap is None else range(1, cap + 1)
    out = np.full(P.size, -1 if cap is None else cap + 1, dtype=np.int64)
    active = np.arange(P.size)
    for h in steps:
        if not active.size:
            break
        live = P[active]
        if live.min() < h:
            p = live[live < h][0]
            raise ScanError(f"no non-residue within {p} steps after u={u}; is p={p} prime?")
        hit = jacobi_many(u + h, live) == -1
        out[active[hit]] = h
        active = active[~hit]
    return out


def longest_qr_run(p: int, zero_as_residue: bool = True) -> int:
    """Longest run of consecutive integers all classified residues mod p.

    Under the default convention the classification has period p and the
    run is measured cyclically, so a run may straddle a multiple of p.
    Under zero_as_residue=False runs live strictly inside 1..p-1.
    """
    n = _KERNEL.nonresidues(p)
    if not n.size:
        raise ScanError(f"every class mod {p} marked residue; is p={p} prime?")
    first, last = int(n[0]), int(n[-1])
    deltas = np.subtract(n[1:], n[:-1], out=n[:-1])
    widest = int(deltas.max()) if deltas.size else 0
    if zero_as_residue:
        return max(widest, first + p - last) - 1
    return max(widest - 1, first - 1, p - 1 - last)


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
