"""Exact integer arithmetic: Jacobi symbols, Euler's criterion, perfect
squares.

No floating point is used anywhere in this module, so results are
bit-exact.  The scalar functions work on Python integers of any size and
return plain ints; symbol values are restricted to {-1, 0, +1}.
jacobi_many evaluates the same symbol over whole int64 arrays and hands
every lane outside its domain to the scalar jacobi.  Where one side of
the symbol is fixed and its prime factors sum to little against the
lane count, residue_scan reads Legendre tables instead, through its two
row engines (_lane_rows over explicit lanes, _rough_rows over the
lanes of a rough set) and its prefix sums, all under one cost rule that
falls back to jacobi_many.  jacobi_many itself and
residue_scan's first-hit scan step at most _SCALAR_LANES lanes through
the scalar jacobi.  The scalar jacobi stays the reference for all of
them, and legendre_euler, which shares no code with it, checks it in
turn.
"""

import math

import numpy as np

from .errors import InvalidModulusError

_MANY_Q_LIMIT = 1 << 62
_MANY_CHUNK = 1 << 16
# Few lanes cost less through the scalar jacobi than through numpy calls.
# Over primes of [10**6, 2*10**6] (2-vCPU Xeon, numpy 2.4) jacobi_many's
# Euclid loop took 115, 228, 167 and 206 us at 4, 16, 64 and 128 lanes,
# the scalar jacobi 11, 41, 120 and 269 us; a table step of residue_scan
# costs 40-50 us.  So jacobi_many and residue_scan's first-hit scan hand
# at most this many lanes to the scalar jacobi.
_SCALAR_LANES = 64


def jacobi(m: int, q: int) -> int:
    """Jacobi symbol (m|q) for m >= 0 and odd q >= 1.

    Computed by the binary reduce-and-reciprocity loop: strip factors of
    two from the numerator (flipping sign when q is 3 or 5 mod 8), swap
    via quadratic reciprocity (flipping when both sides are 3 mod 4), and
    reduce.  Returns 0 exactly when gcd(m, q) > 1; jacobi(m, 1) == 1 for
    every m, the empty product.
    """
    if q < 1 or q % 2 == 0:
        raise InvalidModulusError(f"jacobi modulus must be odd and positive, got {q}")
    if m < 0:
        raise ValueError(f"jacobi numerator must be non-negative, got {m}")
    m %= q
    sign = 1
    while m:
        while m % 2 == 0:
            m //= 2
            if q % 8 in (3, 5):
                sign = -sign
        m, q = q, m
        if m % 4 == 3 and q % 4 == 3:
            sign = -sign
        m %= q
    return sign if q == 1 else 0


def _lanes(x) -> np.ndarray:
    """x as an int64 array, or as an object array of Python ints when
    some value does not fit int64 (such lanes fall back to jacobi)."""
    if not isinstance(x, np.ndarray):
        try:
            return np.asarray(x, dtype=np.int64)
        except OverflowError:
            return np.asarray(x, dtype=object)
    if x.dtype.kind in "iu" and np.can_cast(x.dtype, np.int64):
        return x.astype(np.int64, copy=False)
    if x.dtype.kind in "uO":
        return x.astype(object)
    raise TypeError(f"jacobi_many needs integer lanes, got dtype {x.dtype}")


def _jacobi_chunk(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """jacobi_many on one 1-d chunk of already broadcast lanes."""
    ok = ((m >= 0) & (q > 0) & (q < _MANY_Q_LIMIT) & (q % 2 == 1)).astype(bool)
    out = np.zeros(m.shape, dtype=np.int8)
    bad = np.flatnonzero(~ok)
    if bad.size:
        out[bad] = [jacobi(int(m[i]), int(q[i])) for i in bad.tolist()]
    lanes = np.flatnonzero(ok)
    n = q[lanes].astype(np.int64)
    a = (m[lanes] % n).astype(np.int64)
    # Bit 0 of flips is the parity of sign changes so far; higher bits are
    # noise.  A lane is finished once a == 0; it then idles with a = 0 and
    # n = gcd(m, q) (shifting 0 by the 64 its twos count reads gives 0).
    flips = np.zeros_like(a)
    while True:
        done = a == 0
        if done.all():
            break
        twos = np.bitwise_count((a & -a) - 1)
        a >>= twos
        # (2|n) = -1 iff n = 3, 5 mod 8, i.e. bit 1 of n ^ (n >> 1) is set;
        # reciprocity flips iff a = n = 3 mod 4.
        flips ^= (twos & ((n ^ (n >> 1)) >> 1)) ^ ((a & n) >> 1)
        a, n = n % (a | done), np.where(done, n, a)
    out[lanes] = np.where(n == 1, 1 - 2 * (flips & 1), 0)
    return out


def jacobi_many(m, q) -> np.ndarray:
    """Jacobi symbols (m|q) lane by lane, as an int8 array.

    m and q are int64 arrays (or ints) that broadcast against each
    other; every lane equals jacobi(m, q).  Lanes with m >= 0 and odd
    1 <= q < 2**62 run through the same reduce-and-reciprocity loop as
    jacobi, over whole arrays: strip the twos of the numerator, flip the
    sign by the rules for 2 and for reciprocity, then take (a, n) to
    (n mod a, a).  Every other lane, including values too large for
    int64, goes to jacobi, which computes it exactly or raises its
    error.  Lanes are processed 2**16 at a time so the loop temporaries
    stay small whatever the input size; at most _SCALAR_LANES lanes all
    go to jacobi, which costs less than the loop's numpy calls.
    """
    m, q = np.broadcast_arrays(_lanes(m), _lanes(q))
    out = np.empty(m.shape, dtype=np.int8)
    flat_m, flat_q, flat_out = m.reshape(-1), q.reshape(-1), out.reshape(-1)
    if flat_out.size <= _SCALAR_LANES:
        flat_out[:] = [jacobi(a, b) for a, b in zip(flat_m.tolist(), flat_q.tolist())]
        return out
    for lo in range(0, flat_out.size, _MANY_CHUNK):
        hi = lo + _MANY_CHUNK
        flat_out[lo:hi] = _jacobi_chunk(flat_m[lo:hi], flat_q[lo:hi])
    return out


def legendre_euler(m: int, p: int) -> int:
    """Legendre symbol (m|p) by Euler's criterion: m**((p-1)/2) mod p.

    Deliberately shares no code with jacobi so the two can check each
    other.  p must be an odd prime; that precondition is not verified
    here, and for composite p the value is undefined.
    """
    if p < 1 or p % 2 == 0:
        raise InvalidModulusError(f"legendre modulus must be odd and positive, got {p}")
    if m < 0:
        raise ValueError(f"legendre numerator must be non-negative, got {m}")
    r = pow(m, (p - 1) // 2, p)
    if r == p - 1:
        return -1
    return r


def is_perfect_square(n: int) -> bool:
    """True iff n == k*k for some integer k, decided exactly.

    Uses the integer square root, never floating point, so values near
    2**53 and far beyond are classified correctly.
    """
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    r = math.isqrt(n)
    return r * r == n
