"""Independent computations that the output checks compare against.

Nothing here imports qrstats.  Legendre symbols come from Euler's
criterion, a**((p-1)/2) mod p, evaluated with numpy over whole arrays of
primes; residue tables come from squaring; prime counts and primality
come from sympy where its cost fits a run, and from the sieve below
elsewhere.  Every routine is written from the definition, not from the
package's algorithm.
"""

from __future__ import annotations

import math

import numpy as np

_LOW21 = (1 << 21) - 1
MODULUS_LIMIT = 1 << 42


def _mulmod(x: np.ndarray, y: np.ndarray, p: np.ndarray, wide: bool) -> np.ndarray:
    """x*y mod p for 0 <= x, y < p.  For p >= 2**31 the product is split
    on y's low 21 bits so every intermediate stays below 2**63."""
    if not wide:
        return x * y % p
    return (((x * (y >> 21)) % p << 21) % p + x * (y & _LOW21) % p) % p


def legendre(a, p) -> np.ndarray:
    """Legendre symbols (a|p) by Euler's criterion, elementwise.

    a and p broadcast against each other; every p must be an odd prime
    below 2**42.  A power that is neither 0, 1 nor p-1 proves p composite
    and raises ValueError.
    """
    a = np.asarray(a, dtype=np.int64)
    p = np.asarray(p, dtype=np.int64)
    a, p = np.broadcast_arrays(a, p)
    if p.size == 0:
        return np.zeros(p.shape, dtype=np.int64)
    if p.min() < 3 or p.max() >= MODULUS_LIMIT:
        raise ValueError("moduli must lie in [3, 2**42)")
    wide = bool(p.max() >= 1 << 31)
    base = a % p
    exp = (p - 1) // 2
    acc = np.ones_like(p)
    while exp.any():
        odd = (exp & 1).astype(bool)
        acc = np.where(odd, _mulmod(acc, base, p, wide), acc)
        base = _mulmod(base, base, p, wide)
        exp = exp >> 1
    out = np.where(acc == p - 1, -1, acc)
    if not np.isin(out, (-1, 0, 1)).all():
        raise ValueError("Euler's criterion failed: a modulus is not prime")
    return out


def jacobi_by_factors(a: np.ndarray, q: int, factors: dict[int, int]) -> np.ndarray:
    """Jacobi symbols (a|q) for odd q with the given prime factorization,
    as the product of Legendre symbols over the factors."""
    out = np.ones(np.shape(a), dtype=np.int64)
    for p, e in factors.items():
        if e % 2:
            out = out * legendre(a, p)
        else:
            out = out * (np.asarray(a) % p != 0)
    return out


def simple_primes(n: int) -> np.ndarray:
    """Primes <= n, sieve of Eratosthenes."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return np.flatnonzero(flags).astype(np.int64)


def window_primes(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi], by one sieve over the whole window."""
    lo = max(lo, 2)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(hi - lo + 1, dtype=bool)
    for p in simple_primes(math.isqrt(hi)).tolist():
        start = max(p * p, -(-lo // p) * p)
        flags[start - lo :: p] = False
    return np.flatnonzero(flags).astype(np.int64) + lo


def smallest_factor_table(n: int) -> np.ndarray:
    """spf[m] = least prime factor of m for 2 <= m <= n."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in simple_primes(math.isqrt(n)).tolist():
        block = spf[p * p :: p]
        block[block == 0] = p
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest
    return spf


def least_nonresidues(ps: np.ndarray) -> np.ndarray:
    """n(p), the least quadratic non-residue, for each odd prime p.

    n(p) is always prime (a product of residues is a residue), so only
    prime candidates are tried, each against the primes still open.
    """
    ps = np.asarray(ps, dtype=np.int64)
    out = np.zeros(ps.size, dtype=np.int64)
    open_idx = np.arange(ps.size)
    for q in simple_primes(1000).tolist():
        if not open_idx.size:
            return out
        hit = legendre(q, ps[open_idx]) == -1
        out[open_idx[hit]] = q
        open_idx = open_idx[~hit]
    raise ValueError("a least non-residue exceeds 1000")


def first_nonresidue_steps(ps: np.ndarray, u: int, cap: int) -> np.ndarray:
    """Least s >= 1 with (u + s | p) = -1 for each prime p, or cap + 1
    when no s <= cap qualifies."""
    ps = np.asarray(ps, dtype=np.int64)
    out = np.full(ps.size, cap + 1, dtype=np.int64)
    open_idx = np.arange(ps.size)
    base = u % ps
    for s in range(1, cap + 1):
        if not open_idx.size:
            break
        hit = legendre(base[open_idx] + s, ps[open_idx]) == -1
        out[open_idx[hit]] = s
        open_idx = open_idx[~hit]
    return out


def residue_flags(p: int) -> np.ndarray:
    """flags[n] for 0 <= n < p: n is a non-zero square mod p."""
    k = np.arange(1, (p + 1) // 2, dtype=np.int64)
    flags = np.zeros(p, dtype=bool)
    flags[k * k % p] = True
    return flags


def nonresidues(p: int) -> np.ndarray:
    """The non-residues of p in [1, p-1], ascending."""
    return np.flatnonzero(~residue_flags(p)[1:]) + 1


def longest_cyclic_residue_run(p: int) -> int:
    """Longest run of consecutive integers classified residues mod p,
    with multiples of p counted as residues and runs read cyclically."""
    flags = residue_flags(p)
    flags[0] = True
    start = int(np.argmin(flags))
    ring = np.concatenate((np.roll(flags, -start), [False]))
    falses = np.flatnonzero(~ring)
    return int(np.diff(falses).max() - 1)


def squarefree_flags(lo: int, hi: int) -> np.ndarray:
    """flags[i]: lo + i is square-free, for lo + i in [lo, hi]."""
    flags = np.ones(hi - lo + 1, dtype=bool)
    for p in simple_primes(math.isqrt(hi)).tolist():
        q = p * p
        flags[-(-lo // q) * q - lo :: q] = False
    return flags


def float_floor_power(M: int, eta: float) -> int:
    """floor(M**eta), refusing a value too close to an integer for the
    float to settle it."""
    t = M**eta
    if abs(t - round(t)) < 1e-9 * t:
        raise ValueError(f"M**eta = {t} is too close to an integer to floor safely")
    return math.floor(t)


def rough_members(eta: float, M: int) -> np.ndarray:
    """Integers in [1, M] with no prime factor <= M**eta."""
    flags = np.ones(M + 1, dtype=bool)
    flags[0] = False
    for p in simple_primes(float_floor_power(M, eta)).tolist():
        flags[p::p] = False
    return np.flatnonzero(flags).astype(np.int64)


class XorShift64Star:
    """Marsaglia's xorshift64* (shifts 12/25/27, multiplier
    0x2545F4914F6CDD1D), written from its published definition, with
    the draw rules the qrstats documentation states."""

    def __init__(self, seed: int):
        self.state = seed % 2**64 or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) % 2**64
        s ^= s >> 27
        self.state = s
        return s * 0x2545F4914F6CDD1D % 2**64

    def draw_in(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)

    def draw_odd_nonsquare(self, lo: int, hi: int) -> int:
        while True:
            q = self.draw_in(lo, hi)
            if q % 2 == 0:
                q = q + 1 if q + 1 <= hi else q - 1
            if math.isqrt(q) ** 2 != q:
                return q
