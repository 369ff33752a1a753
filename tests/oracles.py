"""Independent reference implementations for the test suite.

Everything here computes the slow, obviously correct way, sharing no
code with the package, so the two sides can honestly disagree.
"""

import json
import math
from functools import lru_cache

import mpmath
import numpy as np


@lru_cache(maxsize=None)
def squares_mod(p: int) -> frozenset:
    return frozenset(k * k % p for k in range(1, p))


def legendre_by_squares(m: int, p: int) -> int:
    """Legendre symbol by direct membership in the set of squares."""
    m %= p
    if m == 0:
        return 0
    return 1 if m in squares_mod(p) else -1


def trial_primes(n: int) -> list:
    out = []
    for c in range(2, n + 1):
        if all(c % p for p in out if p * p <= c):
            out.append(c)
    return out


def eratosthenes(n: int) -> np.ndarray:
    """All primes <= n as int64, by a plain sieve of Eratosthenes over an
    (n+1)-byte flag array."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def spf_table(M: int) -> np.ndarray:
    """Smallest prime factor of every m <= M as int64 (0 for m < 2), by a
    plain sieve: each p <= sqrt(M) that no smaller prime claimed writes
    itself over the unclaimed multiples from p*p on."""
    spf = np.zeros(M + 1, dtype=np.int64)
    for p in range(2, math.isqrt(M) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    rest = np.flatnonzero(spf == 0)[2:]
    spf[rest] = rest
    return spf


def factorize(n: int) -> dict:
    """Full factorization by trial division, exponents included."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def jacobi_by_factorization(m: int, q: int) -> int:
    """Jacobi symbol as the product of Legendre symbols over the
    factorization of the (odd) denominator."""
    result = 1
    for p, e in factorize(q).items():
        result *= legendre_by_squares(m, p) ** e
    return result


def fixed_modulus(m: np.ndarray, q: int) -> np.ndarray:
    """(m|q) as int8 over int64 lanes m >= 0 for one odd modulus q >= 1,
    by the lanes route: with q = prod l**e, the product of
    (m mod l | l)**e, each read from a table of l entries set at the
    squares."""
    out = np.ones(m.shape, dtype=np.int8)
    for l, e in factorize(q).items():
        table = np.full(l, -1, dtype=np.int8)
        table[np.arange(1, l, dtype=np.int64) ** 2 % l] = 1
        table[0] = 0
        out *= table[m % l] ** e
    return out


def is_nonresidue(n: int, p: int) -> bool:
    """(n|p) = -1 for an odd prime p, by Euler's criterion."""
    return pow(n % p, (p - 1) // 2, p) == p - 1


def least_nonresidue(p: int) -> int:
    """The smallest n >= 2 that is a non-residue of the odd prime p, by
    trying every n in turn."""
    n = 2
    while not is_nonresidue(n, p):
        n += 1
    return n


def first_nonresidue_after(p: int, u: int) -> int:
    """The least h >= 1 with u + h a non-residue of the odd prime p, by
    trying every h in turn."""
    h = 1
    while not is_nonresidue(u + h, p):
        h += 1
    return h


def is_squarefree_slow(n: int) -> bool:
    for p, e in factorize(n).items():
        if e > 1:
            return False
    return True


def square_product_pairs(ns: list) -> list:
    """Ordered index pairs (i, j) with ns[i] * ns[j] a perfect square, by
    testing every pair with the integer square root."""
    return [(i, j) for i, a in enumerate(ns) for j, b in enumerate(ns) if math.isqrt(a * b) ** 2 == a * b]


def power_floor(eta: float, M: int) -> int:
    """floor(M**eta) for eta at its exact binary64 value, by mpmath at
    escalating precision until the floors on either side of the error
    margin agree.  An exact tie never separates them, so callers keep to
    the (eta, M) where none can occur: M >= 2 and the denominator of eta
    at least M.bit_length()."""
    prec = 128
    while prec <= 1 << 20:
        with mpmath.workprec(prec):
            t = mpmath.power(M, mpmath.mpf(eta))
            margin = t * mpmath.mpf(2) ** (16 - prec)
            lo = mpmath.floor(t - margin)
            if lo == mpmath.floor(t + margin):
                return int(lo)
        prec *= 2
    raise ArithmeticError(f"M**eta would not stabilize for eta={eta}, M={M}")


def classify_residue(n: int, p: int, zero_as_residue: bool) -> bool:
    r = n % p
    if r == 0:
        return zero_as_residue
    return r in squares_mod(p)


def longest_run_brute(p: int, zero_as_residue: bool) -> int:
    """Exhaustive longest residue run: from every start u in [0, p-1]
    walk forward while each element classifies as a residue."""
    best = 0
    for u in range(p):
        length = 0
        while length < 2 * p and classify_residue(u + length, p, zero_as_residue):
            length += 1
        best = max(best, length)
    return best


# --- reference renderer --------------------------------------------------
#
# The CLI's documents, rendered row by row with one type test per cell.
# meta is the document's metadata (tool, version, subcommand, params,
# conventions and an optional summary); rows is a list of row tuples.

def fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_csv(meta: dict, header: list, rows: list) -> str:
    lines = [
        f"# tool: {meta['tool']} {meta['version']}",
        f"# subcommand: {meta['subcommand']}",
        "# params: " + " ".join(f"{k}={fmt_cell(v)}" for k, v in sorted(meta["params"].items())),
        f"# conventions: zero_as_residue={fmt_cell(meta['conventions']['zero_as_residue'])}",
    ]
    summary = meta.get("summary", {})
    for key in sorted(summary):
        lines.append(f"# {key}: {fmt_cell(summary[key])}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(meta: dict, header: list, rows: list) -> str:
    return json.dumps({"meta": meta, "header": header, "rows": rows}, sort_keys=True, indent=1) + "\n"
