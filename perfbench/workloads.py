"""The benchmark's workloads: their operations, inputs and output checks.

Each operation carries a check that recomputes what the output must say
from reference_math (or from a property the method must have) and
raises CheckFailed on any disagreement.  Every check reads whole
outputs, so altering any one value of a correct output makes it fail;
run.py proves that on the warm-up outputs before each run.

Inputs come from the seed: it is passed to the sampling commands as
--seed, picks the single u of the checkpointed exceptional run, and
seeds burgess_sweep.  A warm-up build of each workload uses the same
operations on small inputs.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import sympy

import reference_math as rm


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


@dataclass
class Op:
    """One operation.  A cli op runs `argv` through qrstats.cli:main_entry
    in its own process; lib ops of one workload run `func(*args,
    **kwargs)` one after another in one process.  `same_as` names an
    earlier op of the round whose output must be byte-identical.
    `fields` lists the result keys a lib check verifies; the self-test
    alters each in turn."""

    name: str
    check: Callable
    argv: list[str] = field(default_factory=list)
    func: str = ""
    args: list = field(default_factory=list)
    kwargs: dict = field(default_factory=dict)
    same_as: str | None = None
    fields: list = field(default_factory=list)

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)


# --- parsing -------------------------------------------------------------

def parse_csv(data: bytes) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(metadata lines, header, rows) of a qrstats CSV document."""
    meta = {}
    lines = data.decode().splitlines()
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(": ")
        meta[key] = value
    expect(bool(lines), "no header row")
    return meta, lines[0].split(","), [line.split(",") for line in lines[1:]]


def table(data: bytes, header: list[str], rows: int) -> tuple[dict[str, str], list[list[str]]]:
    meta, head, body = parse_csv(data)
    expect(head == header, f"header {head} != {header}")
    expect(len(body) == rows, f"{len(body)} rows, expected {rows}")
    for row in body:
        expect(len(row) == len(header), f"row {row} has the wrong width")
    return meta, body


def ints(row: list[str], expected: list[int], what: str) -> None:
    got = [int(x) for x in row]
    expect(got == expected, f"{what}: got {got}, expected {expected}")


def prime_count(lo: int, hi: int) -> int:
    return int(sympy.primepi(hi) - sympy.primepi(lo - 1))


# --- scan checks ---------------------------------------------------------

def check_exceptional(Q: int, us: list[int], hs: list[int]):
    def check(data: bytes) -> None:
        _, rows = table(data, ["Q", "u", "h", "exceptional", "total", "density"], len(us) * len(hs))
        ps = rm.window_primes(Q, 2 * Q)
        total = prime_count(Q, 2 * Q)
        expect(ps.size == total, "reference sieve disagrees with primepi")
        it = iter(rows)
        for u in us:
            steps = rm.first_nonresidue_steps(ps, u, max(hs))
            previous = None
            for h in sorted(hs):
                row = next(it)
                exceptional = int(np.count_nonzero(steps > h))
                ints(row[:5], [Q, u, h, exceptional, total], f"exceptional u={u} h={h}")
                expect(float(row[5]) == exceptional / total, f"density at u={u} h={h}")
                expect(previous is None or int(row[3]) <= previous, "count grew with h")
                previous = int(row[3])

    return check


def check_erdos(xs: list[int]):
    def check(data: bytes) -> None:
        _, rows = table(data, ["x", "primes", "mean", "constant_partial"], len(xs))
        ps = rm.simple_primes(max(xs))[1:]
        ns = rm.least_nonresidues(ps)
        constant = sum(sympy.prime(k) / 2**k for k in range(1, 80))
        for x, row in zip(sorted(xs), rows):
            upto = ps <= x
            count = int(np.count_nonzero(upto))
            expect(count == int(sympy.primepi(x)) - 1, f"odd prime count to {x}")
            ints(row[:2], [x, count], f"erdos x={x}")
            expect(close(float(row[2]), int(ns[upto].sum()) / count), f"mean at x={x}")
            expect(abs(float(row[3]) - constant) < 1e-10, f"constant at x={x}")

    return check


def quarter_root_ceiling(p: int) -> int:
    h = math.isqrt(math.isqrt(p))
    while h**4 < p:
        h += 1
    return h


def check_gap_tail(lo: int, hi: int):
    def check(data: bytes) -> None:
        ps = [int(p) for p in rm.window_primes(max(lo, 3), hi)]
        expect(len(ps) == prime_count(max(lo, 3), hi), "reference sieve disagrees with primepi")
        meta, rows = table(data, ["p", "h", "N_h", "S_h", "c1", "c2"], len(ps))
        c1s, c2s = [], []
        for p, row in zip(ps, rows):
            h = quarter_root_ceiling(p)
            gaps = np.diff(rm.nonresidues(p))
            tail = gaps[gaps >= h]
            n_h, s_h = int(tail.size), int(tail.sum())
            ints(row[:4], [p, h, n_h, s_h], f"gap tail at p={p}")
            c1s.append(float(row[4]))
            c2s.append(float(row[5]))
            expect(close(c1s[-1], n_h * h * h / math.sqrt(p)), f"c1 at p={p}")
            expect(close(c2s[-1], s_h * h / math.sqrt(p)), f"c2 at p={p}")
        expect(float(meta["max_c1"]) == max(c1s) and float(meta["max_c2"]) == max(c2s), "max_c1/max_c2")

    return check


# --- tables checks -------------------------------------------------------

def check_sfree(u: int, h: int):
    def check(data: bytes) -> None:
        _, rows = table(data, ["u", "h", "count", "pair_count", "ratio"], 1)
        flags = rm.squarefree_flags(u + 1, u + h + 1)
        count = int(flags[:-1].sum())
        pairs = int(np.count_nonzero(flags[:-1] & flags[1:]))
        ints(rows[0][:4], [u, h, count, pairs], "sfree")
        ps = rm.simple_primes(10**6).astype(float)
        density = float(np.prod(1.0 - 2.0 / (ps * ps)))
        expect(close(float(rows[0][4]), pairs / (density * h), 1e-9), "sfree ratio")

    return check


def check_rough(eta: float, M: int):
    def check(data: bytes) -> None:
        _, rows = table(data, ["eta", "M", "count", "ratio_c0"], 1)
        count = rm.rough_members(eta, M).size
        expect(float(rows[0][0]) == eta, "rough eta")
        ints(rows[0][1:3], [M, count], "rough")
        expect(close(float(rows[0][3]), count * eta * math.log(M) / M), "rough ratio_c0")

    return check


def check_nres(lo: int, hi: int, seed: int):
    def check(data: bytes) -> None:
        ps = rm.window_primes(max(lo, 3), hi)
        _, rows = table(data, ["p", "n_p"], ps.size)
        got = np.array(rows, dtype=np.int64).reshape(-1, 2)
        expect(np.array_equal(got[:, 0], ps), "nres prime list")
        expect(np.array_equal(got[:, 1], rm.least_nonresidues(ps)), "nres least non-residues")
        sample = random.Random(seed).sample(ps.tolist(), min(50, ps.size))
        expect(all(sympy.isprime(p) for p in sample), "nres sample is not prime")

    return check


def check_dp(lo: int, hi: int):
    def check(data: bytes) -> None:
        ps = list(sympy.primerange(max(lo, 3), hi + 1))
        _, rows = table(data, ["p", "d_p", "convention"], len(ps))
        for p, row in zip(ps, rows):
            ints(row[:2], [p, rm.longest_cyclic_residue_run(p)], f"dp at p={p}")
            expect(row[2] == "zero_as_residue", f"dp convention at p={p}")

    return check


def check_gap_rows(p: int):
    def check(data: bytes) -> None:
        doc = json.loads(data)
        expect(doc["header"] == ["p", "k", "n_k", "delta_k"], "gaps json header")
        expect(doc["meta"]["subcommand"] == "gaps", "gaps json subcommand")
        n = rm.nonresidues(p)
        expect(len(doc["rows"]) == n.size - 1, "gaps json row count")
        got = np.array(doc["rows"], dtype=np.int64).reshape(-1, 4)
        want = np.column_stack((np.full(n.size - 1, p), np.arange(1, n.size), n[:-1], np.diff(n)))
        expect(np.array_equal(got, want), "gaps json rows")

    return check


# --- sums checks ---------------------------------------------------------

def _trace_set(u: int, h: int) -> tuple[list[int], int]:
    """The set N of proof_trace: the larger mod-4 class of square-free
    numbers in [u+1, u+h] (ties to 1) when h >= sqrt(u)/log u or u < 3,
    else every n = 1 mod 4 in the window."""
    window = range(u + 1, u + h + 1)
    if u < 3 or h >= math.sqrt(u) / math.log(u):
        free = [n for n, ok in zip(window, rm.squarefree_flags(u + 1, u + h)) if ok]
        ones = [n for n in free if n % 4 == 1]
        threes = [n for n in free if n % 4 == 3]
        return (threes, 3) if len(threes) > len(ones) else (ones, 1)
    return [n for n in window if n % 4 == 1], 1


def _squarefree_kernel(n: int) -> int:
    return math.prod(p for p, e in sympy.factorint(n).items() if e % 2)


def check_proof_trace(Q: int, u: int, h: int, eta: float):
    def check(r: dict) -> None:
        ns, cls = _trace_set(u, h)
        expect(r["N_size"] == len(ns) and r["class_mod4"] == cls, "trace set N")
        ps = rm.window_primes(Q, 2 * Q)
        expect(ps.size == prime_count(Q, 2 * Q), "reference sieve disagrees with primepi")
        sums = sum(rm.legendre(n, ps) for n in ns)
        s_direct = int((sums * sums).sum())
        exceptional = int(np.count_nonzero(rm.first_nonresidue_steps(ps, u, h) > h))
        M = 2 * Q
        members = rm.rough_members(eta, M)
        spf = rm.smallest_factor_table(M)
        base_primes = rm.simple_primes(M)[1:]
        rough_sums = np.zeros(members.size, dtype=np.int64)
        for n in ns:
            by_prime = np.zeros(M + 1, dtype=np.int64)
            by_prime[base_primes] = rm.legendre(n, base_primes)
            value = np.ones(members.size, dtype=np.int64)
            rest = members.copy()
            while (rest > 1).any():
                live = rest > 1
                p = spf[rest[live]]
                value[live] *= by_prime[p]
                rest[live] //= p
            rough_sums += value
        s_rough = int((rough_sums * rough_sums).sum())
        kernels = [_squarefree_kernel(n) for n in ns]
        pairs = [(a, b) for a, ka in zip(ns, kernels) for b, kb in zip(ns, kernels) if ka == kb]
        square_sum = sum(int(np.count_nonzero(np.gcd(members, a * b) == 1)) for a, b in pairs)
        denom = (len(ns) - 1) ** 2
        expect(r["exceptional"] == exceptional, f"exceptional {r['exceptional']} != {exceptional}")
        expect(r["S_direct"] == s_direct, f"S_direct {r['S_direct']} != {s_direct}")
        expect(r["S_rough"] == s_rough, f"S_rough {r['S_rough']} != {s_rough}")
        expect(exceptional * denom <= s_direct <= s_rough, "bound chain broken")
        expect(r["rough_size"] == members.size and r["T"] == len(pairs), "rough size or T")
        expect(r["square_pair_sum"] == square_sum, "square_pair_sum")
        expect(r["nonsquare_pair_sum"] == s_rough - square_sum, "nonsquare_pair_sum")
        expect(close(r["exceptional_bound"], s_direct / denom), "exceptional_bound")

    return check


TRACE_FIELDS = ["exceptional", "S_direct", "S_rough", "N_size", "class_mod4", "rough_size", "T",
                "square_pair_sum", "nonsquare_pair_sum", "exceptional_bound"]


def check_incomplete(M: int, q: int):
    def check(value: int) -> None:
        expect(sympy.isprime(q), "modulus is not prime")
        # A full period of a non-principal character sums to 0.
        tail = 0
        for m in range(1, M % q + 1):
            r = pow(m, (q - 1) // 2, q)
            tail += -1 if r == q - 1 else r
        expect(value == tail, f"incomplete sum {value} != {tail}")

    return check


def check_rough_sum(eta: float, M: int, q: int):
    def check(value: int) -> None:
        expect(sympy.isprime(q), "modulus is not prime")
        want = int(rm.legendre(rm.rough_members(eta, M), q).sum())
        expect(value == want, f"rough sum {value} != {want}")

    return check


def check_burgess(count: int, q_lo: int, q_hi: int, seed: int):
    def check(r: dict) -> None:
        rng = rm.XorShift64Star(seed)
        expect(len(r["reports"]) == count, "report count")
        ratios = []
        for rep in r["reports"]:
            q = rng.draw_odd_nonsquare(q_lo, q_hi)
            M = math.ceil(q ** (2.0 / 3.0))
            s = int(rm.jacobi_by_factors(np.arange(1, M + 1), q, sympy.factorint(q)).sum())
            bench = M**0.5 * q ** (3 / 16)
            expect([rep["q"], rep["M"], rep["nu"], rep["sum"]] == [q, M, 2, s], f"sweep report at q={q}")
            expect(close(rep["benchmark"], bench) and close(rep["ratio"], abs(s) / bench), f"ratio at q={q}")
            ratios.append(rep["ratio"])
        expect(r["max_ratio"] == max(ratios), "max_ratio")
        expect(r["median_ratio"] == statistics.median(ratios), "median_ratio")

    return check


SWEEP_FIELDS = [("reports", 0, "q"), ("reports", 0, "M"), ("reports", 0, "sum"),
                ("reports", 0, "ratio"), ("max_ratio",), ("median_ratio",)]


# --- workloads -----------------------------------------------------------

def single_u(seed: int, Q: int) -> int:
    return random.Random(seed).randrange(0, 2 * Q + 1)


def scan(seed: int, warm: bool, workers: int, checkpoint: str) -> list[Op]:
    Q, samples = (70000, 2) if warm else (10**6, 10)
    xs = [1000, 20000] if warm else [10**6, 10**7]
    lo, hi = (1000, 1500) if warm else (100000, 150000)
    hs = [5, 10, 20, 30]
    w = ["--workers", str(workers)]
    h_arg = ["--h-list", ",".join(map(str, hs))]
    gen = rm.XorShift64Star(seed)
    us = [gen.draw_in(0, 2 * Q) for _ in range(samples)]
    u = single_u(seed, Q)
    one = ["exceptional", "--q", str(Q), "--u", str(u), *h_arg]
    ckpt = ["--checkpoint", checkpoint, "--checkpoint-every", "1", *w]
    return [
        Op("exceptional_u10", check_exceptional(Q, us, hs),
           argv=["exceptional", "--q", str(Q), "--u-samples", str(samples), "--seed", str(seed), *h_arg, *w]),
        Op("erdos", check_erdos(xs), argv=["erdos", "--x-list", ",".join(map(str, xs)), *w]),
        Op("gaps_tail", check_gap_tail(lo, hi),
           argv=["gaps", "--lo", str(lo), "--hi", str(hi), "--tail", "--h-rule", "quarter", *w]),
        Op("exceptional_w1", check_exceptional(Q, [u], hs), argv=[*one, "--workers", "1"]),
        Op("exceptional_ckpt_write", check_exceptional(Q, [u], hs), argv=one + ckpt,
           same_as="exceptional_w1"),
        Op("exceptional_ckpt_resume", check_exceptional(Q, [u], hs), argv=one + ckpt,
           same_as="exceptional_w1"),
    ]


def tables(seed: int, warm: bool, workers: int, checkpoint: str) -> list[Op]:
    u, h = (10**6, 10**4) if warm else (10**12, 10**7)
    M = 10**4 if warm else 10**7
    lo, span = (10**6, 10**4) if warm else (10**12, 10**7)
    dlo, dhi = (1000, 1100) if warm else (1000000, 1002000)
    p = 1009 if warm else 999983
    return [
        Op("sfree", check_sfree(u, h), argv=["sfree", "--u", str(u), "--h", str(h)]),
        Op("rough", check_rough(0.1, M), argv=["rough", "--eta", "0.1", "--M", str(M)]),
        Op("nres", check_nres(lo, lo + span, seed), argv=["nres", "--lo", str(lo), "--hi", str(lo + span)]),
        Op("dp", check_dp(dlo, dhi), argv=["dp", "--lo", str(dlo), "--hi", str(dhi)]),
        Op("gaps_json", check_gap_rows(p), argv=["gaps", "--p", str(p), "--format", "json"]),
    ]


def sums(seed: int, warm: bool, workers: int, checkpoint: str) -> list[Op]:
    Q, h = (1000, 20) if warm else (10**5, 50)
    q_inc, M_inc = (983, 1000) if warm else (999983, 10**6)
    M_rough, q_rough = (10**4, 10007) if warm else (10**6, 1000003)
    count, q_lo, q_hi = (5, 10**3, 10**4) if warm else (100, 10**4, 10**6)
    return [
        Op("proof_trace_u0", check_proof_trace(Q, 0, h, 0.1), func="qrstats.experiments:proof_trace",
           args=[Q, 0, h, 0.1], fields=TRACE_FIELDS),
        Op("proof_trace_uQ", check_proof_trace(Q, Q, h, 0.1), func="qrstats.experiments:proof_trace",
           args=[Q, Q, h, 0.1], fields=TRACE_FIELDS),
        Op("incomplete_char_sum", check_incomplete(M_inc, q_inc), func="qrstats.charsums:incomplete_char_sum",
           args=[M_inc, q_inc], fields=[None]),
        Op("rough_char_sum", check_rough_sum(0.1, M_rough, q_rough), func="qrstats.charsums:rough_char_sum",
           args=[0.1, M_rough, q_rough], fields=[None]),
        Op("burgess_sweep", check_burgess(count, q_lo, q_hi, seed), func="qrstats.charsums:burgess_sweep",
           args=[count, q_lo, q_hi], kwargs={"seed": seed}, fields=SWEEP_FIELDS),
    ]


WORKLOADS = {"scan": scan, "sums": sums, "tables": tables}
