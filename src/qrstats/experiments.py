"""Batch experiments over prime ranges.

Running means of the least non-residue, exceptional-set densities for
windowed first non-residues, gap-tail scaling, square-free pair density,
and a full numeric trace of the bound chain that controls the
exceptional count.

Concurrency model: every pool scan is one _map_chunks pass.  It cuts
its work items into chunks (at most a cap each, at least two per worker
while there are items to split), maps them serially or through one fork
pool of at most one process per chunk, and yields per-item results in
item order.  The erdos and exceptional scans chunk a fixed partition of
the range into blocks of 2**16 integers, independent of the worker count
and the unit of merging and of checkpoints: a chunk is a run of at most
2**20 integers, sieved once and scanned in one kernel pass, whose result
is split back into per-block partials; an exceptional scan over several
u scans every u on the primes of each run.  Per-prime table scans (gap
tails, and the cli's longest runs) chunk primes through scan_primes.
Output is therefore bit-identical for one worker and for fifty: merges
are plain integer sums and witness lists concatenate in block order.

This module performs no file or network I/O; the cli module owns
serialization and checkpoint files.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateSetError, ParameterError, ResourceError
from .residue_scan import _SYMBOL_CHUNK, _check_p, _gap_tail_of, _masked_symbols, _numerator_rows, _table_route
from .residue_scan import check_symbol_lanes
from .residue_scan import first_nonresidues_after, least_nonresidues
from .sieve import (
    RoughSet,
    ascending_primes,
    check_range,
    check_rough,
    check_window,
    feller_tornier_A,
    primes_in,
    rough_set,
    rough_threshold,
    squarefree_in_interval,
)

BLOCK_SPAN = 1 << 16
RUN_SPAN = 1 << 20
WITNESS_CAP = 1000
ERDOS_X_BUDGET = 10**8
ERDOS_TAIL_BOUND = 1e-12

_PRIME_CHUNK = 64


def _blocks(lo: int, hi: int, edges: Sequence[int] = ()) -> list[tuple[int, int]]:
    """Contiguous blocks covering [lo, hi]: spans of BLOCK_SPAN, with
    extra boundaries at the given edges so no block straddles one."""
    cuts = sorted({e for e in edges if lo <= e < hi})
    out = []
    start = lo
    for stop in cuts + [hi]:
        while start <= stop:
            end = min(start + BLOCK_SPAN - 1, stop)
            out.append((start, end))
            start = end + 1
    return out


def _quiet_worker() -> None:
    """Pool initializer: ignore a terminal's SIGINT, die on the pool's SIGTERM."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _map_chunks(fn, items: Sequence, cap: int, workers: int, *extra) -> Iterator:
    """Yield one result per item, in item order.

    The items are cut into chunks of consecutive items, at most cap each
    and at least two per worker while there are items to split;
    fn((chunk, *extra)) returns the list of the chunk's per-item results.
    With workers > 1 a fork pool of at most one process per chunk maps
    the chunks, consumed in submission order (imap), so the caller sees
    exactly the sequence a serial run would produce.  The cut changes
    only how the work is shared, never a result.
    """
    if workers < 1:
        raise ParameterError(f"need workers >= 1, got {workers}")
    size = max(1, min(cap, len(items) // (2 * workers)))
    argss = [(items[i : i + size], *extra) for i in range(0, len(items), size)]
    if workers > 1 and len(argss) > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(workers, len(argss)), initializer=_quiet_worker) as pool:
            for results in pool.imap(fn, argss):
                yield from results
    else:
        for results in map(fn, argss):
            yield from results


def _scan_primes(args: tuple) -> list:
    """fn(p, *extra) for each prime p of a chunk."""
    chunk, fn, *extra = args
    return [fn(p, *extra) for p in chunk]


def scan_primes(fn, primes: Sequence[int], workers: int, *extra) -> Iterator:
    """Yield fn(p, *extra) for each of the primes, in order, through
    _map_chunks in chunks of at most _PRIME_CHUNK; fn must pickle."""
    return _map_chunks(_scan_primes, primes, _PRIME_CHUNK, workers, fn, *extra)


def _block_ends(values: np.ndarray, run: list[tuple[int, int]]) -> np.ndarray:
    """For ascending values inside a run of blocks, the index one past the
    last value of each block."""
    return np.searchsorted(values, [hi for _, hi in run], side="right")


# --- Erdos mean of the least non-residue ---------------------------------

@dataclass(frozen=True)
class ErdosMean:
    x: int
    primes: int
    mean: float
    constant_partial: float


def erdos_constant() -> float:
    """Sum of p_k / 2**k over the primes in order, truncated at the first
    k with p_k / 2**(k-1) < ERDOS_TAIL_BOUND.

    Terms decay geometrically (p_k grows polynomially against the 2**k),
    so the stated stopping rule leaves a tail comparable to the bound.
    """
    total = 0.0
    for k, p in enumerate(ascending_primes(), start=1):
        total += p / 2.0**k
        if p / 2.0 ** (k - 1) < ERDOS_TAIL_BOUND:
            return total


def _scan_erdos_block(args: tuple[list[tuple[int, int]]]) -> list[tuple[int, int]]:
    """(odd prime count, sum of least non-residues) for each block of a run."""
    (run,) = args
    primes = primes_in(run[0][0], run[-1][1])
    primes = primes[primes != 2]
    ends = _block_ends(primes, run)
    sums = np.concatenate(([0], np.cumsum(least_nonresidues(primes))))[ends]
    return list(zip(np.diff(ends, prepend=0).tolist(), np.diff(sums, prepend=0).tolist()))


def check_erdos(xs: Sequence[int]) -> None:
    """Preconditions of erdos_mean_curve: at least one x, every x >= 3,
    and none past ERDOS_X_BUDGET."""
    if not xs:
        raise ParameterError("need at least one x")
    if min(xs) < 3:
        raise ParameterError(f"need x >= 3, got {min(xs)}")
    if max(xs) > ERDOS_X_BUDGET:
        raise ResourceError(f"x = {max(xs)} exceeds the budget of {ERDOS_X_BUDGET}")


def erdos_mean_curve(xs: Sequence[int], workers: int = 1) -> list[ErdosMean]:
    """Means of least_nonresidue over odd primes p <= x, for every x in
    xs, from a single scan up to max(xs).

    p = 2 is excluded throughout: there is no non-residue mod 2, and the
    prime counts reported are the primes actually scanned.  Results come
    back sorted by x with duplicates collapsed.
    """
    points = sorted({int(x) for x in xs})
    check_erdos(points)
    blocks = _blocks(3, points[-1], edges=points)
    results = _map_chunks(_scan_erdos_block, blocks, RUN_SPAN // BLOCK_SPAN, workers)
    constant = erdos_constant()
    out = []
    count = 0
    total = 0
    next_point = 0
    for (lo, hi), (c, t) in zip(blocks, results):
        count += c
        total += t
        while next_point < len(points) and hi == points[next_point]:
            out.append(ErdosMean(points[next_point], count, total / count, constant))
            next_point += 1
    return out


def erdos_mean(x: int, workers: int = 1) -> ErdosMean:
    """Mean of least_nonresidue over odd primes p <= x."""
    return erdos_mean_curve([x], workers)[0]


# --- Exceptional-set density ---------------------------------------------

@dataclass(frozen=True)
class ExceptionalDensity:
    """Primes p in [Q, 2Q] whose window [u+1, u+h] holds no non-residue.

    witness_list carries the first WITNESS_CAP exceptional primes in
    ascending order.  u_exceeds_2q flags runs outside the u <= 2Q range
    that the dyadic framing assumes; such runs are allowed but marked.
    """

    Q: int
    u: int
    h: int
    exceptional: int
    total_primes: int
    density: float
    witness_list: tuple[int, ...]
    u_exceeds_2q: bool


class ExceptionalState(NamedTuple):
    """Resumable scan progress: the merged result of blocks [0, next_block).

    total counts the primes seen so far.  counts[i] is the number of them
    with d > h_i for the i-th h of the sorted grid, and witnesses[i] the
    first min(counts[i], WITNESS_CAP) of those primes, ascending, where d
    is first_nonresidue_after.  Counts fall as h grows, so only a prefix
    of the grid has a count; the h past it have none.  A resume state may
    give any int array-likes.
    """

    next_block: int
    total: int
    counts: tuple[int, ...]
    witnesses: tuple[tuple[int, ...], ...]


def _check_q_range(Q: int) -> None:
    """Q >= 10, and [Q, 2Q] within the sieve's endpoint, span and table
    budgets (check_range), checked before its blocks are listed."""
    if Q < 10:
        raise ParameterError(f"need Q >= 10, got {Q}")
    check_range(Q, 2 * Q)


def check_exceptional(Q: int, u: int, h_list: Sequence[int]) -> None:
    """Preconditions of exceptional_density_sweep: Q >= 10, and the
    window [u+1, u+h] of check_window for every h of a non-empty list."""
    _check_q_range(Q)
    if not h_list:
        raise ParameterError("need at least one h")
    check_window(u, min(h_list))


def h_multiples(Q: int, k: int) -> list[int]:
    """The h grid ceil(log Q) * (1, 2, ..., k), for Q >= 10 and k >= 1.

    The grid must stop by 2Q, checked before it is built: every prime
    p <= 2Q has a non-residue within p steps, so larger h count nothing.
    """
    _check_q_range(Q)
    if k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    unit = math.ceil(math.log(Q))
    if unit * k > 2 * Q:
        raise ParameterError(f"need ceil(log Q) * k <= 2Q = {2 * Q}, got {unit * k}")
    return [unit * i for i in range(1, k + 1)]


def exceptional_blocks(Q: int) -> list[tuple[int, int]]:
    """The fixed block partition of [Q, 2Q]; identical for every worker
    count, and the unit of checkpoint granularity."""
    _check_q_range(Q)
    return _blocks(Q, 2 * Q)


class _Tally(NamedTuple):
    """What one block adds to the result of one u: per h, the count of
    primes with d > h, and for each h index with witness room left, the
    first of those primes (ascending) up to the room."""

    counts: np.ndarray
    witnesses: dict[int, list[int]]


def _tally(p: np.ndarray, d: np.ndarray, hs: list[int], room: np.ndarray) -> _Tally:
    counts = p.size - np.searchsorted(np.sort(d), hs, side="right")
    open_h = np.flatnonzero((counts > 0) & (room > 0)).tolist()
    return _Tally(counts, {i: p[d > hs[i]][: room[i]].tolist() for i in open_h})


def _scan_exceptional_block(args) -> list[tuple[int, list[_Tally]]]:
    """(prime count, [tally per u]) for each block of a run.  Within the
    run, a block's witness room is what the blocks before it left of
    WITNESS_CAP."""
    run, us, hs = args
    primes = primes_in(run[0][0], run[-1][1])
    ends = _block_ends(primes, run).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    per_u = []
    for u in us:
        d = first_nonresidues_after(primes, u, hs[-1])
        room = np.full(len(hs), WITNESS_CAP)
        tallies = []
        for lo, hi in spans:
            tally = _tally(primes[lo:hi], d[lo:hi], hs, room)
            for i, found in tally.witnesses.items():
                room[i] -= len(found)
            tallies.append(tally)
        per_u.append(tallies)
    return [(hi - lo, list(tallies)) for (lo, hi), tallies in zip(spans, zip(*per_u))]


class _Totals:
    """Per-h exceptional counts of one u and the first WITNESS_CAP
    witnesses of each h, merged from tallies in block order, starting
    from the counts and witness lists of a resume state."""

    def __init__(self, hs: list[int], counts=(), witnesses=()) -> None:
        self.counts = np.zeros(len(hs), dtype=np.int64)
        self.counts[: len(counts)] = counts
        self.witnesses = [list(found) for found in witnesses] + [[] for _ in hs[len(witnesses) :]]

    def add(self, tally: _Tally) -> None:
        self.counts += tally.counts
        for i, found in tally.witnesses.items():
            self.witnesses[i].extend(found[: WITNESS_CAP - len(self.witnesses[i])])

    def state(self, next_block: int, total: int) -> ExceptionalState:
        n = int(np.count_nonzero(self.counts))
        return ExceptionalState(
            next_block, total, tuple(self.counts[:n].tolist()), tuple(map(tuple, self.witnesses[:n]))
        )


def _check_resume(
    state: ExceptionalState, blocks: list[tuple[int, int]], hs: list[int]
) -> tuple[np.ndarray, list[list[int]]]:
    """A resume state must be one the scan could have reached: int64
    values; positive, falling counts, at most one per h; a total from
    counts[0] (1 once a block is merged) to the integers merged; and for
    each count its min(count, WITNESS_CAP) witnesses, strictly ascending
    inside the merged blocks.  Returns the counts and witness lists."""
    if not 0 <= state.next_block <= len(blocks):
        raise ParameterError(f"resume block {state.next_block} outside 0..{len(blocks)}")
    first = blocks[0][0]
    top = blocks[state.next_block - 1][1] if state.next_block else first - 1
    try:
        counts = np.array(state.counts, dtype=np.int64).reshape(-1)
        groups = [np.array(found, dtype=np.int64).reshape(-1) for found in state.witnesses]
    except (OverflowError, TypeError, ValueError) as exc:
        raise ParameterError(f"resume counts and witnesses are not int64 lists: {exc}") from None
    if counts.size > len(hs):
        raise ParameterError(f"resume has {counts.size} counts for {len(hs)} values of h")
    if np.any(counts <= 0) or np.any(counts[1:] > counts[:-1]):
        raise ParameterError("resume counts are not positive and falling")
    # block 0 holds a prime: it is all of [Q, 2Q] (Bertrand's postulate)
    # or 2**16 integers, far more than any prime gap below 2 * SPAN_BUDGET
    low = max(int(counts[0]) if counts.size else 0, min(state.next_block, 1))
    if not low <= state.total <= top - first + 1:
        raise ParameterError(f"resume total {state.total} is outside [{low}, {top - first + 1}]")
    if [found.size for found in groups] != np.minimum(counts, WITNESS_CAP).tolist():
        raise ParameterError(f"resume needs min(count, {WITNESS_CAP}) witnesses for each count")
    for found in groups:
        if np.any(found[1:] <= found[:-1]) or (found.size and not first <= found[0] <= found[-1] <= top):
            raise ParameterError(f"resume witnesses are not strictly ascending inside [{first}, {top}]")
    return counts, [found.tolist() for found in groups]


def exceptional_density_sweep(
    Q: int,
    u: int | Sequence[int],
    h_list: Sequence[int],
    workers: int = 1,
    *,
    resume: ExceptionalState | None = None,
    block_done: Callable[[ExceptionalState], None] | None = None,
) -> list[ExceptionalDensity]:
    """One scan of [Q, 2Q], reported at every h in h_list (ascending)
    for each u.

    u is one int or a sequence of ints; rows come u by u in the order
    given, duplicates included.  Each block is sieved once for all u, and
    d = first_nonresidue_after(p, u) is evaluated once per prime and u,
    capped just past max(h_list); each requested h counts the primes with
    d > h.  The merge keeps per-h counts and the first WITNESS_CAP
    witnesses, block by block, not the hits themselves.  resume and
    block_done expose the block progress of a single-u scan so a caller
    can persist and restart long runs: both speak ExceptionalState, the
    merged result of the blocks done so far, and neither changes the
    result.
    """
    us = list(u) if isinstance(u, Sequence) else [u]
    if not us:
        raise ParameterError("need at least one u")
    check_exceptional(Q, min(us), h_list)
    if len(us) > 1 and (resume is not None or block_done is not None):
        raise ParameterError("resume and block_done need a single u")
    hs = sorted({int(h) for h in h_list})
    blocks = exceptional_blocks(Q)
    state = resume if resume is not None else ExceptionalState(0, 0, (), ())
    resumed = _check_resume(state, blocks, hs)
    total, done = state.total, state.next_block
    totals = [_Totals(hs, *resumed)] + [_Totals(hs) for _ in us[1:]]
    partials = _map_chunks(_scan_exceptional_block, blocks[done:], RUN_SPAN // BLOCK_SPAN, workers, tuple(us), hs)
    for block_total, tallies in partials:
        total += block_total
        for merged, tally in zip(totals, tallies):
            merged.add(tally)
        done += 1
        if block_done is not None:
            block_done(totals[0].state(done, total))
    return [
        ExceptionalDensity(Q, v, h, count, total, count / total, tuple(witnesses), v > 2 * Q)
        for v, merged in zip(us, totals)
        for h, count, witnesses in zip(hs, merged.counts.tolist(), merged.witnesses)
    ]


# --- Gap-tail scaling ----------------------------------------------------

class GapTailRow(NamedTuple):
    p: int
    h: int
    N_h: int
    S_h: int
    c1: float
    c2: float


@dataclass(frozen=True)
class GapTailSummary:
    rows: tuple[GapTailRow, ...]
    max_c1: float
    max_c2: float


def h_quarter_power(p: int) -> int:
    """ceil(p**(1/4)), exactly, the default window rule for tail scans."""
    r = math.isqrt(math.isqrt(p))
    return r + (r**4 < p)


def _gap_tail_row(p: int, h) -> GapTailRow:
    hp = h(p) if callable(h) else int(h)
    n_h, s_h = _gap_tail_of(p, hp)
    root = math.sqrt(p)
    return GapTailRow(p, hp, n_h, s_h, n_h * hp * hp / root, s_h * hp / root)


def gap_tail_scan(p_list: Sequence[int], h, workers: int = 1) -> GapTailSummary:
    """Tail statistics N(h,p), S(h,p) and the normalized shapes
    c1 = N h**2 / sqrt(p), c2 = S h / sqrt(p) for each listed prime.

    h is either a fixed integer or a callable p -> h; for parallel runs
    the callable must be a module-level function (workers receive it by
    pickling), h_quarter_power being the usual choice.
    """
    ps = [int(p) for p in p_list]
    if not ps:
        raise ParameterError("need at least one prime")
    for p in ps:
        _check_p(p)
    rows = tuple(scan_primes(_gap_tail_row, ps, workers, h))
    return GapTailSummary(rows, max(r.c1 for r in rows), max(r.c2 for r in rows))


# --- Square-free pair density --------------------------------------------

A_PARTIAL_CUTOFF = 10**6


@lru_cache(maxsize=8)
def _feller_tornier_partial(cutoff: int) -> float:
    return feller_tornier_A(cutoff)


@dataclass(frozen=True)
class SquarefreePairDensity:
    u: int
    h: int
    count: int
    pair_count: int
    expected: float
    ratio: float


def squarefree_pair_density(u: int, h: int) -> SquarefreePairDensity:
    """pair_count over [u+1, u+h] against the prediction A * h, with A
    the partial product of (1 - 2/p**2) taken to 10**6."""
    window = squarefree_in_interval(u, h)
    expected = _feller_tornier_partial(A_PARTIAL_CUTOFF) * h
    return SquarefreePairDensity(u, h, window.count, window.pair_count, expected, window.pair_count / expected)


# --- Numeric trace of the bound chain ------------------------------------

@dataclass(frozen=True)
class TraceReport:
    """Every intermediate quantity of the exceptional-count bound chain,
    evaluated exactly at one (Q, u, h, eta).

    The chain: exceptional * (N_size - 1)**2 <= S_direct <= S_rough, and
    S_rough splits into the square-product part (bounded by
    T * rough_size) plus the remainder.  rhs_terms holds the three terms
    of the final displayed bound with all absolute constants dropped, so
    they indicate scale, not a provable ceiling.

    T, the number of ordered pairs (n, n') of N with n * n' a square, is
    N_size: only the diagonal pairs qualify.  In the large-h regime N
    holds distinct square-free numbers, and the product of two of them
    is never a square.  In the small-h regime, n = k * a**2 < n' = k * b**2
    with the same square-free k would need n' - n >= k * (2a + 1) >=
    2 * sqrt(u + 1) + 1, so h >= 2 * sqrt(u + 1) + 2; but that regime has
    u >= 3 and h < sqrt(u) / log u < sqrt(u).  So square_pair_sum counts
    the pairs (n, m), m in the rough set, with gcd(m, n**2) = 1; the rough
    members are odd, so these are the pairs with (n|m) != 0.
    """

    Q: int
    u: int
    h: int
    eta: float
    M: int
    regime: str
    forced_regime: bool
    class_mod4: int
    N_size: int
    T: int
    rough_size: int
    exceptional: int
    S_direct: int
    S_rough: int
    square_pair_sum: int
    nonsquare_pair_sum: int
    square_pair_bound: int
    exceptional_bound: float
    rhs_terms: dict[str, float]
    h_exceeds_log_q: bool
    u_exceeds_2q: bool
    notes: tuple[str, ...]


def _squared_symbol_sums(windows: Iterator[Iterator[np.ndarray]]) -> tuple[int, int]:
    """sum over lanes of (sum of the rows)**2, and the count of nonzero
    entries of the rows, where each window yields one int8 row per member
    of N over its lanes.  Each window has its own int32 accumulator:
    |N| <= h // 4 + 1, and check_trace's lane budget with h < Q keeps
    |N|**2 below 2**27, so no square overflows."""
    total = nonzero = 0
    for rows in windows:
        acc = None
        for row in rows:
            acc = row.astype(np.int32) if acc is None else np.add(acc, row, out=acc)
            nonzero += int(np.count_nonzero(row))
        total += int(np.square(acc, out=acc).sum())
    return total, nonzero


def _direct_rows(ns: list[int], primes: np.ndarray) -> Iterator[Iterator[np.ndarray]]:
    """(n|p) for the members n of N over the primes p, one window of
    _SYMBOL_CHUNK primes at a time, sharing the gathers of each prime
    factor between the members (_numerator_rows)."""
    routes = [_table_route(n, primes.size, True) for n in ns]
    for lo in range(0, primes.size, _SYMBOL_CHUNK):
        yield _numerator_rows(ns, routes, primes[lo : lo + _SYMBOL_CHUNK])


def _rough_rows(ns: list[int], rough: RoughSet) -> Iterator[Iterator[np.ndarray]]:
    """(n|m) for the members n of N over the rough members m, one window
    of _SYMBOL_CHUNK positions of the mask at a time: each row comes from
    the range route and is zero off the mask, so no member list is made.
    The cost rule decides per n for the rough members' count, as the
    lanes route would."""
    routes = [_table_route(n, rough.count, True) for n in ns]
    for lo in range(0, rough.mask.size, _SYMBOL_CHUNK):
        keep = rough.mask[lo : lo + _SYMBOL_CHUNK]
        yield (_masked_symbols(n, True, route, lo, keep) for n, route in zip(ns, routes))


def check_trace(Q: int, u: int, h: int, eta: float) -> None:
    """Preconditions of proof_trace: check_exceptional for the one h,
    h < Q, check_symbol_lanes, check_rough for the rough mask over [1, 2Q]
    (0 < eta < 1 and 2Q within the sieve's TABLE_BUDGET), and
    2 <= (2Q)**eta < Q, read off rough_threshold.  The lanes are |N| times
    the primes of [Q, 2Q] plus the rough members of [1, 2Q], bounded by
    (h // 4 + 1) * 3Q, since N holds one residue class mod 4 of the
    window."""
    check_exceptional(Q, u, [h])
    if h >= Q:
        raise ParameterError(f"need h < Q for the one-multiple-per-window bound, got h={h}, Q={Q}")
    check_symbol_lanes((h // 4 + 1) * 3 * Q, f" for h={h}, Q={Q}")
    check_rough(eta, 2 * Q)
    cutoff = rough_threshold(eta, 2 * Q)
    if cutoff >= Q:
        raise ParameterError(f"(2Q)**eta must stay below Q for eta={eta}, Q={Q}")
    if cutoff < 2:
        raise ParameterError(f"(2Q)**eta must reach 2 so the extension set is odd, got eta={eta}, Q={Q}")


def proof_trace(Q: int, u: int, h: int, eta: float) -> TraceReport:
    """Evaluate the whole bound chain at desk scale.

    The set N follows the two-regime construction: for h at or above
    sqrt(u)/log u, the larger residue class mod 4 among the square-free
    integers in [u+1, u+h] (ties to the class of 1); below it, every
    n = 1 mod 4 in the window.  u < 3 forces the large-h regime since
    log u is no use there.  The extension set is the rough set with
    M = 2Q, which keeps every prime of [Q, 2Q] a member; that requires
    2 <= (2Q)**eta < Q (the lower end keeps the set odd, so the symbols
    exist), and h < Q so a window meets each prime's multiples at most
    once.  S_rough splits at the square-product pairs of N, which are
    the diagonal pairs (n, n) alone (TraceReport), so its square part is
    the count of nonzero symbols (n|m) over the rough set.  All sums are
    exact integers; only the rhs_terms are floating point.

    Both squared sums run a window at a time, with an int32 accumulator
    per window (_squared_symbol_sums).  S_direct takes the primes of
    [Q, 2Q] as lanes, one m mod l per prime factor l shared by the members
    of N (_numerator_rows).  S_rough and the nonzero count take the range
    route over the rough mask of [0, 2Q], which divides no lane and lists
    no rough member (residue_scan's _masked_symbols).
    """
    check_trace(Q, u, h, eta)
    M = 2 * Q
    notes = [f"extension set P(eta, M) uses M = 2Q = {M}"]
    if u < 3:
        regime = "large-h"
        forced = True
        notes.append("u < 3 forces the large-h regime")
    else:
        threshold = math.sqrt(u) / math.log(u)
        regime = "large-h" if h >= threshold else "small-h"
        forced = False
    if regime == "large-h":
        window = squarefree_in_interval(u, h)
        n1 = window.members_mod4(1)
        n3 = window.members_mod4(3)
        if n3.size > n1.size:
            members, class_mod4 = n3, 3
        else:
            members, class_mod4 = n1, 1
            if n3.size == n1.size:
                notes.append("class sizes tied; resolved to the class of 1 mod 4")
        ns = members.tolist()
    else:
        class_mod4 = 1
        first = u + 1 + (1 - (u + 1)) % 4
        ns = list(range(first, u + h + 1, 4))
    if len(ns) < 2:
        raise DegenerateSetError(f"chosen set has {len(ns)} members; need at least 2")

    primes = primes_in(Q, 2 * Q)
    s_direct, _ = _squared_symbol_sums(_direct_rows(ns, primes))
    exceptional = int(np.count_nonzero(first_nonresidues_after(primes, u, h) > h))

    rough = rough_set(eta, M)
    s_rough, square_pair_sum = _squared_symbol_sums(_rough_rows(ns, rough))

    n_size = t_count = len(ns)
    denom = (n_size - 1) ** 2
    rhs_terms = {
        "square_product_term": Q * t_count / (eta * denom * math.log(Q)),
        "charsum_main_term": h * h * eta ** (eta**-0.5 / 4.0 - 1.0) * Q / (denom * math.log(M)),
        "charsum_remainder_term": h * h * Q ** (1.0 - eta) / denom,
    }
    if h > math.log(Q):
        notes.append("window length exceeds log Q; outside the normalized range")
    if u > M:
        notes.append("u exceeds 2Q; outside the dyadic framing")
    return TraceReport(
        Q=Q,
        u=u,
        h=h,
        eta=eta,
        M=M,
        regime=regime,
        forced_regime=forced,
        class_mod4=class_mod4,
        N_size=n_size,
        T=t_count,
        rough_size=rough.count,
        exceptional=exceptional,
        S_direct=s_direct,
        S_rough=s_rough,
        square_pair_sum=square_pair_sum,
        nonsquare_pair_sum=s_rough - square_pair_sum,
        square_pair_bound=t_count * rough.count,
        exceptional_bound=s_direct / denom,
        rhs_terms=rhs_terms,
        h_exceeds_log_q=h > math.log(Q),
        u_exceeds_2q=u > M,
        notes=tuple(notes),
    )
