"""Command line front end.

Each subcommand maps onto one library operation and emits either CSV or
a single JSON document.  CSV begins with `#`-prefixed metadata lines
(tool version, subcommand, parameters, conventions), then a header row,
then data rows; floats are printed with 17 significant digits so a fixed
parameter set yields byte-identical output across runs and worker
counts.  Worker count and output path deliberately never appear in the
output for the same reason.

Every subcommand is one entry of COMMANDS: its arguments, a params
builder and a runner.  The builders check preconditions at parse time
through the library's own check_* helpers, so each rule is written once;
only flag combinations, the required --seed, the primality of --p and
crt moduli and the output row budget are checked here alone.

A runner returns its body as columns (render.table), one per header
name: a numpy array, or a short list for a one-row body.  run renders
the body in chunks of rows (see render) and writes them as they come.

Exit codes: 0 success; 1 usage error, any violated precondition
included (the sieve, table, residue-table, x and row budgets among
them), found at parse time before anything is computed; 2 resource
budget, computation, file or memory error, or any other failure while
running (message on standard error, nothing on standard output).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from . import __version__
from .charsums import (
    burgess_report,
    burgess_sweep,
    check_burgess,
    check_modulus,
    check_sweep,
    rough_partition,
)
from .errors import QRStatsError, ResourceError
from .experiments import _PRIME_CHUNK, _map_chunks, _scan_primes
from .experiments import (
    ExceptionalState,
    check_erdos,
    check_exceptional,
    check_trace,
    erdos_mean_curve,
    exceptional_blocks,
    exceptional_density_sweep,
    gap_tail_scan,
    h_multiples,
    h_quarter_power,
    proof_trace,
    squarefree_pair_density,
)
from .residue_scan import (
    check_crt,
    check_table,
    check_tail,
    crt_adversarial_u,
    first_nonresidue_after,
    gap_stats,
    least_nonresidues,
    longest_qr_run,
)
from .render import render_csv, render_json, table
from .rng import XorShift64Star
from .sieve import check_range, check_rough, check_squarefree, check_window, is_prime_u64, primes_in, rough_set

WORKERS_ENV = "QRSTATS_WORKERS"
CHECKPOINT_MAGIC = "qrstats-checkpoint v2"
DEFAULT_CHECKPOINT_EVERY = 16
ROW_BUDGET = 2**25
"""The most rows a body may hold, checked at parse time wherever the row
count has a bound: the int64 columns of 2**25 per-gap rows take 768 MiB."""


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: subcommand, its parameters, and the shared
    output and execution settings."""

    subcommand: str
    params: dict[str, Any]
    output_format: str = "csv"
    workers: int = 1
    zero_as_residue: bool = True
    output_path: str | None = None
    seed: int | None = None
    checkpoint_path: str | None = None
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures forced onto exit code 1; this tool
    reserves 2 for computation errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """A rule only the front end knows (flag combinations, --seed,
    primality) was broken; exits 1 like a failed library check."""


def _bool_flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text == "true"


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _pair_list(text: str) -> list[tuple[int, int]]:
    pairs = []
    for part in text.split(","):
        l, sep, r = part.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(f"expected modulus:residue, got {part!r}")
        try:
            pairs.append((int(l), int(r)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected integers in {part!r}")
    return pairs


def _arg(*flags: str, **options: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    """One add_argument call, kept as data in a COMMANDS entry."""
    return flags, options


class _Command(NamedTuple):
    """One subcommand: its help line, a builder that checks the parsed
    namespace and returns the params, a runner that turns a RunConfig into
    (document body, summary), its arguments and its output formats.  A
    body holds "header" and "columns" (see render.table), unless the
    command offers JSON only."""

    help: str
    params: Callable[[argparse.Namespace], dict[str, Any]]
    run: Callable[[RunConfig], tuple[dict[str, Any], dict[str, Any]]]
    args: tuple
    formats: tuple[str, ...] = ("csv", "json")


def build_parser() -> _Parser:
    parser = _Parser(prog="qrstats", description="Quadratic-residue distribution statistics.")
    parser.add_argument("--version", action="version", version=f"qrstats {__version__}")
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND", parser_class=_Parser)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for flags, options in command.args:
            sub.add_argument(*flags, **options)
        fmt = command.formats[0]
        sub.add_argument("--format", choices=command.formats, default=fmt, help=f"output format (default {fmt})")
        sub.add_argument("--workers", type=int, default=None, help=f"worker processes (default ${WORKERS_ENV} or 1)")
        sub.add_argument("--out", default=None, metavar="PATH", help="write output to PATH instead of stdout")
        sub.add_argument(
            "--zero-as-residue",
            type=_bool_flag,
            default=True,
            metavar="{true,false}",
            help="classification of multiples of p (default true; affects dp runs)",
        )
    return parser


def _resolve_workers(ns) -> int:
    if ns.workers is not None:
        workers = ns.workers
    else:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise _UsageError(f"${WORKERS_ENV} must be an integer, got {raw!r}")
    if workers < 1:
        raise _UsageError(f"--workers must be >= 1, got {workers}")
    return workers


def parse_args(argv: list[str]) -> RunConfig:
    """Parse and fully validate; no computation happens here, and any
    violated precondition surfaces as a usage error on exit code 1."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        parser.error("a subcommand is required")
    try:
        workers = _resolve_workers(ns)
        params = COMMANDS[ns.subcommand].params(ns)
    except (_UsageError, QRStatsError) as exc:
        parser.error(f"{ns.subcommand}: {exc}")
    return RunConfig(
        subcommand=ns.subcommand,
        params=params,
        output_format=ns.format,
        workers=workers,
        zero_as_residue=ns.zero_as_residue,
        output_path=ns.out,
        seed=getattr(ns, "seed", None),
        checkpoint_path=getattr(ns, "checkpoint", None),
        checkpoint_every=getattr(ns, "checkpoint_every", None) or DEFAULT_CHECKPOINT_EVERY,
    )


# --- output --------------------------------------------------------------

def _meta_params(config: RunConfig) -> dict[str, Any]:
    """The parameter map echoed into output metadata.  Worker count and
    output path are execution details, not parameters, and are omitted
    so reruns with different workers stay byte-identical."""
    out: dict[str, Any] = {}
    for key, value in config.params.items():
        if value is None:
            continue
        if isinstance(value, (list, tuple)):
            out[key] = ",".join(
                ":".join(str(x) for x in v) if isinstance(v, tuple) else str(v) for v in value
            )
        else:
            out[key] = value
    if config.seed is not None:
        out["seed"] = config.seed
    return out


def _meta(config: RunConfig, extra: dict[str, Any]) -> dict[str, Any]:
    """The document metadata of a run with summary values extra."""
    meta = {
        "tool": "qrstats",
        "version": __version__,
        "subcommand": config.subcommand,
        "params": _meta_params(config),
        "conventions": {"zero_as_residue": config.zero_as_residue},
    }
    if extra:
        meta["summary"] = extra
    return meta


# --- checkpoint files ----------------------------------------------------

def _checkpoint_key(config: RunConfig) -> str:
    """Q, u and the sha256 of the sorted h grid: a key of fixed size
    however many h the grid holds."""
    import hashlib  # here, so only checkpointed runs pay for loading OpenSSL

    p = config.params
    grid = ",".join(str(h) for h in sorted(p["h_list"]))
    return f"exceptional Q={p['Q']} u={p['u']} h_sha256={hashlib.sha256(grid.encode()).hexdigest()}"


def _write_checkpoint(path: str, key: str, blocks: int, state: ExceptionalState) -> None:
    """The counts space-separated; their witness lists the same, joined by "; "."""
    counts = " ".join(map(str, state.counts))
    witnesses = "; ".join(" ".join(map(str, found)) for found in state.witnesses)
    _write_atomic(path, [
        f"{CHECKPOINT_MAGIC}\nkey: {key}\nblocks: {blocks}\nnext_block: {state.next_block}\n",
        f"total: {state.total}\ncounts: {counts}\nwitnesses: {witnesses}\n",
    ])


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks to path through path + ".tmp" and a rename,
    so an interrupted write leaves any earlier file at path whole.  A path
    that exists but is not a regular file (a device or pipe) cannot be
    renamed over and is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.writelines(chunks)
        return
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_checkpoint(path: str, key: str, blocks: int) -> ExceptionalState | None:
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != CHECKPOINT_MAGIC:
            raise QRStatsError(f"unrecognized checkpoint file {path}: need first line {CHECKPOINT_MAGIC!r}")
        fields = {}
        for line in lines[1:]:
            name, sep, value = line.partition(": ")
            if sep:
                fields[name] = value
            elif line.endswith(":"):
                fields[line[:-1]] = ""
        if fields.get("key") != key:
            raise QRStatsError(f"checkpoint {path} belongs to a different run: {fields.get('key')!r}")
        if int(fields.get("blocks", -1)) != blocks:
            raise QRStatsError(f"checkpoint {path} used a different block partition")
        counts = [int(v) for v in fields["counts"].split()]
        groups = fields["witnesses"].split(";") if fields["witnesses"].strip() else []
        witnesses = [[int(v) for v in found.split()] for found in groups]
        return ExceptionalState(int(fields["next_block"]), int(fields["total"]), counts, witnesses)
    except (KeyError, OverflowError, ValueError) as exc:
        raise QRStatsError(f"malformed checkpoint file {path}: {exc!r}") from None


# --- subcommands ---------------------------------------------------------

def _odd_prime(p: int, what: str = "--p") -> None:
    if p < 3 or p % 2 == 0 or not is_prime_u64(p):
        raise _UsageError(f"{what} must be an odd prime, got {p}")


def _need_seed(ns) -> None:
    if ns.seed is None:
        raise _UsageError("sampling runs require an explicit --seed")


_RANGE_ARGS = (_arg("--p", type=int), _arg("--lo", type=int), _arg("--hi", type=int))
_SEED_ARG = _arg("--seed", type=int, help="generator seed (required for sampling modes)")


def _range_params(ns) -> dict[str, Any]:
    """Resolve the --p versus --lo/--hi choice shared by nres, dp, gaps."""
    if ns.p is not None:
        if ns.lo is not None or ns.hi is not None:
            raise _UsageError("--p excludes --lo/--hi")
        _odd_prime(ns.p)
        return {"p": ns.p}
    if ns.lo is None or ns.hi is None:
        raise _UsageError("need either --p or both --lo and --hi")
    check_range(ns.lo, ns.hi)
    # At most 2N/log N primes lie in N consecutive integers (Montgomery
    # and Vaughan, "The large sieve", Mathematika 20, 1973).
    span = ns.hi - ns.lo + 1
    _check_rows(span if span < 8 else int(2 * span / math.log(span)))
    return {"lo": ns.lo, "hi": ns.hi}


def _table_params(ns, buffers: int = 1) -> dict[str, Any]:
    """_range_params for runs that build a residue table per prime, each
    p of which (the largest is --p or at most --hi) must fit its budget
    in as many p-sized buffers as the run holds (see check_table)."""
    params = _range_params(ns)
    check_table(params.get("p", params.get("hi")), buffers)
    return params


def _check_rows(rows: int) -> None:
    if rows > ROW_BUDGET:
        raise ResourceError(f"up to {rows} output rows exceed the budget of {ROW_BUDGET}")


def _primes(params: dict[str, Any]) -> np.ndarray:
    """The primes of a --p or --lo/--hi run as an array, less 2 (no
    non-residues).  A range gives int64; a single --p keeps numpy's own
    dtype for it, so a p past 2**63 still reaches least_nonresidues."""
    if "p" in params:
        return np.array([params["p"]])
    primes = primes_in(params["lo"], params["hi"])
    return primes[primes != 2]


def _run_nres(config: RunConfig):
    primes = _primes(config.params)
    return table(["p", "n_p"], primes, least_nonresidues(primes)), {}


def _run_dp(config: RunConfig):
    convention = "zero_as_residue" if config.zero_as_residue else "zero_excluded"
    primes = _primes(config.params)
    args = (primes.tolist(), _PRIME_CHUNK, config.workers, longest_qr_run, config.zero_as_residue)
    runs = list(_map_chunks(_scan_primes, *args))
    return table(["p", "d_p", "convention"], primes, runs, [convention] * len(runs)), {}


def _dup_params(ns) -> dict[str, Any]:
    _odd_prime(ns.p)
    check_window(ns.u)
    return {"p": ns.p, "u": ns.u}


def _run_dup(config: RunConfig):
    p, u = config.params["p"], config.params["u"]
    return table(["p", "u", "d_u"], [p], [u], [first_nonresidue_after(p, u)]), {}


def _gaps_params(ns) -> dict[str, Any]:
    params = _table_params(ns, buffers=2 if ns.tail else 1)
    if ns.tail:
        if (ns.h is None) == (ns.h_rule is None):
            raise _UsageError("--tail needs exactly one of --h or --h-rule")
        if ns.h is not None:
            check_tail(ns.h)
        params.update(tail=True, h=ns.h, h_rule=ns.h_rule)
    else:
        if "p" not in params:
            raise _UsageError("per-gap rows need a single --p; ranges need --tail")
        if ns.h is not None or ns.h_rule is not None:
            raise _UsageError("--h/--h-rule apply only with --tail")
        _check_rows((ns.p - 1) // 2 - 1)
        params["tail"] = False
    return params


def _run_gaps(config: RunConfig):
    p = config.params
    if not p["tail"]:
        stats = gap_stats(p["p"])
        n = stats.deltas.size
        columns = np.broadcast_to(p["p"], n), np.arange(1, n + 1), stats.n_seq[:n], stats.deltas
        return table(["p", "k", "n_k", "delta_k"], *columns), {}
    header = ["p", "h", "N_h", "S_h", "c1", "c2"]
    primes = _primes(p).tolist()
    if not primes:  # a header-only table, as dp and nres give
        return table(header), {}
    summary = gap_tail_scan(primes, p["h"] if p["h"] is not None else h_quarter_power, config.workers)
    return table(header, *zip(*summary.rows)), {"max_c1": summary.max_c1, "max_c2": summary.max_c2}


def _charsum_params(ns) -> dict[str, Any]:
    if ns.sweep:
        if ns.q is not None:
            raise _UsageError("--sweep excludes --q")
        if ns.count is None or ns.q_lo is None or ns.q_hi is None:
            raise _UsageError("--sweep needs --count, --q-lo, and --q-hi")
        check_sweep(ns.count, ns.q_lo, ns.q_hi, ns.nu, ns.M)
        _need_seed(ns)
        return {"sweep": True, "count": ns.count, "q_lo": ns.q_lo, "q_hi": ns.q_hi, "nu": ns.nu, "M": ns.M}
    if ns.q is None or ns.M is None:
        raise _UsageError("need --q and --M (or --sweep)")
    check_burgess(ns.M, ns.q, ns.nu)
    return {"sweep": False, "q": ns.q, "M": ns.M, "nu": ns.nu}


def _run_charsum(config: RunConfig):
    p = config.params
    header = ["q", "M", "nu", "sum", "bound", "ratio"]
    if not p["sweep"]:
        rep = burgess_report(p["M"], p["q"], p["nu"])
        extra = {"nu_beyond_classical": True} if rep.nu_beyond_classical else {}
        return table(header, *zip((rep.q, rep.M, rep.nu, rep.sum, rep.benchmark, rep.ratio))), extra
    summary = burgess_sweep(p["count"], p["q_lo"], p["q_hi"], p["nu"], config.seed, p["M"])
    rows = [(r.q, r.M, r.nu, r.sum, r.benchmark, r.ratio) for r in summary.reports]
    extra = {"max_ratio": summary.max_ratio, "median_ratio": summary.median_ratio}
    if p["nu"] > 3:
        extra["nu_beyond_classical"] = True
    return table(header, *zip(*rows)), extra


def _rough_params(ns) -> dict[str, Any]:
    check_rough(ns.eta, ns.M)
    if ns.q is not None:
        check_modulus(ns.q)
    return {"eta": ns.eta, "M": ns.M, "q": ns.q}


def _run_rough(config: RunConfig):
    p = config.params
    rs = rough_set(p["eta"], p["M"])
    if p["q"] is None:
        row = (p["eta"], p["M"], rs.count, rs.ratio_c0)
        return table(["eta", "M", "count", "ratio_c0"], *zip(row)), {}
    part = rough_partition(p["eta"], p["M"], p["q"], rough=rs)
    row = (p["eta"], p["M"], p["q"], part.count_plus, part.count_minus, part.count_zero, part.main_term)
    return table(["eta", "M", "q", "plus", "minus", "zero", "main_term"], *zip(row)), {}


def _sfree_params(ns) -> dict[str, Any]:
    check_squarefree(ns.u, ns.h)
    return {"u": ns.u, "h": ns.h}


def _run_sfree(config: RunConfig):
    res = squarefree_pair_density(config.params["u"], config.params["h"])
    row = (res.u, res.h, res.count, res.pair_count, res.ratio)
    return table(["u", "h", "count", "pair_count", "ratio"], *zip(row)), {}


def _erdos_params(ns) -> dict[str, Any]:
    xs = ([] if ns.x is None else [ns.x]) + (ns.x_list or [])
    check_erdos(xs)
    return {"xs": sorted(set(xs))}


def _run_erdos(config: RunConfig):
    rows = [
        (r.x, r.primes, r.mean, r.constant_partial)
        for r in erdos_mean_curve(config.params["xs"], config.workers)
    ]
    return table(["x", "primes", "mean", "constant_partial"], *zip(*rows)), {}


def _exceptional_params(ns) -> dict[str, Any]:
    if [ns.h is not None, bool(ns.h_list), ns.h_multiples is not None].count(True) != 1:
        raise _UsageError("need exactly one of --h, --h-list, --h-multiples")
    if (ns.u is None) == (ns.u_samples is None):
        raise _UsageError("need exactly one of --u or --u-samples")
    if ns.h is not None:
        h_list = [ns.h]
    elif ns.h_list:
        h_list = sorted(set(ns.h_list))
    else:
        h_list = h_multiples(ns.q, ns.h_multiples)
    # Sampled u are drawn from [0, 2Q], so 0 stands in for them here.
    check_exceptional(ns.q, 0 if ns.u is None else ns.u, h_list)
    if ns.u is not None:
        u_params: dict[str, Any] = {"u": ns.u}
    else:
        if ns.u_samples < 1:
            raise _UsageError(f"--u-samples must be >= 1, got {ns.u_samples}")
        _need_seed(ns)
        u_params = {"u_samples": ns.u_samples}
    if ns.checkpoint is not None and ns.u is None:
        raise _UsageError("--checkpoint supports single --u runs only")
    if ns.checkpoint_every is not None:
        if ns.checkpoint is None:
            raise _UsageError("--checkpoint-every needs --checkpoint")
        if ns.checkpoint_every < 1:
            raise _UsageError(f"--checkpoint-every must be >= 1, got {ns.checkpoint_every}")
    return {"Q": ns.q, "h_list": h_list, **u_params}


def _run_exceptional(config: RunConfig):
    p = config.params
    Q = p["Q"]
    if "u" in p:
        u_values = [p["u"]]
    else:
        rng = XorShift64Star(config.seed)
        u_values = [rng.draw_in(0, 2 * Q) for _ in range(p["u_samples"])]
    resume = block_done = None
    if config.checkpoint_path is not None:
        key, blocks = _checkpoint_key(config), len(exceptional_blocks(Q))
        resume = _read_checkpoint(config.checkpoint_path, key, blocks)

        def block_done(state):
            if state.next_block == blocks or state.next_block % config.checkpoint_every == 0:
                _write_checkpoint(config.checkpoint_path, key, blocks, state)

    results = exceptional_density_sweep(
        Q, u_values, p["h_list"], config.workers, resume=resume, block_done=block_done
    )
    rows = [(r.Q, r.u, r.h, r.exceptional, r.total_primes, r.density) for r in results]
    extra = {"u_exceeds_2q": True} if any(r.u_exceeds_2q for r in results) else {}
    return table(["Q", "u", "h", "exceptional", "total", "density"], *zip(*rows)), extra


def _trace_params(ns) -> dict[str, Any]:
    check_trace(ns.q, ns.u, ns.h, ns.eta)
    return {"Q": ns.q, "u": ns.u, "h": ns.h, "eta": ns.eta}


def _run_trace(config: RunConfig):
    p = config.params
    return {"trace": asdict(proof_trace(p["Q"], p["u"], p["h"], p["eta"]))}, {}


def _crt_params(ns) -> dict[str, Any]:
    for l, _ in ns.pairs:
        _odd_prime(l, "modulus")
    check_crt(ns.pairs)
    return {"pairs": ns.pairs}


def _run_crt(config: RunConfig):
    return table(["u"], [crt_adversarial_u(config.params["pairs"])]), {}


COMMANDS: dict[str, _Command] = {
    "nres": _Command("least non-residue n(p)", _range_params, _run_nres, _RANGE_ARGS),
    "dp": _Command("longest residue run d(p)", _table_params, _run_dp, _RANGE_ARGS),
    "dup": _Command("first non-residue past u", _dup_params, _run_dup, (
        _arg("--p", type=int, required=True),
        _arg("--u", type=int, required=True),
    )),
    "gaps": _Command("non-residue gaps and tail statistics", _gaps_params, _run_gaps, (
        *_RANGE_ARGS,
        _arg("--tail", action="store_true", help="emit tail rows N(h,p), S(h,p) instead of per-gap rows"),
        _arg("--h", type=int, help="fixed tail threshold"),
        _arg("--h-rule", choices=("quarter",), help="threshold rule: quarter = ceil(p**(1/4))"),
    )),
    "charsum": _Command("incomplete character sums vs the cancellation benchmark", _charsum_params, _run_charsum, (
        _arg("--q", type=int),
        _arg("--M", type=int),
        _arg("--nu", type=int, default=2),
        _arg("--sweep", action="store_true", help="sample moduli instead of a single q"),
        _arg("--count", type=int, help="sweep: number of moduli"),
        _arg("--q-lo", type=int, help="sweep: modulus range low end"),
        _arg("--q-hi", type=int, help="sweep: modulus range high end"),
        _SEED_ARG,
    )),
    "rough": _Command("rough set census or symbol partition", _rough_params, _run_rough, (
        _arg("--eta", type=float, required=True),
        _arg("--M", type=int, required=True),
        _arg("--q", type=int, help="partition the set by the symbol mod q"),
    )),
    "sfree": _Command("square-free window census and pair density", _sfree_params, _run_sfree, (
        _arg("--u", type=int, required=True),
        _arg("--h", type=int, required=True),
    )),
    "erdos": _Command("running mean of the least non-residue", _erdos_params, _run_erdos, (
        _arg("--x", type=int),
        _arg("--x-list", type=_int_list, metavar="X1,X2,..."),
    )),
    "exceptional": _Command("density of primes with no non-residue in a window", _exceptional_params,
                            _run_exceptional, (
        _arg("--q", type=int, required=True, help="dyadic range [Q, 2Q]"),
        _arg("--u", type=int),
        _arg("--u-samples", type=int, help="draw this many u values from [0, 2Q] (needs --seed)"),
        _arg("--h", type=int),
        _arg("--h-list", type=_int_list, metavar="H1,H2,..."),
        _arg("--h-multiples", type=int, metavar="K", help="h grid ceil(log Q) * {1..K}"),
        _arg("--checkpoint", metavar="PATH", help="resumable progress file (single --u runs)"),
        _arg("--checkpoint-every", type=int, metavar="N",
             help=f"blocks between checkpoint writes (default {DEFAULT_CHECKPOINT_EVERY})"),
        _SEED_ARG,
    )),
    "trace": _Command("numeric trace of the exceptional-count bound chain", _trace_params, _run_trace, (
        _arg("--q", type=int, required=True, help="dyadic range [Q, 2Q]"),
        _arg("--u", type=int, required=True),
        _arg("--h", type=int, required=True),
        _arg("--eta", type=float, required=True),
    ), formats=("json",)),
    "crt": _Command("glue per-prime congruences into one u", _crt_params, _run_crt, (
        _arg("--pairs", type=_pair_list, required=True, metavar="L1:U1,L2:U2,..."),
    )),
}


def run(config: RunConfig) -> int:
    """Execute a validated config and write its output.

    The runner finishes its computation before the first chunk is
    rendered, so a failure part way through a computation leaves standard
    output (or the --out file) untouched.  The chunks are written as they
    are rendered; the --out file is replaced whole (see _write_atomic),
    so a failed write leaves it untouched too.
    """
    body, extra = COMMANDS[config.subcommand].run(config)
    render = render_json if config.output_format == "json" else render_csv
    chunks = render(_meta(config, extra), body)
    if config.output_path is None:
        sys.stdout.writelines(chunks)
    else:
        _write_atomic(config.output_path, chunks)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(config)
    except (QRStatsError, OSError, MemoryError) as exc:
        message = str(exc) or type(exc).__name__
    except Exception as exc:  # a fault of this program: still exit 2, not a traceback
        message = f"{type(exc).__name__}: {exc}"
    print(f"qrstats: error: {message}", file=sys.stderr)
    return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
