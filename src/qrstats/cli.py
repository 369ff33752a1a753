"""Command line front end.

Each subcommand maps onto one library operation and emits either CSV or
a single JSON document.  CSV begins with `#`-prefixed metadata lines
(tool version, subcommand, parameters, conventions), then a header row,
then data rows; floats are printed with 17 significant digits so a fixed
parameter set yields byte-identical output across runs and worker
counts.  Worker count and output path deliberately never appear in the
output for the same reason.

Exit codes: 0 success, 1 usage error (nothing computed), 2 computation
or resource error (message on standard error, nothing on standard
output).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Any

from . import __version__
from .arith import is_perfect_square
from .errors import QRStatsError
from .charsums import burgess_report, burgess_sweep, rough_partition
from .experiments import (
    ExceptionalState,
    erdos_mean_curve,
    exceptional_blocks,
    exceptional_density_sweep,
    gap_tail_scan,
    h_quarter_power,
    proof_trace,
    squarefree_pair_density,
)
from .residue_scan import (
    crt_adversarial_u,
    first_nonresidue_after,
    gap_stats,
    least_nonresidues,
    longest_qr_run,
)
from .rng import XorShift64Star
from .sieve import is_prime_u64, primes_in, rough_set

WORKERS_ENV = "QRSTATS_WORKERS"
CHECKPOINT_MAGIC = "qrstats-checkpoint v1"
DEFAULT_CHECKPOINT_EVERY = 16


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


def _add_shared(sub: argparse.ArgumentParser, seeded: bool = False) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default=None, help="output format (default csv)")
    sub.add_argument("--workers", type=int, default=None, help=f"worker processes (default ${WORKERS_ENV} or 1)")
    sub.add_argument("--out", default=None, metavar="PATH", help="write output to PATH instead of stdout")
    sub.add_argument(
        "--zero-as-residue",
        type=_bool_flag,
        default=True,
        metavar="{true,false}",
        help="classification of multiples of p (default true; affects dp runs)",
    )
    if seeded:
        sub.add_argument("--seed", type=int, default=None, help="generator seed (required for sampling modes)")


def build_parser() -> _Parser:
    parser = _Parser(prog="qrstats", description="Quadratic-residue distribution statistics.")
    parser.add_argument("--version", action="version", version=f"qrstats {__version__}")
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND", parser_class=_Parser)

    p = subs.add_parser("nres", help="least non-residue n(p)")
    p.add_argument("--p", type=int)
    p.add_argument("--lo", type=int)
    p.add_argument("--hi", type=int)
    _add_shared(p)

    p = subs.add_parser("dp", help="longest residue run d(p)")
    p.add_argument("--p", type=int)
    p.add_argument("--lo", type=int)
    p.add_argument("--hi", type=int)
    _add_shared(p)

    p = subs.add_parser("dup", help="first non-residue past u")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    _add_shared(p)

    p = subs.add_parser("gaps", help="non-residue gaps and tail statistics")
    p.add_argument("--p", type=int)
    p.add_argument("--lo", type=int)
    p.add_argument("--hi", type=int)
    p.add_argument("--tail", action="store_true", help="emit tail rows N(h,p), S(h,p) instead of per-gap rows")
    p.add_argument("--h", type=int, help="fixed tail threshold")
    p.add_argument("--h-rule", choices=("quarter",), help="threshold rule: quarter = ceil(p**(1/4))")
    _add_shared(p)

    p = subs.add_parser("charsum", help="incomplete character sums vs the cancellation benchmark")
    p.add_argument("--q", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--nu", type=int, default=2)
    p.add_argument("--sweep", action="store_true", help="sample moduli instead of a single q")
    p.add_argument("--count", type=int, help="sweep: number of moduli")
    p.add_argument("--q-lo", type=int, help="sweep: modulus range low end")
    p.add_argument("--q-hi", type=int, help="sweep: modulus range high end")
    _add_shared(p, seeded=True)

    p = subs.add_parser("rough", help="rough set census or symbol partition")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--q", type=int, help="partition the set by the symbol mod q")
    _add_shared(p)

    p = subs.add_parser("sfree", help="square-free window census and pair density")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    _add_shared(p)

    p = subs.add_parser("erdos", help="running mean of the least non-residue")
    p.add_argument("--x", type=int)
    p.add_argument("--x-list", type=_int_list, metavar="X1,X2,...")
    _add_shared(p)

    p = subs.add_parser("exceptional", help="density of primes with no non-residue in a window")
    p.add_argument("--q", type=int, required=True, help="dyadic range [Q, 2Q]")
    p.add_argument("--u", type=int)
    p.add_argument("--u-samples", type=int, help="draw this many u values from [0, 2Q] (needs --seed)")
    p.add_argument("--h", type=int)
    p.add_argument("--h-list", type=_int_list, metavar="H1,H2,...")
    p.add_argument("--h-multiples", type=int, metavar="K", help="h grid ceil(log Q) * {1..K}")
    p.add_argument("--checkpoint", metavar="PATH", help="resumable progress file (single --u runs)")
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help=f"blocks between checkpoint writes (default {DEFAULT_CHECKPOINT_EVERY})",
    )
    _add_shared(p, seeded=True)

    p = subs.add_parser("trace", help="numeric trace of the exceptional-count bound chain")
    p.add_argument("--q", type=int, required=True, help="dyadic range [Q, 2Q]")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    _add_shared(p)

    p = subs.add_parser("crt", help="glue per-prime congruences into one u")
    p.add_argument("--pairs", type=_pair_list, required=True, metavar="L1:U1,L2:U2,...")
    _add_shared(p)

    return parser


def _fail(parser: _Parser, ns, message: str):
    sub = getattr(ns, "subcommand", None)
    prefix = f"{sub}: " if sub else ""
    parser.error(prefix + message)


def _need_odd_prime(parser, ns, p: int, flag: str = "--p") -> None:
    if p is None or p < 3 or p % 2 == 0 or not is_prime_u64(p):
        _fail(parser, ns, f"{flag} must be an odd prime, got {p}")


def _resolve_workers(parser, ns) -> int:
    if ns.workers is not None:
        workers = ns.workers
    else:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            _fail(parser, ns, f"${WORKERS_ENV} must be an integer, got {raw!r}")
    if workers < 1:
        _fail(parser, ns, f"--workers must be >= 1, got {workers}")
    return workers


def _range_params(parser, ns, prime_needed: bool = True) -> dict[str, Any]:
    """Resolve the --p versus --lo/--hi choice shared by nres, dp, gaps."""
    if ns.p is not None:
        if ns.lo is not None or ns.hi is not None:
            _fail(parser, ns, "--p excludes --lo/--hi")
        if prime_needed:
            _need_odd_prime(parser, ns, ns.p)
        return {"p": ns.p}
    if ns.lo is None or ns.hi is None:
        _fail(parser, ns, "need either --p or both --lo and --hi")
    if not 2 <= ns.lo <= ns.hi:
        _fail(parser, ns, f"need 2 <= lo <= hi, got lo={ns.lo} hi={ns.hi}")
    return {"lo": ns.lo, "hi": ns.hi}


def parse_args(argv: list[str]) -> RunConfig:
    """Parse and fully validate; no computation happens here, and any
    violated precondition surfaces as a usage error on exit code 1."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        parser.error("a subcommand is required")
    workers = _resolve_workers(parser, ns)
    fmt = ns.format
    seed = getattr(ns, "seed", None)
    checkpoint_path = None
    checkpoint_every = DEFAULT_CHECKPOINT_EVERY
    params: dict[str, Any] = {}
    sub = ns.subcommand

    if sub in ("nres", "dp"):
        params = _range_params(parser, ns)

    elif sub == "dup":
        _need_odd_prime(parser, ns, ns.p)
        if ns.u < 0:
            _fail(parser, ns, f"--u must be >= 0, got {ns.u}")
        params = {"p": ns.p, "u": ns.u}

    elif sub == "gaps":
        params = _range_params(parser, ns)
        if ns.tail:
            if (ns.h is None) == (ns.h_rule is None):
                _fail(parser, ns, "--tail needs exactly one of --h or --h-rule")
            if ns.h is not None and ns.h < 1:
                _fail(parser, ns, f"--h must be >= 1, got {ns.h}")
            params.update(tail=True, h=ns.h, h_rule=ns.h_rule)
        else:
            if "p" not in params:
                _fail(parser, ns, "per-gap rows need a single --p; ranges need --tail")
            if ns.h is not None or ns.h_rule is not None:
                _fail(parser, ns, "--h/--h-rule apply only with --tail")
            params["tail"] = False

    elif sub == "charsum":
        if ns.nu < 1:
            _fail(parser, ns, f"--nu must be >= 1, got {ns.nu}")
        if ns.sweep:
            if ns.q is not None:
                _fail(parser, ns, "--sweep excludes --q")
            if ns.count is None or ns.q_lo is None or ns.q_hi is None:
                _fail(parser, ns, "--sweep needs --count, --q-lo, and --q-hi")
            if ns.count < 1:
                _fail(parser, ns, f"--count must be >= 1, got {ns.count}")
            if ns.q_lo < 3 or ns.q_hi - ns.q_lo < 3:
                _fail(parser, ns, f"sweep range [{ns.q_lo}, {ns.q_hi}] is unusable")
            if seed is None:
                _fail(parser, ns, "sampling runs require an explicit --seed")
            if ns.M is not None and ns.M < 1:
                _fail(parser, ns, f"--M must be >= 1, got {ns.M}")
            params = {"sweep": True, "count": ns.count, "q_lo": ns.q_lo, "q_hi": ns.q_hi, "nu": ns.nu, "M": ns.M}
        else:
            if ns.q is None or ns.M is None:
                _fail(parser, ns, "need --q and --M (or --sweep)")
            if ns.q < 3 or ns.q % 2 == 0:
                _fail(parser, ns, f"--q must be odd and >= 3, got {ns.q}")
            if is_perfect_square(ns.q):
                _fail(parser, ns, f"q is a perfect square: {ns.q}")
            if ns.M < 1:
                _fail(parser, ns, f"--M must be >= 1, got {ns.M}")
            params = {"sweep": False, "q": ns.q, "M": ns.M, "nu": ns.nu}

    elif sub == "rough":
        if not 0.0 < ns.eta < 1.0:
            _fail(parser, ns, f"--eta must be in (0, 1), got {ns.eta}")
        if ns.M < 2:
            _fail(parser, ns, f"--M must be >= 2, got {ns.M}")
        if ns.q is not None and (ns.q < 3 or ns.q % 2 == 0):
            _fail(parser, ns, f"--q must be odd and >= 3, got {ns.q}")
        params = {"eta": ns.eta, "M": ns.M, "q": ns.q}

    elif sub == "sfree":
        if ns.u < 0:
            _fail(parser, ns, f"--u must be >= 0, got {ns.u}")
        if ns.h < 1:
            _fail(parser, ns, f"--h must be >= 1, got {ns.h}")
        params = {"u": ns.u, "h": ns.h}

    elif sub == "erdos":
        xs = []
        if ns.x is not None:
            xs.append(ns.x)
        if ns.x_list:
            xs.extend(ns.x_list)
        if not xs:
            _fail(parser, ns, "need --x or --x-list")
        if min(xs) < 3:
            _fail(parser, ns, f"x must be >= 3, got {min(xs)}")
        params = {"xs": sorted(set(xs))}

    elif sub == "exceptional":
        if ns.q < 10:
            _fail(parser, ns, f"--q must be >= 10, got {ns.q}")
        modes = [ns.h is not None, bool(ns.h_list), ns.h_multiples is not None]
        if sum(modes) != 1:
            _fail(parser, ns, "need exactly one of --h, --h-list, --h-multiples")
        if ns.h is not None:
            h_list = [ns.h]
        elif ns.h_list:
            h_list = sorted(set(ns.h_list))
        else:
            if ns.h_multiples < 1:
                _fail(parser, ns, f"--h-multiples must be >= 1, got {ns.h_multiples}")
            unit = math.ceil(math.log(ns.q))
            h_list = [unit * i for i in range(1, ns.h_multiples + 1)]
        if h_list[0] < 1:
            _fail(parser, ns, f"h must be >= 1, got {h_list[0]}")
        if (ns.u is None) == (ns.u_samples is None):
            _fail(parser, ns, "need exactly one of --u or --u-samples")
        if ns.u is not None:
            if ns.u < 0:
                _fail(parser, ns, f"--u must be >= 0, got {ns.u}")
            u_params: dict[str, Any] = {"u": ns.u}
        else:
            if ns.u_samples < 1:
                _fail(parser, ns, f"--u-samples must be >= 1, got {ns.u_samples}")
            if seed is None:
                _fail(parser, ns, "sampling runs require an explicit --seed")
            u_params = {"u_samples": ns.u_samples}
        if ns.checkpoint is not None and "u" not in u_params:
            _fail(parser, ns, "--checkpoint supports single --u runs only")
        if ns.checkpoint_every is not None:
            if ns.checkpoint is None:
                _fail(parser, ns, "--checkpoint-every needs --checkpoint")
            if ns.checkpoint_every < 1:
                _fail(parser, ns, f"--checkpoint-every must be >= 1, got {ns.checkpoint_every}")
            checkpoint_every = ns.checkpoint_every
        checkpoint_path = ns.checkpoint
        params = {"Q": ns.q, "h_list": h_list, **u_params}

    elif sub == "trace":
        if ns.q < 10:
            _fail(parser, ns, f"--q must be >= 10, got {ns.q}")
        if ns.u < 0:
            _fail(parser, ns, f"--u must be >= 0, got {ns.u}")
        if not 1 <= ns.h < ns.q:
            _fail(parser, ns, f"--h must satisfy 1 <= h < Q, got {ns.h}")
        if not 0.0 < ns.eta < 1.0:
            _fail(parser, ns, f"--eta must be in (0, 1), got {ns.eta}")
        if fmt == "csv":
            _fail(parser, ns, "trace emits a single JSON document; CSV is not offered")
        fmt = "json"
        params = {"Q": ns.q, "u": ns.u, "h": ns.h, "eta": ns.eta}

    elif sub == "crt":
        pairs = ns.pairs
        moduli = [l for l, _ in pairs]
        for l in moduli:
            if l < 3 or l % 2 == 0 or not is_prime_u64(l):
                _fail(parser, ns, f"modulus {l} is not an odd prime")
        if len(set(moduli)) != len(moduli):
            _fail(parser, ns, "moduli must be pairwise distinct")
        product = 1
        for l in moduli:
            product *= l
        if product >= 1 << 127:
            _fail(parser, ns, "modulus product exceeds the 128-bit budget")
        params = {"pairs": pairs}

    return RunConfig(
        subcommand=sub,
        params=params,
        output_format=fmt or "csv",
        workers=workers,
        zero_as_residue=ns.zero_as_residue,
        output_path=ns.out,
        seed=seed,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    )


# --- rendering -----------------------------------------------------------

def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


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


def _render_csv(config: RunConfig, header: list[str], rows: list, extra: dict[str, Any]) -> str:
    lines = [
        f"# tool: qrstats {__version__}",
        f"# subcommand: {config.subcommand}",
        "# params: " + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(_meta_params(config).items())),
        f"# conventions: zero_as_residue={_fmt(config.zero_as_residue)}",
    ]
    for key in sorted(extra):
        lines.append(f"# {key}: {_fmt(extra[key])}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_meta(config: RunConfig, extra: dict[str, Any]) -> dict[str, Any]:
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


def _render_json(config: RunConfig, header: list[str], rows: list, extra: dict[str, Any]) -> str:
    doc = {"meta": _json_meta(config, extra), "header": header, "rows": [list(row) for row in rows]}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _render_trace(config: RunConfig, report) -> str:
    payload = asdict(report)
    payload["notes"] = list(payload["notes"])
    doc = {"meta": _json_meta(config, {}), "trace": payload}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# --- checkpoint files ----------------------------------------------------

def _checkpoint_key(config: RunConfig) -> str:
    p = config.params
    h_part = ",".join(str(h) for h in p["h_list"])
    return f"exceptional Q={p['Q']} u={p['u']} h_list={h_part}"


def _write_checkpoint(path: str, key: str, blocks: int, state: ExceptionalState) -> None:
    hits = " ".join(f"{p}:{d}" for p, d in state.hits)
    body = (
        f"{CHECKPOINT_MAGIC}\n"
        f"key: {key}\n"
        f"blocks: {blocks}\n"
        f"next_block: {state.next_block}\n"
        f"total: {state.total}\n"
        f"hits: {hits}\n"
    )
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(body)
    os.replace(tmp, path)


def _read_checkpoint(path: str, key: str, blocks: int) -> ExceptionalState | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise QRStatsError(f"unrecognized checkpoint file {path}")
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
    hits = []
    raw = fields.get("hits", "")
    if raw:
        for token in raw.split(" "):
            p_txt, _, d_txt = token.partition(":")
            hits.append((int(p_txt), int(d_txt)))
    return ExceptionalState(int(fields["next_block"]), int(fields["total"]), tuple(hits))


# --- execution -----------------------------------------------------------

def _run_nres(config: RunConfig):
    p = config.params
    if "p" in p:
        primes = [p["p"]]
    else:
        primes = [q for q in primes_in(p["lo"], p["hi"]).tolist() if q != 2]
    return ["p", "n_p"], list(zip(primes, least_nonresidues(primes).tolist())), {}


def _run_dp(config: RunConfig):
    p = config.params
    convention = "zero_as_residue" if config.zero_as_residue else "zero_excluded"
    if "p" in p:
        primes = [p["p"]]
    else:
        primes = [q for q in primes_in(p["lo"], p["hi"]).tolist() if q != 2]
    rows = [(q, longest_qr_run(q, config.zero_as_residue), convention) for q in primes]
    return ["p", "d_p", "convention"], rows, {}


def _run_dup(config: RunConfig):
    p, u = config.params["p"], config.params["u"]
    return ["p", "u", "d_u"], [(p, u, first_nonresidue_after(p, u))], {}


def _run_gaps(config: RunConfig):
    p = config.params
    if not p["tail"]:
        stats = gap_stats(p["p"])
        rows = [
            (p["p"], k + 1, int(n), int(d))
            for k, (n, d) in enumerate(zip(stats.n_seq.tolist(), stats.deltas.tolist()))
        ]
        return ["p", "k", "n_k", "delta_k"], rows, {}
    if "p" in p:
        primes = [p["p"]]
    else:
        primes = [q for q in primes_in(p["lo"], p["hi"]).tolist() if q != 2]
    h = p["h"] if p["h"] is not None else h_quarter_power
    summary = gap_tail_scan(primes, h, config.workers)
    rows = [tuple(row) for row in summary.rows]
    extra = {"max_c1": summary.max_c1, "max_c2": summary.max_c2}
    return ["p", "h", "N_h", "S_h", "c1", "c2"], rows, extra


def _run_charsum(config: RunConfig):
    p = config.params
    header = ["q", "M", "nu", "sum", "bound", "ratio"]
    if not p["sweep"]:
        rep = burgess_report(p["M"], p["q"], p["nu"])
        extra = {"nu_beyond_classical": True} if rep.nu_beyond_classical else {}
        return header, [(rep.q, rep.M, rep.nu, rep.sum, rep.benchmark, rep.ratio)], extra
    summary = burgess_sweep(p["count"], p["q_lo"], p["q_hi"], p["nu"], config.seed, p["M"])
    rows = [(r.q, r.M, r.nu, r.sum, r.benchmark, r.ratio) for r in summary.reports]
    extra = {"max_ratio": summary.max_ratio, "median_ratio": summary.median_ratio}
    if p["nu"] > 3:
        extra["nu_beyond_classical"] = True
    return header, rows, extra


def _run_rough(config: RunConfig):
    p = config.params
    rs = rough_set(p["eta"], p["M"])
    if p["q"] is None:
        return ["eta", "M", "count", "ratio_c0"], [(p["eta"], p["M"], rs.count, rs.ratio_c0)], {}
    part = rough_partition(p["eta"], p["M"], p["q"], rough=rs)
    row = (p["eta"], p["M"], p["q"], part.count_plus, part.count_minus, part.count_zero, part.main_term)
    return ["eta", "M", "q", "plus", "minus", "zero", "main_term"], [row], {}


def _run_sfree(config: RunConfig):
    p = config.params
    res = squarefree_pair_density(p["u"], p["h"])
    return ["u", "h", "count", "pair_count", "ratio"], [(res.u, res.h, res.count, res.pair_count, res.ratio)], {}


def _run_erdos(config: RunConfig):
    rows = [
        (r.x, r.primes, r.mean, r.constant_partial)
        for r in erdos_mean_curve(config.params["xs"], config.workers)
    ]
    return ["x", "primes", "mean", "constant_partial"], rows, {}


def _run_exceptional(config: RunConfig):
    p = config.params
    Q, h_list = p["Q"], p["h_list"]
    if "u" in p:
        u_values = [p["u"]]
    else:
        rng = XorShift64Star(config.seed)
        u_values = [rng.draw_in(0, 2 * Q) for _ in range(p["u_samples"])]
    rows = []
    extra: dict[str, Any] = {}
    for u in u_values:
        resume = None
        block_done = None
        if config.checkpoint_path is not None:
            key = _checkpoint_key(config)
            blocks = len(exceptional_blocks(Q))
            resume = _read_checkpoint(config.checkpoint_path, key, blocks)
            every = config.checkpoint_every

            def block_done(state, _key=key, _blocks=blocks, _every=every):
                if state.next_block == _blocks or state.next_block % _every == 0:
                    _write_checkpoint(config.checkpoint_path, _key, _blocks, state)

        results = exceptional_density_sweep(
            Q, u, h_list, config.workers, resume=resume, block_done=block_done
        )
        for r in results:
            rows.append((r.Q, r.u, r.h, r.exceptional, r.total_primes, r.density))
        if any(r.u_exceeds_2q for r in results):
            extra["u_exceeds_2q"] = True
    return ["Q", "u", "h", "exceptional", "total", "density"], rows, extra


def _run_crt(config: RunConfig):
    u = crt_adversarial_u(config.params["pairs"])
    return ["u"], [(u,)], {}


_RUNNERS = {
    "nres": _run_nres,
    "dp": _run_dp,
    "dup": _run_dup,
    "gaps": _run_gaps,
    "charsum": _run_charsum,
    "rough": _run_rough,
    "sfree": _run_sfree,
    "erdos": _run_erdos,
    "exceptional": _run_exceptional,
    "crt": _run_crt,
}


def run(config: RunConfig) -> int:
    """Execute a validated config and write its output.

    The document is rendered in full before anything is written, so a
    failure part way through a computation leaves standard output (or
    the --out file) untouched.
    """
    if config.subcommand == "trace":
        report = proof_trace(
            config.params["Q"], config.params["u"], config.params["h"], config.params["eta"]
        )
        text = _render_trace(config, report)
    else:
        header, rows, extra = _RUNNERS[config.subcommand](config)
        if config.output_format == "json":
            text = _render_json(config, header, rows, extra)
        else:
            text = _render_csv(config, header, rows, extra)
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(config)
    except QRStatsError as exc:
        print(f"qrstats: error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
