"""qrstats benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload scan|sums|tables --seed N \
        --seconds S --trace 0|1 [--workers W]

Run from the root of a source checkout; qrstats is imported from its
src/ directory.  A run

1. runs every operation once on small inputs, untimed, so imports and
   .pyc compilation are paid up front, checks those outputs, and proves
   each check rejects a copy with one value altered;
2. runs whole rounds of the workload's operations, one after another,
   each CLI operation in its own process, starting no round that would
   end past S seconds (but always at least one);
3. times a fresh interpreter reaching its first operation (setup_s)
   once before the first round and SETUP_SAMPLES_PER_ROUND times after
   each, so the samples span the run as the rounds do;
4. checks every distinct output against workloads.py's independent
   computation; an operation whose run or check fails counts as failed;
5. with --trace 1, runs one more round with every pool command at one
   worker and spans around each module's public functions.

The last line of standard output is the JSON result.  Machine facts,
per-operation figures and output digests go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES_PER_ROUND = 2
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))


class BenchmarkDefect(Exception):
    """The benchmark itself is wrong, not the program under test."""


def child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QRSTATS_WORKERS", None)
    env.update(
        PYTHONPATH=str(SRC),
        QRSTATS_BENCH_SRC=str(SRC),
        TMPDIR=str(tmp),
        # One BLAS thread: qrstats does no linear algebra, and idle BLAS
        # threads only add CPU noise.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.env = child_env(work / "tmp")
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        self.outputs: dict[str, bytes] = {}

    def _child(self, args: list[str], stdout_path: Path, trace: bool, tag: str) -> dict | str:
        result = self.work / f"{tag}.result.json"
        cmd = [sys.executable, str(HERE / "opchild.py"), str(result)] + (["--trace"] if trace else []) + args
        with open(stdout_path, "wb") as out:
            try:
                proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE, env=self.env,
                                      cwd=ROOT, timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return f"timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0 or not result.exists():
            return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-400:]}"
        payload = json.loads(result.read_text())
        result.unlink()
        return payload

    def _keep(self, data: bytes) -> str:
        key = digest(data)
        self.outputs.setdefault(key, data)
        return key

    def round(self, ops, tag: str, trace: bool = False) -> dict[str, dict]:
        """Run every op once; returns per-op cost, output digest and any
        error, plus the tracer reports under "_trace"."""
        for stale in self.work.glob("exceptional.ckpt*"):
            stale.unlink()
        out: dict[str, dict] = {}
        traces = []
        for op in [o for o in ops if o.is_cli]:
            path = self.work / f"{tag}.{op.name}.out"
            got = self._child(["cli", "--", *op.argv], path, trace, f"{tag}.{op.name}")
            data = path.read_bytes()
            path.unlink()
            if isinstance(got, str):
                out[op.name] = {"error": got}
                continue
            rec = got["ops"][0]
            if rec["exit"] != 0:
                out[op.name] = {"error": f"exit code {rec['exit']}"}
                continue
            out[op.name] = {**_cost(rec), "bytes": len(data), "digest": self._keep(data)}
            traces.append(got["trace"])
        lib = [o for o in ops if not o.is_cli]
        if lib:
            spec = self.work / f"{tag}.spec.json"
            spec.write_text(json.dumps([{"func": o.func, "args": o.args, "kwargs": o.kwargs} for o in lib]))
            got = self._child(["lib", str(spec)], self.work / f"{tag}.lib.out", trace, f"{tag}.lib")
            for op_, rec in zip(lib, got["ops"] if isinstance(got, dict) else [None] * len(lib)):
                if rec is None:
                    out[op_.name] = {"error": got}
                    continue
                data = json.dumps(rec["value"], sort_keys=True).encode()
                out[op_.name] = {**_cost(rec), "bytes": len(data), "digest": self._keep(data)}
            if isinstance(got, dict):
                traces.append(got["trace"])
        out["_trace"] = traces
        return out


def _cost(rec: dict) -> dict:
    return {k: rec[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}


def _value(op, data: bytes):
    return data if op.is_cli else json.loads(data)


def verify(ops, rounds: list[dict], outputs: dict[str, bytes]) -> tuple[int, bool, list[str]]:
    """(failed operations, all outputs correct, messages).  Each distinct
    output is checked once; a repeat of a checked output shares its
    verdict."""
    verdicts: dict[tuple[str, str], str | None] = {}
    failed = 0
    wrong = False
    notes = []
    for r in rounds:
        for op in ops:
            rec = r[op.name]
            if "error" in rec:
                failed += 1
                notes.append(f"{op.name}: {rec['error']}")
                continue
            key = (op.name, rec["digest"])
            if key not in verdicts:
                try:
                    op.check(_value(op, outputs[rec["digest"]]))
                    verdicts[key] = None
                except Exception as exc:  # any exception means the output is unreadable or wrong
                    verdicts[key] = f"{op.name}: {type(exc).__name__}: {exc}"
            problem = verdicts[key]
            if problem is None and op.same_as and rec["digest"] != r[op.same_as].get("digest"):
                problem = f"{op.name}: output differs from {op.same_as}"
            if problem:
                failed += 1
                wrong = True
                notes.append(problem)
    return failed, not wrong, sorted(set(notes))


def _alter(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1 + 1e-6) if value else 1e-6
    return str(value) + "x"


def _alter_cell(text: str) -> str:
    for kind in (int, float):
        try:
            return str(_alter(kind(text)))
        except ValueError:
            pass
    return text + "x"


def altered_copies(op, data: bytes):
    """Copies of a correct output with exactly one value changed: every
    column of one data row for CLI output, every checked field for
    library results."""
    if not op.is_cli:
        value = json.loads(data)
        for path in op.fields:
            bad = copy.deepcopy(value)
            if path is None:
                yield "value", _alter(bad)
                continue
            path = (path,) if isinstance(path, str) else path
            holder = bad
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] = _alter(holder[path[-1]])
            yield "/".join(map(str, path)), bad
        return
    if data.startswith(b"{"):
        doc = json.loads(data)
        row = len(doc["rows"]) // 2
        for col in range(len(doc["rows"][row])):
            bad = copy.deepcopy(doc)
            bad["rows"][row][col] = _alter(bad["rows"][row][col])
            yield f"rows[{row}][{col}]", json.dumps(bad).encode()
        return
    lines = data.decode().splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    index = body[len(body) // 2]
    cells = lines[index].rstrip("\n").split(",")
    for col in range(len(cells)):
        bad_cells = cells[:col] + [_alter_cell(cells[col])] + cells[col + 1:]
        bad = lines[:index] + [",".join(bad_cells) + "\n"] + lines[index + 1:]
        yield f"line {index + 1} column {col + 1}", "".join(bad).encode()


def self_test(ops, warm: dict, outputs: dict[str, bytes]) -> list[str]:
    """Check the warm-up outputs, then require every check to reject each
    altered copy.  Returns problems with the program's warm-up outputs;
    raises BenchmarkDefect when a check accepts an altered copy."""
    problems = []
    for op in ops:
        rec = warm[op.name]
        if "error" in rec:
            problems.append(f"warm-up {op.name}: {rec['error']}")
            continue
        data = outputs[rec["digest"]]
        try:
            op.check(_value(op, data))
        except Exception as exc:  # the program's own output failed its check
            problems.append(f"warm-up {op.name}: {type(exc).__name__}: {exc}")
            continue
        for where, bad in altered_copies(op, data):
            try:
                op.check(bad)
            except Exception:  # rejection is the expected outcome
                continue
            raise BenchmarkDefect(f"check for {op.name} accepted an output altered at {where}")
    return problems


def setup_time(workload: str, env: dict[str, str]) -> float:
    if workload == "sums":
        cmd = [sys.executable, "-c", "import qrstats"]
    else:
        cmd = [sys.executable, "-c", "from qrstats.cli import main_entry; main_entry()", "--version"]
    # No timeout: Popen.wait with a timeout polls in 50 ms steps, which
    # would quantize the measurement.
    start = time.perf_counter()
    subprocess.run(cmd, stdout=subprocess.DEVNULL, env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def calibration_time() -> float:
    """Seconds for a fixed pure-Python loop in this process.  Recorded
    beside the metrics, never reported as one: its drift between runs
    shows how much of a metric's drift is the machine's."""
    start = time.perf_counter()
    acc = 0
    for k in range(300_000):
        acc += k * k % 7
    return time.perf_counter() - start


def machine_facts() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "qrstats").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    versions = {}
    for name in ("numpy", "mpmath", "sympy"):
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def round_totals(r: dict, ops) -> dict:
    recs = [r[op.name] for op in ops if "error" not in r[op.name]]
    return {
        "wall_s": sum(x["wall_s"] for x in recs),
        "cpu_s": sum(x["cpu_s"] for x in recs),
        "peak_rss_mb": max((x["peak_rss_mb"] for x in recs), default=0.0),
    }


def layer_metrics(traced: dict, ops, untraced: list[dict], untraced_wall: float) -> dict[str, float]:
    out: dict[str, float] = {}
    span = distinct = 0
    for rep in traced["_trace"]:
        for key, n in rep["calls"].items():
            out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + n
        for key, s in rep["self_s"].items():
            out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + s
        for key, n in rep["counts"].items():
            out[key] = out.get(key, 0) + n
        span += rep["counts"]["sieve.primes_in.span"]
        distinct += rep["distinct_sieved"]
    out["sieve.primes_in.distinct_ratio"] = distinct / span if span else 0.0
    cli_ops = [op for op in ops if op.is_cli]
    out["cli.output_bytes"] = sum(traced[op.name].get("bytes", 0) for op in cli_ops)
    for op in cli_ops:
        walls = [r[op.name]["wall_s"] for r in untraced if "error" not in r[op.name]]
        out[f"cli.{op.name}.wall_s"] = statistics.median(walls) if walls else 0.0
    out["trace.wall_s"] = round_totals(traced, ops)["wall_s"]
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=2, help="pool size of the timed rounds (default 2)")
    args = parser.parse_args(argv)

    if not (SRC / "qrstats" / "__init__.py").is_file():
        print(f"run.py: no qrstats sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    runner = Runner(work)
    build = WORKLOADS[args.workload]
    checkpoint = str(work / "exceptional.ckpt")
    try:
        warm_ops = build(args.seed, True, args.workers, checkpoint)
        warm = runner.round(warm_ops, "warm")
        problems = self_test(warm_ops, warm, runner.outputs)
        runner.outputs.clear()

        ops = build(args.seed, False, args.workers, checkpoint)
        rounds = []
        start = time.perf_counter()
        setups = [setup_time(args.workload, runner.env)]
        calibrations = [calibration_time()]
        while True:
            began = time.perf_counter()
            rounds.append(runner.round(ops, f"r{len(rounds)}"))
            setups += [setup_time(args.workload, runner.env) for _ in range(SETUP_SAMPLES_PER_ROUND)]
            calibrations.append(calibration_time())
            now = time.perf_counter()
            if now - start + (now - began) > args.seconds:
                break
        checked_rounds = list(rounds)
        traced = None
        if args.trace:
            trace_ops = build(args.seed, False, 1, checkpoint)
            traced = runner.round(trace_ops, "traced", trace=True)
            checked_rounds.append(traced)
        failed, correct, notes = verify(ops, checked_rounds, runner.outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = correct and not problems
    notes = problems + notes

    totals = [round_totals(r, ops) for r in rounds]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(t["wall_s"] for t in totals),
        "cpu_s": statistics.median(t["cpu_s"] for t in totals),
        "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in totals),
    }
    layers = layer_metrics(traced, trace_ops, rounds, e2e["wall_s"]) if traced else {}
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]} for m in chosen}

    digests = {op.name: rounds[0][op.name].get("digest") for op in ops}
    for name, value in digests.items():
        print(f"digest {value} {args.workload}/{name}", file=sys.stderr)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": args.workers,
        "facts": machine_facts(),
        "setup_samples_s": setups,
        "calibration_samples_s": calibrations,
        "calibration_s": statistics.median(calibrations),
        "rounds": [{k: v for k, v in r.items() if k != "_trace"} for r in rounds],
        "round_totals": totals,
        "end_to_end": e2e,
        "digests": digests,
        "notes": notes,
    }
    if traced:
        record["traced_round"] = {k: v for k, v in traced.items() if k != "_trace"}
        record["per_layer"] = layers
        record["trace_reports"] = traced["_trace"]
    attempted = len(ops) * len(checked_rounds)
    record.update(attempted=attempted, failed=failed, correct=correct)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchmarkDefect as exc:
        print(f"run.py: benchmark defect: {exc}", file=sys.stderr)
        sys.exit(3)
