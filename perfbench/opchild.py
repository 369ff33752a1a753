"""Runs benchmark operations in a fresh interpreter and reports their cost.

    opchild.py RESULT [--trace] cli -- ARG...   one qrstats command line
    opchild.py RESULT [--trace] lib SPEC        library calls listed in SPEC

A cli operation goes through qrstats.cli:main_entry, the console-script
entry point, with standard output already redirected by the caller.
Wall and CPU time are taken around the operation only, after imports;
CPU includes pool workers, which the pool reaps before it returns.
RESULT receives one JSON object per operation.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import resource
import sys
import time


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _jsonable(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        return {k: _jsonable(v) for k, v in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "item"):
        return value.item()
    return value


def _timed(fn):
    start_cpu = _cpu()
    start = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - start
    return value, {"wall_s": wall, "cpu_s": _cpu() - start_cpu, "peak_rss_mb": _peak_rss_mb()}


def _run_cli(argv: list[str]) -> list[dict]:
    from qrstats.cli import main_entry

    def call():
        sys.argv = ["qrstats"] + argv
        try:
            main_entry()
        except SystemExit as exc:
            code = exc.code
        else:
            code = 0
        sys.stdout.flush()
        return code

    code, cost = _timed(call)
    return [{"exit": code, **cost}]


def _run_lib(spec_path: str) -> list[dict]:
    with open(spec_path) as fh:
        calls = json.load(fh)
    importlib.import_module("qrstats")
    out = []
    for call in calls:
        module_name, func_name = call["func"].split(":")
        fn = getattr(importlib.import_module(module_name), func_name)
        value, cost = _timed(lambda: fn(*call["args"], **call["kwargs"]))
        out.append({"exit": 0, "value": _jsonable(value), **cost})
    return out


def main(argv: list[str]) -> int:
    result_path = argv[0]
    rest = argv[1:]
    tracer = None
    if rest[0] == "--trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        rest = rest[1:]
    import qrstats

    expected = os.path.join(os.environ["QRSTATS_BENCH_SRC"], "qrstats")
    if os.path.dirname(os.path.abspath(qrstats.__file__)) != expected:
        print(f"qrstats imported from {qrstats.__file__}, not {expected}", file=sys.stderr)
        return 3
    if rest[0] == "cli":
        records = _run_cli(rest[2:])
    else:
        records = _run_lib(rest[1])
    payload = {"ops": records, "trace": tracer.report() if tracer else None}
    with open(result_path, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
