"""Spans around the public functions of each qrstats module.

A Tracer wraps every traced function, wherever a module holds a
reference to it, so calls between modules are seen too.  Each span adds
its duration to its caller's child time; a function's self time is its
span minus its child spans.  Work counters are taken from the
arguments or results at the same boundary.  Nothing under src/ changes:
the wrappers replace module attributes in the traced process only.
"""

from __future__ import annotations

import importlib
import time

TRACED = {
    "arith": ["jacobi"],
    "sieve": ["primes_in", "primes_upto", "rough_set", "squarefree_in_interval"],
    "residue_scan": ["residue_map", "gap_stats", "longest_qr_run", "least_nonresidue"],
    "charsums": ["incomplete_char_sum", "rough_partition", "rough_char_sum", "burgess_sweep"],
    "experiments": [
        "exceptional_density_sweep",
        "exceptional_blocks",
        "erdos_mean_curve",
        "gap_tail_scan",
        "proof_trace",
    ],
    "cli": ["parse_args", "run"],
}

MODULES = ["qrstats"] + [f"qrstats.{name}" for name in TRACED]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = {"sieve.primes_in.span": 0, "residue_scan.residue_map.classes": 0,
                       "experiments.exceptional_blocks.blocks": 0}
        self.sieved: list[tuple[int, int]] = []
        self._child_time = [0.0]

    def _note(self, key: str, args: tuple, result) -> None:
        if key == "sieve.primes_in":
            lo, hi = int(args[0]), int(args[1])
            self.counts["sieve.primes_in.span"] += hi - lo + 1
            self.sieved.append((lo, hi))
        elif key == "residue_scan.residue_map":
            self.counts["residue_scan.residue_map.classes"] += int(args[0])
        elif key == "experiments.exceptional_blocks":
            self.counts["experiments.exceptional_blocks.blocks"] += len(result)

    def wrap(self, key: str, fn):
        self.calls.setdefault(key, 0)
        self.self_s.setdefault(key, 0.0)
        stack = self._child_time

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                self.calls[key] += 1
                self.self_s[key] += elapsed - children
            self._note(key, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every module-level reference to a traced function."""
        modules = [importlib.import_module(name) for name in MODULES]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"qrstats.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def distinct_sieved(self) -> int:
        """Integers covered by the union of all primes_in ranges."""
        total = 0
        reach = None
        for lo, hi in sorted(self.sieved):
            if reach is not None and lo <= reach:
                if hi > reach:
                    total += hi - reach
                    reach = hi
            else:
                total += hi - lo + 1
                reach = hi
        return total

    def report(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "counts": self.counts,
            "distinct_sieved": self.distinct_sieved(),
        }
