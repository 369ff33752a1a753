import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qrstats

import oracles
from qrstats import charsums, cli, experiments, render, residue_scan, sieve
from qrstats.cli import (
    CHECKPOINT_MAGIC,
    COMMANDS,
    RunConfig,
    _checkpoint_key,
    _int_list,
    _pair_list,
    _write_checkpoint,
    main,
    parse_args,
)
from qrstats.errors import ResourceError
from qrstats.experiments import exceptional_blocks, exceptional_density_sweep
from qrstats.rng import XorShift64Star
from qrstats.sieve import primes_in


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- argument parsing ----------------------------------------------------

def test_parse_exceptional_example():
    cfg = parse_args(["exceptional", "--q", "100000", "--h-list", "20", "--u", "0"])
    assert cfg.subcommand == "exceptional"
    assert cfg.params == {"Q": 100000, "h_list": [20], "u": 0}
    assert cfg.output_format == "csv"
    assert cfg.workers == 1
    assert cfg.zero_as_residue is True
    assert cfg.seed is None


def test_parse_dup_example():
    cfg = parse_args(["dup", "--p", "11", "--u", "2"])
    assert cfg.params == {"p": 11, "u": 2}


def test_parse_h_multiples():
    # ceil(log 100000) = 12
    cfg = parse_args(["exceptional", "--q", "100000", "--u", "0", "--h-multiples", "3"])
    assert cfg.params["h_list"] == [12, 24, 36]


def test_parse_h_list_dedupes_and_sorts():
    cfg = parse_args(["exceptional", "--q", "100", "--u", "0", "--h-list", "5,2,5"])
    assert cfg.params["h_list"] == [2, 5]


def test_parse_zero_as_residue_flag():
    cfg = parse_args(["dp", "--p", "7", "--zero-as-residue", "false"])
    assert cfg.zero_as_residue is False


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["nres"],
        ["nres", "--p", "2"],
        ["nres", "--p", "9"],
        ["nres", "--p", "7", "--lo", "3"],
        ["nres", "--lo", "50", "--hi", "10"],
        ["dp", "--p", "7", "--zero-as-residue", "maybe"],
        ["dup", "--p", "11", "--u", "-1"],
        ["gaps", "--lo", "3", "--hi", "50"],
        ["gaps", "--p", "11", "--h", "2"],
        ["gaps", "--p", "11", "--tail", "--h", "2", "--h-rule", "quarter"],
        ["gaps", "--p", "11", "--tail"],
        ["charsum", "--q", "225", "--M", "100"],
        ["charsum", "--q", "8", "--M", "100"],
        ["charsum", "--sweep", "--count", "5", "--q-lo", "100", "--q-hi", "1000"],
        ["charsum", "--sweep", "--count", "5", "--q-lo", "100", "--q-hi", "1000",
         "--q", "99", "--seed", "1"],
        ["rough", "--eta", "1.5", "--M", "100"],
        ["rough", "--eta", "0.5", "--M", "100", "--q", "8"],
        ["sfree", "--u", "-1", "--h", "5"],
        ["erdos"],
        ["erdos", "--x", "2"],
        ["exceptional", "--q", "5", "--u", "0", "--h", "1"],
        ["exceptional", "--q", "100", "--u", "0"],
        ["exceptional", "--q", "100", "--u", "0", "--h", "2", "--h-list", "3"],
        ["exceptional", "--q", "100", "--u-samples", "2", "--h", "2"],
        ["exceptional", "--q", "100", "--u-samples", "2", "--h", "2", "--seed", "1",
         "--checkpoint", "x.ckpt"],
        ["exceptional", "--q", "100", "--u", "0", "--h", "2", "--checkpoint-every", "4"],
        ["trace", "--q", "1000", "--u", "0", "--h", "12", "--eta", "0.15", "--format", "csv"],
        ["trace", "--q", "1000", "--u", "0", "--h", "1000", "--eta", "0.15"],
        ["crt", "--pairs", "3:1,3:2"],
        ["crt", "--pairs", "4:1"],
        ["crt", "--pairs", "3;1"],
        ["erdos", "--x", "100", "--workers", "0"],
        ["sfree", "--u", "0", "--h", "0"],
        ["charsum", "--q", "7", "--M", "100", "--nu", "0"],
        ["charsum", "--q", "7", "--M", "0"],
        ["gaps", "--p", "11", "--tail", "--h", "0"],
        ["rough", "--eta", "0.5", "--M", "1"],
        ["exceptional", "--q", "100", "--u", "-1", "--h", "2"],
        ["exceptional", "--q", "100", "--u", "0", "--h-multiples", "0"],
        ["trace", "--q", "1000", "--u", "0", "--h", "12", "--eta", "1.5"],
        ["dup", "--p", "9", "--u", "1"],
        ["nres", "--lo", "1", "--hi", "10"],
        # both moduli are prime; their product is at least 2**127
        ["crt", "--pairs", "18446744073709551557:1,18446744073709551533:2"],
        ["exceptional", "--q", "-5", "--u", "0", "--h-multiples", "2"],
        ["exceptional", "--q", "10", "--u", "0", "--h-multiples", "3000000"],
        # (2Q)**eta below 2, twice, and at least Q
        ["trace", "--q", "1000", "--u", "0", "--h", "12", "--eta", "0.08"],
        ["trace", "--q", "100", "--u", "25", "--h", "2", "--eta", "1e-300"],
        ["trace", "--q", "10", "--u", "100", "--h", "2", "--eta", "0.9"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err != ""


# Bounded integers, weighted towards the small values where most
# preconditions have their edges.
_INTS = st.integers(-3, 40) | st.integers(-10**4, 10**4)


def _flag_values(flags, options):
    """A strategy for one flag of the parser's own vocabulary and its value."""
    if options.get("action") == "store_true":
        return st.just([flags[0]])
    kind = options.get("type")
    if "choices" in options:
        value = st.sampled_from([*options["choices"], "bogus"])
    elif flags[0] == "--h-multiples":
        value = st.integers(-10**4, 50).map(str)
    elif kind is int:
        value = _INTS.map(str)
    elif kind is float:
        value = st.floats(-2.0, 2.0).map(repr) | st.sampled_from(["nan", "inf"])
    elif kind is _int_list:
        value = st.lists(_INTS, max_size=4).map(lambda xs: ",".join(map(str, xs)))
    elif kind is _pair_list:
        pair = st.tuples(_INTS, _INTS).map(lambda lu: "%d:%d" % lu)
        value = st.lists(pair, min_size=1, max_size=3).map(",".join) | st.just("3;1")
    else:
        value = st.just("unused.path")
    return value.map(lambda v: [flags[0], v])


_SHARED_FLAGS = [
    (("--format",), {"choices": ("csv", "json")}),
    (("--workers",), {"type": int}),
    (("--zero-as-residue",), {"choices": ("true", "false")}),
]


@st.composite
def _argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name]
    for flags, options in [*COMMANDS[name].args, *_SHARED_FLAGS]:
        # Required flags are usually given, others about one time in three,
        # so most argv get past argparse to the precondition checks.
        if draw(st.integers(0, 9)) < (9 if options.get("required") else 3):
            argv += draw(_flag_values(flags, options))
    return argv


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_argvs())
def test_parse_args_fuzz_ends_in_config_or_usage_exit(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            assert isinstance(parse_args(argv), RunConfig)
        except SystemExit as exc:
            assert exc.code in (0, 1)


def test_version(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("qrstats ")


def test_module_entry_point_runs():
    src = os.path.dirname(os.path.dirname(qrstats.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "qrstats.cli", "--version"], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("qrstats ")


# --- CSV output ----------------------------------------------------------

def test_dup_csv(capsys):
    code, out, _ = run_cli(capsys, "dup", "--p", "11", "--u", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# tool: qrstats 0.1.0"
    assert lines[1] == "# subcommand: dup"
    assert lines[2] == "# params: p=11 u=2"
    assert lines[3] == "# conventions: zero_as_residue=true"
    assert lines[4] == "p,u,d_u"
    assert lines[5] == "11,2,4"
    assert len(lines) == 6


def test_nres_range_skips_two(capsys):
    _, out, _ = run_cli(capsys, "nres", "--lo", "2", "--hi", "20")
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert rows == ["3,2", "5,2", "7,3", "11,2", "13,2", "17,3", "19,2"]


def test_nres_single_p_past_int64(capsys):
    # the largest prime below 2**64 has no int64 form; its row still prints
    code, out, _ = run_cli(capsys, "nres", "--p", "18446744073709551557")
    assert code == 0 and out.splitlines()[-1] == "18446744073709551557,2"


def test_dp_convention_changes_rows(capsys):
    _, out_t, _ = run_cli(capsys, "dp", "--p", "7")
    _, out_f, _ = run_cli(capsys, "dp", "--p", "7", "--zero-as-residue", "false")
    assert "7,3,zero_as_residue" in out_t
    assert "7,2,zero_excluded" in out_f
    assert "# conventions: zero_as_residue=false" in out_f


def test_gaps_per_gap_rows(capsys):
    _, out, _ = run_cli(capsys, "gaps", "--p", "11")
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "p,k,n_k,delta_k"
    assert rows[1:] == ["11,1,2,4", "11,2,6,1", "11,3,7,1", "11,4,8,2"]


def test_gaps_tail_range(capsys):
    _, out, _ = run_cli(capsys, "gaps", "--lo", "3", "--hi", "30", "--tail", "--h", "2")
    lines = out.splitlines()
    assert any(l.startswith("# max_c1: ") for l in lines)
    assert any(l.startswith("# max_c2: ") for l in lines)
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0] == "p,h,N_h,S_h,c1,c2"
    assert rows[1].startswith("3,2,")


def test_gaps_tail_empty_range_is_a_header_only_table(capsys):
    # [24, 28] holds no odd prime: gaps --tail prints the header, like dp
    # and nres, and no max_c1/max_c2 summary
    args = ("--lo", "24", "--hi", "28")
    code, out, _ = run_cli(capsys, "gaps", *args, "--tail", "--h", "3")
    assert code == 0
    assert out.splitlines()[-1] == "p,h,N_h,S_h,c1,c2"
    assert "max_c" not in out
    code, out, _ = run_cli(capsys, "gaps", *args, "--tail", "--h", "3", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["rows"] == [] and "summary" not in doc["meta"]
    _, dp_out, _ = run_cli(capsys, "dp", *args, "--format", "json")
    assert json.loads(dp_out)["rows"] == []


def test_dp_calls_longest_qr_run_once_per_prime(capsys, monkeypatch):
    # dp goes through the chunk engine by cli's own reference, so a spy
    # (or the bench tracer) sees every call at 1 worker
    calls = []

    def spy(p, zero_as_residue=True):
        calls.append(p)
        return residue_scan.longest_qr_run(p, zero_as_residue)

    want = run_cli(capsys, "dp", "--lo", "1000000", "--hi", "1002000")
    monkeypatch.setattr(cli, "longest_qr_run", spy)
    assert run_cli(capsys, "dp", "--lo", "1000000", "--hi", "1002000", "--workers", "1") == want
    assert calls == primes_in(1000000, 1002000).tolist() and len(calls) == 152


def test_dp_allocates_nothing_p_sized_once_warm():
    config = parse_args(["dp", "--lo", "1000000", "--hi", "1002000"])
    cli._run_dp(config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._run_dp(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the kernel's marks alone are 1 MB near p = 10**6
    assert peak - before < 512 * 1024


def test_erdos_csv_row(capsys):
    _, out, _ = run_cli(capsys, "erdos", "--x", "10")
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows == [
        "x,primes,mean,constant_partial",
        "10,3,2.3333333333333335,3.6746439660109136",
    ]


def test_crt_csv(capsys):
    _, out, _ = run_cli(capsys, "crt", "--pairs", "3:1,5:2,7:6")
    lines = out.splitlines()
    assert "# params: pairs=3:1,5:2,7:6" in lines
    assert lines[-2:] == ["u", "97"]


def test_charsum_single(capsys):
    _, out, _ = run_cli(capsys, "charsum", "--q", "30021", "--M", "966")
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "q,M,nu,sum,bound,ratio"
    assert rows[1].startswith("30021,966,2,-14,")


def test_charsum_nu_flagged(capsys):
    _, out, _ = run_cli(capsys, "charsum", "--q", "1003", "--M", "100", "--nu", "5")
    assert "# nu_beyond_classical: true" in out.splitlines()


def test_rough_count_and_partition(capsys):
    _, out, _ = run_cli(capsys, "rough", "--eta", "0.5", "--M", "30")
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "eta,M,count,ratio_c0"
    assert rows[1].startswith("0.5,30,8,")
    _, out, _ = run_cli(capsys, "rough", "--eta", "0.5", "--M", "30", "--q", "7")
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "eta,M,q,plus,minus,zero,main_term"
    assert rows[1].startswith("0.5,30,7,4,3,1,")


def test_sfree_csv(capsys):
    _, out, _ = run_cli(capsys, "sfree", "--u", "10", "--h", "5")
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "u,h,count,pair_count,ratio"
    assert rows[1].startswith("10,5,4,2,")


def test_exceptional_seeded_u_draws(capsys):
    _, out, _ = run_cli(
        capsys, "exceptional", "--q", "1000", "--u-samples", "3", "--seed", "5", "--h", "1"
    )
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
    rng = XorShift64Star(5)
    assert [int(r[1]) for r in rows] == [rng.draw_in(0, 2000) for _ in range(3)]
    assert "# params: Q=1000 h_list=1 seed=5 u_samples=3" in out.splitlines()


# --- JSON output ---------------------------------------------------------

def test_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "erdos", "--x", "10", "--format", "json")
    doc = json.loads(out)
    assert doc["meta"]["subcommand"] == "erdos"
    assert doc["meta"]["params"] == {"xs": "10"}
    assert doc["header"] == ["x", "primes", "mean", "constant_partial"]
    assert doc["rows"] == [[10, 3, 7 / 3, 3.6746439660109136]]


def test_json_summary_block(capsys):
    _, out, _ = run_cli(
        capsys, "gaps", "--p", "11", "--tail", "--h", "2", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["meta"]["summary"]["max_c1"] == pytest.approx(2.412090756622109)


def test_trace_json_document(capsys):
    code, out, _ = run_cli(capsys, "trace", "--q", "1000", "--u", "0", "--h", "12", "--eta", "0.15")
    assert code == 0
    doc = json.loads(out)
    tr = doc["trace"]
    assert tr["regime"] == "large-h"
    assert (tr["N_size"], tr["T"], tr["exceptional"]) == (3, 3, 3)
    assert (tr["S_direct"], tr["S_rough"]) == (391, 1841)
    assert set(tr["rhs_terms"]) == {
        "square_product_term",
        "charsum_main_term",
        "charsum_remainder_term",
    }
    assert doc["meta"]["subcommand"] == "trace"


# --- determinism ---------------------------------------------------------

def test_repeat_runs_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "exceptional", "--q", "100000", "--u", "0", "--h-list", "2,3")
    _, second, _ = run_cli(capsys, "exceptional", "--q", "100000", "--u", "0", "--h-list", "2,3")
    assert first == second


def test_exceptional_u_samples_sieve_each_block_once(monkeypatch, capsys):
    # A task sieves a run of consecutive blocks once for every u: the
    # sieve calls tile [Q, 2Q] in order, each call is a union of
    # consecutive blocks, and the number of calls is the same for one u
    # as for five.
    Q = 10**6
    blocks = exceptional_blocks(Q)
    calls = {}
    for samples in ("1", "5"):
        sieved = calls[samples] = []

        def counting_primes_in(lo, hi, sieved=sieved):
            sieved.append((lo, hi))
            return primes_in(lo, hi)

        monkeypatch.setattr(experiments, "primes_in", counting_primes_in)
        code, _, _ = run_cli(
            capsys, "exceptional", "--q", str(Q), "--u-samples", samples, "--seed", "1", "--h", "2", "--workers", "1"
        )
        assert code == 0
        assert [lo for lo, _ in sieved] == [Q] + [hi + 1 for _, hi in sieved[:-1]]
        assert sieved[-1][1] == 2 * Q
        starts, ends = {lo for lo, _ in blocks}, {hi for _, hi in blocks}
        assert all(lo in starts and hi in ends for lo, hi in sieved)
    assert len(calls["1"]) == len(calls["5"]) < len(blocks)


def test_worker_count_byte_identical(capsys):
    args = ["exceptional", "--q", "100000", "--u-samples", "2", "--seed", "1", "--h", "2"]
    _, one, _ = run_cli(capsys, *args, "--workers", "1")
    _, three, _ = run_cli(capsys, *args, "--workers", "3")
    assert one == three
    assert "workers" not in one


def test_workers_env(monkeypatch, capsys):
    monkeypatch.setenv("QRSTATS_WORKERS", "3")
    assert parse_args(["erdos", "--x", "100"]).workers == 3
    assert parse_args(["erdos", "--x", "100", "--workers", "2"]).workers == 2
    monkeypatch.setenv("QRSTATS_WORKERS", "zebra")
    code, out, _ = run_cli(capsys, "erdos", "--x", "100")
    assert code == 1 and out == ""


# --- files and failure modes ---------------------------------------------

def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.csv"
    code, out, _ = run_cli(capsys, "dup", "--p", "11", "--u", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[-1] == "11,2,4"


@pytest.mark.parametrize(
    "extra",
    [
        lambda tmp: ["--out", str(tmp / "missing" / "out.csv")],
        lambda tmp: ["--checkpoint", str(tmp)],
        lambda tmp: ["--checkpoint", str(tmp / "not-utf8.ckpt")],
    ],
    ids=["out-in-missing-dir", "checkpoint-is-dir", "checkpoint-not-utf8"],
)
def test_file_errors_exit_2(tmp_path, capsys, extra):
    (tmp_path / "not-utf8.ckpt").write_bytes(CHECKPOINT_MAGIC.encode() + b"\nkey: \xff\xfe\n")
    code, out, err = run_cli(capsys, "exceptional", "--q", "1000", "--u", "0", "--h", "2", *extra(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("qrstats: error:")


def test_budgets_exit_1_at_parse_time(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "SPAN_BUDGET", 10**4)
    monkeypatch.setattr(experiments, "ERDOS_X_BUDGET", 10**4)
    monkeypatch.setattr(sieve, "TABLE_BUDGET", 1000)
    monkeypatch.setattr(residue_scan, "RESIDUE_TABLE_BUDGET", 10**5)
    # isqrt(1002001) = 1001: a base-prime table one past the budget;
    # 100003 and every prime up to 100200 need residue tables past 10**5
    for argv in (["exceptional", "--q", "10001", "--u", "0", "--h", "2"],
                 ["exceptional", "--q", "10001", "--u-samples", "2", "--seed", "1", "--h-multiples", "2"],
                 ["trace", "--q", "10001", "--u", "0", "--h", "5", "--eta", "0.3"],
                 ["rough", "--eta", "0.5", "--M", "1001"],
                 ["nres", "--lo", "1002001", "--hi", "1002100"],
                 ["dp", "--lo", "1002001", "--hi", "1002100"],
                 ["gaps", "--lo", "1002001", "--hi", "1002100", "--tail", "--h", "2"],
                 ["sfree", "--u", "1001990", "--h", "10"],
                 ["erdos", "--x", "10001"],
                 ["dp", "--p", "100003"],
                 ["gaps", "--p", "100003", "--tail", "--h", "3"],
                 ["dp", "--lo", "100100", "--hi", "100200"],
                 ["gaps", "--lo", "100100", "--hi", "100200", "--tail", "--h", "5"]):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 1
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "") and "budget" in err
    # nres builds no residue table
    assert parse_args(["nres", "--p", "100003"]).params == {"p": 100003}
    monkeypatch.undo()
    # the same refusals at the real budget of 2**30 bytes, before anything
    # is allocated; 2**31 - 1 would grow a 2 GiB marks buffer
    for argv in (["dp", "--p", "2147483647"],
                 ["dp", "--p", "4294967311"],
                 ["gaps", "--p", "4294967311", "--tail", "--h", "3"],
                 ["dp", "--lo", "3000000000", "--hi", "3000000100"],
                 ["gaps", "--lo", "3000000000", "--hi", "3000000100", "--tail", "--h", "5"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "") and "residue table" in err and "budget" in err
    assert parse_args(["nres", "--p", "4294967311"]).params == {"p": 4294967311}


def test_trace_lane_budget_exits_1_at_parse_time(monkeypatch, capsys):
    # (200000 // 4 + 1) * 3 * 10**6 lanes, far past 2**30: refused before any sieve
    argv = ["trace", "--q", "1000000", "--u", "0", "--h", "200000", "--eta", "0.1"]
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 1
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and "symbol lanes" in err and "budget" in err
    # trace --q 1000 --h 12 bounds its lanes by 4 * 3000
    small = ["trace", "--q", "1000", "--u", "0", "--h", "12", "--eta", "0.15"]
    monkeypatch.setattr(experiments, "TRACE_LANE_BUDGET", 11999)
    code, out, err = run_cli(capsys, *small)
    assert (code, out) == (1, "") and "budget" in err
    monkeypatch.setattr(experiments, "TRACE_LANE_BUDGET", 12000)
    assert run_cli(capsys, *small)[0] == 0


def test_charsum_lane_budget_exits_1_at_parse_time(monkeypatch, capsys):
    # 10**13 lanes on the Euclid loop: refused before any symbol
    argv = ["charsum", "--q", "1000000000000000009", "--M", "10000000000000"]
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 1
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and "symbol lanes" in err and "budget" in err
    # one q sums M mod q lanes, 3000 mod 1009 = 982; a sweep count times
    # M, or times ceil(q_hi**(2/3)) = 159
    for lanes, small in ((982, ["charsum", "--q", "1009", "--M", "3000"]),
                         (150, ["charsum", "--sweep", "--count", "3", "--q-lo", "1000", "--q-hi", "2000", "--M", "50", "--seed", "1"]),
                         (477, ["charsum", "--sweep", "--count", "3", "--q-lo", "1000", "--q-hi", "2000", "--seed", "1"])):
        monkeypatch.setattr(charsums, "CHARSUM_LANE_BUDGET", lanes - 1)
        code, out, err = run_cli(capsys, *small)
        assert (code, out) == (1, "") and "budget" in err
        monkeypatch.setattr(charsums, "CHARSUM_LANE_BUDGET", lanes)
        assert run_cli(capsys, *small)[0] == 0


def test_charsum_past_float_range_exits_1_at_parse_time(capsys):
    # the benchmark is a float: q, M or nu of 10**400 would overflow it
    big = str(10**400)
    for argv in (["charsum", "--q", str(10**400 + 1), "--M", "5"],
                 ["charsum", "--sweep", "--count", "1", "--q-lo", big, "--q-hi", str(10**400 + 10), "--M", "5",
                  "--seed", "1"],
                 ["charsum", "--q", "7", "--M", big],
                 ["charsum", "--q", "7", "--M", "5", "--nu", big]):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 1
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "") and "float range" in err
    # just below the bound the benchmark stays finite
    code, out, _ = run_cli(capsys, "charsum", "--q", "7", "--M", str(2**1023 - 1))
    assert code == 0 and "inf" not in out


def test_gap_tail_budget_counts_the_spare_flags(monkeypatch, capsys):
    # the tail scan holds the marks and as many spare flags, 2 * 2**30
    # bytes for any p up to 2**30
    argv = ["gaps", "--lo", "1073741000", "--hi", "1073741823", "--tail", "--h-rule", "quarter"]
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 1
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and "2147483648 bytes" in err and "budget" in err
    assert parse_args(["dp", "--lo", "1073741000", "--hi", "1073741823"]).params["hi"] == 1073741823
    # 100003 grows buffers of 2**17 bytes: one fits 2**17, two need 2**18
    monkeypatch.setattr(residue_scan, "RESIDUE_TABLE_BUDGET", 1 << 17)
    code, out, err = run_cli(capsys, "gaps", "--p", "100003", "--tail", "--h", "3")
    assert (code, out) == (1, "") and "budget" in err
    with pytest.raises(ResourceError):
        residue_scan._gap_tail_of(100003, 3)
    assert run_cli(capsys, "dp", "--p", "100003")[0] == 0
    monkeypatch.setattr(residue_scan, "RESIDUE_TABLE_BUDGET", 1 << 18)
    assert run_cli(capsys, "gaps", "--p", "100003", "--tail", "--h", "3")[0] == 0


def test_sfree_flag_budget_exits_1_at_parse_time(monkeypatch, capsys):
    # 10**9 + 1 flag bytes, inside the span budget
    argv = ["sfree", "--u", "0", "--h", "1000000000"]
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 1
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and "flag bytes" in err and "budget" in err
    # a window of h holds h + 1 flags
    monkeypatch.setattr(sieve, "FLAG_BUDGET", 51)
    code, out, err = run_cli(capsys, "sfree", "--u", "10", "--h", "51")
    assert (code, out) == (1, "") and "budget" in err
    with pytest.raises(ResourceError):
        sieve.squarefree_in_interval(10, 51)
    assert run_cli(capsys, "sfree", "--u", "10", "--h", "50")[0] == 0


def test_memory_error_exits_2(monkeypatch, capsys):
    def exhausted(config):
        raise MemoryError

    monkeypatch.setitem(COMMANDS, "dup", COMMANDS["dup"]._replace(run=exhausted))
    code, out, err = run_cli(capsys, "dup", "--p", "11", "--u", "2")
    assert (code, out) == (2, "")
    assert err == "qrstats: error: MemoryError\n"


def test_out_is_replaced_whole(tmp_path, capsys, monkeypatch):
    target = tmp_path / "result.csv"
    target.write_bytes(b"earlier run\n")

    class FailingFile(io.StringIO):
        def write(self, text):
            super().write(text[: len(text) // 2])
            raise OSError("No space left on device")

    def failing_open(path, mode="r", *args, **kwargs):
        if "w" in mode:
            open(path, mode).close()  # the real file exists, empty, as a failed write leaves it
            return FailingFile()
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    code, out, err = run_cli(capsys, "dup", "--p", "11", "--u", "2", "--out", str(target))
    assert (code, out) == (2, "") and "No space left" in err
    assert target.read_bytes() == b"earlier run\n"
    assert sorted(os.listdir(tmp_path)) == ["result.csv"]
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "dup", "--p", "11", "--u", "2", "--out", str(target))
    assert (code, out) == (0, "")
    assert target.read_text().splitlines()[-1] == "11,2,4"
    assert sorted(os.listdir(tmp_path)) == ["result.csv"]


def test_out_to_a_pipe_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code, out, _ = run_cli(capsys, "dup", "--p", "11", "--u", "2", "--out", str(fifo))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert (code, out) == (0, "")
    assert received[0].splitlines()[-1] == "11,2,4"
    assert sorted(os.listdir(tmp_path)) == ["pipe"]


def test_row_budget_exits_1_at_parse_time(monkeypatch, capsys):
    monkeypatch.setattr(cli, "ROW_BUDGET", 100)
    # gaps --p 211 has 104 per-gap rows; [1000, 2000] may hold up to
    # 2 * 1001 / log 1001 = 289 primes by the Brun-Titchmarsh bound
    for argv in (["gaps", "--p", "211"],
                 ["nres", "--lo", "1000", "--hi", "2000"],
                 ["dp", "--lo", "1000", "--hi", "2000", "--format", "json"],
                 ["gaps", "--lo", "1000", "--hi", "2000", "--tail", "--h", "2"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "") and "row" in err and "budget" in err
    for argv in (["gaps", "--p", "199"], ["nres", "--lo", "1000", "--hi", "1100"], ["nres", "--p", "211"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out


def test_unexpected_error_exits_2(monkeypatch, capsys):
    def broken(config):
        raise RuntimeError("boom")

    monkeypatch.setitem(COMMANDS, "dup", COMMANDS["dup"]._replace(run=broken))
    code, out, err = run_cli(capsys, "dup", "--p", "11", "--u", "2")
    assert (code, out) == (2, "")
    assert err == "qrstats: error: RuntimeError: boom\n"


# --- columnar rendering against the row-by-row reference -----------------

def _rendered(config, body, extra):
    """(reference text, columnar text) of one body, in config's format."""
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else list(c) for c in body["columns"])))
    meta = cli._meta(config, extra)
    if config.output_format == "json":
        return oracles.render_json(meta, body["header"], rows), "".join(render.render_json(meta, body))
    return oracles.render_csv(meta, body["header"], rows), "".join(render.render_csv(meta, body))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [["nres", "--lo", "2", "--hi", "2"], ["gaps", "--p", "300007"]], ids=["zero-rows", "chunks"])
def test_columnar_render_equals_reference(capsys, argv, fmt):
    config = parse_args([*argv, "--format", fmt])
    body, extra = COMMANDS[config.subcommand].run(config)
    # no rows, or three chunks of rows
    assert len(body["columns"][0]) == {"nres": 0, "gaps": 150002}[argv[0]]
    reference, text = _rendered(config, body, extra)
    assert text == reference
    _, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert out == reference


# decimal edges: 10**k - 1 and 10**k for every width a uint64 holds, so
# odd and even digit counts sit side by side in one chunk
_DECIMAL_EDGES = [0, 9, 10, 99, 100] + [10**k + d for k in range(3, 20) for d in (-1, 0)]
_INT64_EDGES = sorted({s * e for e in _DECIMAL_EDGES for s in (1, -1) if e < 2**63} | {-(2**63), 2**63 - 1})
_UINT64_EDGES = _DECIMAL_EDGES + [2**63, 2**64 - 1]
_FLOAT_EDGES = [-0.0, 0.0, float("inf"), -float("inf"), float("nan"), 1e16, 1 / 3, 0.1, 5e-324]
_KINDS = {
    "i64": st.sampled_from(_INT64_EDGES) | st.integers(-(2**63), 2**63 - 1),
    "u64": st.sampled_from(_UINT64_EDGES) | st.integers(0, 2**64 - 1),
    "ints": st.sampled_from(_INT64_EDGES) | st.integers(-(2**63), 2**63 - 1),
    "big": st.sampled_from([2**64, 2**64 + 1, -(2**64), 10**30]) | st.integers(-(2**70), 2**70),
    "f64": st.sampled_from(_FLOAT_EDGES) | st.floats(),
    "floats": st.sampled_from(_FLOAT_EDGES) | st.floats(),
    "np_floats": st.sampled_from(_FLOAT_EDGES) | st.floats(),
    "flags": st.booleans(),
    "np_flags": st.booleans(),
    "text": st.sampled_from(["zero_as_residue", "", "é", "√2,∞", "a\"b"]) | st.text(st.characters(blacklist_categories=("Cs",))),
}


@st.composite
def _value_kind_rows(draw):
    rows = draw(st.integers(1, 12))
    return {name: draw(st.lists(kind, min_size=rows, max_size=rows)) for name, kind in _KINDS.items()}


def _every_edge():
    """One table holding every edge value of every kind."""
    size = max(len(_INT64_EDGES), len(_UINT64_EDGES))

    def cycle(values):
        return [values[i % len(values)] for i in range(size)]

    return {
        "i64": cycle(_INT64_EDGES), "u64": cycle(_UINT64_EDGES), "ints": cycle(_INT64_EDGES[::-1]),
        "big": cycle([2**64 + 1, -(2**70), 3, 10**30, 18446744073709551557]),
        "f64": cycle(_FLOAT_EDGES), "floats": cycle(_FLOAT_EDGES[::-1]), "np_floats": cycle(_FLOAT_EDGES),
        "flags": cycle([True, False, False]), "np_flags": cycle([False, True]),
        "text": cycle(["zero_as_residue", "é", "", "√2,∞"]),
    }


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 1 << 14])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(values=_value_kind_rows())
@example(values=_every_edge())
def test_columnar_render_of_every_value_kind(fmt, chunk_rows, values):
    body = render.table(
        list(values),
        np.array(values["i64"], dtype=np.int64),
        np.array(values["u64"], dtype=np.uint64),
        values["ints"],  # a list np.asarray makes int64
        values["big"],  # Python ints, past 64 bits or not
        np.array(values["f64"]),
        values["floats"],
        [np.float64(v) for v in values["np_floats"]],
        values["flags"],
        np.array(values["np_flags"]),
        values["text"],
    )
    config = RunConfig(subcommand="dp", params={"p": 7, "tail": False, "ratio": 0.1}, output_format=fmt,
                       zero_as_residue=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render, "CHUNK_ROWS", chunk_rows)
        reference, text = _rendered(config, body, {"max_c1": 1 / 3, "flag": True})
    assert text == reference


def test_out_bytes_equal_stdout_bytes(tmp_path, capsys):
    argv = ["gaps", "--p", "300007", "--format", "json"]
    _, out, _ = run_cli(capsys, *argv)
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "doc.json"))
    assert code == 0 and (tmp_path / "doc.json").read_bytes() == out.encode()
    assert out.count("\n  [\n") == 150002 > 2 * render.CHUNK_ROWS


def test_out_failing_on_a_later_chunk_is_replaced_whole(tmp_path, capsys, monkeypatch):
    target = tmp_path / "result.csv"
    target.write_bytes(b"earlier run\n")
    writes = []

    class FailingFile(io.StringIO):
        def write(self, text):
            writes.append(text)
            if len(writes) == 2:
                raise OSError("No space left on device")
            return super().write(text)

    def failing_open(path, mode="r", *args, **kwargs):
        if "w" in mode:
            open(path, mode).close()
            return FailingFile()
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(render, "CHUNK_ROWS", 2)
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    code, out, err = run_cli(capsys, "gaps", "--p", "31", "--out", str(target))
    assert (code, out) == (2, "") and "No space left" in err
    assert len(writes) == 2 and writes[1].count("\n") == 2
    assert target.read_bytes() == b"earlier run\n"
    assert sorted(os.listdir(tmp_path)) == ["result.csv"]


def test_rendering_holds_a_few_chunks_not_the_document(monkeypatch):
    # a document of 37 chunks of rows, written to a device in place
    monkeypatch.setattr(render, "CHUNK_ROWS", 1 << 12)
    config = parse_args(["gaps", "--p", "300007", "--format", "json"])
    body, extra = COMMANDS["gaps"].run(config)
    meta = cli._meta(config, extra)
    chunks = list(render.render_json(meta, body))
    size, chunk = sum(map(len, chunks)), len(chunks[1])
    assert len(chunks) == 38 and size > 30 * chunk
    del chunks
    cli._write_atomic(os.devnull, render.render_json(meta, body))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write_atomic(os.devnull, render.render_json(meta, body))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk's cell matrices, byte matrix, mask and text, as bytes and
    # as str, take about eight times its text; the whole document would
    # take 38 times and more
    assert peak - before < 10 * chunk


# sha256 of stdout for one small run per subcommand and format.  Output
# bytes are a contract, so these change only with a deliberate format change.
GOLDEN = [
    ("nres --p 11 --format csv", "f8cf7dac0f021b08016b9115cca47d00c43db413414ce5c722d7504f6ac406f6"),
    ("nres --p 11 --format json", "e269038885953090130076c356ed205f1d023e8db6de920492bd2a2c7c23d621"),
    ("nres --lo 2 --hi 200 --format csv", "465419a5b026df74fd11cbecd58141cc9fe0dff3ba5c25dba1026b3d4dc6aff7"),
    ("nres --lo 2 --hi 200 --format json", "4b811b6afa51fef3b8ac513a913b05a86b85e7a463f67999991d19e7a74bd6b2"),
    ("dp --p 13 --format csv", "543ed88f61a661e5a1285a0fbf3f973b0e930a05f098fb554e4c50282e228b4e"),
    ("dp --p 13 --format json", "948662a39017d34f902798fb059f4787f6261111dbffee64f7b6162fd050fcfb"),
    ("dp --lo 3 --hi 80 --zero-as-residue false --format csv",
     "d23d4d810d698ebaba703d4eb36544bf0e5fa0ed35ac69a57d847cae34741dc4"),
    ("dp --lo 3 --hi 80 --zero-as-residue false --format json",
     "5fc58faa3e42a430bbf5c87d187f60639ca6502fda3a320471141589e840b45c"),
    ("dp --lo 100000 --hi 102000 --format csv", "bed90fbfc28d0f99de6a5a8d9fd673de5bbf1f8aa3fd48a169cca1607481997b"),
    ("dp --lo 100000 --hi 102000 --format json", "c998bdabd5376593cd82c8aa010f73cd8cb3faf6ff909fe59a1e9c251063516d"),
    ("dup --p 11 --u 2 --format csv", "3526b47f347e2d4dfc123840d67f1e0240cedec3e5384bd14b1966f4bdc59788"),
    ("dup --p 11 --u 2 --format json", "6ff66b78d7a83a3649fe393e8bd21c8f832b504097b012444f313b73e6891cca"),
    ("gaps --p 31 --format csv", "fa382aecde66d2c3a70576108650b894a7ad1c77757d90e887470dce81f55802"),
    ("gaps --p 31 --format json", "9c8f19f4b00c12f683f124adfa572d57a13570825af2bc29be1101890eed24a8"),
    ("gaps --lo 3 --hi 60 --tail --h 2 --format csv", "5b861b5694fd5b2a29d75ed952e8ef3a6a4033f319e85db59905c7e3e38c4fac"),
    ("gaps --lo 3 --hi 60 --tail --h 2 --format json", "e268f7cfa624d2a2895a45c2a6d3f6488dcca9c05e405bffc7e8e3374e0d9e49"),
    ("gaps --p 101 --tail --h-rule quarter --format csv",
     "9c25ce4d1b511ee77cdf0af3295be26b09d1c7103363af1a5f5d9d9baa6f7225"),
    ("gaps --p 101 --tail --h-rule quarter --format json",
     "37b115f8c1985d341144df6708df09857ac98de33c8c926cc2e78938022fbd49"),
    ("charsum --q 30021 --M 966 --format csv", "ec984556568f4cac150419f082f188d8a9c2173f37a1d716f542df5eca553fbd"),
    ("charsum --q 30021 --M 966 --format json", "f2673f81c741fe2718768ad6eb702d3c6a4f6be1321f59ac80f1533884287ba8"),
    ("charsum --q 1003 --M 100 --nu 5 --format csv", "27656d722e0fc383214f1723fcc5e870e614a8c5beac6c66bbb56280ff2d9544"),
    ("charsum --q 1003 --M 100 --nu 5 --format json", "75d70b7483fc145e6d165869242f87d5fea392157f8983aaea901e695cbcbc32"),
    ("charsum --sweep --count 3 --q-lo 1000 --q-hi 5000 --seed 7 --format csv",
     "809fd39e3fb107185482b5abd70ec9b8974b384f2bbc7a634b7f11b1aef3acd6"),
    ("charsum --sweep --count 3 --q-lo 1000 --q-hi 5000 --seed 7 --format json",
     "399102077cc4d8a725dc07988dc30c94c996457395e3091cc78114ff13981a0a"),
    ("charsum --sweep --count 2 --q-lo 1000 --q-hi 5000 --seed 7 --M 50 --nu 4 --format csv",
     "a41f41d48f73c0a4d705270228456b87aa296cfa750efa52bc78060fa806d05f"),
    ("charsum --sweep --count 2 --q-lo 1000 --q-hi 5000 --seed 7 --M 50 --nu 4 --format json",
     "635790584ad3cb6b8a88db65eabe63fdfcccb7ec773b8e940fad6d6ba97c01fa"),
    ("rough --eta 0.5 --M 100 --format csv", "604685869ed4fea2970f8a26450a073b5153f43be49bf81768086aefe4e7a4bd"),
    ("rough --eta 0.5 --M 100 --format json", "2b3ca10f697d4ce417f6519e7087f30e2e8ea69d3cbe679efbf38b39cf314ced"),
    ("rough --eta 0.3 --M 1000 --q 1009 --format csv", "c4df40fbe7774f0f27a1318223caa7bc4b13955579919789113fccd2b13ee4d9"),
    ("rough --eta 0.3 --M 1000 --q 1009 --format json", "eaee3ea98d1b1cab3d7c83a6fdc742db9be96f9cbccf971e61deb47eb1436595"),
    ("sfree --u 10 --h 50 --format csv", "51279a5b4a7fb4d07626f5953c2af1b1758ce3c9a8e7486c28ccec55c4ab2b83"),
    ("sfree --u 10 --h 50 --format json", "89c410e9648e8c8ccfa9ade5c5f0b1a94192d587f3fb31a799aca728bb71ae4e"),
    ("erdos --x-list 100,1000 --x 50 --format csv", "6a01895987d091e8cea657787c0ebb4cc45c16bdc791d52b1a22466738c53c98"),
    ("erdos --x-list 100,1000 --x 50 --format json", "e6a3b6ef73e61e9bfe551715541c0a5fb0a4008029c249df5055236b9db623af"),
    ("exceptional --q 1000 --u 0 --h-list 2,3 --format csv",
     "cc39f75934be4bfbf9854d26f75fcf8d2aba5dfa6c7af2bf4afb15fb175951ca"),
    ("exceptional --q 1000 --u 0 --h-list 2,3 --format json",
     "fe2d0d4850b7b701b539c53b1cebc555603c5ee30b3ac289bb6cac72ace76f1b"),
    ("exceptional --q 3000 --u 7000 --h 2 --format csv", "5ba3743243ae74d1373284617032fbb82a86b8b94e6507caf74f402b94408ff8"),
    ("exceptional --q 3000 --u 7000 --h 2 --format json", "46ab5a260c0194638461afd11de8d582757be490a9242a0b9c31775f2e2713cb"),
    ("exceptional --q 1000 --u-samples 2 --seed 3 --h-multiples 2 --format csv",
     "bc41dc5c3dd51a476edc414b4f051ed69e7ea77abc9e2fabc751d18520f67ca9"),
    ("exceptional --q 1000 --u-samples 2 --seed 3 --h-multiples 2 --format json",
     "1ff43234a38b2a69587d44f6ff00fdd5f8261c34d5069b5359e40544ff6fcaa4"),
    ("trace --q 1000 --u 0 --h 12 --eta 0.15", "b25424a73a24e51eec627989b941e865583dbae2bd240948a5ec9710fadf0097"),
    ("crt --pairs 3:1,5:2,7:6 --format csv", "197e73b0bf08dde44917199aeab8cbe30e80c2ffce9d7603e64373b2156773c5"),
    ("crt --pairs 3:1,5:2,7:6 --format json", "9ce2e0c3b7281ba650142fbe9f5103d683e25fa198f93cb72eeae9d304a82513"),
]


def _golden_runs():
    """Every command at 1 and 2 workers; the pool commands (exceptional,
    erdos, dp, gaps --tail) and trace at 8 as well."""
    for command, digest in GOLDEN:
        pool = command.split()[0] in ("exceptional", "erdos", "dp", "trace") or "--tail" in command
        for workers in ("1", "2", "8") if pool else ("1", "2"):
            yield pytest.param(command, digest, workers, id=f"{command}-{workers}")


@pytest.mark.parametrize("command, digest, workers", _golden_runs())
def test_golden_output_digest(capsys, command, digest, workers):
    code, out, _ = run_cli(capsys, *command.split(), "--workers", workers)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_computation_error_exits_2(capsys):
    # the square-free window [1, 2] leaves a one-member set
    code, out, err = run_cli(capsys, "trace", "--q", "100", "--u", "0", "--h", "2", "--eta", "0.3")
    assert code == 2
    assert out == ""
    assert err.startswith("qrstats: error:")


# --- checkpointing -------------------------------------------------------

def _partial_state(Q, u, h_list):
    states = []
    exceptional_density_sweep(Q, u, h_list, block_done=states.append)
    return states


def test_checkpoint_resume_matches_full_run(tmp_path, capsys):
    Q = 100000
    ckpt = tmp_path / "run.ckpt"
    base = ["exceptional", "--q", str(Q), "--u", "0", "--h-list", "2"]
    _, want, _ = run_cli(capsys, *base)

    cfg = parse_args([*base, "--checkpoint", str(ckpt)])
    states = _partial_state(Q, 0, [2])
    blocks = len(exceptional_blocks(Q))
    assert len(states) == blocks > 1
    _write_checkpoint(str(ckpt), _checkpoint_key(cfg), blocks, states[0])

    code, out, _ = run_cli(capsys, *base, "--checkpoint", str(ckpt))
    assert code == 0
    assert out == want
    # file now records the finished scan
    text = ckpt.read_text().splitlines()
    assert text[0] == CHECKPOINT_MAGIC
    assert f"next_block: {blocks}" in text


@functools.cache
def _direct_steps(Q, u):
    primes = primes_in(Q, 2 * Q)
    return primes, np.array([oracles.first_nonresidue_after(p, u) for p in primes.tolist()])


def _direct_checkpoint_texts(Q, u, hs, key, every):
    """The checkpoint text after each written block, from one direct scan
    of [Q, 2Q]: written after every `every`-th block and the last."""
    primes, d = _direct_steps(Q, u)
    blocks = exceptional_blocks(Q)
    texts = []
    for done, (_, hi) in enumerate(blocks, start=1):
        if done % every and done != len(blocks):
            continue
        seen = primes <= hi
        found = [w for w in (primes[seen & (d > h)] for h in hs) if w.size]
        counts = " ".join(str(w.size) for w in found)
        witnesses = "; ".join(" ".join(map(str, w[: experiments.WITNESS_CAP].tolist())) for w in found)
        texts.append(
            f"{CHECKPOINT_MAGIC}\nkey: {key}\nblocks: {len(blocks)}\nnext_block: {done}\n"
            f"total: {int(np.count_nonzero(seen))}\ncounts: {counts}\nwitnesses: {witnesses}\n"
        )
    return texts


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("workers", [1, 2])
def test_checkpoint_bytes_at_every_write_match_a_direct_scan(tmp_path, capsys, monkeypatch, every, workers):
    # 16 blocks, scanned in runs of 8 or 4: every write still holds
    # exactly the blocks merged so far
    Q, u, hs = 10**6, 777, [5, 9]
    ckpt = tmp_path / "every.ckpt"
    argv = ["exceptional", "--q", str(Q), "--u", str(u), "--h-list", "5,9", "--checkpoint", str(ckpt)]
    written = []
    real_write = cli._write_atomic

    def recording_write(path, chunks):
        chunks = list(chunks)
        written.append("".join(chunks))
        real_write(path, chunks)

    monkeypatch.setattr(cli, "_write_atomic", recording_write)
    code, out, _ = run_cli(capsys, *argv, "--checkpoint-every", str(every), "--workers", str(workers))
    assert code == 0
    monkeypatch.undo()
    _, bare, _ = run_cli(capsys, *argv[:-2])
    assert out == bare
    key = _checkpoint_key(parse_args(argv))
    want = _direct_checkpoint_texts(Q, u, hs, key, every)
    assert written == want
    assert ckpt.read_text() == want[-1]


@pytest.mark.parametrize("workers, next_block", [(1, 3), (2, 6)])
def test_resume_inside_a_run_matches_an_uninterrupted_run(tmp_path, capsys, workers, next_block):
    # Uninterrupted, the 16 blocks of Q = 10**6 go in runs of 8 (1
    # worker) or 4 (2 workers); both resume blocks fall inside a run.
    Q = 10**6
    base = ["exceptional", "--q", str(Q), "--u", "777", "--h-list", "5,9", "--workers", str(workers)]
    whole, part = tmp_path / "whole.ckpt", tmp_path / "part.ckpt"
    _, want, _ = run_cli(capsys, *base, "--checkpoint", str(whole))
    cfg = parse_args([*base, "--checkpoint", str(part)])
    blocks = len(exceptional_blocks(Q))
    _write_checkpoint(str(part), _checkpoint_key(cfg), blocks, _partial_state(Q, 777, [5, 9])[next_block - 1])
    assert f"next_block: {next_block}" in part.read_text()
    code, out, _ = run_cli(capsys, *base, "--checkpoint", str(part))
    assert code == 0
    assert out == want
    assert part.read_bytes() == whole.read_bytes()


def test_checkpoint_written_during_run(tmp_path, capsys):
    ckpt = tmp_path / "fresh.ckpt"
    base = ["exceptional", "--q", "100000", "--u", "0", "--h", "2"]
    code, out, _ = run_cli(capsys, *base, "--checkpoint", str(ckpt), "--checkpoint-every", "1")
    assert code == 0
    _, bare, _ = run_cli(capsys, *base)
    assert out == bare
    assert ckpt.exists()


def test_checkpoint_key_line_stays_short_for_a_long_grid(tmp_path):
    base = ["exceptional", "--q", "1000000", "--u", "123456", "--checkpoint", str(tmp_path / "k.ckpt")]
    key = _checkpoint_key(parse_args([*base, "--h-multiples", "20000"]))
    assert len(f"key: {key}\n".encode()) < 200
    assert key.startswith("exceptional Q=1000000 u=123456 h_sha256=")
    # the digest still tells grids apart, and not their order
    assert key != _checkpoint_key(parse_args([*base, "--h-multiples", "19999"]))
    assert _checkpoint_key(parse_args([*base, "--h-list", "5,9"])) == _checkpoint_key(
        parse_args([*base, "--h-list", "9,5"]))


def test_checkpoint_with_a_spelled_out_h_list_key_exits_2(tmp_path, capsys):
    # v2 files written before the key held a digest of the h grid
    Q = 100000
    ckpt = tmp_path / "old.ckpt"
    state = _partial_state(Q, 0, [2, 3])[0]
    _write_checkpoint(str(ckpt), f"exceptional Q={Q} u=0 h_list=2,3", len(exceptional_blocks(Q)), state)
    code, out, err = run_cli(capsys, "exceptional", "--q", str(Q), "--u", "0", "--h-list", "2,3",
                             "--checkpoint", str(ckpt))
    assert (code, out) == (2, "")
    assert "different run" in err


def test_checkpoint_key_mismatch_exits_2(tmp_path, capsys):
    Q = 100000
    ckpt = tmp_path / "other.ckpt"
    cfg = parse_args(["exceptional", "--q", str(Q), "--u", "1", "--h-list", "2", "--checkpoint", str(ckpt)])
    states = _partial_state(Q, 1, [2])
    _write_checkpoint(str(ckpt), _checkpoint_key(cfg), len(exceptional_blocks(Q)), states[0])
    code, out, err = run_cli(
        capsys, "exceptional", "--q", str(Q), "--u", "0", "--h-list", "2", "--checkpoint", str(ckpt)
    )
    assert code == 2
    assert out == ""
    assert "different run" in err


def test_checkpoint_garbage_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text("not a checkpoint\n")
    code, out, _ = run_cli(
        capsys, "exceptional", "--q", "100000", "--u", "0", "--h", "2", "--checkpoint", str(ckpt)
    )
    assert code == 2 and out == ""


def _with_witness(state, i, w):
    """state with its first witness list's i-th witness set to w."""
    first = list(state.witnesses[0])
    first[i] = w
    return state._replace(witnesses=(tuple(first), *state.witnesses[1:]))


@pytest.mark.parametrize(
    "field, bad",
    [
        ("counts", "counts: 7 x"),
        ("witnesses", "witnesses: 100049 x"),
        ("next_block", None),
        ("blocks", "blocks: zz"),
        # resume states the scan could not have reached, each written from
        # the real state after block 0, [100000, 165535], at h = 2 and 3:
        # counts (2759, 1362), each with 1000 witnesses from 100049
        ("counts", lambda s: s._replace(counts=(2**63, s.counts[1]))),
        ("counts", lambda s: s._replace(counts=s.counts[::-1])),
        ("counts", lambda s: s._replace(counts=(s.counts[0], 0), witnesses=s.witnesses[:1] + ((),))),
        ("counts", lambda s: s._replace(counts=(*s.counts, 1), witnesses=(*s.witnesses, (100049,)))),
        ("witnesses", lambda s: s._replace(witnesses=s.witnesses[:1])),
        ("witnesses", lambda s: s._replace(witnesses=(s.witnesses[0][:-1], s.witnesses[1]))),
        ("witnesses", lambda s: _with_witness(s, 0, 99991)),
        ("witnesses", lambda s: _with_witness(s, -1, 165541)),
        ("witnesses", lambda s: s._replace(witnesses=(s.witnesses[0][::-1], s.witnesses[1]))),
        ("total", lambda s: s._replace(total=s.counts[0] - 1)),
        ("total", "total: 0"),
        ("total", "total: 999999999"),
    ],
    ids=["counts-not-int", "witness-not-int", "no-next-block", "blocks-not-int",
         "count-past-int64", "counts-rising", "count-zero", "more-counts-than-h",
         "witness-list-missing", "witness-short", "witness-below-q", "witness-past-merged",
         "witnesses-unsorted", "total-below-count", "total-zero", "total-past-merged"],
)
def test_checkpoint_malformed_exits_2(tmp_path, capsys, field, bad):
    Q = 100000
    ckpt = tmp_path / "malformed.ckpt"
    base = ["exceptional", "--q", str(Q), "--u", "0", "--h-list", "2,3", "--checkpoint", str(ckpt)]
    key = _checkpoint_key(parse_args(base))
    state = _partial_state(Q, 0, [2, 3])[0]
    assert state.counts == (2759, 1362) and {len(w) for w in state.witnesses} == {1000}
    _write_checkpoint(str(ckpt), key, len(exceptional_blocks(Q)), bad(state) if callable(bad) else state)
    lines = [
        bad if line.startswith(field + ":") and not callable(bad) else line
        for line in ckpt.read_text().splitlines()
    ]
    ckpt.write_text("\n".join(line for line in lines if line is not None) + "\n")
    code, out, err = run_cli(capsys, *base)
    assert code == 2
    assert out == ""
    assert err.startswith("qrstats: error:")


def test_v1_checkpoint_exits_2_naming_the_v2_line(tmp_path, capsys):
    # a v1 file holds every (p, d) hit; nothing reads it any more
    Q, ckpt = 100000, tmp_path / "v1.ckpt"
    base = ["exceptional", "--q", str(Q), "--u", "0", "--h", "2", "--checkpoint", str(ckpt)]
    primes, d = _direct_steps(Q, 0)
    seen = primes <= exceptional_blocks(Q)[0][1]
    hits = " ".join(f"{p}:3" for p in primes[seen & (d > 2)].tolist())
    ckpt.write_text(f"qrstats-checkpoint v1\nkey: {_checkpoint_key(parse_args(base))}\nblocks: 2\n"
                    f"next_block: 1\ntotal: {int(np.count_nonzero(seen))}\nhits: {hits}\n")
    code, out, err = run_cli(capsys, *base)
    assert (code, out) == (2, "")
    assert "qrstats-checkpoint v2" in err


def test_checkpoint_size_follows_the_result_not_the_hits(tmp_path, capsys):
    # u + 1 = 1 is a residue of every prime, so all 70,435 primes are hits
    ckpt = tmp_path / "all.ckpt"
    code, _, _ = run_cli(capsys, "exceptional", "--q", "1000000", "--u", "0", "--h", "1", "--checkpoint", str(ckpt))
    assert code == 0
    assert "total: 70435\ncounts: 70435\n" in ckpt.read_text()
    assert ckpt.stat().st_size < 16 * 1024


_FUZZ_Q = 100000
_FUZZ_ARGV = ["exceptional", "--q", str(_FUZZ_Q), "--u", "0", "--h", "2"]


@functools.cache
def _real_checkpoint_lines() -> tuple:
    """The lines of a checkpoint taken after block 0 of 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "real.ckpt")
        key = _checkpoint_key(parse_args([*_FUZZ_ARGV, "--checkpoint", path]))
        _write_checkpoint(path, key, len(exceptional_blocks(_FUZZ_Q)), _partial_state(_FUZZ_Q, 0, [2])[0])
        with open(path) as fh:
            return tuple(fh.read().splitlines())


_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=20)
_NUMBERS = st.one_of(st.integers(-3, 3), st.integers(0, 2 * 10**5), st.integers(-(10**25), 10**25)).map(str)
# counts and witnesses near the real ones, negative, or past int64
_VALUES = st.one_of(st.integers(-3, 3000), st.integers(99990, 200010), st.integers(-(2**70), 2**70))
_VALUE_LISTS = st.lists(_VALUES, max_size=6).flatmap(lambda vs: st.sampled_from([vs, sorted(vs)]))
_COUNTS = _VALUE_LISTS.map(lambda vs: " ".join(map(str, vs)))
_WITNESSES = st.lists(_VALUE_LISTS, max_size=3).map(lambda groups: "; ".join(" ".join(map(str, g)) for g in groups))
_STATE_LINES = {"counts": _COUNTS, "witnesses": _WITNESSES}


@st.composite
def _checkpoint_texts(draw):
    """Either a real checkpoint with one to three lines dropped or given
    new values, or arbitrary text, with or without the magic line."""
    if draw(st.integers(0, 3)) == 0:
        head = draw(st.sampled_from(["", CHECKPOINT_MAGIC + "\n"]))
        return head + draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=200))
    lines = list(_real_checkpoint_lines())
    # the resume state (next_block, total, counts, witnesses) is drawn
    # three times as often as the magic, key and blocks lines that guard it
    picks = [0, 1, 2] + [i for i in range(3, len(lines)) for _ in range(3)]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(picks))
        name, _, _ = lines[i].partition(": ")
        if draw(st.integers(0, 3)) == 0:
            lines[i] = ""
        elif i == 0:
            lines[i] = draw(_LINE_TEXT)
        else:
            lines[i] = f"{name}: {draw(st.one_of(_STATE_LINES.get(name, _NUMBERS), _LINE_TEXT))}"
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_checkpoint_texts())
def test_checkpoint_reader_fuzz_ends_in_a_state_or_exit_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.ckpt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*_FUZZ_ARGV, "--checkpoint", path])
    if code == 0:
        assert out.getvalue()
        return
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("qrstats: error:")
    # main reports a fault of the program as "TYPE: message"; the reader
    # must refuse every content itself
    assert not re.match(r"qrstats: error: \w+: ", err.getvalue()), err.getvalue()
