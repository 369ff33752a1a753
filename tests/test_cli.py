import json
import os
import subprocess
import sys

import pytest

import qrstats

from qrstats.cli import (
    CHECKPOINT_MAGIC,
    _checkpoint_key,
    _write_checkpoint,
    main,
    parse_args,
)
from qrstats.experiments import exceptional_blocks, exceptional_density_sweep
from qrstats.rng import XorShift64Star


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
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err != ""


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


def test_computation_error_exits_2(capsys):
    code, out, err = run_cli(capsys, "trace", "--q", "1000", "--u", "0", "--h", "12", "--eta", "0.08")
    assert code == 2
    assert out == ""
    assert err.startswith("qrstats: error:")
    code, out, _ = run_cli(capsys, "trace", "--q", "100", "--u", "0", "--h", "2", "--eta", "0.3")
    assert code == 2 and out == ""


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


def test_checkpoint_written_during_run(tmp_path, capsys):
    ckpt = tmp_path / "fresh.ckpt"
    base = ["exceptional", "--q", "100000", "--u", "0", "--h", "2"]
    code, out, _ = run_cli(capsys, *base, "--checkpoint", str(ckpt), "--checkpoint-every", "1")
    assert code == 0
    _, bare, _ = run_cli(capsys, *base)
    assert out == bare
    assert ckpt.exists()


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
