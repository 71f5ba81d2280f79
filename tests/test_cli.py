import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparsefglm.cli import build_parser, main

from conftest import GF11_TEXT, GF2_TEXT

MONO_TEXT = "p 65521\nvars 2\nx1^3\nx1^2*x2\nx1*x2^2\nx2^3\n"


@pytest.fixture
def sysfile(tmp_path):
    def write(text, name="in.sys"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_convert_json_payload(sysfile, capsys):
    rc = main(["convert", "--in", sysfile(GF11_TEXT), "--seed", "1", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method_used"] == "shape-prob"
    assert payload["of_what"] == "I"
    assert payload["D"] == 4
    assert payload["nnz"] == 7
    assert payload["density"] == 43.75
    assert payload["passes"] is None
    assert payload["seed"] == 1
    assert payload["basis"] == ["x1^4 + 8*x1 + 9", "6*x1^2 + x2 + 10", "x3 + 9"]
    assert payload["wall_ms"] >= 0


def test_convert_text_format(sysfile, capsys):
    rc = main(["convert", "--in", sysfile(GF11_TEXT)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "method_used: shape-prob" in out
    assert "basis:\n  x1^4 + 8*x1 + 9\n" in out


def test_convert_writes_output_file(sysfile, tmp_path):
    out = tmp_path / "result.txt"
    rc = main(["convert", "--in", sysfile(GF11_TEXT), "--out", str(out)])
    assert rc == 0
    assert "x1^4 + 8*x1 + 9" in out.read_text()


def test_shape_prob_success(sysfile, capsys):
    rc = main(["shape-prob", "--in", sysfile(GF11_TEXT), "--seed", "0"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "D: 4\nseed: 0\nbasis:\n  x1^4 + 8*x1 + 9\n  6*x1^2 + x2 + 10\n  x3 + 9\n"
    )


def test_shape_prob_declines_with_exit_2(sysfile, capsys):
    rc = main(["shape-prob", "--in", sysfile(MONO_TEXT)])
    assert rc == 2
    assert capsys.readouterr().out == (
        "Fail: minimal polynomial degree 3 < ideal degree 6\n"
    )


def test_bms_declines_with_exit_2(sysfile, capsys):
    rc = main(["bms", "--in", sysfile(MONO_TEXT)])
    assert rc == 2
    out = capsys.readouterr().out
    assert out.startswith("Fail: BMS sweep ended without a verified Groebner basis")


def test_shape_det_reports_radical(sysfile, capsys):
    rc = main(["shape-det", "--in", sysfile(GF2_TEXT), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["of_what"] == "radical(I)"
    assert payload["is_radical"] is False
    assert payload["D"] == 7
    assert payload["basis"] == ["x1^3 + 1", "x2 + x1"]


def test_univar(sysfile, capsys):
    rc = main(["univar", "--in", sysfile(GF11_TEXT), "--seed", "0"])
    assert rc == 0
    assert capsys.readouterr().out == "x1^4 + 8*x1 + 9\n"


def test_fglm_subcommand(sysfile, capsys):
    rc = main(["fglm", "--in", sysfile(GF2_TEXT), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["D"] == 7
    assert payload["basis"] == ["x1^7 + x1^6 + x1 + 1", "x1^4 + x1^3 + x2 + 1"]


def test_matrices_dump(sysfile, capsys):
    rc = main(["matrices", "--in", sysfile(GF11_TEXT)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("4 3 1 7\n")
    assert "\n4 3 2 " in out
    assert "\n4 3 3 " in out


def test_analyze_csv(capsys):
    rc = main(["analyze", "--n", "3", "--d", "2", "--dmax", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,d,D,k0,m0,density_bound,asymptotic,ratio"
    assert lines[1] == "3,2,8,2,3,1/2,3.191538,1.063846"
    assert lines[2].startswith("3,3,27,3,7,8/27,")
    assert len(lines) == 4


def test_gen_then_convert_pipeline(tmp_path, capsys):
    gen_out = tmp_path / "random.sys"
    rc = main(["gen", "--n", "3", "--d", "2", "--p", "65521", "--seed", "7",
               "--out", str(gen_out)])
    assert rc == 0
    text = gen_out.read_text()
    assert text.startswith("p 65521\nvars 3\n")
    rc = main(["convert", "--in", str(gen_out), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["D"] == 8
    assert payload["of_what"] == "I"


def test_gen_deterministic(capsys):
    rc = main(["gen", "--n", "2", "--d", "2", "--p", "11", "--seed", "3"])
    first = capsys.readouterr().out
    rc2 = main(["gen", "--n", "2", "--d", "2", "--p", "11", "--seed", "3"])
    second = capsys.readouterr().out
    assert rc == rc2 == 0
    assert first == second


def test_empty_analyze_range_exits_3(capsys):
    rc = main(["analyze", "--n", "3", "--d", "5", "--dmax", "2"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_bad_input_exits_3(sysfile, capsys):
    rc = main(["convert", "--in", sysfile("p 11\nvars 2\nx9 + 1\n")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_3(tmp_path, capsys):
    rc = main(["fglm", "--in", str(tmp_path / "nope.sys")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_composite_modulus_exits_3(capsys):
    rc = main(["gen", "--n", "2", "--d", "2", "--p", "65520", "--seed", "0"])
    assert rc == 3
    assert "not prime" in capsys.readouterr().err


def test_shape_prob_takes_the_dispatchers_first_probe(tmp_path, capsys):
    """`shape-prob --seed s` and `convert --seed s` read the same first probe
    of `Q.probes(s)`: wherever convert answers by shape-prob, shape-prob
    prints its basis.  On these small-prime systems some seeds' first probe
    declines, and convert answers by shape-det instead."""
    methods = []
    for n, d, p, gseed in ((2, 3, 7, 2), (2, 3, 7, 3), (2, 2, 3, 1), (2, 2, 3, 2)):
        path = tmp_path / f"gen-{p}-{gseed}.sys"
        assert main(["gen", "--n", str(n), "--d", str(d), "--p", str(p),
                     "--seed", str(gseed), "--out", str(path)]) == 0
        for seed in map(str, range(4)):
            assert main(["convert", "--in", str(path), "--seed", seed, "--format", "json"]) == 0
            converted = json.loads(capsys.readouterr().out)
            methods.append(converted["method_used"])
            rc = main(["shape-prob", "--in", str(path), "--seed", seed, "--format", "json"])
            out = capsys.readouterr().out
            if converted["method_used"] == "shape-prob":
                assert rc == 0
                assert json.loads(out)["basis"] == converted["basis"]
            else:
                assert rc == 2 and out.startswith("Fail: minimal polynomial degree")
    assert methods.count("shape-prob") == 11 and methods.count("shape-det") == 5


def test_bms_success_on_generated_system(tmp_path, capsys):
    path = tmp_path / "quadrics.sys"
    assert main(["gen", "--n", "2", "--d", "2", "--p", "65521", "--seed", "0",
                 "--out", str(path)]) == 0
    rc = main(["bms", "--in", str(path), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["D"] == 4
    assert payload["passes"] == 12
    assert len(payload["basis"]) == 2


def test_trace_lines_on_stderr(sysfile, capsys):
    # the seed-0 probe stalls on this non-radical system, so the sweep
    # declines; the trace must still stream one line per pass
    rc = main(["bms", "--in", sysfile(GF11_TEXT), "--trace"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out.startswith("Fail: BMS sweep ended")
    trace_lines = [ln for ln in captured.err.splitlines() if ln]
    assert len(trace_lines) == 17
    assert all(ln.count("|") == 2 for ln in trace_lines)


# the flags each subcommand's handler reads; nothing else is accepted
FLAGS = {
    "convert": {"--in", "--out", "--seed", "--format", "--trace", "--radical-ok"},
    "shape-prob": {"--in", "--out", "--seed", "--format"},
    "shape-det": {"--in", "--out", "--format"},
    "univar": {"--in", "--out", "--seed"},
    "bms": {"--in", "--out", "--seed", "--format", "--trace"},
    "fglm": {"--in", "--out", "--format"},
    "matrices": {"--in", "--out"},
    "analyze": {"--n", "--d", "--dmax", "--out"},
    "gen": {"--n", "--d", "--p", "--seed", "--out"},
}
SYSTEM_FLAGS = {"--seed": ["1"], "--format": ["json"], "--trace": [], "--radical-ok": ["false"]}


def _subparsers() -> dict:
    ap = build_parser()
    action = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_subcommands():
    assert set(_subparsers()) == set(FLAGS)


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_flags_are_the_ones_the_handler_reads(command, sysfile, capsys):
    parser = _subparsers()[command]
    declared = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
    assert declared == FLAGS[command]
    if "--in" not in declared:
        return
    path = sysfile(GF11_TEXT)
    for flag in sorted(set(SYSTEM_FLAGS) - declared):
        assert main([command, "--in", path, flag, *SYSTEM_FLAGS[flag]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unrecognized arguments: " + flag in captured.err


def test_usage_errors_exit_3_and_help_exits_0(capsys):
    for argv in (["shape-det", "--bogus"], ["bench", "--n", "2", "--d", "2"],
                 ["gen", "--n", "2", "--d", "2"], ["convert", "--radical-ok", "maybe"], []):
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err
    for argv in (["--help"], ["convert", "--help"]):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: sparsefglm")


def _cli(*argv, stdin=None):
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "sparsefglm.cli", *argv],
        input=stdin,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_exit_status_seen_by_the_shell(sysfile):
    """The README quick start, a declined method, a usage error and --help,
    each run as its own process."""
    gen = _cli("gen", "--n", "2", "--d", "2", "--p", "65521", "--seed", "0")
    assert gen.returncode == 0, gen.stderr
    convert = _cli("convert", "--format", "json", stdin=gen.stdout)
    assert convert.returncode == 0, convert.stderr
    assert json.loads(convert.stdout)["basis"] == [
        "x1^4 + 30604*x1^3 + 57095*x1^2 + 59061*x1 + 55693",
        "46618*x1^3 + 45259*x1^2 + x2 + 55015*x1 + 50319",
    ]
    declined = _cli("shape-prob", "--in", sysfile(MONO_TEXT))
    assert declined.returncode == 2
    assert declined.stdout.startswith("Fail: ")
    usage = _cli("shape-det", "--bogus")
    assert usage.returncode == 3
    assert "error:" in usage.stderr
    assert _cli("--help").returncode == 0
