import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparsefglm import InternalError
from sparsefglm.cli import build_parser, main

from conftest import GF11_TEXT, GF2_TEXT

MONO_TEXT = "p 65521\nvars 2\nx1^3\nx1^2*x2\nx1*x2^2\nx2^3\n"


@pytest.fixture
def cli(capsys, monkeypatch):
    """`cli(*argv, stdin=text)` runs `sparsefglm <argv>` in process with text
    on stdin and returns its exit code, stdout and stderr."""
    def run(*argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return run


def _gen(cli, n, d, p, seed) -> str:
    rc, out, _ = cli("gen", "--n", str(n), "--d", str(d), "--p", str(p), "--seed", str(seed))
    assert rc == 0
    return out


def _basis(out: str) -> str:
    """A text report from its `basis:` line on."""
    return out[out.index("basis:\n"):]


def test_convert_json_payload(cli):
    rc, out, _ = cli("convert", "--seed", "1", "--format", "json", stdin=GF11_TEXT)
    assert rc == 0
    payload = json.loads(out)
    assert payload["method_used"] == "shape-prob"
    assert payload["of_what"] == "I"
    assert payload["D"] == 4
    assert payload["nnz"] == 7
    assert payload["density"] == 43.75
    assert payload["passes"] is None
    assert payload["seed"] == 1
    assert payload["basis"] == ["x1^4 + 8*x1 + 9", "6*x1^2 + x2 + 10", "x3 + 9"]
    assert payload["wall_ms"] >= 0


def test_convert_text_format(cli):
    rc, out, _ = cli("convert", stdin=GF11_TEXT)
    assert rc == 0
    assert "method_used: shape-prob" in out
    assert "basis:\n  x1^4 + 8*x1 + 9\n" in out


def test_convert_writes_output_file(cli, tmp_path):
    out = tmp_path / "result.txt"
    assert cli("convert", "--out", str(out), stdin=GF11_TEXT) == (0, "", "")
    assert "x1^4 + 8*x1 + 9" in out.read_text()


def test_shape_prob_success(cli):
    assert cli("shape-prob", "--seed", "0", stdin=GF11_TEXT) == (
        0, "D: 4\nseed: 0\nbasis:\n  x1^4 + 8*x1 + 9\n  6*x1^2 + x2 + 10\n  x3 + 9\n", "")


def test_shape_prob_declines_with_exit_2(cli):
    assert cli("shape-prob", stdin=MONO_TEXT) == (
        2, "Fail: minimal polynomial degree 3 < ideal degree 6\n", "")


def test_bms_declines_with_exit_2(cli):
    rc, out, _ = cli("bms", stdin=MONO_TEXT)
    assert rc == 2
    assert out.startswith("Fail: BMS sweep ended without a verified Groebner basis")


def test_shape_det_reports_radical(cli):
    rc, out, _ = cli("shape-det", "--format", "json", stdin=GF2_TEXT)
    assert rc == 0
    payload = json.loads(out)
    assert payload["of_what"] == "radical(I)"
    assert payload["is_radical"] is False
    assert payload["D"] == 7
    assert payload["basis"] == ["x1^3 + 1", "x2 + x1"]


def test_shape_det_declines_with_exit_2(cli):
    assert cli("shape-det", stdin=MONO_TEXT) == (
        2, "Fail: deterministic univariate degree 3 < D = 6: ideal is not in shape position\n", "")


@pytest.mark.parametrize("value", ["false", "no", "0", "true", "yes", "1", None])
def test_convert_radical_ok(value, cli):
    # GF2_TEXT is not radical: shape-det answers for radical(I) unless
    # --radical-ok is false, and then the FGLM fallback answers for I
    flag = [] if value is None else ["--radical-ok", value]
    rc, out, _ = cli("convert", "--seed", "10", *flag, "--format", "json", stdin=GF2_TEXT)
    assert rc == 0
    payload = json.loads(out)
    got = payload["method_used"], payload["of_what"], payload["basis"]
    if value in ("false", "no", "0"):
        assert got == ("fglm", "I", ["x1^7 + x1^6 + x1 + 1", "x1^4 + x1^3 + x2 + 1"])
    else:
        assert got == ("shape-det", "radical(I)", ["x1^3 + 1", "x2 + x1"])


def test_internal_error_exits_4(cli, monkeypatch):
    def defect(*args, **kwargs):
        raise InternalError("boom")

    monkeypatch.setattr("sparsefglm.cli.toplevel", defect)
    assert cli("convert", stdin=GF11_TEXT) == (4, "", "internal error: boom\n")


def test_univar(cli):
    assert cli("univar", "--seed", "0", stdin=GF11_TEXT) == (0, "x1^4 + 8*x1 + 9\n", "")


def test_fglm_subcommand(cli):
    rc, out, _ = cli("fglm", "--format", "json", stdin=GF2_TEXT)
    assert rc == 0
    payload = json.loads(out)
    assert payload["D"] == 7
    assert payload["basis"] == ["x1^7 + x1^6 + x1 + 1", "x1^4 + x1^3 + x2 + 1"]


def test_matrices_dump(cli):
    rc, out, _ = cli("matrices", stdin=GF11_TEXT)
    assert rc == 0
    assert out.startswith("4 3 1 7\n")
    assert "\n4 3 2 " in out
    assert "\n4 3 3 " in out


def test_analyze_csv(cli):
    rc, out, _ = cli("analyze", "--n", "3", "--d", "2", "--dmax", "4")
    assert rc == 0
    lines = out.splitlines()
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


def test_gen_deterministic(cli):
    assert _gen(cli, 2, 2, 11, 3) == _gen(cli, 2, 2, 11, 3)


def test_empty_analyze_range_exits_3(cli):
    assert cli("analyze", "--n", "3", "--d", "5", "--dmax", "2") == (
        3, "", "error: --dmax 2 is below --d 5\n")


def test_bad_input_exits_3(cli):
    assert cli("convert", stdin="p 11\nvars 2\n    x9 + 1\n") == (
        3, "", "error: line 3, column 5: variable x9 out of range (vars = 2)\n")


def test_missing_file_exits_3(tmp_path, cli):
    rc, out, err = cli("fglm", "--in", str(tmp_path / "nope.sys"))
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and "nope.sys" in err


def test_a_file_and_stdin_end_lines_alike(tmp_path, cli):
    """Only LF and CRLF end a line, read from a file as from stdin: a lone
    carriage return is bad input on both."""
    path = tmp_path / "in.sys"
    for text, want in (
        ("p 7\r\nvars 2\r\nx1^2 + 3\r\nx2 + 1\r\n", (0, "D: 2\nbasis:\n  x1^2 + 3\n  x2 + 1\n", "")),
        ("p 7\nvars 2\nx1^2 + 3\rx2 + 1\n", (3, "", "error: line 3, column 9: unexpected '\\r'\n")),
    ):
        path.write_bytes(text.encode())
        assert cli("fglm", "--in", str(path)) == cli("fglm", stdin=text) == want


def test_composite_modulus_exits_3(cli):
    assert cli("gen", "--n", "2", "--d", "2", "--p", "65520", "--seed", "0") == (
        3, "", "error: modulus 65520 is not prime\n")


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


def test_trace_lines_on_stderr(cli):
    # the seed-0 probe stalls on this non-radical system, so the sweep
    # declines; the trace must still stream one line per pass
    rc, out, err = cli("bms", "--trace", stdin=GF11_TEXT)
    assert rc == 2
    assert out.startswith("Fail: BMS sweep ended")
    trace_lines = [ln for ln in err.splitlines() if ln]
    assert len(trace_lines) == 17
    assert all(ln.count("|") == 2 for ln in trace_lines)


BIG_P = 618970019642690137449562111  # 89 bits

# `sparsefglm gen <n d p seed> | sparsefglm <argv>`, or a system's text piped
# in: (id, system, argv, exit code, stdout: the exact text or strings it
# contains, stderr: the exact text or its number of lines)
PIPES = [
    # the README quick start's system: univar prints the minimal polynomial of x1
    ("univar", (2, 2, 65521, 0), "univar", 0,
     "x1^4 + 30604*x1^3 + 57095*x1^2 + 59061*x1 + 55693\n", ""),
    # univar on the monomial ideal <x1^3, x1^2*x2, x1*x2^2, x2^3>: its chain
    # reaches zero after three products and is not multiplied past it
    ("univar-monomial", MONO_TEXT, "univar", 0, "x1^3\n", ""),
    # D = 256: the packed univariate products span hundreds of fields
    ("convert-d256", (2, 16, 65521, 0), "convert --format json", 0,
     ('"method_used": "shape-prob"', '"D": 256'), ""),
    # D = 26 at p = 5 <= D, not in shape position: the FGLM fallback answers
    ("convert-fallback", (3, 3, 5, 41100005), "convert --seed 41100005 --format json", 0,
     ('"method_used": "fglm"', '"D": 26'), ""),
    # shape-det peels factors of degree 1 and 8 (D = 9)
    ("shape-det-radical", (2, 3, 3, 1), "shape-det --format json", 0,
     ('"is_radical": true', '"D": 9'), ""),
    # not radical (D = 9): factors of degree 6 and 3, tails glued by CRT
    ("shape-det-crt", (2, 3, 2, 10), "shape-det --format json", 0,
     ('"is_radical": false', '"D": 9', "x1^6 + x1^4 + x2 + 1"), ""),
    # not radical (D = 8): two factors of degree 4, each with a piece of
    # degree 2 of the squarefree part, and two tails glued by CRT
    ("shape-det-crt-pieces", (3, 2, 3, 33), "shape-det --format json", 0,
     ('"is_radical": false', '"D": 8', "x1^4 + x1^3 + x1^2 + 2*x1 + 1", "2*x1^2 + x2 + 2*x1 + 2",
      "x1^2 + x3 + 2*x1"), ""),
    # each unit probe sits at a coordinate of b = f(T_1)e that is nonzero:
    # D = 36 at p = 5 takes 2 probes (factors of degree 35 and 1)
    ("shape-det-two-probes", (2, 6, 5, 30), "shape-det --format json", 0,
     ('"is_radical": true', '"D": 36', '"x1^36 + 3*x1^35 + 2*x1^33 + '), ""),
    # not in shape position (D = 30 at p = 2): 2 probes peel degree 26
    ("shape-det-declines", (2, 6, 2, 35), "shape-det", 2,
     "Fail: deterministic univariate degree 26 < D = 30: ideal is not in shape position\n", ""),
    # shape-prob streams its right-hand sides off one chain vector at D = 256
    ("shape-prob-d256", (2, 16, 65521, 0), "shape-prob --format json", 0, ('"D": 256',), ""),
    # an 89-bit prime: every entry spans several machine words
    ("convert-89-bit", (3, 3, BIG_P, 0), "convert --format json", 0,
     ('"method_used": "shape-prob"', '"D": 27'), ""),
    ("fglm-89-bit", (3, 3, BIG_P, 0), "fglm --format json", 0, ('"D": 27',), ""),
    ("fglm-p2", (3, 3, 2, 7), "fglm --format json", 0, ('"D": 27',), ""),
    # Buchberger on DRL ranks: 4 variables, where the packed kernel gains
    # most, and a sparse degree-40 input whose few terms span 900 ranks
    ("convert-n4", (4, 3, 65521, 0), "convert --format json", 0, ('"D": 81',), ""),
    ("convert-degree-40", "p 65521\nvars 2\nx1^40 + x2 + 1\nx1*x2^2 + 3\n", "convert", 0,
     ("x1^81 + 2*x1^41 + x1 + 3",), ""),
    # blanks around '*' and '^' and coefficient factors after the
    # variables: the parser's monomial table must not change the system
    ("parser-blanks", "p 7\nvars 2\n3 * x1 ^ 2 * 2 + x2*x1 + 1\nx2 ^ 2*5 + x1 + 6\n", "convert", 0,
     ("x1^4 + 3*x1^3 + 2*x1^2 + 1",), ""),
    # degree 100: its S-pairs lie past degree 89, the rank table's top at
    # n = 2, so they reduce on the heap loop
    ("convert-degree-100", "p 65521\nvars 2\nx1^100 + x2 + 1\nx1*x2^2 + 3\n", "convert", 0,
     ("x1^201 + 2*x1^101 + x1 + 3",), ""),
    # D = 400, where unit columns dominate: classic FGLM's forward products
    # place them by one gather
    ("fglm-d400", (2, 20, 65521, 0), "fglm --format json", 0, ('"D": 400',), ""),
    # the sweep's passes come back in the result: --trace prints one stderr
    # line per pass, as many as the JSON "passes" field counts
    ("convert-trace", MONO_TEXT, "convert --trace --format json", 0, ('"passes": 14,',), 14),
    # --seed s gives shape-prob, univar and bms the first probe of Q.probes(s);
    # on this D = 9 system at p = 7 it sees a degree-8 factor only
    ("shape-prob-seed", (2, 3, 7, 3), "shape-prob --seed 3", 2,
     "Fail: minimal polynomial degree 8 < ideal degree 9\n", ""),
    ("univar-seed", (2, 3, 7, 3), "univar --seed 3", 0,
     "x1^8 + x1^7 + 6*x1^6 + x1^4 + x1^3 + 5*x1^2 + 5\n", ""),
    ("bms-seed", (2, 3, 7, 3), "bms --seed 3", 2,
     "Fail: BMS sweep ended without a verified Groebner basis: |delta| = 10 exceeds D = 9"
     " after 25 passes\n", ""),
    # no finite, nonempty solution set: bad input, as QuotientStructure says
    ("contains-1", "p 7\nvars 1\nx1\nx1 + 1\n", "convert", 3, "",
     "error: ideal contains 1 (quotient has dimension 0)\n"),
    ("not-zero-dimensional", "p 7\nvars 2\nx1^2 + 1\n", "convert", 3, "",
     "error: ideal not zero-dimensional\n"),
    # a degree past the packed term fields is bad input, not a defect
    ("exponent-past-max", "p 7\nvars 2\nx1^40000 + 1\nx2 + 3\n", "convert", 3, "",
     "error: exponent past MAX_EXP = 32767 in a packed term\n"),
    # a digit is ASCII 0-9: an Arabic-Indic three (U+0663) is bad input
    ("non-ascii-digit", "p 7\nvars 2\nx1^2 + \u0663\nx2 + 1\n", "convert", 3, "",
     "error: line 3, column 8: unexpected '\u0663'\n"),
    # a blank is a space or a tab: an ideographic space (U+3000) is bad input
    ("non-ascii-blank", "p 7\nvars 2\nx1^2 + 3\nx2\u3000+ 1\n", "convert", 3, "",
     "error: line 4, column 3: unexpected '\\u3000'\n"),
]


@pytest.mark.parametrize("system, argv, rc, out, err", [c[1:] for c in PIPES],
                         ids=[c[0] for c in PIPES])
def test_pipe(cli, system, argv, rc, out, err):
    if isinstance(system, tuple):
        system = _gen(cli, *system)
    got_rc, got_out, got_err = cli(*argv.split(), "--in", "-", stdin=system)
    assert got_rc == rc
    if isinstance(out, str):
        assert got_out == out
    else:
        assert [part for part in out if part not in got_out] == []
    assert (len(got_err.splitlines()) if isinstance(err, int) else got_err) == err


@pytest.mark.parametrize("n, d, p, D, nnz", [
    (2, 3, 2, 7, [13, 15]),  # 1-byte fields at p = 2
    (2, 3, BIG_P, 9, [32, 47]),  # int.from_bytes fields at the 89-bit prime
    (3, 6, 2, 212, [2900, 5614, 6196]),  # 88 case-3 columns from term_vec's cascade
    (2, 20, 65521, 400, [7240, 13681]),  # unit columns dominate
])
def test_matrices_dump_headers(cli, n, d, p, D, nnz):
    """The packed columns unpacked by `matrices`: T_j's dump is its `D n j nnz`
    header and nnz entries, so T_(j+1)'s header comes next."""
    rc, out, err = cli("matrices", "--in", "-", stdin=_gen(cli, n, d, p, 0))
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    at = 0
    for j, count in enumerate(nnz, start=1):
        assert lines[at] == f"{D} {n} {j} {count}"
        at += 1 + count
    assert at == len(lines)


def test_a_repeated_generator_leaves_the_basis(cli):
    """The three generators share the leading term x3^3, so Buchberger
    reduces the second and third by the rows before them first; a repeat of
    the first reduces to zero and must leave the basis as it was."""
    system = _gen(cli, 3, 3, 65521, 0)
    rc, out, _ = cli("convert", "--in", "-", stdin=system)
    want = _basis(out)
    assert rc == 0 and "\n  " in want
    repeated = system + system.splitlines()[2] + "\n"
    rc, out, _ = cli("convert", "--in", "-", stdin=repeated)
    assert rc == 0 and _basis(out) == want


def test_bms_trace_prints_the_basis_fglm_prints(cli):
    """The array sweep, which reads its terms through the cascade (term_vec),
    pass by pass: 27 passes, one stderr line each, and fglm's basis."""
    system = _gen(cli, 2, 3, 65521, 0)
    rc, out, err = cli("bms", "--trace", "--in", "-", stdin=system)
    assert rc == 0 and out.startswith("D: 9\npasses: 27\n")
    assert len(err.splitlines()) == 27
    assert cli("bms", "--in", "-", stdin=system) == (0, out, "")
    rc, want, _ = cli("fglm", "--in", "-", stdin=system)
    assert rc == 0 and _basis(out) == _basis(want)


def test_small_prime_fallback_prints_the_basis_fglm_prints(cli):
    """D = 26 at p = 5 <= D, not in shape position: convert answers by the
    FGLM fallback, with the basis that fglm prints."""
    system = _gen(cli, 3, 3, 5, 41100005)
    rc, out, err = cli("convert", "--seed", "41100005", "--in", "-", stdin=system)
    assert (rc, err) == (0, "") and out.startswith("method_used: fglm\n")
    rc, want, _ = cli("fglm", "--in", "-", stdin=system)
    assert rc == 0 and "\n  " in _basis(want)
    assert _basis(out) == _basis(want)


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
def test_flags_are_the_ones_the_handler_reads(command, cli):
    parser = _subparsers()[command]
    declared = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
    assert declared == FLAGS[command]
    if "--in" not in declared:
        return
    for flag in sorted(set(SYSTEM_FLAGS) - declared):
        rc, out, err = cli(command, flag, *SYSTEM_FLAGS[flag], stdin=GF11_TEXT)
        assert (rc, out) == (3, "")
        assert "error: unrecognized arguments: " + flag in err


def test_usage_errors_exit_3_and_help_exits_0(capsys):
    for argv in (["shape-det", "--bogus"], ["bench", "--n", "2", "--d", "2"],
                 ["gen", "--n", "2", "--d", "2"], ["convert", "--radical-ok", "maybe"], []):
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err
    for argv in (["--help"], ["convert", "--help"]):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: sparsefglm")


def _cli(*argv, stdin=None, **env):
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "sparsefglm.cli", *argv],
        input=stdin,
        env={**os.environ, "PYTHONPATH": str(src), **env},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_exit_status_seen_by_the_shell():
    """The README quick start, a declined method, a usage error and --help,
    each run as its own process."""
    gen = _cli("gen", "--n", "2", "--d", "2", "--p", "65521", "--seed", "0")
    assert gen.returncode == 0, gen.stderr
    convert = _cli("convert", "--format", "json", stdin=gen.stdout)
    assert convert.returncode == 0, convert.stderr
    payload = json.loads(convert.stdout)
    assert (payload["D"], payload["nnz"], payload["density"]) == (4, 10, 62.5)
    assert payload["basis"] == [
        "x1^4 + 30604*x1^3 + 57095*x1^2 + 59061*x1 + 55693",
        "46618*x1^3 + 45259*x1^2 + x2 + 55015*x1 + 50319",
    ]
    declined = _cli("shape-prob", stdin=MONO_TEXT)
    assert declined.returncode == 2
    assert declined.stdout.startswith("Fail: ")
    usage = _cli("shape-det", "--bogus")
    assert usage.returncode == 3
    assert "error:" in usage.stderr
    assert _cli("--help").returncode == 0


def test_no_output_depends_on_the_hash_seed(cli):
    """Each command, run under PYTHONHASHSEED 0 and 1, prints the same bytes
    to stdout and to stderr, convert's wall_ms line aside."""
    commands = (
        (["bms", "--trace"], _gen(cli, 2, 3, 65521, 0)),
        (["convert", "--seed", "41100005"], _gen(cli, 3, 3, 5, 41100005)),
        (["convert", "--trace"], MONO_TEXT),
    )
    runs = {}
    for seed in ("0", "1"):
        runs[seed] = []
        for argv, system in commands:
            res = _cli(*argv, stdin=system, PYTHONHASHSEED=seed)
            out = "".join(ln for ln in res.stdout.splitlines(True) if not ln.startswith("wall_ms: "))
            runs[seed].append((res.returncode, out, res.stderr))
    assert runs["0"] == runs["1"]
    assert [rc for rc, _, _ in runs["0"]] == [0, 0, 0]
    (_, bms, bms_trace), (_, fallback, _), (_, mono, mono_trace) = runs["0"]
    assert "passes: 27" in bms.splitlines() and len(bms_trace.splitlines()) == 27
    assert "method_used: fglm" in fallback.splitlines()
    assert "passes: 14" in mono.splitlines() and len(mono_trace.splitlines()) == 14
