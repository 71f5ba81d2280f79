"""Self-test of the benchmark: python3 -m pytest benchmark/test_benchmark.py

Runs every workload at a tiny size in both modes and checks that each
metric named in BENCHMARK.json is emitted with its unit, and that the
oracle and the failure classes catch what they are meant to catch.
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import WRAPPED_FUNCTIONS, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    *_, detail, result = out.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    detail, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert set(detail["failures"]) == {"bad_input", "defect", "wrong_answer", "other"}
    assert detail["host"]["nproc"] >= 1
    assert set(detail["tails"]) == {"solve_ms_tail", "convert_ms_tail"}
    if trace:
        assert detail["traced_equals_untraced"] is True
    else:
        assert {k: v["unit"] for k, v in detail["readings"].items()} == {
            "solve_ms_p50": "ms", "convert_ms_p50": "ms", "convert_ms_tail": "ms", "systems_per_s": "1/s"
        }


def test_batch_and_failures_depend_only_on_seed_and_seconds():
    (d1, r1), (d2, r2) = _run("smallp-fallback", 0), _run("smallp-fallback", 0)
    assert r1["attempted"] == r2["attempted"] == 8  # ceil(1 s * 8 systems/s)
    assert (r1["failed"], d1["failed_seeds"]) == (r2["failed"], d2["failed_seeds"])


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def _solved(lib, n, d, p, seed):
    text = lib.write_system(lib.PrimeField(p), lib.gen_random_system(n, d, p, seed))
    out = run.solve(lib, seed, text)
    assert "error" not in out
    return out


def _corrupt(lib, out):
    polys = out["res"].basis.polys
    f = polys[-1]
    t = next(iter(f.coeffs))
    bad = lib.MultiPoly(f.n, {**f.coeffs, t: (f.coeffs[t] + 1) % out["field"].p})
    return SimpleNamespace(basis=SimpleNamespace(polys=polys[:-1] + [bad]), of_what=out["res"].of_what)


@pytest.mark.parametrize(
    "system, of_what",
    [((2, 3, 65521, 1), "I"), ((2, 6, 2, 22), "radical(I)")],
)
def test_oracle_accepts_answer_and_flags_corrupted_basis(lib, system, of_what):
    out = _solved(lib, *system)
    assert out["res"].of_what == of_what
    assert run.check(lib, out["field"], out["gb"], out["res"])[0]
    assert not run.check(lib, out["field"], out["gb"], _corrupt(lib, out))[0]


def test_failures_are_sorted_into_cli_classes(lib):
    assert run.solve(lib, 0, "p 7\nvars 2\nx1 +* x2\n")["error"] == "bad_input"

    def defect(*args, **kwargs):
        raise AssertionError("injected")

    broken = SimpleNamespace(parse_system=lib.parse_system, buchberger=lib.buchberger, toplevel=defect)
    assert run.solve(broken, 0, "p 7\nvars 1\nx1^2 + 1\n")["error"] == "defect"


def test_tracer_restores_every_wrapped_attribute(lib):
    mods = {m: vars(sys.modules[m]).copy() for m, _, _ in WRAPPED_FUNCTIONS}
    QS = lib.QuotientStructure
    before = (QS.__dict__["matrix"], QS.__dict__["__init__"])
    tr = Tracer()
    with tr.installed():
        assert sys.modules["sparsefglm.fglm"].shape_prob is not mods["sparsefglm.fglm"]["shape_prob"]
        _solved(lib, 2, 3, 65521, 1)
    for m, saved in mods.items():
        for attr, value in saved.items():
            assert vars(sys.modules[m])[attr] is value
    assert (QS.__dict__["matrix"], QS.__dict__["__init__"]) == before
    assert {s["name"] for s in tr.spans} >= {"quotient.init", "quotient.tj_build", "shape.prob"}
    assert tr.matvec_calls > 0


def test_tail_leaves_ten_samples_beyond():
    hundred = [float(i) for i in range(1, 101)]
    assert run.tail(hundred, planned=100) == (90.0, 90)
    assert run.tail(hundred, planned=99) == (80.0, 80)
    assert run.tail(hundred[:99], planned=400) == (80.0, 80)
    assert run.tail([float(i) for i in range(1, 401)], planned=400) == (380.0, 95)
    assert run.tail(hundred[:7], planned=7) == (4.0, 50)
