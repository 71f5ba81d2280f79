import os
import subprocess
import sys
from itertools import product
from pathlib import Path

from sparsefglm.bms import (
    ArrayE,
    _corners,
    bms_change,
    eval_E,
    initial_state,
    is_gb,
    reduce_set,
)
from sparsefglm.buchberger import buchberger, gen_random_system
from sparsefglm.field import PrimeField
from sparsefglm.fglm import classic_fglm
from sparsefglm.poly import Fail, GroebnerBasis, InternalError, MultiPoly
from sparsefglm.quotient import QuotientStructure, staircase
from sparsefglm.terms import divides

from conftest import PROBE12, basis_strs, noncommuting_units

F = PrimeField(65521)


def test_array_values_match_probe_sequence(gf11):
    A = ArrayE([8, 4, 8, 6])
    got = [eval_E(A, gf11, (k, 0, 0)) for k in range(8)]
    assert got == [8, 4, 0, 7, 6, 8, 10, 10]
    assert A.values[(3, 0, 0)] == 7  # cached


def test_initial_state():
    st = initial_state(2)
    assert basis_strs(st.F) == ["1"]
    assert st.delta == set()
    assert st.u is None
    assert not st.failed


def test_corners():
    assert _corners(set(), 2) == [(0, 0)]
    assert _corners({(0, 0)}, 2) == [(1, 0), (0, 1)]
    assert _corners({(0, 0), (1, 0)}, 2) == [(2, 0), (0, 1)]
    assert _corners({(0, 0), (1, 0), (0, 1)}, 2) == [(2, 0), (1, 1), (0, 2)]


def test_staircase_size():
    # is_gb sizes the candidate staircase with limit D
    mono = [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert staircase(mono, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(staircase(mono, 2, 6)) == 6
    assert staircase(mono, 2, 5) is None  # over the limit
    assert len(staircase([(3, 0), (0, 3)], 2, 100)) == 9
    assert staircase([(3, 0)], 2, 100) is None  # infinite staircase
    assert staircase([(3, 0)], 2) is None
    assert staircase([(1, 0), (0, 1)], 2, 10) == [(0, 0)]


def test_is_gb_accepts_true_bases(gf11, monomial6):
    assert is_gb(monomial6.G1.polys, monomial6)
    lex = classic_fglm(gf11, "lex")
    assert is_gb(lex.polys, gf11)


def test_is_gb_rejects_wrong_staircase(monomial6):
    partial = [MultiPoly(2, {(3, 0): 1}), MultiPoly(2, {(0, 3): 1})]
    assert not is_gb(partial, monomial6)  # staircase has 9 monomials, D = 6


def test_is_gb_rejects_non_members(monomial6):
    # right staircase, but x1^3 + 1 is not in the ideal
    polys = [MultiPoly(2, {(3, 0): 1, (0, 0): 1})] + monomial6.G1.polys[1:]
    assert not is_gb(polys, monomial6)


def test_is_gb_degenerate_inputs(monomial6):
    assert not is_gb([], monomial6)
    assert not is_gb([MultiPoly.zero(2)], monomial6)


def test_reduce_set():
    f = MultiPoly(2, {(1, 0): 2, (0, 0): 2})
    g = MultiPoly(2, {(2, 0): 1, (1, 0): 1})
    out = reduce_set([f, g], PrimeField(11))
    assert [h.coeffs for h in out] == [{(1, 0): 1, (0, 0): 1}]


def test_bms_univariate_degenerates_to_bm():
    Q = QuotientStructure(
        GroebnerBasis([MultiPoly(1, {(3,): 1, (1,): 5, (0,): 2})], "drl"), F
    )
    res = bms_change(Q, seed=0)
    assert not isinstance(res, Fail)
    assert basis_strs(res) == ["x1^3 + 5*x1 + 2"]


def test_bms_dimension_one():
    Q = QuotientStructure(
        GroebnerBasis(
            [MultiPoly(2, {(1, 0): 1, (0, 0): 1}), MultiPoly(2, {(0, 1): 1, (0, 0): 2})],
            "drl",
        ),
        F,
    )
    res = bms_change(Q, seed=0)
    assert basis_strs(res) == ["x1 + 1", "x2 + 2"]


def test_bms_matches_classic_fglm_on_random_quadrics():
    for seed in (0, 1):
        gb = buchberger(gen_random_system(2, 2, 65521, seed), "drl", F)
        Q = QuotientStructure(gb, F)
        trace = []
        res = bms_change(Q, seed=seed, trace=trace)
        assert not isinstance(res, Fail)
        assert res == classic_fglm(Q, "lex")
        assert len(trace) <= 2 * 2 * Q.D


def test_bms_trace_delta_growth():
    gb = buchberger(gen_random_system(2, 2, 65521, 0), "drl", F)
    Q = QuotientStructure(gb, F)
    trace = []
    bms_change(Q, seed=0, trace=trace)
    sizes = [len(d) for _, _, d in trace]
    assert sizes == sorted(sizes)
    # every recorded delta set is downward closed
    for _, _, d in trace:
        for t in d:
            for i in range(2):
                if t[i]:
                    assert t[:i] + (t[i] - 1,) + t[i + 1 :] in d
    assert sizes[-1] == Q.D


def test_bms_declines_monomial_ideal(monomial6):
    for seed in (0, 1):
        trace = []
        res = bms_change(monomial6, seed=seed, trace=trace)
        assert isinstance(res, Fail)
        assert "without a verified Groebner basis" in res.reason
        assert len(trace) <= 2 * 2 * 6
    # the visible recurrences stall at four delta elements out of six
    assert sorted(trace[-1][2]) == [(0, 0), (0, 1), (1, 0), (2, 0)]


def test_bms_declines_inconsistent_input():
    """Three generators passed as a reduced DRL basis although they are not
    one: they generate the unit ideal, the T_1 and T_2 they induce do not
    commute, and the sweep finds no basis it can verify."""

    def P(d):
        return MultiPoly(2, {t: F.norm(c) for t, c in d.items()})

    g_a = P({(0, 4): 1, (3, 1): 2, (0, 3): 21, (1, 2): 11, (2, 1): 4, (3, 0): 22,
             (0, 2): 9, (1, 1): 17, (2, 0): 19, (0, 1): 2, (1, 0): 19, (0, 0): 5})
    g_b = P({(2, 2): 1, (0, 3): 10, (2, 1): 12, (3, 0): 20, (0, 0): 21})
    g_c = P({(4, 0): 1, (2, 0): 15, (1, 0): 19, (0, 0): 3})
    assert basis_strs(buchberger([g_a, g_b, g_c], "drl", F)) == ["1"]

    Q = QuotientStructure(GroebnerBasis([g_c, g_b, g_a], "drl", reduced=True), F)
    assert Q.D == 12
    assert noncommuting_units(Q) == [10, 11]
    res = bms_change(Q, seed=None, probe=list(PROBE12))
    assert isinstance(res, Fail)
    assert "without a verified Groebner basis" in res.reason


def test_bms_declines_as_soon_as_delta_outgrows_D():
    """On gen_random_system(2, 3, 3, 5) (D = 9) the delta set reaches 10 at
    pass 24; the full sweep ran 30 passes and then failed is_gb."""
    F3 = PrimeField(3)
    Q = QuotientStructure(buchberger(gen_random_system(2, 3, 3, 5), "drl", F3), F3)
    assert Q.D == 9
    trace = []
    res = bms_change(Q, seed=5, trace=trace)
    assert isinstance(res, Fail)
    assert "without a verified Groebner basis" in res.reason
    assert "|delta| = 10 exceeds D = 9 after 24 passes" in res.reason
    sizes = [len(d) for _, _, d in trace]
    assert len(trace) == 24 and sizes[-1] > Q.D >= max(sizes[:-1])
    # why declining is sound: on every pass the staircase of lt(F) is delta,
    # so from the first |delta| > D on is_gb cannot pass
    for _, polys, delta in trace:
        lts = [f.lt("lex") for f in polys]
        box = [range(max((t[i] for t in delta), default=0) + 2) for i in range(2)]
        staircase = {t for t in product(*box) if not any(divides(l, t) for l in lts)}
        assert staircase == delta
    assert not is_gb(trace[-1][1], Q)


WITNESS_DEFECT = """
from sparsefglm import InternalError, PrimeField, buchberger, gen_random_system, toplevel
from sparsefglm.shape import ShapeBasis
GF5 = PrimeField(5)
G1 = buchberger(gen_random_system(3, 3, 5, 41100005), "drl", GF5)
try:
    toplevel(G1, GF5, seed=41100005)
except InternalError as exc:
    print(type(exc).__name__, exc)
try:
    ShapeBasis([1, 1], [[0, 1]])
except InternalError as exc:
    print(type(exc).__name__, exc)
"""


def test_defect_raises_internal_error_under_python_O():
    """Known defects (the BMS sweep finds no witness to correct with on this
    p = 5 system; a shape tail whose degree reaches deg(f1)) must surface as
    InternalError even with asserts stripped."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WITNESS_DEFECT],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "InternalError no witness available for correction",
        "InternalError shape tail degree not below deg(f1)",
    ]
    assert issubclass(InternalError, AssertionError)  # the CLI's exit code 4
