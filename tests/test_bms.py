import hashlib
import os
import random
import subprocess
import sys
from itertools import product
from math import factorial
from pathlib import Path

import pytest

from sparsefglm.bms import _array, bms_change, is_gb, reduce_set
from sparsefglm.buchberger import buchberger, gen_random_system
from sparsefglm.field import PrimeField
from sparsefglm.fglm import classic_fglm
from sparsefglm.poly import Fail, GroebnerBasis, InternalError, MultiPoly, normal_form, row_poly
from sparsefglm.quotient import QuotientStructure, staircase
from sparsefglm.shape import incremental_univariate, shape_prob
from sparsefglm.terms import MAX_EXP, term_codec

from conftest import (
    PROBE12,
    basis_strs,
    divides,
    lex_key,
    mp_mul_term,
    noncommuting_units,
    quotient_from_text,
    read_pass,
    reference_corners,
)

F = PrimeField(65521)


def test_array_values_match_probe_sequence(gf11):
    """E is read at packed LEX terms."""
    E = _array(gf11, [8, 4, 8, 6])
    pack = term_codec(3, "lex").pack
    for _ in range(2):  # the second read comes from the memo
        assert [E(pack((k, 0, 0))) for k in range(8)] == [8, 4, 0, 7, 6, 8, 10, 10]


def test_corners():
    assert reference_corners(set(), 2) == [(0, 0)]
    assert reference_corners({(0, 0)}, 2) == [(1, 0), (0, 1)]
    assert reference_corners({(0, 0), (1, 0)}, 2) == [(2, 0), (0, 1)]
    assert reference_corners({(0, 0), (1, 0), (0, 1)}, 2) == [(2, 0), (1, 1), (0, 2)]


def test_staircase_size():
    # is_gb sizes the candidate staircase with limit D
    # the walk comes packed by the DRL codec
    unpack = term_codec(2, "drl").unpack
    mono = [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert list(map(unpack, staircase(mono, 2))) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(staircase(mono, 2, 6)) == 6
    assert staircase(mono, 2, 5) is None  # over the limit
    assert len(staircase([(3, 0), (0, 3)], 2, 100)) == 9
    assert staircase([(3, 0)], 2, 100) is None  # infinite staircase
    assert staircase([(3, 0)], 2) is None
    assert list(map(unpack, staircase([(1, 0), (0, 1)], 2, 10))) == [(0, 0)]
    # the walk's terms must pack: a corner of degree past MAX_EXP is refused
    assert len(staircase([(MAX_EXP - 1, 0), (0, 1)], 2)) == MAX_EXP - 1
    with pytest.raises(ValueError):
        staircase([(MAX_EXP, 0), (0, 2)], 2)


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
    # on seeded systems, small p included: classic FGLM's LEX basis passes,
    # and f + 1 for any member f keeps the staircase but leaves the ideal
    for p in (3, 5, 7, 65521):
        field = PrimeField(p)
        for n, d, seed in ((2, 3, 0), (2, 3, 1), (3, 2, 0), (3, 2, 1)):
            Q = QuotientStructure(buchberger(gen_random_system(n, d, p, seed), "drl", field), field)
            lex = classic_fglm(Q, "lex").polys
            assert is_gb(lex, Q), (p, n, d, seed)
            for i, f in enumerate(lex):
                shifted = f.coeffs | {(0,) * n: (f.coeffs.get((0,) * n, 0) + 1) % p}
                bad = lex[:i] + [MultiPoly(n, {t: c for t, c in shifted.items() if c})] + lex[i + 1 :]
                assert not is_gb(bad, Q), (p, n, d, seed, i)


def test_is_gb_degenerate_inputs(monomial6):
    assert not is_gb([], monomial6)
    assert not is_gb([MultiPoly(2)], monomial6)


def packed(f: MultiPoly) -> dict[int, int]:
    """f as the packed LEX polynomial `reduce_set` takes."""
    pack = term_codec(f.n, "lex").pack
    return {pack(t): c for t, c in f.coeffs.items()}


def test_reduce_set():
    f = MultiPoly(2, {(1, 0): 2, (0, 0): 2})
    g = MultiPoly(2, {(2, 0): 1, (1, 0): 1})
    field, codec = PrimeField(11), term_codec(2, "lex")
    out = reduce_set([packed(f), packed(g)], codec, field)
    assert [row_poly(row, codec, field).coeffs for row in out] == [{(1, 0): 1, (0, 0): 1}]


def reduce_set_all_others(F, field):
    """Reference oracle for `reduce_set`: each f, in list order, modulo every
    other member with a smaller leading term (or an equal one earlier in the
    list), with the members before it already reduced."""
    out = list(F)
    for i in range(len(out)):
        fi = out[i]
        if fi.is_zero():
            continue
        ki = lex_key(fi.lt("lex"))
        reducers = []
        for j, fj in enumerate(out):
            if j == i or fj.is_zero():
                continue
            kj = lex_key(fj.lt("lex"))
            if kj < ki or (kj == ki and j < i):
                reducers.append(fj)
        r = normal_form(fi, reducers, "lex", field)
        if not r.is_zero():  # made monic
            r = mp_mul_term(r, (0,) * r.n, field.inv(r.coeffs[r.lt("lex")]), field)
        out[i] = r
    return [f for f in out if not f.is_zero()]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 5, 65521])
def test_reduce_set_matches_reduction_against_all_others(n, p):
    """On the corners of a random delta set, each with a random tail of
    lex-smaller terms, reducing against the members before it is reducing
    against all the others."""
    field = PrimeField(p)
    rng = random.Random(1000 * n + p)
    box = list(product(range(4), repeat=n))
    for _ in range(40):
        delta = set()
        for _ in range(rng.randrange(1, 5)):
            delta.update(product(*(range(a + 1) for a in rng.choice(box))))
        F = []
        for s in reference_corners(delta, n):
            smaller = [t for t in box if lex_key(t) < lex_key(s)]
            tail = rng.sample(smaller, min(len(smaller), rng.randrange(6)))
            F.append(MultiPoly(n, {t: rng.randrange(1, p) for t in tail + [s]}))
        codec = term_codec(n, "lex")
        rows = reduce_set([packed(f) for f in F], codec, field)
        got = [row_poly(row, codec, field) for row in rows]
        assert got == reduce_set_all_others(F, field)
        assert [f.lt("lex") for f in got] == [f.lt("lex") for f in F]


def test_bms_univariate_degenerates_to_bm():
    Q = QuotientStructure(
        GroebnerBasis([MultiPoly(1, {(3,): 1, (1,): 5, (0,): 2})], "drl"), F
    )
    res = bms_change(Q, next(Q.probes(0)))
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
    res = bms_change(Q, next(Q.probes(0)))
    assert basis_strs(res) == ["x1 + 1", "x2 + 2"]


def test_bms_matches_classic_fglm_on_random_quadrics():
    for seed in (0, 1):
        gb = buchberger(gen_random_system(2, 2, 65521, seed), "drl", F)
        Q = QuotientStructure(gb, F)
        trace = []
        res = bms_change(Q, next(Q.probes(seed)), trace=trace)
        assert not isinstance(res, Fail)
        assert res == classic_fglm(Q, "lex")
        assert len(trace) <= 2 * 2 * Q.D


def affine_power(rng, a):
    """(c1*x1 + c2*x2 + c0)^a over GF(65521), random c1, c2 != 0 and c0."""
    c1, c2, c0 = rng.randrange(1, F.p), rng.randrange(1, F.p), rng.randrange(F.p)
    coeffs = {}
    for i in range(a + 1):
        for j in range(a + 1 - i):
            m = factorial(a) // (factorial(i) * factorial(j) * factorial(a - i - j))
            coeffs[(i, j)] = m * pow(c1, i, F.p) * pow(c2, j, F.p) * pow(c0, a - i - j, F.p) % F.p
    return MultiPoly(2, {t: c for t, c in coeffs.items() if c})


def test_bms_matches_classic_fglm_on_bivariate_complete_intersections():
    """<l1^a, l2^b> for random affine forms l1, l2 and a, b in {2, 3, 4}: a
    Gorenstein ideal of one point of multiplicity ab, not in shape position
    (its lex basis has more than n elements)."""
    rng = random.Random(15)
    for k in range(15):
        a, b = rng.choice((2, 3, 4)), rng.choice((2, 3, 4))
        gb = buchberger([affine_power(rng, a), affine_power(rng, b)], "drl", F)
        Q = QuotientStructure(gb, F)
        assert Q.D == a * b
        lex = classic_fglm(Q, "lex")
        assert len(lex.polys) > 2
        assert bms_change(Q, next(Q.probes(k))) == lex


def test_bms_trace_delta_growth():
    gb = buchberger(gen_random_system(2, 2, 65521, 0), "drl", F)
    Q = QuotientStructure(gb, F)
    trace = []
    bms_change(Q, next(Q.probes(0)), trace=trace)
    sizes = [len(d) for _, _, d in trace]
    assert sizes == sorted(sizes)
    # every recorded delta set is downward closed
    for _, _, d in (read_pass(entry, F) for entry in trace):
        for t in d:
            for i in range(2):
                if t[i]:
                    assert t[:i] + (t[i] - 1,) + t[i + 1 :] in d
    assert sizes[-1] == Q.D


def _pin_quotient(system):
    if isinstance(system, str):
        return quotient_from_text(system)
    n, d, p = system
    field = PrimeField(p)
    return QuotientStructure(buchberger(gen_random_system(n, d, p, 0), "drl", field), field)


@pytest.mark.parametrize(
    "system, passes, delta_size, verified",
    [
        ((2, 3, 7), 27, 10, False),  # declined when delta outgrows D = 9
        ((2, 3, 101), 27, 9, True),
        ((2, 3, 65521), 27, 9, True),
        ((3, 2, 7), 40, 8, True),
        ((3, 2, 101), 41, 8, False),  # every level walked, then is_gb fails
        ((3, 2, 65521), 40, 8, True),
        ("p 65521\nvars 2\nx1^3 + 2*x1*x2 + 5\nx2^2 + 3*x1 + 1\n", 18, 6, True),
        ("p 65521\nvars 2\nx1^2 - x2\nx2^2\n", 12, 4, True),
    ],
)
def test_bms_sweep_lengths_are_pinned(system, passes, delta_size, verified):
    """The number of passes, the final delta set's size and the outcome of
    the sweep under the first probe of Q.probes(0), so that a rewrite of the
    level schedule cannot change a sweep unseen."""
    Q = _pin_quotient(system)
    trace = []
    res = bms_change(Q, next(Q.probes(0)), trace=trace)
    assert (len(trace), len(trace[-1][2])) == (passes, delta_size)
    assert isinstance(res, GroebnerBasis) == verified
    if verified:
        assert res == classic_fglm(Q, "lex")
    else:
        assert f"{passes} passes" in res.reason


PINNED_SWEEPS = [
    (n, d, p, seed)
    for n, d in ((2, 2), (2, 3), (3, 2))
    for p in (3, 5, 7, 101, 65521)
    for seed in range(6)
] + [(3, 3, 5, 41100005), (3, 3, 2, 7)]


def pinned_sweep(n, d, p, seed):
    """The passes, read by `read_pass`, the result and the outcome of the
    sweep of gen_random_system(n, d, p, seed) under the first probe of
    Q.probes(seed)."""
    field = PrimeField(p)
    Q = QuotientStructure(buchberger(gen_random_system(n, d, p, seed), "drl", field), field)
    trace = []
    try:
        res = bms_change(Q, next(Q.probes(seed)), trace=trace)
    except InternalError as exc:
        result, outcome = f"InternalError: {exc}", "error"
    else:
        if isinstance(res, Fail):
            result, outcome = res.reason, "decline"
        else:
            result, outcome = [str(f) for f in res.polys], "answer"
    return [read_pass(entry, field) for entry in trace], result, outcome


def test_sweep_passes_are_pinned():
    """Every pass (u, F, delta) and every result of 92 seeded sweeps, each
    under the first probe of Q.probes(seed), hashed into one digest, so that
    a rewrite of the sweep's arithmetic cannot change a pass unseen.  The
    last two systems raise InternalError (ROADMAP item 6); the digest pins
    its text."""
    digest = hashlib.md5()
    outcomes = {"answer": 0, "decline": 0, "error": 0}
    for system in PINNED_SWEEPS:
        trace, result, outcome = pinned_sweep(*system)
        outcomes[outcome] += 1
        passes = [(u, [str(f) for f in polys], sorted(delta)) for u, polys, delta in trace]
        digest.update(repr((passes, result)).encode())
    assert outcomes == {"answer": 40, "decline": 50, "error": 2}
    assert digest.hexdigest() == "3a57c3464a057a4db87b97516e4adc97"


def test_leading_terms_of_F_are_the_corners_of_delta():
    """The invariant the sweep updates its corners by, instead of rebuilding
    them from the whole delta set: after every pass of the 92 pinned sweeps,
    lt(F) are the corners of delta in ascending lex order."""
    for n, d, p, seed in PINNED_SWEEPS:
        trace, _, _ = pinned_sweep(n, d, p, seed)
        for u, polys, delta in trace:
            assert [f.lt("lex") for f in polys] == reference_corners(delta, n), (n, d, p, seed, u)


def test_bms_declines_monomial_ideal(monomial6):
    for seed in (0, 1):
        trace = []
        res = bms_change(monomial6, next(monomial6.probes(seed)), trace=trace)
        assert isinstance(res, Fail)
        assert "without a verified Groebner basis" in res.reason
        assert len(trace) <= 2 * 2 * 6
    # the visible recurrences stall at four delta elements out of six
    assert sorted(read_pass(trace[-1], monomial6.F)[2]) == [(0, 0), (0, 1), (1, 0), (2, 0)]


def test_bms_declines_inconsistent_input():
    """Three generators passed as a reduced DRL basis although they are not
    one: they generate the unit ideal, the T_1 and T_2 they induce do not
    commute, and the sweep finds no basis it can verify."""

    def P(d):
        return MultiPoly(2, {t: c % F.p for t, c in d.items()})

    g_a = P({(0, 4): 1, (3, 1): 2, (0, 3): 21, (1, 2): 11, (2, 1): 4, (3, 0): 22,
             (0, 2): 9, (1, 1): 17, (2, 0): 19, (0, 1): 2, (1, 0): 19, (0, 0): 5})
    g_b = P({(2, 2): 1, (0, 3): 10, (2, 1): 12, (3, 0): 20, (0, 0): 21})
    g_c = P({(4, 0): 1, (2, 0): 15, (1, 0): 19, (0, 0): 3})
    assert basis_strs(buchberger([g_a, g_b, g_c], "drl", F)) == ["1"]

    Q = QuotientStructure(GroebnerBasis([g_c, g_b, g_a], "drl"), F)
    assert Q.D == 12
    assert noncommuting_units(Q) == [10, 11]
    res = bms_change(Q, list(PROBE12))
    assert isinstance(res, Fail)
    assert "without a verified Groebner basis" in res.reason


def test_bms_rejects_probe_of_wrong_length(gf11):
    """A probe that is not D long is bad input (ValueError, the CLI's exit
    code 3), not a sweep that ends in Fail; shape_prob and
    incremental_univariate reject it too."""
    assert gf11.D == 4
    for probe in ([1], [1, 2, 3, 4, 5], []):
        for stage in (bms_change, shape_prob, incremental_univariate):
            with pytest.raises(ValueError, match="probe length"):
                stage(gf11, probe)
    assert isinstance(bms_change(gf11, [1, 2, 3, 4]), (GroebnerBasis, Fail))


def test_bms_declines_as_soon_as_delta_outgrows_D():
    """On gen_random_system(2, 3, 3, 5) (D = 9) the delta set reaches 10 at
    pass 24; the full sweep ran 30 passes and then failed is_gb."""
    F3 = PrimeField(3)
    Q = QuotientStructure(buchberger(gen_random_system(2, 3, 3, 5), "drl", F3), F3)
    assert Q.D == 9
    trace = []
    res = bms_change(Q, next(Q.probes(5)), trace=trace)
    assert isinstance(res, Fail)
    assert "without a verified Groebner basis" in res.reason
    assert "|delta| = 10 exceeds D = 9 after 24 passes" in res.reason
    sizes = [len(d) for _, _, d in trace]
    assert len(trace) == 24 and sizes[-1] > Q.D >= max(sizes[:-1])
    # why declining is sound: on every pass the staircase of lt(F) is delta,
    # so from the first |delta| > D on is_gb cannot pass
    passes = [read_pass(entry, F3) for entry in trace]
    for _, polys, delta in passes:
        lts = [f.lt("lex") for f in polys]
        box = [range(max((t[i] for t in delta), default=0) + 2) for i in range(2)]
        staircase = {t for t in product(*box) if not any(divides(l, t) for l in lts)}
        assert staircase == delta
    assert not is_gb(passes[-1][1], Q)


@pytest.mark.xfail(
    strict=True,
    raises=InternalError,
    reason="ROADMAP item 6: the sweep finds no witness to correct with on these small-p systems",
)
@pytest.mark.parametrize("n, d, p, seed", [(3, 3, 5, 41100005), (3, 3, 2, 7)])
def test_bms_answers_or_declines_on_small_primes(n, d, p, seed):
    """The sweep with a system's first probe returns a basis or declines
    (D = 26 at p = 5, D = 27 at p = 2); today it raises InternalError, so
    this turns red once item 6 mends the sweep and the marker can go."""
    Fp = PrimeField(p)
    Q = QuotientStructure(buchberger(gen_random_system(n, d, p, seed), "drl", Fp), Fp)
    assert isinstance(bms_change(Q, next(Q.probes(seed))), (GroebnerBasis, Fail))


WITNESS_DEFECT = """
from itertools import islice
from sparsefglm import InternalError, PrimeField, buchberger, gen_random_system
from sparsefglm.bms import bms_change
from sparsefglm.quotient import QuotientStructure
from sparsefglm.shape import ShapeBasis
GF5 = PrimeField(5)
Q = QuotientStructure(buchberger(gen_random_system(3, 3, 5, 41100005), "drl", GF5), GF5)
probe = next(islice(Q.probes(41100005), 3, None))
try:
    bms_change(Q, probe)
except InternalError as exc:
    print(type(exc).__name__, exc)
try:
    ShapeBasis([1, 1], [[0, 1]])
except InternalError as exc:
    print(type(exc).__name__, exc)
"""


def test_defect_raises_internal_error_under_python_O():
    """Known defects (the BMS sweep finds no witness to correct with on this
    p = 5 system, D = 26, probed with the 4th draw of its seed, the
    dispatcher's sweep probe, although the dispatcher does not sweep at
    p <= D; a shape tail whose degree reaches deg(f1)) must surface as
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
