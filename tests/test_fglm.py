from collections import Counter
from itertools import islice

import pytest

import sparsefglm.fglm as fglm
from sparsefglm.bms import bms_change
from sparsefglm.buchberger import buchberger, gen_random_system
from sparsefglm.field import PrimeField
from sparsefglm.fglm import ConversionResult, classic_fglm, toplevel
from sparsefglm.poly import Fail, normal_form
from sparsefglm.quotient import QuotientStructure
from sparsefglm.shape import shape_det, shape_prob
from sparsefglm.sysio import parse_system
from sparsefglm.unipoly import squarefree_part

from conftest import basis_strs, quotient_from_text, reference_classic_fglm

GF11_LEX = ["x1^4 + 8*x1 + 9", "6*x1^2 + x2 + 10", "x3 + 9"]
GF2_LEX = ["x1^7 + x1^6 + x1 + 1", "x1^4 + x1^3 + x2 + 1"]


def test_classic_fglm_gf11(gf11):
    out = classic_fglm(gf11, "lex")
    assert out.ordering == "lex"
    assert basis_strs(out) == GF11_LEX


def test_classic_fglm_gf2(gf2q):
    assert basis_strs(classic_fglm(gf2q, "lex")) == GF2_LEX


def test_classic_fglm_monomial(monomial6):
    assert basis_strs(classic_fglm(monomial6, "lex")) == [
        "x1^3",
        "x1^2*x2",
        "x1*x2^2",
        "x2^3",
    ]


def test_classic_fglm_same_ordering_is_identity(gf11):
    out = classic_fglm(gf11, "drl")
    assert basis_strs(out) == basis_strs(gf11.G1)


PACKED_PRIMES = [2, 3, 5, 7, 101, 65521, 2**31 - 1, 2**61 - 1, 618970019642690137449562111]
SMALL_PRIMES = [2, 3, 5, 7]
SHAPES = [(1, 4), (2, 2), (2, 3), (2, 6), (3, 2), (3, 3), (4, 2)]


def _quotient(n: int, d: int, p: int, seed: int) -> QuotientStructure | None:
    """The quotient of a seeded random system, or None when it is bad input
    (over tiny fields a few draws give the unit ideal or a
    positive-dimensional one)."""
    F = PrimeField(p)
    try:
        return QuotientStructure(buchberger(gen_random_system(n, d, p, seed), "drl", F), F)
    except ValueError:
        return None


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_classic_fglm_packed_rows_match_reference(p):
    """The packed echelon rows give the same basis text as the unpacked
    reference, for 1-byte fields (p = 2) up to int.from_bytes fields (the
    89-bit prime), towards LEX and back to DRL; at each small prime on at
    least one system whose LEX basis is not in shape position."""
    checked = not_shape = 0
    for n, d in SHAPES:
        for seed in range(2):
            Q = _quotient(n, d, p, seed)
            if Q is None:
                continue
            for target in ("lex", "drl"):
                got = classic_fglm(Q, target)
                want = reference_classic_fglm(Q, target)
                assert got.ordering == want.ordering == target
                assert basis_strs(got) == basis_strs(want), (n, d, p, seed, target)
                if target == "lex":
                    not_shape += len(got.polys) != n or got.polys[0].lt("lex") != (Q.D,) + (0,) * (n - 1)
            checked += 1
    assert checked >= len(SHAPES)
    assert not_shape or p not in SMALL_PRIMES


@pytest.mark.parametrize("target", ["lex", "drl"])
@pytest.mark.parametrize("system", ["gf11", "gf2q", "gf5"])
def test_classic_fglm_multiplies_each_term_once(system, target, request, monkeypatch):
    """One product per term the walk meets that no leading term divides:
    the D staircase terms but 1, and the leading terms of the basis, so a
    term pushed by several parents is multiplied once.  gf5 is not in shape
    position."""
    Q = _gf5_system(41100005) if system == "gf5" else request.getfixturevalue(system)
    calls = []

    def counted(T, v, _apply=fglm.apply):
        calls.append(T)
        return _apply(T, v)

    monkeypatch.setattr(fglm, "apply", counted)
    out = classic_fglm(Q, target)
    assert len(calls) == Q.D + len(out.polys) - 1


def test_shape_det_from_declined_probe_agrees():
    """shape_det started from a declined probe's Krylov result gives the
    answer, radical flag (so of_what) and decline reason it gives on its
    own: in and out of shape position, radical or not, and from a probe
    that saw nothing (a factor of degree 0)."""
    seen = {"declined": 0, "radical": 0, "not radical": 0, "degree 0": 0}
    for p in SMALL_PRIMES:
        for n, d in SHAPES:
            for seed in range(4):
                Q = _quotient(n, d, p, seed)
                if Q is None:
                    continue
                res = shape_prob(Q, next(Q.probes(seed)))
                if not isinstance(res, Fail):
                    continue
                alone, started = shape_det(Q), shape_det(Q, start=res.krylov)
                if isinstance(alone, Fail):
                    assert isinstance(started, Fail) and started.reason == alone.reason
                    seen["declined"] += 1
                else:
                    assert started == alone, (n, d, p, seed)
                    seen["radical" if alone[1] else "not radical"] += 1
                seen["degree 0"] += res.krylov[1][0] == [1]
    assert all(seen.values()), seen


def test_round_trip_drl_lex_drl():
    # DRL -> LEX -> DRL restores the original reduced basis
    p = 65521
    F = PrimeField(p)
    for seed in range(20):
        n = 2 + seed % 2
        gb1 = buchberger(gen_random_system(n, 2, p, seed), "drl", F)
        lex = classic_fglm(QuotientStructure(gb1, F), "lex")
        back = buchberger(lex.polys, "drl", F)
        assert back == gb1


def _record_quotients(monkeypatch):
    """List that collects every QuotientStructure `toplevel` builds."""
    built = []

    class Recorded(QuotientStructure):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(fglm, "QuotientStructure", Recorded)
    return built


def test_toplevel_gf11_takes_probabilistic_path(gf11, monkeypatch):
    built = _record_quotients(monkeypatch)
    res = toplevel(gf11.G1, gf11.F, seed=0, quotient=gf11)
    assert isinstance(res, ConversionResult)
    assert res.method_used == "shape-prob"
    assert res.of_what == "I"
    assert res.bms_passes is None
    assert built == []  # the given quotient is used, no second one is built
    assert basis_strs(res.basis) == GF11_LEX


def test_toplevel_gf2_generic_seed(gf2q):
    res = toplevel(gf2q.G1, gf2q.F, seed=0, quotient=gf2q)
    assert res.method_used == "shape-prob"
    assert res.of_what == "I"
    assert basis_strs(res.basis) == GF2_LEX


def test_toplevel_gf2_unlucky_probes_fall_to_deterministic(gf2q):
    # seed 10 draws three probes that all see proper factors of the
    # degree-7 minimal polynomial, so the unit-probe stage answers with
    # the radical instead
    res = toplevel(gf2q.G1, gf2q.F, seed=10, quotient=gf2q)
    assert res.method_used == "shape-det"
    assert res.of_what == "radical(I)"
    assert basis_strs(res.basis) == ["x1^3 + 1", "x2 + x1"]


def test_toplevel_radical_not_ok_keeps_exact_ideal(gf2q):
    res = toplevel(gf2q.G1, gf2q.F, seed=10, want_radical_ok=False, quotient=gf2q)
    assert res.method_used == "fglm"
    assert res.of_what == "I"
    assert res.bms_passes is None  # p = 2 <= D = 7: no sweep
    assert basis_strs(res.basis) == GF2_LEX


def test_bms_declines_gf2_on_dispatcher_probe(gf2q):
    # the 4th probe of seed 10, the one the dispatcher's sweep would get
    probe = next(islice(gf2q.probes(10), 3, None))
    trace = []
    assert isinstance(bms_change(gf2q, probe, trace=trace), Fail)
    assert len(trace) == 13


def test_toplevel_monomial_falls_through_to_fglm(monomial6):
    res = toplevel(monomial6.G1, monomial6.F, seed=0, quotient=monomial6)
    direct = []
    bms_change(monomial6, next(islice(monomial6.probes(0), 3, None)), trace=direct)
    assert res.method_used == "fglm"
    assert res.of_what == "I"
    assert res.bms_passes == 14
    assert res.bms_trace == direct
    assert basis_strs(res.basis) == basis_strs(monomial6.G1)


def test_toplevel_builds_quotient_when_not_given(monkeypatch):
    built = _record_quotients(monkeypatch)
    F, polys = parse_system("p 11\nvars 2\nx1^2 + 1\nx2 + x1\n")
    gb = buchberger(polys, "drl", F)
    res = toplevel(gb, F, seed=0)
    assert [Q.D for Q in built] == [2]
    assert basis_strs(res.basis) == ["x1^2 + 1", "x2 + x1"]


def test_toplevel_rejects_a_quotient_of_another_basis_or_field(gf11):
    # the conversion runs on the quotient, but the tails are negated mod
    # field.p and the sweep is gated on it: a quotient of another field or
    # basis would answer with wrong tails or for another ideal
    with pytest.raises(ValueError, match="another basis or field"):
        toplevel(gf11.G1, PrimeField(13), seed=1, quotient=gf11)
    other = quotient_from_text("p 11\nvars 3\nx1^2 + 1\nx2 + x1\nx3 + 2\n")
    with pytest.raises(ValueError, match="another basis or field"):
        toplevel(other.G1, gf11.F, seed=1, quotient=gf11)


def _gf5_system(seed: int) -> QuotientStructure:
    F = PrimeField(5)
    return QuotientStructure(buchberger(gen_random_system(3, 3, 5, seed), "drl", F), F)


def test_toplevel_non_shape_small_prime_goes_straight_to_fglm(monkeypatch):
    # one failed probe, then shape_det proves the ideal is not in shape
    # position; p = 5 <= D, so no sweep runs before classic FGLM
    Q = _gf5_system(41100005)
    calls = {}
    for name in ("shape_prob", "shape_det", "bms_change", "classic_fglm"):
        def counted(*args, _f=getattr(fglm, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(fglm, name, counted)
    draws = []

    def probes(seed, _probes=Q.probes):
        for r in _probes(seed):
            draws.append(r)
            yield r

    monkeypatch.setattr(Q, "probes", probes)
    res = toplevel(Q.G1, Q.F, seed=41100005, quotient=Q)
    assert calls == {"shape_prob": 1, "shape_det": 1, "classic_fglm": 1}
    assert len(draws) == 1  # neither probes 2 and 3 nor the sweep's is drawn
    assert res.method_used == "fglm"
    assert res.bms_passes is None
    assert res.bms_trace is None


def test_toplevel_sweep_probe_is_the_fourth_draw(trusted12):
    # not in shape position and p > D: probes 2 and 3 are never drawn, and
    # the sweep sees exactly what a direct call on draw 4 sees
    direct = []
    res = toplevel(trusted12.G1, trusted12.F, seed=3, quotient=trusted12)
    bms_change(trusted12, next(islice(trusted12.probes(3), 3, None)), trace=direct)
    assert res.method_used == "bms"
    assert res.bms_trace == direct
    assert res.bms_passes == len(direct)


@pytest.mark.parametrize("seed", [40100125, 40100213, 41100005, 41100061])
def test_toplevel_answers_where_the_sweep_raised(seed):
    # on these p = 5 systems bms_change raises InternalError on the 4th
    # draw; at p <= D the dispatcher answers by FGLM without sweeping
    Q = _gf5_system(seed)
    res = toplevel(Q.G1, Q.F, seed=seed, quotient=Q)
    assert res.method_used == "fglm"
    assert res.of_what == "I"
    assert basis_strs(res.basis) == basis_strs(classic_fglm(Q, "lex"))


def test_toplevel_answers_match_classic_fglm_on_small_primes():
    """The whole dispatcher on seeded random systems at small primes, each
    answer checked as the benchmark's oracle checks it: a basis of I is
    classic FGLM's, and a radical(I) basis has a squarefree f1 and reduces
    every element of classic FGLM's basis to 0.  Each path answers at
    least once: shape-prob, shape-det radical and not, and the fallback."""
    seen = Counter()
    for p in (2, 3, 5, 7, 11):
        F = PrimeField(p)
        for n, d in ((2, 3), (2, 4), (3, 2), (3, 3)):
            for seed in range(6):
                Q = QuotientStructure(buchberger(gen_random_system(n, d, p, seed), "drl", F), F)
                lex = classic_fglm(Q, "lex")
                res = toplevel(Q.G1, F, seed, quotient=Q)
                if res.of_what == "I":
                    assert basis_strs(res.basis) == basis_strs(lex), (p, n, d, seed, res.method_used)
                    seen[res.method_used] += 1
                else:
                    assert res.method_used == "shape-det"
                    f1 = res.basis.polys[0].to_uni()
                    assert squarefree_part(f1, F) == f1, (p, n, d, seed)
                    assert all(normal_form(g, res.basis.polys, "lex", F).is_zero() for g in lex.polys)
                    seen["radical(I)"] += 1
    assert all(seen[path] for path in ("shape-prob", "shape-det", "radical(I)", "fglm")), seen
