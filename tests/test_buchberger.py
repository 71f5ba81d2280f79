import importlib
import math
from itertools import combinations, product
from operator import sub

import pytest

from sparsefglm.bms import is_gb
from sparsefglm.buchberger import RANK_LIMIT, buchberger, gen_random_system
from sparsefglm.fglm import classic_fglm
from sparsefglm.field import PrimeField
from sparsefglm.poly import MultiPoly, normal_form, reduce_rows
from sparsefglm.terms import MAX_EXP, term_codec
from sparsefglm.quotient import QuotientStructure
from sparsefglm.sysio import parse_system

# the module, which the package's `buchberger` function shadows as an attribute
buchberger_module = importlib.import_module("sparsefglm.buchberger")

from conftest import (
    GF11_TEXT,
    GF2_TEXT,
    basis_strs,
    divides,
    drl_key,
    mp_mul_term,
    mp_sub,
    normal_form_linear_scan,
    record_buchberger,
    reference_buchberger,
)


def spoly(f, g, ordering, F):
    lf, lg = f.lt(ordering), g.lt(ordering)
    m = tuple(map(max, lf, lg))
    a = mp_mul_term(f, tuple(map(sub, m, lf)), F.inv(f.coeffs[lf]), F)
    return mp_sub(a, mp_mul_term(g, tuple(map(sub, m, lg)), F.inv(g.coeffs[lg]), F), F)


def spolys_reduce_to_zero(gb, F, nf=normal_form):
    for f, g in combinations(gb.polys, 2):
        s = spoly(f, g, gb.ordering, F)
        if not nf(s, gb.polys, gb.ordering, F).is_zero():
            return False
    return True


def test_fixed_point_on_groebner_input():
    for text in (GF11_TEXT, GF2_TEXT):
        F, polys = parse_system(text)
        gb = buchberger(polys, "drl", F)
        assert sorted(basis_strs(gb)) == sorted(basis_strs(polys))


def test_gf11_output_order():
    F, polys = parse_system(GF11_TEXT)
    gb = buchberger(polys, "drl", F)
    assert basis_strs(gb) == [
        "x3 + 9",
        "x1^2 + 2*x2 + 9",
        "x2^2 + 9*x2 + 2*x1 + 6",
    ]


def test_completion_adds_elements():
    F = PrimeField(11)
    f = MultiPoly(2, {(2, 0): 1, (0, 2): 1})  # x1^2 + x2^2
    g = MultiPoly(2, {(1, 1): 1, (0, 0): 10})  # x1*x2 - 1
    gb = buchberger([f, g], "drl", F)
    assert len(gb.polys) > 2
    assert spolys_reduce_to_zero(gb, F)
    for h in (f, g):
        assert normal_form(h, gb.polys, "drl", F).is_zero()
    Q = QuotientStructure(gb, F)
    assert Q.D == 4  # Bezout: no solutions at infinity


def test_random_systems_self_consistent():
    p = 65521
    F = PrimeField(p)
    for seed in range(5):
        polys = gen_random_system(2, 2, p, seed)
        gb = buchberger(polys, "drl", F)
        assert spolys_reduce_to_zero(gb, F)
        Q = QuotientStructure(gb, F)
        assert Q.D == 4  # generic quadrics
        for h in polys:
            assert normal_form(h, gb.polys, "drl", F).is_zero()
        # is_gb speaks lex, so exercise it on the converted basis
        assert is_gb(classic_fglm(Q, "lex").polys, Q)


@pytest.mark.parametrize("p", [3, 5, 65521])
@pytest.mark.parametrize("n,d", [(1, 4), (2, 3), (3, 2), (4, 2)])
def test_result_is_reduced_basis_whatever_the_pair_order(n, d, p):
    # the defining properties of the reduced Groebner basis, which do not
    # depend on the order in which pairs are taken from the queue
    F = PrimeField(p)
    for seed in range(3):
        polys = gen_random_system(n, d, p, 41100000 + seed)
        gb = buchberger(polys, "drl", F)
        # checked with the tuple oracle, not the packed kernel buchberger runs on
        assert spolys_reduce_to_zero(gb, F, nf=normal_form_linear_scan)
        for h in polys:
            assert normal_form_linear_scan(h, gb.polys, "drl", F).is_zero()
        lts = [g.lt("drl") for g in gb.polys]
        for i, g in enumerate(gb.polys):
            assert g.coeffs[g.lt("drl")] == 1
            for j, lt_j in enumerate(lts):
                if j != i:
                    assert not any(divides(lt_j, t) for t in g.coeffs)


def test_empty_input_rejected():
    F = PrimeField(11)
    with pytest.raises(ValueError):
        buchberger([MultiPoly(2)], "drl", F)


# primes from one bit up to fields wider than 8 bytes ((p-1)^2 needs 122 and
# 178 bits at the last two)
DIFF_PRIMES = [2, 3, 5, 7, 65521, 2**61 - 1, 618970019642690137449562111]


def assert_matches_reference(F, polys):
    assert basis_strs(buchberger(polys, "drl", F)) == basis_strs(
        reference_buchberger(polys, "drl", F)
    )


@pytest.mark.parametrize("p", DIFF_PRIMES)
@pytest.mark.parametrize("n,d", [(1, 4), (2, 8), (3, 3), (4, 2), (4, 3)])
def test_matches_reference_on_random_systems(n, d, p):
    F = PrimeField(p)
    for seed in range(1 if (n, d) == (4, 3) else 3):
        assert_matches_reference(F, gen_random_system(n, d, p, 41800000 + seed))


def test_matches_reference_on_worked_texts():
    for text in (GF11_TEXT, GF2_TEXT):
        assert_matches_reference(*parse_system(text))


@pytest.mark.parametrize("p", [7, 65521])
def test_matches_reference_on_sparse_wide_family(p):
    # x1^k + x2 + 1, x1*x2^2 + 3: few terms spread over a rank span that grows
    # with k^2
    for k in range(1, 61):
        assert_matches_reference(*parse_system(f"p {p}\nvars 2\nx1^{k} + x2 + 1\nx1*x2^2 + 3\n"))


def test_input_containing_one():
    F, polys = parse_system("p 65521\nvars 2\nx1^2 + x2\n5\nx1*x2 + 3*x2^2\n")
    assert basis_strs(buchberger(polys, "drl", F)) == ["1"]
    assert_matches_reference(F, polys)


@pytest.mark.parametrize("p", [2, 65521, 2**61 - 1])
def test_fields_hold_the_largest_values(p):
    # g = 1 + x + ... + x^300 and f = g^2, both with coefficients 1: every
    # multiplier of g's row is p - 1, and the S-polynomial x^300 g - f reduces
    # by g over a chain of 300 pivots, each p - 1, so a middle field gathers
    # 300 (p-1)^2 before it is read: more than a field one width step below
    # that of the bound (p-1) + RANK_LIMIT (p-1)^2 holds (at p = 2, 300 > 255)
    F = PrimeField(p)
    g = MultiPoly(1, {(e,): 1 for e in range(301)})
    f = MultiPoly(1, {(e,): (min(e, 600 - e) + 1) % p for e in range(601)})
    assert basis_strs(buchberger([g, f], "drl", F)) == basis_strs([g])
    assert_matches_reference(F, [g, f])


X1_200 = "p 65521\nvars 4\nx1^200 + x4\nx2\nx3\nx4^2\n"
X1_300 = "p 65521\nvars 3\nx1^300 + x2 + x3\nx1*x2 + x3\nx3^2 + 1\n"


@pytest.mark.parametrize(
    "text,final,heap",
    [
        # leading terms pairwise coprime, so no S-pair is reduced and no tail
        # is reducible; the ranks up to x1^200 number C(204, 4), about 70.7M
        pytest.param(X1_200, 0, False, id=X1_200),
        # S-pairs from degree 301 down, each on a few terms; of the 6 rows, all
        # but x3^2 + 1 and x1*x2 + x3 past the ranks, one has a reducible tail
        pytest.param(X1_300, 1, True, id=X1_300),
    ],
)
def test_sparse_high_degree_inputs_stay_within_the_rank_limit(monkeypatch, text, final, heap):
    F, polys = parse_system(text)
    n = polys[0].n
    top = max(sum(t) for g in polys for t in g.coeffs)
    assert RANK_LIMIT < math.comb(top + n, n)
    calls = []

    def counting_reduce_rows(*args):
        calls.append(args)
        return reduce_rows(*args)

    monkeypatch.setattr(buchberger_module, "reduce_rows", counting_reduce_rows)
    rec = record_buchberger(monkeypatch)
    assert_matches_reference(F, polys)
    assert rec["final"] == final
    # the ranks up to the top degree outnumber the limit, so the reductions
    # up there ran on the heap loop; x1^200 + x4 makes none at all
    assert bool(calls) == heap


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_table_numbers_terms_in_drl_order(n):
    C = term_codec(n, "drl")
    for limit in (1, 30, RANK_LIMIT):
        terms, ranks = buchberger_module._rank_table(n, limit)
        top = max(d for d in range(limit) if math.comb(d + n, n) <= limit)
        want = sorted(
            (t for t in product(range(top + 1), repeat=n) if sum(t) <= top),
            key=drl_key,
        )
        assert len(terms) == math.comb(top + n, n)
        assert terms == [C.pack(t) for t in want]
        assert ranks == {x: r for r, x in enumerate(terms)}
    # each limit has its own table in one process
    assert len(buchberger_module._rank_table(n, 30)[0]) < len(
        buchberger_module._rank_table(n, RANK_LIMIT)[0]
    )


def mp_product(f, g, F):
    out = MultiPoly(f.n)
    for t, c in g.coeffs.items():
        out = mp_sub(out, mp_mul_term(f, t, F.p - c, F), F)
    return out


def non_koszul_systems(p, seed):
    """Generating sets, named, with syzygies beyond the Koszul ones of a
    regular sequence, in 3 variables over GF(p)."""
    F = PrimeField(p)
    f = gen_random_system(3, 2, p, seed)
    h, q, r = gen_random_system(3, 1, p, seed + 1)
    return {
        # h f0 and h f1 share the factor h: f1 e0 - f0 e1 is a syzygy of degree 2
        "common factor": [mp_product(h, f[0], F), mp_product(h, f[1], F), f[2]],
        "repeated generator": [f[0], f[1], f[0], f[2], f[1]],
        # q f0 - r f1 is in the ideal of the two before it
        "combination": [
            f[0],
            f[1],
            mp_sub(mp_product(q, f[0], F), mp_product(r, f[1], F), F),
            f[2],
        ],
        # three random conics in two variables: over a large field they have
        # no common zero
        "unit ideal": gen_random_system(2, 2, p, seed) + gen_random_system(2, 2, p, seed + 1)[:1],
    }


@pytest.mark.parametrize("p", [2, 7, 65521])
def test_matches_reference_on_non_koszul_syzygies(p):
    # a zero reduction is the only way a syzygy that the criteria do not
    # know shows up; the output must be the reduced basis all the same
    for seed in range(3):
        for polys in non_koszul_systems(p, 41820000 + 10 * seed).values():
            assert_matches_reference(PrimeField(p), polys)


@pytest.mark.parametrize(
    "n,d,counts",
    [
        # (zero, new, final, generators) per system: no S-polynomial reduces to
        # zero; with the product and chain criteria alone, 18 of 29 and 9 of
        # 19 S-pairs reduced to zero here
        (4, 2, (0, 9, 8, 3)),
        (3, 3, (0, 9, 6, 2)),
    ],
)
def test_no_s_polynomial_of_a_random_system_reduces_to_zero(monkeypatch, n, d, counts):
    F = PrimeField(65521)
    for seed in range(5):
        polys = gen_random_system(n, d, 65521, seed)
        rec = record_buchberger(monkeypatch)
        gb = buchberger(polys, "drl", F)
        monkeypatch.undo()
        assert tuple(rec[k] for k in ("zero", "new", "final", "generators")) == counts
        assert rec["zero"] < 0.1 * (rec["zero"] + rec["new"])
        # fewer final normal forms than elements of the reduced basis (12 and
        # 11): a row with no reducible tail term is kept as it is
        assert rec["final"] < len(gb.polys) == {4: 12, 3: 11}[n]


@pytest.mark.parametrize(
    "p,systems,kept,first",
    [
        (65521, [gen_random_system(2, 8, 65521, s) for s in range(5)], 2, 9),
        (65521, [gen_random_system(3, 3, 65521, s) for s in range(5)], 3, 12),
        (65521, [gen_random_system(4, 2, 65521, s) for s in range(5)], 4, 13),
        # f0, f1, f0, f2, f1: each repeat reduces to zero by the rows before it
        (7, [non_koszul_systems(7, 41820000 + 10 * s)["repeated generator"] for s in range(3)], 3, 7),
    ],
    ids=["2-8", "3-3", "4-2", "repeated-generator"],
)
def test_only_signed_rows_enter_the_reducer_table(monkeypatch, p, systems, kept, first):
    # a generator that an earlier row's leading term divides is reduced first,
    # and its own row serves that one product only: the table gets one row
    # per generator kept and one per S-pair that reduces to a new row
    F = PrimeField(p)
    add = buchberger_module._PackedRows.add
    adds = []

    def counted(self, lt, tail, E):
        adds.append(E)
        return add(self, lt, tail, E)

    made = []
    for polys in systems:
        adds.clear()
        with monkeypatch.context() as m:
            m.setattr(buchberger_module._PackedRows, "add", counted)
            rec = record_buchberger(m)
            gb = buchberger(polys, "drl", F)
        made.append(len(adds))
        assert len(adds) == kept + rec["new"]
        assert basis_strs(gb) == basis_strs(reference_buchberger(polys, "drl", F))
    assert made[0] == first


@pytest.mark.parametrize(
    "systems,limit,final,elements",
    [
        # shape position: of the rows x1*x2^7, x2^8, x1^3*x2^6, ..., x1^15 only
        # one has a tail term that a leading term divides
        ([gen_random_system(2, 8, 65521, s) for s in range(5)], RANK_LIMIT, 1, 9),
        ([gen_random_system(2, 16, 65521, 0)], RANK_LIMIT, 1, 17),
        ([gen_random_system(2, 24, 65521, 0)], RANK_LIMIT, 1, 25),
        # its S-pairs run past the rank table (degree 89 at n = 2), and none
        # of its 3 rows keeps a reducible tail term
        ([parse_system("p 65521\nvars 2\nx1^100 + x2 + 1\nx1*x2^2 + 3\n")[1]], RANK_LIMIT, 0, 3),
        # the ranks stop at degree 6, so every leading term lies past them
        # and each tail term is decided by a scan of the table
        ([gen_random_system(2, 12, 65521, s) for s in range(2)], 30, 1, 13),
    ],
    ids=["2-8", "2-16", "2-24", "x1^100", "2-12-limit-30"],
)
def test_final_pass_normal_forms_only_rows_with_a_reducible_tail(
    monkeypatch, systems, limit, final, elements
):
    F = PrimeField(65521)
    monkeypatch.setattr(buchberger_module, "RANK_LIMIT", limit)
    for polys in systems:
        with monkeypatch.context() as m:
            rec = record_buchberger(m)
            gb = buchberger(polys, "drl", F)
        assert (rec["final"], len(gb.polys)) == (final, elements)
        assert basis_strs(gb) == basis_strs(reference_buchberger(polys, "drl", F))


@pytest.mark.parametrize("limit", [1, 30, 200])
def test_heap_path_past_the_rank_limit_matches_reference(monkeypatch, limit):
    # a low limit sends the S-pairs and final rows above a small degree to the
    # heap loop, so one run mixes both paths over the same table
    monkeypatch.setattr(buchberger_module, "RANK_LIMIT", limit)
    for n, d in [(1, 4), (2, 6), (3, 3), (4, 2)]:
        for p in (7, 65521):
            assert_matches_reference(PrimeField(p), gen_random_system(n, d, p, 41810000 + n))
    for k in (5, 17, 40):
        assert_matches_reference(*parse_system(f"p 65521\nvars 2\nx1^{k} + x2 + 1\nx1*x2^2 + 3\n"))
    for p in (2, 65521):
        for polys in non_koszul_systems(p, 41830000).values():
            assert_matches_reference(PrimeField(p), polys)


def test_rejects_orderings_other_than_drl():
    F, polys = parse_system(GF11_TEXT)
    with pytest.raises(ValueError, match="'lex'"):
        buchberger(polys, "lex", F)


def test_exponent_overflow_raises():
    # the lcm x1^MAX_EXP * x2 of the two leading terms leaves its field
    F = PrimeField(11)
    polys = [MultiPoly(2, {(MAX_EXP, 0): 1}), MultiPoly(2, {(1, 1): 1, (0, 0): 1})]
    for gb in (buchberger, reference_buchberger):
        with pytest.raises(ValueError, match="MAX_EXP"):
            gb(polys, "drl", F)


def test_gen_random_system_shape():
    polys = gen_random_system(3, 2, 65521, 7)
    assert len(polys) == 3
    assert all(f.n == 3 for f in polys)
    assert all(max(sum(t) for t in f.coeffs) <= 2 for f in polys)
    # 10 monomials of degree <= 2 in 3 variables, minus any zero draws
    assert all(len(f.coeffs) <= 10 for f in polys)


def test_gen_random_system_deterministic():
    a = gen_random_system(2, 3, 65521, 123)
    b = gen_random_system(2, 3, 65521, 123)
    c = gen_random_system(2, 3, 65521, 124)
    assert [f.coeffs for f in a] == [f.coeffs for f in b]
    assert [f.coeffs for f in a] != [f.coeffs for f in c]


def test_gen_random_system_validation():
    with pytest.raises(ValueError):
        gen_random_system(0, 2, 65521, 0)
    with pytest.raises(ValueError):
        gen_random_system(2, 0, 65521, 0)
    with pytest.raises(ValueError):
        gen_random_system(2, 2, 65520, 0)
