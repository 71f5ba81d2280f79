import itertools
import json
import os
import random
import subprocess
import sys
from operator import sub
from pathlib import Path

import pytest

from sparsefglm import terms
from sparsefglm.poly import MultiPoly
from sparsefglm.sysio import poly_str
from sparsefglm.terms import (
    MAX_EXP,
    TABLE_CAP,
    TermCodec,
    term_codec,
    term_str,
    unit_term,
    var_term,
)

from conftest import divides, drl_key, lex_key, term_key, term_mul


def test_drl_order_two_variables():
    # 1 < x1 < x2 < x1^2 < x1*x2 < x2^2 < x1^3 < ...
    want = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0)]
    assert sorted(want, key=drl_key) == want
    shuffled = list(reversed(want))
    assert sorted(shuffled, key=drl_key) == want
    assert sorted(shuffled, key=term_codec(2, "drl").pack) == want


def test_lex_order_two_variables():
    # every power of x1 sits below x2
    want = [(0, 0), (1, 0), (2, 0), (9, 0), (0, 1), (1, 1), (0, 2)]
    assert sorted(want, key=lex_key) == want
    assert lex_key((5, 0)) < lex_key((0, 1))
    C = term_codec(2, "lex")
    assert sorted(reversed(want), key=C.pack) == want
    assert C.pack((5, 0)) < C.pack((0, 1))


def test_orders_differ_on_mixed_degrees():
    # x1^3 vs x2: DRL ranks by degree, LEX by the last variable
    assert drl_key((3, 0)) > drl_key((0, 1))
    assert lex_key((3, 0)) < lex_key((0, 1))
    drl, lex = term_codec(2, "drl"), term_codec(2, "lex")
    assert drl.pack((3, 0)) > drl.pack((0, 1))
    assert lex.pack((3, 0)) < lex.pack((0, 1))


def test_drl_three_variables_matches_staircase_enumeration():
    terms = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    s = sorted(terms, key=drl_key)
    assert s[0] == (0, 0, 0)
    assert s[1:4] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    degs = [sum(t) for t in s]
    assert degs == sorted(degs)
    assert sorted(terms, key=term_codec(3, "drl").pack) == s


def test_term_key_dispatch():
    assert term_key("drl") is drl_key
    assert term_key("lex") is lex_key
    with pytest.raises(ValueError):
        term_key("grevlex")
    with pytest.raises(ValueError, match="unknown term ordering 'grevlex'"):
        term_codec(2, "grevlex")


def test_mul_div_divides():
    a, b = (2, 1, 0), (1, 3, 2)
    assert term_mul(a, b) == (3, 4, 2)
    assert divides(a, term_mul(a, b))
    assert not divides(b, a)
    assert divides(unit_term(3), b)


def test_unit_and_var_terms():
    assert unit_term(3) == (0, 0, 0)
    assert var_term(3, 1) == (1, 0, 0)
    assert var_term(3, 3) == (0, 0, 1)
    assert sum(unit_term(4)) == 0


def test_term_str():
    assert term_str((0, 0)) == "1"
    assert term_str((1, 0)) == "x1"
    assert term_str((2, 3)) == "x1^2*x2^3"
    assert term_str((0, 1, 4)) == "x2*x3^4"


@pytest.mark.parametrize("ordering", ["drl", "lex"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_terms_order_multiply_and_divide_as_tuples(n, ordering):
    C = term_codec(n, ordering)
    assert term_codec(n, ordering) is C
    key = term_key(ordering)
    rng = random.Random(n)
    terms = [tuple(rng.randrange(5) for _ in range(n)) for _ in range(40)]
    for a in terms:
        assert C.unpack(C.pack(a)) == a
    # pack_all packs through the table once it holds every term, else one by one
    fresh = TermCodec(n, ordering)
    assert fresh.pack_all(terms) == fresh.pack_all(terms) == list(map(C.pack, terms))
    for a, b in itertools.product(terms, repeat=2):
        pa, pb = C.pack(a), C.pack(b)
        assert (pa < pb) == (key(a) < key(b))
        assert C.check(pa + pb - C.offset) == C.pack(term_mul(a, b))
        assert ((pb - pa + C.lift) & C.guard == C.mark) == divides(a, b)
        if divides(a, b):
            assert pb - pa + C.offset == C.pack(tuple(map(sub, b, a)))


@pytest.mark.parametrize("ordering", ["drl", "lex"])
def test_packed_exponent_overflow_raises(ordering):
    C = term_codec(3, ordering)
    top = C.pack((MAX_EXP, 0, 0))
    x1, x3 = C.pack((1, 0, 0)), C.pack((0, 0, 1))
    for bad in [(MAX_EXP + 1, 0, 0), (0, -1, 0), (1, 1)]:
        with pytest.raises(ValueError):
            C.pack(bad)
    with pytest.raises(ValueError):
        C.check(top + x1 - C.offset)
    if ordering == "drl":  # the total degree is what must fit
        with pytest.raises(ValueError):
            C.pack((MAX_EXP, 0, 1))
        with pytest.raises(ValueError):
            C.check(top + x3 - C.offset)
    else:
        assert C.unpack(C.check(top + x3)) == (MAX_EXP, 0, 1)
    with pytest.raises(ValueError):
        term_codec(3, "grevlex")


def test_printing_distinct_terms_leaves_the_tables_at_their_cap():
    """10^5 distinct powers of x1, the last ones past MAX_EXP (sorted by
    the printer's own DRL key, since they do not pack): the text table and
    the codec's packing table stop at TABLE_CAP, and the texts stay right."""
    for k in range(10**5):
        assert poly_str(MultiPoly(1, {(k,): 3})) == ("3" if k == 0 else f"3*x1^{k}" if k > 1 else "3*x1")
    assert len(terms._TEXTS) == TABLE_CAP
    assert len(term_codec(1, "drl")._packed) == TABLE_CAP
    assert poly_str(MultiPoly(2, {(0, 0): 2, (MAX_EXP, 1): 1, (1, 0): 5})) == f"x1^{MAX_EXP}*x2 + 5*x1 + 2"


# import the package, then report the tables' sizes, run `convert` once
# and report them again, on stderr
LAZY_TABLES = """
import json, sys
from sparsefglm import sysio, terms
from sparsefglm.cli import main

empty = [terms.term_codec.cache_info().currsize, len(sysio._MONOMIALS), len(terms._TEXTS)]
status = main(["convert"])
codec = terms.term_codec(2, "drl")
used = [len(sysio._MONOMIALS), len(terms._TEXTS), len(codec._packed), len(codec._unpacked)]
print(json.dumps([empty, status, used]), file=sys.stderr)
"""


def test_term_tables_fill_on_first_use():
    """Importing the package fills no term table; one `convert` fills each
    table it uses, within TABLE_CAP, and gives the expected basis."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_TABLES],
        input="p 7\nvars 2\n3 * x1 ^ 2 * 2 + x2*x1 + 1\nx2 ^ 2*5 + x1 + 6\n",
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    empty, status, used = json.loads(proc.stderr.splitlines()[-1])
    assert empty == [0, 0, 0] and status == 0
    assert all(0 < size <= TABLE_CAP for size in used), used
    assert "x1^4 + 3*x1^3 + 2*x1^2 + 1" in proc.stdout
