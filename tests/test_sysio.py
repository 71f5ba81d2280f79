import random
import time

import pytest

from sparsefglm.field import PrimeField
from sparsefglm.poly import MultiPoly
from sparsefglm.sysio import _MONOMIALS, ParseError, _parse_poly, parse_system, poly_str, write_system
from sparsefglm.terms import TABLE_CAP

from conftest import GF11_TEXT, _parse_poly as reference_parse_poly


def test_parse_known_system():
    F, polys = parse_system(GF11_TEXT)
    assert F.p == 11
    assert len(polys) == 3
    assert all(f.n == 3 for f in polys)
    assert polys[0].coeffs == {
        (0, 2, 0): 1,
        (0, 1, 0): 9,
        (1, 0, 0): 2,
        (0, 0, 0): 6,
    }
    assert polys[2].coeffs == {(0, 0, 1): 1, (0, 0, 0): 9}


def test_round_trip_is_identity():
    F, polys = parse_system(GF11_TEXT)
    assert write_system(F, polys) == GF11_TEXT
    F2, polys2 = parse_system(write_system(F, polys))
    assert [f.coeffs for f in polys2] == [f.coeffs for f in polys]


def test_comments_and_whitespace():
    text = "# leading comment\np 11\n\nvars 2   # trailing\n  x1 + 1  # poly\n#\nx2\n"
    F, polys = parse_system(text)
    assert len(polys) == 2
    assert polys[0].coeffs == {(1, 0): 1, (0, 0): 1}
    assert polys[1].coeffs == {(0, 1): 1}


def test_signs_and_products():
    F, polys = parse_system("p 11\nvars 2\n-x1 + 1\n3*x1*x2^2 - 4\nx1*x1\n")
    assert polys[0].coeffs == {(1, 0): 10, (0, 0): 1}
    assert polys[1].coeffs == {(1, 2): 3, (0, 0): 7}
    assert polys[2].coeffs == {(2, 0): 1}


def test_terms_collect_and_cancel():
    F, polys = parse_system("p 11\nvars 1\nx1 + x1\n5 - x1 + x1\n")
    assert polys[0].coeffs == {(1,): 2}
    assert polys[1].coeffs == {(0,): 5}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_system("vars 2\n")
    assert e.value.line == 1

    with pytest.raises(ParseError):
        parse_system("p 11\nx1\n")

    with pytest.raises(ParseError) as e:
        parse_system("p 11\nvars 2\n11*x1\n")
    assert e.value.line == 3
    assert "not reduced" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse_system("p 11\nvars 2\nx3 + 1\n")
    assert "out of range" in str(e.value)

    # (line, column, message): the first character no completion allows
    for bad, col, msg in (
        ("--x1", 2, "unexpected '-'"),
        ("x1 + + x2", 6, "unexpected '+'"),
        ("x1^", 4, "unexpected end of line"),
        ("3*", 3, "unexpected end of line"),
        ("x1 x2", 4, "unexpected 'x'"),
        ("* x1", 1, "unexpected '*'"),
        ("x1 +", 5, "unexpected end of line"),
        ("x1 ? 2", 4, "unexpected '?'"),
        ("+x1", 1, "unexpected '+'"),
        ("x1^2^3", 5, "unexpected '^'"),
        ("x 1", 2, "unexpected ' '"),
        # a bad factor before the grammar's stop is the first offence
        ("12*x1 + x1 ? 2", 1, "coefficient 12 not reduced mod 11"),
        ("x5 + x1 x2", 1, "variable x5 out of range (vars = 2)"),
        ("x5 +", 1, "variable x5 out of range (vars = 2)"),
        ("x1 ? 12", 4, "unexpected '?'"),
    ):
        with pytest.raises(ParseError) as e:
            parse_system(f"p 11\nvars 2\n{bad}\n")
        assert (e.value.line, e.value.col) == (3, col), bad
        assert str(e.value).endswith(msg), bad


def test_error_columns_count_from_the_raw_line():
    for text, line, col, msg in (
        ("p 11\nvars 2\n    x1 ? 2\n", 3, 8, "unexpected '?'"),
        ("  p 4\nvars 1\nx1\n", 1, 5, "not prime"),
        ("p 11\n  vars 0\nx1\n", 2, 8, "need at least one variable"),
        ("  q 3\n", 1, 3, "expected header 'p <modulus>'"),
        ("p 11\nvars 2\n\t 11*x1\n", 3, 3, "coefficient 11 not reduced mod 11"),
        ("p 11\nvars 2\n  x1 + x3  # x3\n", 3, 8, "variable x3 out of range (vars = 2)"),
        ("p 11\nvars 2\n  x1 +  # open\n", 3, 7, "unexpected end of line"),
    ):
        with pytest.raises(ParseError) as e:
            parse_system(text)
        assert (e.value.line, e.value.col) == (line, col), text
        assert msg in str(e.value), text


def test_digits_are_ascii():
    """A digit is 0-9: another Unicode decimal digit, here Arabic-Indic
    two, three and seven (U+0662, U+0663, U+0667) or a fullwidth one
    (U+FF11), is the first character no completion allows."""
    for text, msg in (
        ("p 7\nvars 2\nx1^2 + \u0663\nx2 + 1\n", "line 3, column 8: unexpected '\u0663'"),
        ("p 7\nvars 2\n\u0663*x1^2\nx2 + 1\n", "line 3, column 1: unexpected '\u0663'"),
        ("p 7\nvars 2\nx1^\u0662\nx2 + 1\n", "line 3, column 4: unexpected '\u0662'"),
        ("p 7\nvars 2\nx\u0662 + 1\nx1 + 1\n", "line 3, column 2: unexpected '\u0662'"),
        ("p 7\nvars 2\nx1^2\nx2 + \uff11\n", "line 4, column 6: unexpected '\uff11'"),
        ("p \u0667\nvars 2\nx1^2\nx2 + 1\n", "line 1, column 1: expected header 'p <modulus>'"),
        ("p 7\nvars \u0662\nx1^2\nx2 + 1\n", "line 2, column 1: expected header 'vars <count>'"),
    ):
        with pytest.raises(ParseError) as e:
            parse_system(text)
        assert str(e.value) == msg, text


def test_blanks_are_spaces_and_tabs():
    """A blank is a space or a tab, and a line ends at LF or CRLF: a no-break
    or ideographic space (U+00A0, U+3000), a line separator (U+2028), a
    vertical tab, a form feed or a file separator (U+001C) is the first
    character no completion allows, and line numbers count LFs only."""
    for text, msg in (
        ("p 7\nvars 2\nx1^2\xa0+ 3\nx2 + 1\n", "line 3, column 5: unexpected '\\xa0'"),
        ("p 7\nvars 2\nx1^2 + 3\nx2\u3000+ 1\n", "line 4, column 3: unexpected '\\u3000'"),
        ("p 7\nvars 2\nx1^2 + 3\u2028x2 + 1\n", "line 3, column 9: unexpected '\\u2028'"),
        ("p 7\nvars 2\nx1^2 + 3\x0bx2 + 1\n", "line 3, column 9: unexpected '\\x0b'"),
        ("p 7\nvars 2\nx1^2 + 3\x0cx2 + 1\n", "line 3, column 9: unexpected '\\x0c'"),
        ("p 7\nvars 2\nx1^2 + 3\x1cx2 + 1\n", "line 3, column 9: unexpected '\\x1c'"),
        ("p 7\x0c\nvars 2\nx1^2\nx2 + 1\n", "line 1, column 1: expected header 'p <modulus>'"),
        ("p 7\nvars\xa02\nx1^2\nx2 + 1\n", "line 2, column 1: expected header 'vars <count>'"),
        ("p 7\nvars 2\n\u3000\nx1^2\nx2 + 1\n", "line 3, column 1: unexpected '\\u3000'"),
        ("p 7\n\u2028vars 2\nx1^2\nx2 + 1\n", "line 2, column 1: expected header 'vars <count>'"),
        ("p 7\nvars 2\nx1^2 + 3\u2028\nx2 + 1 + x1\x0c\n", "line 3, column 9: unexpected '\\u2028'"),
        ("p 7\nvars 2\nx1^2 + 3\nx2 + 1\r", "line 4, column 7: unexpected '\\r'"),
    ):
        with pytest.raises(ParseError) as e:
            parse_system(text)
        assert str(e.value) == msg, text
    lf = "p 7\nvars 2\n# comment \t\nx1^2 + 3\t\n\n\t x2 + 1  \n"
    assert parse_system(lf.replace("\n", "\r\n")) == parse_system(lf)
    assert [poly_str(f) for f in parse_system(lf)[1]] == ["x1^2 + 3", "x2 + 1"]


def test_long_malformed_lines_fail_fast():
    n = 10**5
    for bad in (
        "x1" + " " * n + "?",
        "x1 ^" + " " * n + "?",
        "1" * n + "?",
        "x1*" * (n // 3) + "?",
        "x1 + " * (n // 5) + "+",
        "x1^2 *" + " \t" * (n // 2) + "^",
    ):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_system(f"p 11\nvars 2\n{bad}\n")
        assert time.perf_counter() - start < 1.0


RUN = "9" * 5000  # past the 4,300 digits int() converts by default


OVERLONG_CASES = [
    (f"p 11\nvars 2\nx1 + {RUN}*x2\n", 3, 6),  # coefficient
    (f"p 11\nvars 2\nx2 + x1^{RUN}\n", 3, 9),  # exponent
    (f"p 11\nvars 2\n  x{RUN}\n", 3, 4),  # variable index
    (f"p {RUN}\nvars 2\nx1\n", 1, 3),  # header: modulus
    (f"p 11\n vars  {RUN}\nx1\n", 2, 8),  # header: variable count
]


@pytest.mark.parametrize("text,line,col", OVERLONG_CASES)
def test_overlong_digit_runs_name_their_column(text, line, col):
    with pytest.raises(ParseError) as e:
        parse_system(text)
    assert (e.value.line, e.value.col) == (line, col)
    assert str(e.value).endswith("number of 5000 digits is too long")


# the token alphabet of the differential test, one stray character included
_FACTOR_TOKENS = ("0", "00", "007", "3", "10", "11", "x0", "x1", "x3", "x01")
_OTHER_TOKENS = ("+", "-", "*", "^", " ", "\t", "?")


def _random_line(rng: random.Random) -> str:
    """Factor and operator tokens in turn, each slot drawn from the whole
    alphabet at times, with blanks sprinkled in."""
    out = []
    for k in range(rng.randint(1, 9)):
        if rng.random() < 0.15:
            out.append(rng.choice(_FACTOR_TOKENS + _OTHER_TOKENS))
        else:
            out.append(rng.choice(_OTHER_TOKENS[:4] if k % 2 else _FACTOR_TOKENS))
        if rng.random() < 0.3:
            out.append(rng.choice(" \t"))
    return "".join(out)


def _outcome(parse, text, F):
    try:
        return parse(text, 1, 2, F).coeffs
    except ParseError:
        return None


def test_parser_agrees_with_reference_parser():
    F = PrimeField(11)
    rng = random.Random(15)
    accepted = rejected = 0
    while accepted + rejected < 20_000:
        line = _random_line(rng)
        if not line.strip():
            continue
        # the reference takes the line stripped, as its caller did
        got, want = _outcome(_parse_poly, line, F), _outcome(reference_parse_poly, line.strip(), F)
        assert got == want, line
        accepted += got is not None
        rejected += got is None
    assert accepted > 2_000 and rejected > 2_000


# lines that the ParseError cases above reuse, valid in 3 or more variables
# at p = 13: parsed first, they fill the term tables with their monomials
WARM_LINES = "x3 + 1\n11*x1\n  x1 + x3  \n\t 11*x1\n    x1 + 2\nx2 + x1^2\nx1 + 12*x2\n"


def test_warm_term_tables_keep_every_parse_error():
    """Every ParseError case above again, with the message and column it had,
    after valid systems in more variables (x3 accepted at n = 3) and at a
    larger p (11*x1 accepted at p = 13) filled the monomial table."""
    _MONOMIALS.clear()  # a full table stores no more
    for n in (2, 3, 4):
        lines = WARM_LINES if n > 2 else "x1 + 2\nx2 + x1^2\n11*x1\n"
        F, polys = parse_system(f"p 13\nvars {n}\n{lines}")
        assert polys[0].n == n
    test_parse_errors_carry_position()
    test_error_columns_count_from_the_raw_line()
    for args in OVERLONG_CASES:
        test_overlong_digit_runs_name_their_column(*args)
    test_parser_agrees_with_reference_parser()


def _valid_term(rng: random.Random, n: int, p: int) -> str:
    """Factors joined by '*' in any order: variables, some repeated, some
    with an exponent, and coefficient factors, with blanks around '*' and '^'."""
    def blank():
        return rng.choice(("", "", " ", "  ", "\t"))

    factors = [
        f"x{rng.randint(1, n)}" + (f"{blank()}^{blank()}{rng.randrange(4)}" if rng.random() < 0.5 else "")
        for _ in range(rng.randint(0, 4))
    ]
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        factors.insert(rng.randint(0, len(factors)), str(rng.randrange(p)))
    return f"{blank()}*{blank()}".join(factors or [str(rng.randrange(p))])


@pytest.mark.parametrize("n,p", [(1, 2), (2, 11), (3, 65521), (4, 7)])
def test_table_lookups_agree_with_reference_parser(n, p):
    """Random valid lines, each parsed twice, the second time with all its
    monomials without a coefficient factor in the table: both give the
    reference parser's MultiPoly.  The lines repeat terms, with either
    sign, so that some cancel."""
    _MONOMIALS.clear()  # a full table stores no more
    F = PrimeField(p)
    rng = random.Random(n)
    for _ in range(1_500):
        terms = [_valid_term(rng, n, p) for _ in range(rng.randint(1, 5))]
        terms += rng.sample(terms, rng.randint(0, len(terms)))
        line = rng.choice(("", "-", " - ")) + terms[0]
        for t in terms[1:]:
            line += rng.choice(("+", "-", " + ", " - ", "  +\t")) + t
        want = reference_parse_poly(line.strip(), 1, n, F)
        assert _parse_poly(line, 1, n, F) == want, line
        assert _parse_poly(line, 1, n, F) == want, line
    assert 0 < sum(k == n for k, _ in _MONOMIALS) and len(_MONOMIALS) <= TABLE_CAP


def test_parse_rejects_composite_modulus():
    with pytest.raises(ParseError):
        parse_system("p 4\nvars 1\nx1\n")
    # a strong pseudoprime to every Miller-Rabin base 2..37
    with pytest.raises(ParseError) as e:
        parse_system("p 3317044064679887385961981\nvars 1\nx1^2 + 1\n")
    assert (e.value.line, e.value.col) == (1, 3)
    assert str(e.value).endswith("modulus 3317044064679887385961981 is not prime")


def test_parse_rejects_empty_inputs():
    with pytest.raises(ParseError):
        parse_system("")
    with pytest.raises(ParseError):
        parse_system("p 11\nvars 2\n")
    with pytest.raises(ParseError):
        parse_system("p 11\nvars 0\nx1\n")


def test_poly_str():
    assert poly_str(MultiPoly(2)) == "0"
    f = MultiPoly(2, {(0, 0): 9, (2, 0): 1, (0, 1): 6})
    assert poly_str(f) == "x1^2 + 6*x2 + 9"
    assert poly_str(MultiPoly(2, {(1, 1): 1})) == "x1*x2"


def test_write_system_rejects_empty():
    with pytest.raises(ValueError):
        write_system(PrimeField(11), [])
