import random

import pytest

from conftest import prefix_fit, rank_mod_p, reference_numerator

from sparsefglm.field import PrimeField
from sparsefglm.linrec import BMState, _numerator, berlekamp_massey, hankel_solve
from sparsefglm.unipoly import deg, trim, uni_xgcd

F2 = PrimeField(2)
F11 = PrimeField(11)


def extend(init, m, F, count):
    """Run the recurrence with characteristic polynomial m (monic, ascending)."""
    d = deg(m)
    s = [v % F.p for v in init]
    while len(s) < count:
        s.append(-F.dot(m[:d], s[-d:]) % F.p)
    return s


def test_bm_known_gf11_sequence():
    s = [8, 4, 0, 7, 6, 8, 10, 10]
    assert berlekamp_massey(s, F11)[0] == [9, 8, 0, 0, 1]


def test_bm_known_gf2_sequence():
    # a degree-5 recurrence: (x+1)^3 (x^2+x+1)
    s = [1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1]
    assert berlekamp_massey(s, F2)[0] == [1, 0, 1, 1, 0, 1]


def test_bm_fibonacci():
    s = extend([0, 1], [10, 10, 1], F11, 12)  # x^2 - x - 1
    assert berlekamp_massey(s, F11)[0] == [10, 10, 1]


def test_bm_degenerate_inputs():
    # f = 1, and N_s^-1 mod 1 is the zero polynomial
    assert berlekamp_massey([0, 0, 0, 0], F11) == ([1], [])
    assert berlekamp_massey([], F11) == ([1], [])
    # constant sequence: annihilated by x - 1
    assert berlekamp_massey([3, 3, 3, 3], F11)[0] == [10, 1]
    # geometric sequence: x - 2
    assert berlekamp_massey([1, 2, 4, 8], F11)[0] == [9, 1]


def test_bm_reproduces_its_sequence():
    rng = random.Random(5)
    for _ in range(20):
        d = rng.randrange(1, 8)
        m = [rng.randrange(11) for _ in range(d)] + [1]
        s = extend([rng.randrange(11) for _ in range(d)], m, F11, 2 * d)
        c = berlekamp_massey(s, F11)[0]
        # recovered generator annihilates the sequence at every shift
        dc = deg(c)
        for r in range(len(s) - dc):
            assert F11.dot(c, s[r : r + dc + 1]) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521, 2**61 - 1, 618970019642690137449562111])
def test_numerator_matches_schoolbook_oracle(p):
    """N_s read off one product agrees with the schoolbook sum on random f
    of degree 0 to 1024, against s of exactly deg f terms and of more, zero
    ones included; ones of p - 1 fill the packed fields to their bound."""
    F = PrimeField(p)
    rng = random.Random(p)
    for d in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 1024):
        f = [rng.randrange(p) for _ in range(d)] + [1]
        extra = rng.randrange(3)
        for s in (
            [rng.randrange(p) for _ in range(d + extra)],
            [0] * (d + extra),
            [p - 1] * d,
        ):
            assert _numerator(f, s, F) == reference_numerator(f, s, p), (p, d)
        top = [p - 1] * (d + 1)
        assert _numerator(top, top[:d], F) == reference_numerator(top, top[:d], p)


def test_bm_inverse_matches_extended_euclid():
    """Seeded sweep over p, sequences of length 2L to 2L + 60 for their
    linear complexity L, arbitrary ones, ones with leading zeros, all-zero
    and empty ones: the N_s^-1 that berlekamp_massey reads off its final
    state is the cofactor that extended Euclid gives for N_s modulo f.  When
    deg f = 0 (s is all zero or empty), f = 1 and N_s^-1 mod 1 is the zero
    polynomial [], which is also what the oracle returns."""
    rng = random.Random(2718)
    for p in (2, 3, 5, 7, 11, 101, 65521):
        F = PrimeField(p)
        cases = [[], [0], [0] * 9]
        for _ in range(40):
            L = rng.randrange(0, 13)
            m = [rng.randrange(p) for _ in range(L)] + [1]
            s = extend([rng.randrange(p) for _ in range(L)], m, F, 2 * L + rng.randrange(61))
            cases.append(s)
            cases.append([0] * rng.randrange(1, 6) + s)
            cases.append([rng.randrange(p) for _ in range(rng.randrange(61))])
        for s in cases:
            f, ns_inv = berlekamp_massey(s, F)
            g, want = uni_xgcd(_numerator(f, s, F), f, F)
            assert ns_inv == want, (p, s)
            if deg(f) == 0:
                assert (f, ns_inv) == ([1], [])
            else:
                assert g == [1] and deg(ns_inv) < deg(f), (p, s)


def reference_berlekamp_massey(s, F):
    """Oracle: the textbook Berlekamp-Massey in connection form, one % p per
    inner step, run afresh on the whole of s; returns (f, N_s^-1 mod f)
    with N_s^-1 = rev_{L_B}(B) / b read off its final state."""
    p = F.p
    s = [v % p for v in s]
    C = [1]
    B = [1]
    L = 0
    LB = 0
    m = 1
    b = 1
    for i, si in enumerate(s):
        delta = si
        for k in range(1, L + 1):
            delta = (delta + C[k] * s[i - k]) % p
        if delta == 0:
            m += 1
        elif 2 * L <= i:
            T = C[:]
            coef = delta * F.inv(b) % p
            C = C + [0] * (len(B) + m - len(C))
            for k, Bk in enumerate(B):
                C[k + m] = (C[k + m] - coef * Bk) % p
            L, LB = i + 1 - L, L
            B = T
            b = delta
            m = 1
        else:
            coef = delta * F.inv(b) % p
            C = C + [0] * max(0, len(B) + m - len(C))
            for k, Bk in enumerate(B):
                C[k + m] = (C[k + m] - coef * Bk) % p
            m += 1
    f = (C[: L + 1] + [0] * (L + 1 - len(C)))[::-1]
    binv = F.inv(b)
    ns_inv = [c * binv % p for c in (B[: LB + 1] + [0] * (LB + 1 - len(B)))[::-1]]
    return f, trim(ns_inv[:L])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 65521])
def test_online_state_matches_fresh_bm_on_every_prefix(p):
    """After every push the online state reports exactly the (f, N_s^-1)
    that a fresh textbook run gives on the prefix seen so far, on random,
    linearly recurrent, all-zero, leading-zero and empty sequences; terms
    are pushed unreduced, as any integer, and berlekamp_massey on the whole
    sequence agrees with both."""
    F = PrimeField(p)
    rng = random.Random(p)
    cases = [[], [0] * 9]
    for _ in range(12):
        L = rng.randrange(0, 13)
        m = [rng.randrange(p) for _ in range(L)] + [1]
        rec = extend([rng.randrange(p) for _ in range(L)], m, F, 2 * L + rng.randrange(30))
        cases.append(rec)
        cases.append([0] * rng.randrange(1, 6) + rec)
        cases.append([rng.randrange(p) for _ in range(rng.randrange(50))])
    for s in cases:
        state = BMState(F)
        assert state.fit() == reference_berlekamp_massey([], F) == ([1], [])
        for i, v in enumerate(s):
            state.push(v + p * rng.randrange(-3, 4))
            assert state.fit() == reference_berlekamp_massey(s[: i + 1], F), (p, s[: i + 1])
        assert berlekamp_massey(s, F) == state.fit()


def gauss_jordan_hankel_solve(seq, rhs, F):
    """Oracle: solve H c = rhs, H[j][k] = seq[j+k], d = len(rhs), by dense
    Gauss-Jordan elimination, O(d^3)."""
    p = F.p
    d = len(rhs)
    M = [seq[j : j + d] + [rhs[j] % p] for j in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if M[r][col] % p), None)
        if piv is None:
            raise ValueError("singular Hankel system")
        M[col], M[piv] = M[piv], M[col]
        inv = F.inv(M[col][col])
        M[col] = [a * inv % p for a in M[col]]
        for r in range(d):
            if r != col and M[r][col] % p:
                c = M[r][col] % p
                M[r] = [(a - c * b) % p for a, b in zip(M[r], M[col])]
    return [M[r][d] for r in range(d)]


def _solve_or_singular(solve, *args):
    try:
        return solve(*args)
    except ValueError:
        return "singular"


def _hankel_inputs(rng, kind, F, d, length):
    """A seq of the given length and kind, and a right-hand side of length d."""
    p = F.p
    if kind == "random":
        seq = [rng.randrange(p) for _ in range(length)]
    elif kind == "mostly-zero":
        seq = [rng.randrange(1, p) if rng.random() < 0.2 else 0 for _ in range(length)]
    else:  # low linear complexity: a recurrence of degree at most d
        r = rng.randrange(0, d + 1)
        m = [rng.randrange(p) for _ in range(r)] + [1]
        seq = extend([rng.randrange(p) for _ in range(r)], m, F, length)
    rhs = [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(d)]
    return seq, rhs


def test_hankel_solve_matches_gauss_jordan_oracle():
    """Seeded sweep over p, d <= 8, three kinds of sequence and both input
    lengths 2d - 1 and 2d: the structured solve and the oracle agree, or both
    call the system singular."""
    rng = random.Random(4242)
    solved = singular = 0
    for p in (2, 3, 5, 7, 101, 65521):
        F = PrimeField(p)
        for d in range(1, 9):
            for kind in ("random", "mostly-zero", "low-complexity"):
                for length in (2 * d - 1, 2 * d):
                    for _ in range(6):
                        seq, rhs = _hankel_inputs(rng, kind, F, d, length)
                        want = _solve_or_singular(gauss_jordan_hankel_solve, seq, rhs, F)
                        fit = prefix_fit(seq, d, F)
                        got = _solve_or_singular(hankel_solve, fit, rhs, F)
                        assert got == want, (p, d, kind, seq, rhs)
                        if want == "singular":
                            singular += 1
                        else:
                            solved += 1
    # both outcomes are well represented, so neither branch goes untested
    assert solved > 500 and singular > 500, (solved, singular)


def test_hankel_solve_known_gf11():
    s = [8, 4, 0, 7, 6, 8, 10, 10]
    b = [8, 6, 8, 3]
    assert hankel_solve(prefix_fit(s, 4, F11), b, F11) == [1, 0, 5, 0]


def test_hankel_solve_known_gf2():
    s = [1, 0, 0, 0, 1, 1, 1]
    b = [0, 0, 0, 1]
    assert hankel_solve(prefix_fit(s, 4, F2), b, F2) == [0, 1, 0, 0]


def test_hankel_solve_verifies():
    s = [8, 4, 0, 7, 6, 8, 10, 10]
    rhs = [1, 2, 3, 4]
    c = hankel_solve(prefix_fit(s, 4, F11), rhs, F11)
    for j in range(4):
        assert F11.dot(s[j : j + 4], c) == rhs[j]


def test_hankel_solve_singular_raises():
    with pytest.raises(ValueError):
        hankel_solve(prefix_fit([0, 0, 0], 2, F11), [1, 0], F11)


def test_rank_helper():
    assert rank_mod_p([[1, 2], [2, 4]], F11) == 1
    assert rank_mod_p([[1, 0], [0, 1]], F11) == 2
    assert rank_mod_p([[0, 0], [0, 0]], F11) == 0
