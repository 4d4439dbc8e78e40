"""Integer Laurent polynomial arithmetic."""

import random
from fractions import Fraction

import pytest

from dessinlink.poly import (
    DELTA,
    LaurentPoly,
    PolyError,
    delta_spread,
)
from dessinlink.errors import InternalError


def eval_at(p: LaurentPoly, x: Fraction) -> Fraction:
    return sum((Fraction(c) * x**e for e, c in p.terms()), Fraction(0))


def random_poly(rng: random.Random, span: int = 6) -> LaurentPoly:
    n = rng.randint(0, 4)
    return LaurentPoly(
        {rng.randint(-span, span): rng.randint(-5, 5) for _ in range(n)}
    )


# ==========================================================================
# construction and basic queries
# ==========================================================================


def test_zero_drops_coefficients():
    p = LaurentPoly({3: 0, 1: 2})
    assert p.terms() == ((1, 2),)
    assert not LaurentPoly()
    assert len(LaurentPoly({2: 1, 0: 1})) == 2


def test_terms_descending():
    p = LaurentPoly({-3: 1, 5: -1, 0: 2})
    assert p.terms() == ((5, -1), (0, 2), (-3, 1))


def test_monomial_and_one():
    assert LaurentPoly({7: -3}).terms() == ((7, -3),)
    assert LaurentPoly.one() == LaurentPoly({0: 1})
    assert LaurentPoly({4: 0}) == LaurentPoly()


def test_exponent_parity():
    assert LaurentPoly({4: 1, -2: 1}).exponent_parity() == 0
    assert LaurentPoly({3: 1, -5: 1}).exponent_parity() == 1
    with pytest.raises(PolyError):
        LaurentPoly({2: 1, 1: 1}).exponent_parity()


def test_delta_is_loop_value():
    assert DELTA == LaurentPoly({2: -1, -2: -1})
    assert DELTA.coefficient(2) == -1
    assert DELTA.coefficient(0) == 0


def test_delta_spread_matches_term_by_term():
    # levels l of A^(e + 2v - 2 - 4l) against the sum of
    # cnt * A^(e - 2 e(H)) * DELTA^(f(H) - 1), term by term
    rng = random.Random(17)
    for _ in range(20):
        v, e = rng.randint(1, 4), rng.randint(0, 8)
        profile = {}
        for _ in range(rng.randint(0, 6)):
            eh = rng.randint(0, e)
            f = rng.randrange(1 + (v + eh + 1) % 2, v + eh + 1, 2)
            profile[eh, f] = rng.randint(-3, 3)
        want = LaurentPoly()
        for (eh, f), cnt in profile.items():
            want = want + (DELTA ** (f - 1)).shift(e - 2 * eh) * cnt
        levels = delta_spread(profile, v, e + v - 1)
        got = LaurentPoly({e + 2 * v - 2 - 4 * l: c for l, c in enumerate(levels)})
        assert got == want
        for bound in range(len(levels)):
            assert delta_spread(profile, v, bound) == levels[: bound + 1]


@pytest.mark.parametrize("key", [(1, 1), (0, 3)], ids=["odd", "negative"])
def test_delta_spread_rejects_a_bad_start_level(key):
    with pytest.raises(InternalError, match="^internal error: no start level"):
        delta_spread({key: 1}, 1, 4)


# ==========================================================================
# ring operations
# ==========================================================================


def test_add_sub_cancellation():
    p = LaurentPoly({2: 1, 0: 3})
    q = LaurentPoly({2: -1, -1: 4})
    assert (p + q).terms() == ((0, 3), (-1, 4))
    assert p - p == LaurentPoly()


def test_mul_frozen():
    p = LaurentPoly({1: 1, -1: 1})
    assert p * p == LaurentPoly({2: 1, 0: 2, -2: 1})
    assert p * 0 == LaurentPoly()
    assert p * -2 == LaurentPoly({1: -2, -1: -2})


def test_pow():
    assert DELTA**0 == LaurentPoly.one()
    assert DELTA**3 == DELTA * DELTA * DELTA
    with pytest.raises(PolyError):
        _ = DELTA**-1


def test_shift_inverse_and_reciprocal():
    p = LaurentPoly({2: 1, -1: 5})
    assert p.shift(3) == LaurentPoly({5: 1, 2: 5})
    assert p.reciprocal_variable() == LaurentPoly({-2: 1, 1: 5})


def test_divide_exact_and_remainder_error():
    quotient = (DELTA**2 + LaurentPoly.one()).divide_exact(LaurentPoly.one())
    assert quotient == DELTA**2 + LaurentPoly.one()
    with pytest.raises(PolyError):
        LaurentPoly({1: 1, 0: 1}).divide_exact(LaurentPoly({1: 1, 0: -1}))
    with pytest.raises(PolyError):
        LaurentPoly.one().divide_exact(LaurentPoly())


def test_ring_properties_random():
    rng = random.Random(1207)
    x = Fraction(3, 2)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        assert eval_at(p + q, x) == eval_at(p, x) + eval_at(q, x)
        assert eval_at(p * q, x) == eval_at(p, x) * eval_at(q, x)
        assert eval_at(-p, x) == -eval_at(p, x)
        if q:
            assert (p * q).divide_exact(q) == p


# ==========================================================================
# text form
# ==========================================================================


def test_to_string_frozen():
    assert LaurentPoly({-7: 1, -3: -1, 5: -1}).to_string() == "-A^5 - A^-3 + A^-7"
    assert LaurentPoly().to_string() == "0"
    assert LaurentPoly({0: -2}).to_string() == "-2"
    assert LaurentPoly({1: 1, 0: 1}).to_string("x") == "x + 1"
    assert LaurentPoly({3: -6, 5: -1}).to_string("x") == "-x^5 - 6*x^3"


def test_parse_round_trip():
    rng = random.Random(88)
    for _ in range(100):
        p = random_poly(rng)
        assert LaurentPoly.parse(p.to_string()) == p
    assert LaurentPoly.parse("0") == LaurentPoly()
    assert LaurentPoly.parse("-x^5 - 6*x^3", var="x") == LaurentPoly({5: -1, 3: -6})


def test_parse_rejects_garbage():
    with pytest.raises(PolyError):
        LaurentPoly.parse("A^^2")
    with pytest.raises(PolyError):
        LaurentPoly.parse("B^2")
