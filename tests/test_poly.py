"""Integer Laurent polynomial values, and the delta spread against a
term-by-term expansion."""

import random

import pytest

from dessinlink import diagram
from dessinlink.poly import (
    LaurentPoly,
    PolyError,
    delta_spread,
)
from dessinlink.errors import InternalError

from helpers import delta_power, delta_terms, random_decorated_diagram


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


def test_non_integer_exponents_and_coefficients_are_refused():
    for terms in ({1.0: 1}, {1: 1.0}, {"1": 1}, [(0, 2), (1, 0.5)]):
        with pytest.raises(PolyError, match="exponents and coefficients must be integers"):
            LaurentPoly(terms)


def test_duplicate_exponents_add_and_cancel_to_nothing():
    assert LaurentPoly([(2, 3), (2, -3)]) == LaurentPoly()
    assert not LaurentPoly([(2, 3), (0, 1), (2, -3), (0, -1)]).terms()
    assert LaurentPoly([(2, 3), (2, -3), (2, 4)]).terms() == ((2, 4),)


def test_terms_descending():
    p = LaurentPoly({-3: 1, 5: -1, 0: 2})
    assert p.terms() == ((5, -1), (0, 2), (-3, 1))


def test_monomial_and_one():
    assert LaurentPoly({7: -3}).terms() == ((7, -3),)
    assert LaurentPoly({0: 1}).terms() == ((0, 1),)
    assert LaurentPoly({4: 0}) == LaurentPoly()


def test_shift_inverse_and_reciprocal():
    p = LaurentPoly({2: 1, -1: 5})
    assert LaurentPoly({-e: c for e, c in p}) == LaurentPoly({-2: 1, 1: 5})


def test_a_polynomial_is_a_value_not_a_ring():
    p = LaurentPoly({1: 1, -1: 1})
    for derive in (lambda: p + p, lambda: p - p, lambda: -p, lambda: p * p, lambda: 2 * p):
        with pytest.raises(TypeError):
            derive()


# ==========================================================================
# delta powers: the term-by-term oracle and the packed spread
# ==========================================================================


def test_delta_is_loop_value():
    # the expansion the spread is checked against, pinned on its own
    assert delta_power(1) == LaurentPoly({2: -1, -2: -1})
    assert delta_power(0) == LaurentPoly({0: 1})
    assert delta_power(2) == LaurentPoly({4: 1, 0: 2, -4: 1})
    assert delta_power(3, 1) == LaurentPoly({7: -1, 3: -3, -1: -3, -5: -1})
    for k in range(9):  # delta = -2 at A = 1
        assert sum(c for _, c in delta_power(k)) == (-2) ** k
        assert sum(c for _, c in delta_terms(k, 5, 3)) == 3 * (-2) ** k


def spread_inputs():
    """(profile, v, e) triples: small counts, then wide ones, signed ones,
    state-sum tallies and digit widths at their edge."""
    rng = random.Random(17)
    for _ in range(20):
        v, e = rng.randint(1, 4), rng.randint(0, 8)
        profile = {}
        for _ in range(rng.randint(0, 6)):
            eh = rng.randint(0, e)
            f = rng.randrange(1 + (v + eh + 1) % 2, v + eh + 1, 2)
            profile[eh, f] = rng.randint(-3, 3)
        yield profile, v, e
    # counts up to 2^70 of both signs and zero, f up to 40, and an empty
    # profile; the smaller bounds below leave entries past the bound
    rng = random.Random(19)
    yield {}, 2, 5
    for _ in range(8):
        v, e = rng.randint(1, 4), rng.randint(30, 36)
        profile = {(e, v + e): rng.choice((-1, 1)) << 70}
        for _ in range(rng.randint(1, 12)):
            eh = rng.randint(0, e)
            f = rng.randrange(1 + (v + eh + 1) % 2, min(v + eh, 40) + 1, 2)
            profile[eh, f] = rng.choice((0, rng.randint(-(1 << 70), 1 << 70)))
        yield profile, v, e
    # every count negative, and counts of both signs adding up to zero
    yield {(1, 2): -5, (3, 2): -1, (2, 3): -7, (4, 1): -2}, 1, 4
    yield {(0, 3): 4, (2, 1): -4, (1, 2): 3, (1, 4): -3}, 3, 2
    # the (#B, circles) tally of decorated diagrams: this seed draws curls
    # twice, a 3-component closure and a nugatory join
    rng = random.Random(22)
    for _ in range(4):
        pd = random_decorated_diagram(rng, max_crossings=8)
        tally = diagram._bracket_counts(pd.alpha, pd.n, 0, 1 << pd.n)
        yield tally, next(f for b, f in tally if b == 0), pd.n
    # sum |cnt| 2^(top-1) a power of two; at f = 1 one level holds all of
    # it, so a width one bit narrower reads that digit with the wrong sign
    yield {(0, 1): 1 << 40}, 1, 2
    yield {(1, 1): -(1 << 40), (3, 1): 0}, 2, 3
    yield {(0, 2): 1 << 20, (2, 2): -(1 << 20)}, 2, 2


def test_delta_spread_matches_term_by_term():
    # levels l of A^(e + 2v - 2 - 4l) against the sum of
    # cnt * A^(e - 2 e(H)) * delta^(f(H) - 1), term by term
    for profile, v, e in spread_inputs():
        want = LaurentPoly(
            term
            for (eh, f), cnt in profile.items()
            for term in delta_terms(f - 1, e - 2 * eh, cnt)
        )
        levels = delta_spread(profile, v, e + v - 1)
        got = LaurentPoly({e + 2 * v - 2 - 4 * l: c for l, c in enumerate(levels)})
        assert got == want
        for bound in range(len(levels)):
            assert delta_spread(profile, v, bound) == levels[: bound + 1]


@pytest.mark.parametrize(
    "key, v, bound",
    [((1, 1), 1, 4), ((0, 3), 1, 4), ((1, 0), 1, 3), ((-1, 1), 2, 3), ((12, 1), 2, 0)],
    ids=["odd", "negative", "no-face", "negative-edges", "odd-past-the-bound"],
)
def test_delta_spread_rejects_a_bad_start_level(key, v, bound):
    with pytest.raises(InternalError, match="^internal error: no start level"):
        delta_spread({key: 1}, v, bound)


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


def test_parse_reads_the_terms_in_any_order():
    rng = random.Random(89)
    for _ in range(100):
        p = random_poly(rng)
        terms = p.to_string().replace(" - ", " + -").split(" + ")
        rng.shuffle(terms)
        shuffled = " + ".join(terms).replace("+ -", "- ")
        assert LaurentPoly.parse(shuffled) == p, shuffled


def test_parse_rejects_garbage():
    with pytest.raises(PolyError):
        LaurentPoly.parse("A^^2")
    with pytest.raises(PolyError):
        LaurentPoly.parse("B^2")


@pytest.mark.parametrize("text", ["A A", "3 4", "2*", "", "  "])
def test_parse_rejects_what_to_string_never_writes(text):
    # "A A" read as 2A, "3 4" as 7, "2*" as 2 and "" as 0
    with pytest.raises(PolyError):
        LaurentPoly.parse(text)
