"""Property tests over seeded random diagrams with at most 12 crossings.

Hypothesis draws the seed; `helpers.random_decorated_diagram` turns it into
a connected diagram: a braid closure, one with Reidemeister-I curls, two
joined through a nugatory crossing, or a link of 3 or more components.
The connected-sum law draws two knots of at most 5 crossings instead, and
the last tests draw projections of random space polygons of at most 14
crossings (`helpers.space_polygon_pd`), which are not braid closures.
Runs are derandomized so the suite stays reproducible, and example counts
are small so it stays fast.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from dessinlink.chord import interlacement_determinant, quasi_counts_and_det, to_chord_diagram
from dessinlink.dessin import build_dessin, dessin_counts, dual, quasi_tree_counts
from dessinlink.diagram import (
    PDCode,
    mirror,
    reduce_to_one_vertex,
    state_circle_count,
    state_sum_bracket,
    strand_components,
)
from dessinlink.invariants import (
    bracket_via_dessin,
    coefficient_table,
    determinant,
    jones_polynomial,
    top_coefficient_closed_form,
)
from dessinlink.poly import LaurentPoly

from helpers import (
    bfs_component_count,
    delta_power,
    genus_0_loop_sum,
    goeritz_determinant,
    nugatory_join,
    poly_product,
    random_decorated_diagram,
    random_diagram,
    scan_bracket,
    shuffled,
    space_polygon_pd,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
diagrams = seeds.map(
    lambda seed: random_decorated_diagram(random.Random(seed), max_crossings=10)
)


def random_knot(seed: int) -> PDCode:
    """A braid-closure knot of at most 5 crossings from `random_diagram`."""
    rng = random.Random(seed)
    while True:
        pd = random_diagram(rng, max_crossings=5)
        if len(strand_components(pd)) == 1:
            return pd


checked = settings(max_examples=25, deadline=None, derandomize=True)


def abs_at_a4_minus_one(p: LaurentPoly) -> int:
    """|p| at a primitive 8th root of unity A, where A^4 = -1.

    Every bracket exponent has one residue mod 4, so the value is
    A^e0 times an integer."""
    terms = p.terms()
    e0 = terms[0][0]
    assert all((e - e0) % 4 == 0 for e, _ in terms)
    return abs(sum(c * (-1) ** ((e - e0) // 4) for e, c in terms))


@checked
@given(diagrams)
def test_dessin_bracket_equals_state_sum(pd: PDCode):
    assert bracket_via_dessin(pd) == state_sum_bracket(pd)


@checked
@given(diagrams)
def test_contraction_equals_the_scan_and_the_state_sum(pd: PDCode):
    assert bracket_via_dessin(pd) == scan_bracket(pd) == state_sum_bracket(pd)


@checked
@given(diagrams, seeds)
def test_contraction_ignores_crossing_order_and_arc_labels(pd: PDCode, seed: int):
    twin = shuffled(pd, random.Random(seed))
    assert bracket_via_dessin(twin) == bracket_via_dessin(pd)


@checked
@given(diagrams)
def test_mirror_inverts_the_variable(pd: PDCode):
    br = bracket_via_dessin(pd)
    assert bracket_via_dessin(mirror(pd)) == LaurentPoly({-e: c for e, c in br})


@checked
@given(diagrams)
def test_determinant_routes_agree(pd: PDCode):
    rep = determinant(pd)
    assert {"quasitree", "jones_eval", "charpoly"} <= set(rep.methods)
    assert set(rep.methods.values()) == {rep.value} == {goeritz_determinant(pd)}


@checked
@given(diagrams)
def test_interlacement_determinant_is_the_char_poly_determinant(pd: PDCode):
    cd = to_chord_diagram(build_dessin(reduce_to_one_vertex(pd), 0))
    assert interlacement_determinant(cd) == quasi_counts_and_det(cd)[1]


@checked
@given(diagrams)
def test_delta_bracket_digits_fit_the_contraction_width(pd: PDCode):
    # the contraction packs the digits of delta <P> n + 5 bits wide
    delta_bracket = poly_product(bracket_via_dessin(pd), delta_power(1))
    assert all(abs(c) < 2 ** (pd.n + 3) for _, c in delta_bracket)


@checked
@given(diagrams)
def test_quasi_tree_alternating_sum_is_the_bracket_at_a4_minus_one(pd: PDCode):
    s = quasi_tree_counts(build_dessin(pd, 0))
    alternating = abs(sum((-1) ** j * sj for j, sj in enumerate(s)))
    assert alternating == abs_at_a4_minus_one(bracket_via_dessin(pd))


@checked
@given(diagrams)
def test_two_alternating_sums_give_the_determinant(pd: PDCode):
    # |sum_l (-1)^l a[l]| = |sum_j (-1)^j s(j)| = det
    a = coefficient_table(pd).coeffs
    s = quasi_tree_counts(build_dessin(pd, 0))
    by_coefficients = abs(sum((-1) ** l * al for l, al in enumerate(a)))
    by_quasi_trees = abs(sum((-1) ** j * sj for j, sj in enumerate(s)))
    assert by_coefficients == by_quasi_trees == determinant(pd).value


@checked
@given(diagrams)
def test_bracket_at_one_counts_components(pd: PDCode):
    # delta = -2 at A = 1, so |<P>(1)| = 2^(c-1); for a knot V(1) = 1
    c = len(strand_components(pd))
    assert abs(sum(coeff for _, coeff in bracket_via_dessin(pd).terms())) == 2 ** (c - 1)
    if c == 1:
        assert sum(coeff for _, coeff in jones_polynomial(pd).poly.terms()) == 1


@checked
@given(diagrams)
def test_knot_determinant_is_jones_at_minus_one(pd: PDCode):
    assume(len(strand_components(pd)) == 1)
    jones = jones_polynomial(pd).poly
    assert determinant(pd).value == abs(sum(coeff * (-1) ** e for e, coeff in jones.terms()))


@checked
@given(diagrams)
def test_top_coefficient_closed_form_is_the_genus_0_loop_sum(pd: PDCode):
    d = build_dessin(pd, 0)
    closed = top_coefficient_closed_form(d)
    assert closed == genus_0_loop_sum(d) == coefficient_table(pd).coefficient(0)


@checked
@given(diagrams)
def test_profile_readers_agree_with_the_full_dessin(pd: PDCode):
    d = build_dessin(pd, 0)
    full = dessin_counts(d)
    assert len(quasi_tree_counts(d)) - 1 == full.g
    assert coefficient_table(pd).top_exponent == full.e + 2 * full.v - 2
    # the bracket is shared between calls: reading it must not change it
    br = bracket_via_dessin(pd)
    br.to_string(), list(br), hash(br)
    if len(strand_components(pd)) == 1:  # links need S[...] signs for a writhe
        jones_polynomial(pd)
    assert bracket_via_dessin(pd) == state_sum_bracket(pd)


@checked
@given(diagrams, st.data())
def test_dessin_faces_are_the_complementary_state_circles(pd: PDCode, data):
    # the rotations of any state's dessin, oriented by nesting parity,
    # trace the circles of the complementary state
    full = (1 << pd.n) - 1
    s = data.draw(st.integers(min_value=0, max_value=full), label="state")
    assert dessin_counts(build_dessin(pd, s)).f == state_circle_count(pd, s ^ full)


@checked
@given(diagrams, st.data())
def test_component_counts_match_a_bfs(pd: PDCode, data):
    # the subset kernel counts no components; `dessin_counts` gets them
    # from the spanning forest, checked here on the dessin and its dual
    d = build_dessin(pd, 0)
    for dd in (d, dual(d)):
        full = (1 << dd.n_edges) - 1
        masks = data.draw(st.lists(st.integers(min_value=0, max_value=full), max_size=16))
        for mask in [0, full, *masks]:
            assert dessin_counts(dd, mask).k == bfs_component_count(dd, mask)


@checked
@given(seeds.map(random_knot), seeds.map(random_knot))
def test_jones_is_multiplicative_under_connected_sum(p: PDCode, q: PDCode):
    # the nugatory join of two knot diagrams is a diagram of their connected sum
    joined = jones_polynomial(nugatory_join(p, q)).poly
    assert joined == poly_product(jones_polynomial(p).poly, jones_polynomial(q).poly)


polygons = seeds.map(lambda seed: space_polygon_pd(random.Random(seed)))


@checked
@given(polygons, seeds)
def test_space_polygon_brackets_are_state_sums(pd: PDCode, seed: int):
    # the same bracket from a twin with its crossings and labels shuffled
    br = bracket_via_dessin(pd)
    assert br == state_sum_bracket(pd)
    assert bracket_via_dessin(shuffled(pd, random.Random(seed))) == br


@checked
@given(polygons)
def test_space_polygon_determinant_is_the_goeritz_determinant(pd: PDCode):
    assert determinant(pd).value == goeritz_determinant(pd)
