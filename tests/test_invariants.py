"""Bracket, Jones, determinants, and coefficient structure of the bundled
knots plus seeded random diagrams."""

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dessinlink
from dessinlink import chord, dessin, diagram, invariants
from dessinlink.chord import (
    ChordDiagram,
    bareiss_det,
    quasi_counts_and_det,
    to_chord_diagram,
    to_dessin,
)
from dessinlink.dessin import (
    WeightedDessin,
    build_dessin,
    contract_parallel,
    dessin_counts,
    dual,
    quasi_tree_counts,
)
from dessinlink.diagram import (
    DiagramError,
    PDCode,
    parse_pd,
    pretzel_pd,
    reduce_to_one_vertex,
    state_sum_bracket,
    strand_components,
    table_pd,
    twist_pd,
)
from dessinlink.errors import CapExceededError, InternalError, PreconditionError
from dessinlink.invariants import (
    DET_METHODS,
    a1_adequate,
    bracket_via_dessin,
    coefficient_restricted,
    coefficient_table,
    determinant,
    jones_at_minus_two,
    jones_polynomial,
    pretzel_determinant,
    spanning_tree_count,
    top_coefficient_closed_form,
    weighted_bracket,
)
from dessinlink.poly import LaurentPoly
from dessinlink.table import knot_table

from helpers import (
    braid_pd,
    ceiling_closures,
    corpus,
    delta_power,
    genus_0_loop_sum,
    goeritz_determinant,
    poly_product,
    profile_bracket,
    random_braid_word,
    shuffled,
)

KINK = parse_pd("X[1,1,2,2]")
HOPF_PLUS = parse_pd("X[1,3,2,4] X[3,1,4,2] S[+,+]")

BRACKETS = {
    "3_1": LaurentPoly({5: -1, -3: -1, -7: 1}),
    "4_1": LaurentPoly({5: -1, 1: 1, -3: -1, -7: 1, -11: -1}),
    "5_2": LaurentPoly({6: -1, 2: 1, -2: -1, -6: 2, -10: -1, -14: 1}),
    "6_2": LaurentPoly({17: -1, 13: 2, 9: -2, 5: 2, 1: -2, -3: 1, -7: -1}),
    "8_21": LaurentPoly({8: 2, 4: -2, 0: 3, -4: -3, -8: 2, -12: -2, -16: 1}),
}
JONES_T = {
    "3_1": LaurentPoly({4: -1, 3: 1, 1: 1}),
    "4_1": LaurentPoly({2: 1, 1: -1, 0: 1, -1: -1, -2: 1}),
    "5_2": LaurentPoly({-1: 1, -2: -1, -3: 2, -4: -1, -5: 1, -6: -1}),
    "6_2": LaurentPoly({1: 1, 0: -1, -1: 2, -2: -2, -3: 2, -4: -2, -5: 1}),
    "8_21": LaurentPoly({7: 1, 6: -2, 5: 2, 4: -3, 3: 3, 2: -2, 1: 2}),
}
WRITHES = {"3_1": 3, "4_1": -1, "5_2": -6, "6_2": -1, "8_21": 4}
DETS = {"3_1": 3, "4_1": 5, "5_2": 7, "6_2": 11, "8_21": 15}


# ==========================================================================
# Kauffman bracket
# ==========================================================================


def test_bracket_frozen():
    for name, want in BRACKETS.items():
        assert bracket_via_dessin(table_pd(name)) == want, name
    assert bracket_via_dessin(KINK) == LaurentPoly({3: -1})


def test_bracket_matches_state_sum_on_table():
    for name in BRACKETS:
        pd = table_pd(name)
        assert bracket_via_dessin(pd) == state_sum_bracket(pd), name


NON_PLANAR = "X[1,2,1,3] X[2,4,3,4]"
DISCONNECTED = "X[1,1,2,2] X[3,4,4,3]"


@pytest.mark.parametrize(
    "text, message",
    [
        (NON_PLANAR, "PD code is not planar: 2 faces for 2 crossings (expected 4)"),
        (DISCONNECTED, "diagram is not connected (1 of 2 crossings reachable)"),
    ],
)
def test_the_contraction_rejects_what_no_planar_diagram_draws(text, message):
    # no such PD code is ever made, so the contraction never folds one:
    # folded unchecked, the first code gives A^2 + 2 + A^-2
    crossings = [tuple(map(int, re.findall(r"\d+", token))) for token in text.split()]
    for make in (lambda: parse_pd(text), lambda: PDCode(crossings)):
        with pytest.raises(DiagramError) as info:
            make()
        assert str(info.value) == message


def test_bracket_cap_bounds_the_contraction_width():
    pd = twist_pd(20, 9)
    _, width = invariants._contraction_order(pd.alpha)
    assert pd.n > 24 >= width
    with pytest.raises(CapExceededError, match=f"contraction over {width} open arcs"):
        bracket_via_dessin(pd, cap=width - 1)
    assert bracket_via_dessin(pd, cap=width) == weighted_bracket(
        contract_parallel(build_dessin(pd, 0))
    )


def test_bracket_matches_state_sum_random():
    for pd in corpus(seed=101, count=40, max_crossings=9):
        assert bracket_via_dessin(pd) == state_sum_bracket(pd)


# ==========================================================================
# Jones polynomial
# ==========================================================================


def test_jones_frozen():
    for name, want in JONES_T.items():
        res = jones_polynomial(table_pd(name))
        assert res.variable == "t"
        assert res.writhe == WRITHES[name]
        assert res.t_poly == want, name
    assert jones_polynomial(table_pd("3_1")).to_string() == "-t^4 + t^3 + t"


def test_jones_unknot_and_links():
    assert jones_polynomial(KINK).t_poly == LaurentPoly({0: 1})
    hopf = jones_polynomial(HOPF_PLUS)
    assert hopf.variable == "q"
    assert hopf.t_poly is None
    assert hopf.q_poly == LaurentPoly({1: -1, 5: -1})
    assert hopf.poly is hopf.q_poly


def test_jones_identifies_twist_diagrams():
    # different diagrams of the same knots give the same polynomial
    assert jones_polynomial(twist_pd(2, 3)).t_poly == JONES_T["4_1"]
    assert jones_polynomial(twist_pd(2, 4)).t_poly == JONES_T["5_2"]
    mirror_62 = LaurentPoly({-e: c for e, c in JONES_T["6_2"]})
    assert jones_polynomial(twist_pd(3, 4)).t_poly == mirror_62


def test_jones_walks_the_strands_once(monkeypatch):
    # the writhe's strand walk also gives the component count, for a knot,
    # a signed link and an unsigned link, which still needs its signs; the
    # walk fills the signs' entering array itself, with no strand lists
    real = diagram._traced_signs
    walks = []

    def counting(pd):
        walks.append(pd)
        return real(pd)

    monkeypatch.setattr(diagram, "_traced_signs", counting)
    lists = []
    monkeypatch.setattr(diagram, "strand_components", lambda pd: lists.append(pd))
    assert jones_polynomial(table_pd("3_1")).variable == "t"
    assert jones_polynomial(HOPF_PLUS).variable == "q"
    with pytest.raises(dessinlink.OrientationError):
        jones_polynomial(parse_pd("X[1,3,2,4] X[3,1,4,2]"))
    assert len(walks) == 3
    assert lists == []


def test_jones_rejects_signs_and_brackets_no_diagram_has(monkeypatch):
    with pytest.raises(DiagramError, match="fits no orientation"):
        jones_polynomial(PDCode(HOPF_PLUS.crossings, [1, -1]))
    trefoil = table_pd("3_1")  # writhe 3: V = -A^-9 <P>
    for exponent, message in ((2, "odd exponent after writhe"), (7, "odd q-exponent for a knot")):
        monkeypatch.setattr(
            invariants, "bracket_via_dessin", lambda pd, cap=24: LaurentPoly({exponent: 1}))
        with pytest.raises(InternalError, match=message):
            jones_polynomial(trefoil)


# ==========================================================================
# Determinant routes
# ==========================================================================


def test_determinant_table():
    for name, want in DETS.items():
        rep = determinant(table_pd(name))
        assert rep.value == want, name
        assert set(rep.methods) | set(rep.skipped) == set(DET_METHODS)
        assert all(v == want for v in rep.methods.values())


def test_determinant_method_selection():
    trefoil = table_pd("3_1")
    rep = determinant(trefoil)
    genus_1 = "tree_difference needs an all-A dessin of genus 1"
    assert rep.skipped == {"tree_difference": genus_1}  # genus-0 all-A dessin
    assert determinant(trefoil, methods=["quasitree"]).value == 3
    with pytest.raises(PreconditionError, match=genus_1):
        determinant(trefoil, methods=["tree_difference"])
    with pytest.raises(DiagramError):
        determinant(trefoil, methods=["resultant"])
    eight = determinant(table_pd("8_21"))
    assert set(eight.methods) == set(DET_METHODS)
    assert not eight.skipped


def test_a_str_of_methods_names_one_route():
    rep = determinant(table_pd("3_1"), methods="charpoly")
    assert (rep.value, rep.methods, rep.skipped) == (3, {"charpoly": 3}, {})
    with pytest.raises(DiagramError, match=r"unknown determinant methods \['char'\]"):
        determinant(table_pd("3_1"), methods="char")


@pytest.mark.parametrize("methods", [(), [], set()])
def test_requesting_no_determinant_method_is_an_error(methods):
    with pytest.raises(DiagramError, match="^no determinant method requested$"):
        determinant(table_pd("3_1"), methods=methods)


def test_determinant_twist_law():
    for p in range(1, 5):
        for q in range(1, 5):
            assert determinant(twist_pd(p, q)).value == p * q - 1, (p, q)


# ==========================================================================
# Coefficient tables
# ==========================================================================


def test_coefficient_tables_frozen():
    t3 = coefficient_table(table_pd("3_1"))
    assert (t3.top_exponent, t3.coeffs) == (5, (-1, 0, -1, 1))
    t8 = coefficient_table(table_pd("8_21"))
    assert (t8.top_exponent, t8.coeffs) == (12, (0, 2, -2, 3, -3, 2, -2, 1))
    assert t8.as_poly() == BRACKETS["8_21"]
    assert t8.coefficient(30) == 0
    with pytest.raises(DiagramError):
        t8.coefficient(-1)


def test_coefficient_tables_match_bracket():
    for name, br in BRACKETS.items():
        table = coefficient_table(table_pd(name))
        for l in range(len(table.coeffs) + 2):
            assert table.coefficient(l) == br.coefficient(table.top_exponent - 4 * l)


def test_coefficient_restricted_locality():
    for name in BRACKETS:
        pd = table_pd(name)
        table = coefficient_table(pd)
        for l in range(len(table.coeffs) + 1):
            assert coefficient_restricted(pd, l) == table.coefficient(l), (name, l)


def test_coefficient_restricted_spreads_no_level_past_the_top(monkeypatch):
    # no subset spreads past level e + v - 1: a level past it is 0, read
    # without building a digit for each level up to it
    pd = table_pd("3_1")
    d = build_dessin(pd, 0)
    top = d.n_edges + d.n_vertices - 1
    real = invariants.delta_spread

    def spy(profile, v, bound):
        if bound > top:
            raise AssertionError(f"spread to level {bound}, past {top}")
        return real(profile, v, bound)

    monkeypatch.setattr(invariants, "delta_spread", spy)
    assert coefficient_restricted(pd, 10**12) == 0
    assert coefficient_restricted(pd, top + 1) == 0


def test_coefficient_restricted_matches_the_table_at_and_past_the_top(corpus200):
    for pd in corpus200:
        d = build_dessin(pd, 0)
        table = coefficient_table(pd)
        for l in range(d.n_edges + d.n_vertices + 2):
            assert coefficient_restricted(pd, l) == table.coefficient(l), (pd, l)


def test_coefficient_restricted_checks_the_cap_at_every_level():
    pd = table_pd("8_21")
    for l in (0, 5, pd.n + 20, 10**12):
        with pytest.raises(CapExceededError, match="exceeds the cap 4"):
            coefficient_restricted(pd, l, cap=4)


def test_coefficient_restricted_rejects_a_negative_level():
    with pytest.raises(DiagramError, match="coefficient level must be >= 0"):
        coefficient_restricted(table_pd("8_21"), -1)


def test_coefficient_restricted_rejects_a_non_integer_level():
    with pytest.raises(DiagramError, match="coefficient levels must be integers"):
        coefficient_restricted(table_pd("8_21"), 1.5)


def test_coefficient_table_rejects_a_non_integer_level():
    with pytest.raises(DiagramError, match="coefficient levels must be integers"):
        coefficient_table(table_pd("3_1")).coefficient(1.5)


def test_top_coefficient_forms():
    for name in BRACKETS:
        pd = table_pd(name)
        d = build_dessin(pd, 0)
        assert top_coefficient_closed_form(d) == coefficient_table(pd).coefficient(0)
    # loopless dessins: a0 and a1 in closed form
    for name in ("3_1", "6_2"):
        pd = table_pd(name)
        d = build_dessin(pd, 0)
        table = coefficient_table(pd)
        v = dessin_counts(d).v
        assert table.coefficient(0) == (-1) ** (v - 1), name
        assert a1_adequate(d) == table.coefficient(1), name
    with pytest.raises(DiagramError):
        a1_adequate(build_dessin(table_pd("4_1"), 0))  # one vertex, all loops


def test_top_coefficient_closed_form_is_the_genus_0_loop_sum():
    pds = [table_pd(name) for name in knot_table()]
    pds += [twist_pd(p, q) for p in range(1, 9) for q in range(1, 9)]
    for pd in pds:
        d = build_dessin(pd, 0)
        closed = top_coefficient_closed_form(d)
        assert closed == genus_0_loop_sum(d) == coefficient_table(pd).coefficient(0), pd
    # one-vertex dessins of seeded chord words: every edge is a loop
    rng = random.Random(248)
    for _ in range(60):
        word = list(range(rng.randint(1, 10))) * 2
        rng.shuffle(word)
        d = to_dessin(ChordDiagram(word))
        assert top_coefficient_closed_form(d) == genus_0_loop_sum(d), word
    # 11-14 chords, up to the 17-bit digits of 28 loop ends; and 14 chords
    # in parallel blocks of 4, 4, 4 and 2 mutually interlaced chords, whose
    # sum is (1 - 4)^3 (1 - 2) = 27
    words = [[0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 4, 5, 6, 7, 8, 9, 10, 11, 8, 9, 10, 11,
              12, 13, 12, 13]]
    rng = random.Random(1414)
    for size in (11, 12, 13, 14, 14):
        words.append(rng.sample(list(range(size)) * 2, 2 * size))
    for word in words:
        d = to_dessin(ChordDiagram(word))
        assert top_coefficient_closed_form(d) == genus_0_loop_sum(d), word
    assert top_coefficient_closed_form(to_dessin(ChordDiagram(words[0]))) == 27


@pytest.mark.parametrize("p, q", [(20, 9), (16, 15), (30, 3)])
def test_top_coefficient_closed_form_past_the_cap(p, q):
    pd = twist_pd(p, q)
    d = build_dessin(pd, 0)
    assert 24 < d.n_edges <= 33
    # past the scan cap the table is read off the contracted bracket, and
    # check=True keeps the closed form of a[0], skipping the spread
    table = coefficient_table(pd)
    top = weighted_bracket(contract_parallel(d)).coefficient(d.n_edges + 2 * d.n_vertices - 2)
    assert table.coefficient(0) == top_coefficient_closed_form(d) == top


def adequate_braid_closures(count: int) -> list:
    """Seeded homogeneous braid closures of 24-60 crossings on 3-6 strands,
    built of syllables sigma_i^(+-k), k = 2 or 3, with one sign per
    generator: both of their extreme states are adequate."""
    rng = random.Random(4060)
    out = []
    while len(out) < count:
        strands = rng.randint(3, 6)
        signs = [rng.choice((1, -1)) for _ in range(strands - 1)]
        target = rng.randint(24, 57)
        word = []
        while len(word) < target:
            gen = rng.randint(1, strands - 1)
            word += [signs[gen - 1] * gen] * rng.randint(2, 3)
        try:
            out.append(braid_pd(word, strands))
        except ValueError:  # a generator left out: the closure splits
            pass
    return out


def test_adequate_diagrams_have_the_span_of_their_extreme_states():
    # Lickorish-Thistlethwaite (Comment. Math. Helv. 63, 1988): when the
    # all-A and all-B dessins have no loops, the bracket spans exactly
    # 2n + 2 v_A + 2 v_B - 4 and both extreme coefficients are +-1
    mixed = 0
    for pd in adequate_braid_closures(40):
        assert 24 <= pd.n <= 60
        sides = build_dessin(pd, 0), build_dessin(pd, (1 << pd.n) - 1)
        for d in sides:
            vert_of = d.vertex_of
            assert all(vert_of[2 * i] != vert_of[2 * i + 1] for i in range(d.n_edges)), pd
        terms = bracket_via_dessin(pd).terms()
        (top, c_top), (bottom, c_bottom) = terms[0], terms[-1]
        assert top - bottom == 2 * pd.n + 2 * sides[0].n_vertices + 2 * sides[1].n_vertices - 4
        assert abs(c_top) == abs(c_bottom) == 1
        # a span below 4n: a diagram that is not alternating
        mixed += top - bottom < 4 * pd.n
    assert mixed >= 20


def test_one_vertex_coefficients():
    # on a one-vertex dessin the restricted sum is the genus-binomial form
    for name in ("4_1", "5_2"):
        red = reduce_to_one_vertex(table_pd(name))
        assert build_dessin(red, 0).n_vertices == 1
        table = coefficient_table(red)
        for l in range(len(table.coeffs) + 1):
            assert coefficient_restricted(red, l) == table.coefficient(l), (name, l)


def test_one_vertex_coefficients_after_reduction():
    red = reduce_to_one_vertex(table_pd("3_1"))
    assert build_dessin(red, 0).n_vertices == 1 < build_dessin(table_pd("3_1"), 0).n_vertices
    table = coefficient_table(red)
    for l in range(len(table.coeffs)):
        assert coefficient_restricted(red, l) == table.coefficient(l)


# ==========================================================================
# Weighted expansion and evaluations
# ==========================================================================


def test_weighted_bracket_matches_bracket():
    for p, q in [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4)]:
        pd = twist_pd(p, q)
        wd = contract_parallel(build_dessin(pd, 0))
        assert weighted_bracket(wd) == bracket_via_dessin(pd), (p, q)
    for name in ("4_1", "5_2"):
        pd = table_pd(name)
        wd = contract_parallel(build_dessin(pd, 0))
        assert weighted_bracket(wd) == bracket_via_dessin(pd), name


def _expanded(cd: ChordDiagram, weights) -> ChordDiagram:
    """The word with chord c as c_1..c_mu at its first end, c_mu..c_1 at its
    second: mu parallel chords, each pair nested-adjacent; c_k is labelled
    c + m k."""
    seen = set()
    out = []
    for c in cd.word:
        copies = [c + cd.m * k for k in range(weights[c])]
        out += reversed(copies) if c in seen else copies
        seen.add(c)
    return ChordDiagram(out)


def test_weighted_bracket_matches_the_expanded_profile(monkeypatch):
    rng = random.Random(3011)
    for _ in range(200):
        m = rng.randint(1, 6)
        word = list(range(m)) * 2
        rng.shuffle(word)
        cd = ChordDiagram(word)
        weights = [rng.randint(1, 3) for _ in range(m)]
        got = weighted_bracket(WeightedDessin(to_dessin(cd), weights))
        assert got == profile_bracket(to_dessin(_expanded(cd, weights))), (cd.word, weights)
    # the cap bounds the m contracted chords, not the expanded edge total
    cd = ChordDiagram((0, 1, 0, 1))
    wd = WeightedDessin(to_dessin(cd), (3, 2))
    assert weighted_bracket(wd, cap=2) == profile_bracket(to_dessin(_expanded(cd, (3, 2))))

    def no_scan(d, masks):
        raise AssertionError("the scan ran past the cap")

    monkeypatch.setattr(dessin, "_counts", no_scan)
    with pytest.raises(CapExceededError):
        weighted_bracket(wd, cap=1)


def test_planted_genus_faults_reach_the_spread(monkeypatch):
    # the planted scan gives every subset the face count of the full genus
    # g = 1, so the empty subset arrives with f = -1, and `delta_spread`
    # finds no start level for it
    wd = contract_parallel(build_dessin(twist_pd(2, 3), 0))
    g = dessin_counts(wd.dessin).g
    real = dessin._scan

    def full_genus(d, cap=24):
        return ((mask, eh, 1 + eh - 2 * g) for mask, eh, _ in real(d, cap))

    monkeypatch.setattr(invariants, "_scan", full_genus)
    with pytest.raises(InternalError, match="^internal error: no start level for v=1 e=0 f=-1$"):
        weighted_bracket(wd)


def test_jones_at_minus_two():
    for name in BRACKETS:
        lhs, rhs = jones_at_minus_two(table_pd(name))
        assert lhs == rhs, name
        assert type(lhs) is int and type(rhs) is int
    for p, q in [(2, 3), (3, 4)]:
        lhs, rhs = jones_at_minus_two(twist_pd(p, q))
        assert lhs == rhs


# ==========================================================================
# Pretzel closed form and tree counts
# ==========================================================================


def test_pretzel_determinant():
    assert pretzel_determinant((2, 3), (5,)) == 19
    assert determinant(pretzel_pd((2, 3, -5))).value == 19
    assert pretzel_determinant((2,), (2,)) == 0
    with pytest.raises(DiagramError):
        pretzel_determinant((2, 3), ())
    with pytest.raises(DiagramError):
        pretzel_determinant((2, 0), (1,))


def test_pretzel_determinant_rejects_non_integers():
    # truncated, 2.5 would give the determinant of column 2
    with pytest.raises(DiagramError, match="pretzel column magnitudes must be integers"):
        pretzel_determinant((2.5, 3), (5,))


def test_zero_bracket_is_internal(monkeypatch):
    monkeypatch.setattr(invariants, "bracket_via_dessin", lambda pd, cap=24: LaurentPoly())
    with pytest.raises(InternalError, match="zero bracket"):
        invariants._det_jones_eval(table_pd("3_1"), 24)


_INTEGER_ONLY = """
import json, sys
sys.modules["fractions"] = None  # any fractions import now raises ImportError
from dessinlink.diagram import table_pd, twist_pd
from dessinlink.invariants import determinant, jones_at_minus_two, pretzel_determinant
print(json.dumps({
    "det": determinant(table_pd("8_21")).value,
    "minus_two": list(jones_at_minus_two(twist_pd(2, 3))),
    "pretzel": pretzel_determinant((2, 3), (5,)),
}))
"""


def test_invariants_need_no_fractions():
    src = str(Path(dessinlink.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _INTEGER_ONLY],
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert json.loads(proc.stdout) == {"det": 15, "minus_two": [-31, -31], "pretzel": 19}


@pytest.mark.parametrize("params", [(50, 49, -3), (41, 37, -23)])
def test_pretzel_determinant_beyond_100_crossings(params):
    pd = pretzel_pd(params)
    assert pd.n > 100
    rep = determinant(pd)
    pos = [p for p in params if p > 0]
    neg = [-p for p in params if p < 0]
    assert rep.value == pretzel_determinant(pos, neg)
    assert set(rep.methods) == {"charpoly", "jones_eval", "tree_difference"}
    assert rep.skipped == {"quasitree": f"scan over {pd.n} edges exceeds the cap 24"}


def coloring_determinant(pd):
    """|first minor| of the Fox coloring matrix of a knot diagram.

    Rows are crossings X[a,b,c,d] (under strand a -> c, over strand b, d),
    columns are arcs, and each row reads 2 over - under in - under out.
    """
    parent = {}

    def arc(lab):
        while parent.get(lab, lab) != lab:
            lab = parent[lab]
        return lab

    for _, b, _, d in pd.crossings:
        parent[arc(b)] = arc(d)
    arcs = sorted({arc(lab) for tup in pd.crossings for lab in tup})
    col = {a: i for i, a in enumerate(arcs)}
    rows = []
    for a, b, c, d in pd.crossings:
        row = [0] * len(arcs)
        row[col[arc(b)]] += 2
        row[col[arc(a)]] -= 1
        row[col[arc(c)]] -= 1
        rows.append(row)
    return abs(bareiss_det([row[1:] for row in rows[1:]]))


def test_determinant_of_a_120_crossing_braid_knot():
    for name, want in DETS.items():
        assert coloring_determinant(table_pd(name)) == want, name
    rng = random.Random(120)
    while True:
        pd = braid_pd(random_braid_word(rng, 5, 120), 5)
        if len(strand_components(pd)) == 1:
            break
    rep = determinant(pd)
    assert {"charpoly", "jones_eval"} <= set(rep.methods)
    assert rep.value == coloring_determinant(pd)
    jones = jones_polynomial(pd).poly
    assert sum(c for _, c in jones.terms()) == 1
    assert abs(sum(c * (-1) ** e for e, c in jones.terms())) == rep.value
    assert jones_polynomial(shuffled(pd, random.Random(121))).poly == jones


def test_determinant_at_the_ceiling_is_the_goeritz_determinant():
    for pd in ceiling_closures((4, 6)):
        rep = determinant(pd)
        assert {"charpoly", "jones_eval"} <= set(rep.methods)
        assert rep.value == goeritz_determinant(pd)


def test_delta_bracket_digits_fit_the_contraction_width_at_the_ceiling():
    # the contraction packs the digits of delta <P> n + 5 bits wide
    for pd in ceiling_closures((4, 6, 8)):
        top = max(abs(c) for _, c in poly_product(bracket_via_dessin(pd), delta_power(1)).terms())
        assert top < 2 ** (pd.n + 3)


def test_the_charpoly_route_computes_no_char_poly(monkeypatch):
    calls = []
    real = chord.char_poly
    monkeypatch.setattr(chord, "char_poly", lambda source: calls.append(source) or real(source))
    rep = determinant(table_pd("8_21"))
    assert rep.methods["charpoly"] == DETS["8_21"]
    assert calls == []


def test_the_charpoly_route_traces_each_all_a_state_once(monkeypatch):
    # the diagram's all-A circles and the reduction's; the route reads the
    # reduced dessin that the reduction's one-circle check memoized
    calls = []
    real = diagram._trace_circles
    monkeypatch.setattr(
        diagram, "_trace_circles", lambda *args: calls.append(args) or real(*args))
    rep = determinant(pretzel_pd([2, 3, -6]), methods="charpoly")
    assert rep.value == pretzel_determinant([2, 3], [6])
    assert len(calls) == 2


def test_disagreeing_determinant_methods_are_internal_errors(monkeypatch):
    monkeypatch.setattr(invariants, "_det_charpoly", lambda pd: 16)
    with pytest.raises(InternalError, match="disagree"):
        determinant(table_pd("8_21"))


def test_spanning_tree_counts():
    assert spanning_tree_count(build_dessin(table_pd("3_1"), 0)) == 3
    d8 = build_dessin(table_pd("8_21"), 0)
    assert spanning_tree_count(d8) == 9
    assert spanning_tree_count(dual(d8)) == 24


def test_quasi_counts_agree_with_charpoly():
    for name in ("4_1", "5_2"):
        d = build_dessin(table_pd(name), 0)
        s_dessin = list(quasi_tree_counts(d))
        s_chord, det = quasi_counts_and_det(to_chord_diagram(d))
        s_chord = list(s_chord)
        while s_chord and s_chord[-1] == 0:
            s_chord.pop()
        while s_dessin and s_dessin[-1] == 0:
            s_dessin.pop()
        assert s_dessin == s_chord, name
        assert det == DETS[name]


# ==========================================================================
# one shared sub-dessin profile per dessin
# ==========================================================================


@pytest.fixture
def scans(monkeypatch):
    """A count of the subset scans made from now on: each (e, f) profile
    built (a `_profile_scan` miss, serial or pooled) and each `_scan` call."""
    real = dessin._scan
    calls = []

    def counting(d, cap=24):
        calls.append(d)
        return real(d, cap)

    for module in (dessin, invariants):
        monkeypatch.setattr(module, "_scan", counting)
    dessin._profile_scan.cache_clear()
    return lambda: dessin._profile_scan.cache_info().misses + len(calls)


def contractions():
    """Frontier contractions run since the memo was last cleared."""
    return invariants._contract.cache_info().misses


def test_label_permuted_twins_share_the_contraction_memo():
    # the contraction reads only the dart involution, which renaming the
    # arcs keeps, so the twin reads the order and the bracket from the memo
    pd = table_pd("8_21")
    labels = sorted({lab for tup in pd.crossings for lab in tup})
    image = dict(zip(labels, random.Random(5).sample(labels, len(labels))))
    twin = PDCode([[image[lab] for lab in tup] for tup in pd.crossings])
    assert twin != pd and twin.alpha == pd.alpha
    assert bracket_via_dessin(twin) == bracket_via_dessin(pd) == BRACKETS["8_21"]
    for memo, hits in ((invariants._contraction_order, 2), (invariants._contract, 1)):
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, hits, 1)


def test_reordered_crossings_get_their_own_contraction_memo_entry():
    pd = table_pd("8_21")
    reordered = PDCode(pd.crossings[::-1])
    assert bracket_via_dessin(reordered) == bracket_via_dessin(pd)
    for memo, hits in ((invariants._contraction_order, 2), (invariants._contract, 0)):
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, hits, 2)


def test_determinant_scans_once(scans):
    rep = determinant(table_pd("8_21"))
    assert {"quasitree", "jones_eval"} <= set(rep.methods)
    assert scans() == 1


def test_profile_readers_count_components_of_the_full_dessin_only(scans, monkeypatch):
    # the 2^16 subsets are scanned once, for faces only; the spanning
    # forest is read of full dessins alone, never per subset: by
    # `dessin_counts` for components and by the `charpoly` route's reduction
    real = dessin._forest
    calls = []

    def counting(d, mask):
        calls.append(mask == (1 << d.n_edges) - 1)
        return real(d, mask)

    # `dessin` alone builds spanning forests, so patching it sees every call
    assert not hasattr(invariants, "_forest")
    monkeypatch.setattr(dessin, "_forest", counting)
    pd = braid_pd([1, -2] * 8, 3)
    assert pd.n == 16
    assert determinant(pd).value == 2205
    coefficient_table(pd, check=True)
    quasi_tree_counts(build_dessin(pd, 0))
    assert scans() == 1
    assert calls == [True] * 4


def test_quasi_tree_counts_reuse_the_bracket_profile(scans):
    # the bracket is a contraction, not a scan: the quasi-tree counts scan
    # once, and nothing read after them contracts or scans again
    pd = table_pd("6_2")
    bracket_via_dessin(pd)
    assert (contractions(), scans()) == (1, 0)
    quasi_tree_counts(build_dessin(pd, 0))
    coefficient_table(pd, check=True)
    bracket_via_dessin(pd, cap=30)
    assert (contractions(), scans()) == (1, 1)


one_profile_diagrams = pytest.mark.parametrize(
    "pd",
    [
        twist_pd(12, 4),
        braid_pd([-1, 1, -2, 1, -2, -1, -1, 1, -2, 2], 3),
        pretzel_pd([2, 3, -5]),
    ],
    ids=["twist-all-loops", "braid-loops-and-non-loops", "pretzel"],
)


@one_profile_diagrams
def test_one_scan_per_diagram(scans, pd):
    # the benchmark's op order: every invariant after the first reuses its
    # profile, and so do calls with other caps
    bracket_via_dessin(pd)
    jones_polynomial(pd)
    determinant(pd)
    determinant(pd, cap=30)
    coefficient_table(pd, check=True)
    quasi_tree_counts(build_dessin(pd, 0))
    quasi_tree_counts(build_dessin(pd, 0), cap=20)
    assert scans() == 1


@one_profile_diagrams
def test_one_bracket_aggregation_per_dessin(scans, pd):
    # the benchmark's op order contracts once and scans once; the bracket
    # is memoized with its contraction, so clearing that memo drops it too
    bracket_via_dessin(pd)
    jones_polynomial(pd)
    determinant(pd)
    determinant(pd, cap=30)
    coefficient_table(pd, check=True)
    quasi_tree_counts(build_dessin(pd, 0))
    assert (contractions(), scans()) == (1, 1)
    invariants._contract.cache_clear()
    bracket_via_dessin(pd)
    assert (contractions(), scans()) == (1, 1)


@one_profile_diagrams
def test_profile_readers_ignore_the_tally_order(scans, pd):
    # another kernel (a DP, a Gray-order walk) fills the tally in another
    # order; every reader must get the same answers from the same counts,
    # from one contraction and one scan
    d = build_dessin(pd, 0)

    def readings():
        table = coefficient_table(pd, check=True)
        levels = range(len(table.coeffs) + 1)
        return (
            quasi_tree_counts(d),
            bracket_via_dessin(pd),
            table,
            [coefficient_restricted(pd, l) for l in levels],
        )

    want = readings()
    tally = dessin._profile_scan(d)
    items = list(tally.items())
    tally.clear()
    tally.update(reversed(items))
    assert dessin._profile_scan(d) is tally
    assert readings() == want
    assert (contractions(), scans()) == (1, 1)


@one_profile_diagrams
def test_bench_ops_smooth_the_input_once(monkeypatch, pd):
    # the all-A dessin is memoized: `build_dessin` smooths the input once,
    # `reduce_to_one_vertex` reads that memo, and `build_dessin` smooths the
    # reduced diagram once, unless it is the input (all-A state already one
    # circle)
    reduced = reduce_to_one_vertex(pd).crossings
    real = diagram.smooth_state
    smoothed = []

    def counting(p, *args, **kwargs):
        smoothed.append(p.crossings)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(diagram, "smooth_state", counting)
    dessin._dessin_of.cache_clear()
    bracket_via_dessin(pd)
    jones_polynomial(pd)
    determinant(pd)
    coefficient_table(pd)
    quasi_tree_counts(build_dessin(pd, 0))
    once_reduced = [reduced] if reduced != pd.crossings else []
    assert smoothed == [pd.crossings] + once_reduced


def test_bracket_readers_call_the_module_attribute(monkeypatch):
    # a patched `invariants.bracket_via_dessin` reaches every reader, so the
    # benchmark's spans and the CLI's internal-error paths still see it
    pd = table_pd("4_1")
    jones = jones_polynomial(pd).poly
    det = invariants._det_jones_eval(pd, 24)
    lhs, rhs = jones_at_minus_two(pd)
    three = LaurentPoly({0: 3})
    tripled = poly_product(bracket_via_dessin(pd), three)
    monkeypatch.setattr(invariants, "bracket_via_dessin", lambda pd, cap=24: tripled)
    assert jones_polynomial(pd).poly == poly_product(jones, three)
    assert invariants._det_jones_eval(pd, 24) == 3 * det
    assert coefficient_table(pd, check=False).as_poly() == tripled
    assert jones_at_minus_two(pd) == (3 * lhs, rhs)
    with pytest.raises(InternalError, match="coefficient table != bracket"):
        coefficient_table(pd, check=True)
