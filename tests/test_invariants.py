"""Bracket, Jones, determinants, and coefficient structure of the bundled
knots plus seeded random diagrams."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dessinlink
from dessinlink import dessin, diagram, invariants
from dessinlink.chord import bareiss_det, quasi_counts_and_det, to_chord_diagram
from dessinlink.dessin import (
    build_dessin,
    contract_parallel,
    dessin_counts,
    dual,
    quasi_tree_counts,
)
from dessinlink.diagram import (
    DiagramError,
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
    one_vertex_coefficients,
    pretzel_determinant,
    spanning_tree_count,
    top_coefficient_closed_form,
    weighted_bracket,
)
from dessinlink.poly import LaurentPoly
from dessinlink.table import knot_table

from helpers import braid_pd, corpus, genus_0_loop_sum, random_braid_word, shuffled

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
    [(NON_PLANAR, "PD code is not planar"), (DISCONNECTED, "diagram is not connected")],
)
def test_the_contraction_rejects_what_no_planar_diagram_draws(text, message):
    # folded without the planarity check, the first code gives A^2 + 2 + A^-2
    pd = parse_pd(text)
    with pytest.raises(DiagramError, match=message):
        bracket_via_dessin(pd)
    with pytest.raises(DiagramError, match=message):
        jones_polynomial(pd)


def test_bracket_cap_bounds_the_contraction_width():
    pd = twist_pd(20, 9)
    _, width = invariants._contraction_order(pd.crossings)
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
    assert jones_polynomial(KINK).t_poly == LaurentPoly.one()
    hopf = jones_polynomial(HOPF_PLUS)
    assert hopf.variable == "q"
    assert hopf.t_poly is None
    assert hopf.q_poly == LaurentPoly({1: -1, 5: -1})
    assert hopf.poly is hopf.q_poly


def test_jones_identifies_twist_diagrams():
    # different diagrams of the same knots give the same polynomial
    assert jones_polynomial(twist_pd(2, 3)).t_poly == JONES_T["4_1"]
    assert jones_polynomial(twist_pd(2, 4)).t_poly == JONES_T["5_2"]
    mirror_62 = JONES_T["6_2"].reciprocal_variable()
    assert jones_polynomial(twist_pd(3, 4)).t_poly == mirror_62


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


def test_coefficient_restricted_rejects_a_negative_level():
    with pytest.raises(DiagramError, match="coefficient level must be >= 0"):
        coefficient_restricted(table_pd("8_21"), -1)


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


def test_one_vertex_coefficients():
    for name in ("4_1", "5_2"):
        pd = table_pd(name)
        d = build_dessin(pd, 0)
        table = coefficient_table(pd)
        for l in range(len(table.coeffs) + 1):
            assert one_vertex_coefficients(d, l) == table.coefficient(l), (name, l)
    with pytest.raises(DiagramError):
        one_vertex_coefficients(build_dessin(table_pd("3_1"), 0), 0)


def test_one_vertex_coefficients_reject_a_negative_level():
    d = build_dessin(reduce_to_one_vertex(table_pd("8_21")), 0)
    with pytest.raises(DiagramError, match="coefficient level must be >= 0"):
        one_vertex_coefficients(d, -1)


def test_one_vertex_coefficients_after_reduction():
    pd = reduce_to_one_vertex(table_pd("3_1"))
    d = build_dessin(pd, 0)
    table = coefficient_table(pd)
    for l in range(len(table.coeffs)):
        assert one_vertex_coefficients(d, l) == table.coefficient(l)


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


def test_inexact_weighted_sum_is_internal(monkeypatch):
    # every subset weighed at the full genus leaves a sum that the cleared
    # genus powers do not divide
    wd = contract_parallel(build_dessin(twist_pd(2, 3), 0))
    g = dessin_counts(wd.dessin).g
    monkeypatch.setattr(invariants, "_genus_of", lambda v, eh, k, f: g)
    with pytest.raises(InternalError, match="^internal error: weighted sum"):
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
    """Dessins of every subset scan made from now on, whatever its universe."""
    real = dessin._scan
    calls = []

    def counting(d, universe=None, cap=24):
        calls.append(d)
        return real(d, universe, cap)

    for module in (dessin, invariants):
        monkeypatch.setattr(module, "_scan", counting)
    dessin._profile_scan.cache_clear()
    return calls


def contractions():
    """Frontier contractions run since the memo was last cleared."""
    return invariants._contract.cache_info().misses


def test_determinant_scans_once(scans):
    rep = determinant(table_pd("8_21"))
    assert {"quasitree", "jones_eval"} <= set(rep.methods)
    assert len(scans) == 1


def test_quasi_tree_counts_reuse_the_bracket_profile(scans):
    # the bracket is a contraction, not a scan: the quasi-tree counts scan
    # once, and nothing read after them contracts or scans again
    pd = table_pd("6_2")
    bracket_via_dessin(pd)
    assert (contractions(), len(scans)) == (1, 0)
    quasi_tree_counts(build_dessin(pd, 0))
    coefficient_table(pd, check=True)
    bracket_via_dessin(pd, cap=30)
    assert (contractions(), len(scans)) == (1, 1)


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
    assert len(scans) == 1


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
    assert (contractions(), len(scans)) == (1, 1)
    invariants._contract.cache_clear()
    bracket_via_dessin(pd)
    assert (contractions(), len(scans)) == (1, 1)


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
    assert (contractions(), len(scans)) == (1, 1)


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
    tripled = bracket_via_dessin(pd) * 3
    monkeypatch.setattr(invariants, "bracket_via_dessin", lambda pd, cap=24: tripled)
    assert jones_polynomial(pd).poly == jones * 3
    assert invariants._det_jones_eval(pd, 24) == 3 * det
    assert coefficient_table(pd, check=False).as_poly() == tripled
    assert jones_at_minus_two(pd) == (3 * lhs, rhs)
    with pytest.raises(InternalError, match="coefficient table != bracket"):
        coefficient_table(pd, check=True)
