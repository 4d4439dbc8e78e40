"""PD parsing, state smoothing, writhe, families, and the state-sum oracle."""

import random

import pytest

from dessinlink import diagram
from dessinlink.dessin import build_dessin
from dessinlink.diagram import (
    CapExceededError,
    DiagramError,
    OrientationError,
    PDCode,
    knot_table,
    mirror,
    parse_pd,
    pd_to_text,
    pretzel_pd,
    reduce_to_one_vertex,
    smooth_state,
    state_circle_count,
    state_sum_bracket,
    strand_components,
    table_pd,
    twist_pd,
    writhe,
)
from dessinlink.errors import InternalError
from dessinlink.poly import DELTA, LaurentPoly

from helpers import (
    add_curl,
    braid_pd,
    corpus,
    nugatory_join,
    random_braid_word,
    reduce_by_resmoothing,
)

KINK = "X[1,1,2,2]"
TREFOIL = "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]"
TREFOIL_ATLAS = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
HOPF = "X[1,3,2,4] X[3,1,4,2]"


# ==========================================================================
# parsing
# ==========================================================================


def test_parse_normalizes_labels():
    pd = parse_pd("X[10,30,20,40] X[30,10,40,20]")
    assert pd.crossings == ((1, 3, 2, 4), (3, 1, 4, 2))
    assert pd.n == 2
    assert pd.n_arcs == 4


def test_parse_round_trip():
    pd = parse_pd(TREFOIL)
    assert parse_pd(pd_to_text(pd)) == pd


def test_parse_signs():
    pd = parse_pd("X[1,1,2,2] S[-1]")
    assert pd.signs == (-1,)
    with pytest.raises(DiagramError):
        parse_pd("X[1,1,2,2] S[1,1]")


def test_parse_rejects_bad_codes():
    with pytest.raises(DiagramError):
        parse_pd("")
    with pytest.raises(DiagramError):
        parse_pd("X[1,2,3]")
    with pytest.raises(DiagramError):
        parse_pd("X[1,1,1,2]")
    with pytest.raises(DiagramError):
        parse_pd("X[1,2,3,4]")


def test_parse_rejects_arc_label_zero():
    # PDCode rejects a non-positive label; parse_pd must not renumber it away
    with pytest.raises(DiagramError, match="arc label 0"):
        parse_pd("X[0,1,1,0]")
    with pytest.raises(DiagramError, match="arc label 0"):
        PDCode(((0, 1, 1, 0),))


def test_rejects_disconnected():
    with pytest.raises(DiagramError):
        state_circle_count(parse_pd("X[1,1,2,2] X[3,3,4,4]"), 0)


# ==========================================================================
# states and circles
# ==========================================================================


def test_circle_counts_frozen():
    assert state_circle_count(parse_pd(KINK), 0) == 2
    assert state_circle_count(parse_pd(TREFOIL), 0) == 2
    assert state_circle_count(parse_pd(TREFOIL), 0b111) == 3
    assert state_circle_count(parse_pd(TREFOIL_ATLAS), 0) == 3
    assert state_circle_count(parse_pd(TREFOIL_ATLAS), "BBB") == 2


def test_state_string_and_mask_agree():
    pd = parse_pd(TREFOIL)
    assert state_circle_count(pd, "AAB") == state_circle_count(pd, 0b100)
    with pytest.raises(DiagramError):
        state_circle_count(pd, "AA")


def test_smooth_state_structure():
    pd = parse_pd(TREFOIL)
    circles = smooth_state(pd, 0)
    assert len(circles) == 2
    assert sorted(h for rot in circles for h in rot) == list(range(2 * pd.n))


def test_smooth_state_outer_corner_invariance():
    pd = parse_pd(TREFOIL)
    base = {frozenset(rot) for rot in smooth_state(pd, 0)}
    for corner in range(1, 4 * pd.n):
        assert {frozenset(rot) for rot in smooth_state(pd, 0, outer_corner=corner)} == base


def test_smooth_state_rejects_an_outer_corner_off_the_darts():
    # darts are 0..4n-1; -1 must not wrap round to the last one
    pd = table_pd("3_1")
    for corner in (4 * pd.n, -1):
        with pytest.raises(DiagramError, match="outer corner"):
            smooth_state(pd, 0, corner)
        with pytest.raises(DiagramError, match="outer corner"):
            build_dessin(pd, 0, corner)
    assert len(smooth_state(pd, 0, 4 * pd.n - 1)) == len(smooth_state(pd, 0))


# ==========================================================================
# bracket state sum
# ==========================================================================


def test_bracket_kink_frozen():
    assert state_sum_bracket(parse_pd(KINK)) == LaurentPoly({3: -1})
    km = parse_pd("X[1,2,2,1]")
    assert state_sum_bracket(km) == LaurentPoly({-3: -1})


def test_bracket_trefoil_frozen():
    assert state_sum_bracket(parse_pd(TREFOIL)) == LaurentPoly(
        {-7: 1, -3: -1, 5: -1}
    )
    assert state_sum_bracket(parse_pd(TREFOIL_ATLAS)) == LaurentPoly(
        {7: 1, 3: -1, -5: -1}
    )


def test_bracket_mirror_inverts_exponents():
    for pd in corpus(seed=7, count=15, max_crossings=7):
        br = state_sum_bracket(pd)
        assert state_sum_bracket(mirror(pd)) == br.reciprocal_variable()
        assert mirror(mirror(pd)) == pd


def test_bracket_workers_deterministic():
    word = [1, -2, 1, 1, 2, 2, -1, 2, 1, 1, -2, 1, 2, 2, -1, 2]
    pd = braid_pd(word, 3)
    assert 1 << pd.n >= diagram._POOL_MIN_STATES  # large enough to fork the pool
    seq = state_sum_bracket(pd, workers=1)
    par = state_sum_bracket(pd, workers=2)
    assert seq == par


def per_state_bracket(pd):
    """The bracket from every state traced from scratch."""
    return sum(
        (
            (DELTA ** (state_circle_count(pd, mask) - 1)).shift(pd.n - 2 * bin(mask).count("1"))
            for mask in range(1 << pd.n)
        ),
        LaurentPoly(),
    )


def test_state_sum_matches_per_state_circle_counts():
    trefoil = parse_pd(TREFOIL)
    figure8 = twist_pd(2, 3)
    cases = {
        "kink": parse_pd(KINK),
        "curled trefoil": add_curl(add_curl(trefoil, 2), 5, positive=False),
        "nugatory crossing": nugatory_join(trefoil, figure8),
        "3-component link": braid_pd([1, 1, -2, -2, 1, 2, 2, -1], 3),
        "4-component link": braid_pd([1, 1, 2, 2, 3, 3, -2, -2], 4),
    }
    assert len(strand_components(cases["3-component link"])) == 3
    assert len(strand_components(cases["4-component link"])) == 4
    for name, pd in cases.items():
        assert pd.n <= 10, name
        assert state_sum_bracket(pd) == per_state_bracket(pd), name
    for pd in corpus(seed=31, count=20, max_crossings=9):
        assert state_sum_bracket(pd) == per_state_bracket(pd)


def test_bracket_counts_uneven_ranges_cover_every_state():
    pd = nugatory_join(parse_pd(TREFOIL), twist_pd(3, 3))
    assert pd.n == 10
    alpha = diagram._planar_map(pd.crossings).alpha
    total = 1 << pd.n
    full = diagram._bracket_counts(alpha, pd.n, 0, total)
    assert sum(full.values()) == total
    for a, b in ((37, 700), (1, 2), (255, 256), (0, total - 1)):
        summed = {}
        for start, stop in ((0, a), (a, b), (b, total)):
            for key, mult in diagram._bracket_counts(alpha, pd.n, start, stop).items():
                summed[key] = summed.get(key, 0) + mult
        assert summed == full, (a, b)


def test_bracket_counts_recount_catches_a_drift():
    # Arc 1 joins opposite positions of crossing 0, so this map is not
    # planar and a flip there need not change the circle count by +-1; the
    # end-of-range recount must notice instead of returning a wrong tally.
    crossings = ((1, 2, 1, 3), (2, 4, 3, 4))
    with pytest.raises(DiagramError, match="not planar"):
        diagram._planar_map(crossings)
    alpha = [0] * 8
    for label in (1, 2, 3, 4):
        a, b = [4 * c + p for c, t in enumerate(crossings) for p, x in enumerate(t) if x == label]
        alpha[a], alpha[b] = b, a
    with pytest.raises(InternalError, match="drifted"):
        diagram._bracket_counts(tuple(alpha), 2, 0, 4)


def test_bracket_cap():
    with pytest.raises(CapExceededError):
        state_sum_bracket(parse_pd(TREFOIL), cap=2)


# ==========================================================================
# orientation and writhe
# ==========================================================================


def test_writhe_frozen():
    assert writhe(parse_pd(TREFOIL)) == 3
    assert writhe(parse_pd(TREFOIL_ATLAS)) == -3
    assert writhe(parse_pd(KINK)) == 1
    assert writhe(parse_pd("X[1,2,2,1]")) == -1
    assert writhe(parse_pd("X[1,3,2,2] X[3,4,4,1]")) == 0


def test_writhe_signed_links():
    assert writhe(parse_pd(HOPF + " S[1,1]")) == 2
    assert writhe(parse_pd(HOPF + " S[-1,-1]")) == -2
    with pytest.raises(OrientationError):
        writhe(parse_pd(HOPF))


def test_writhe_mirror_negates():
    for pd in corpus(seed=11, count=15, max_crossings=8):
        if len(strand_components(pd)) != 1:
            continue
        assert writhe(mirror(pd)) == -writhe(pd)


def test_strand_components_counts():
    assert len(strand_components(parse_pd(TREFOIL))) == 1
    assert len(strand_components(parse_pd(HOPF))) == 2


# ==========================================================================
# families
# ==========================================================================


def test_pretzel_counts_frozen():
    pd = pretzel_pd((2, 3, -5))
    assert pd.n == 10
    assert state_circle_count(pd, 0) == 6
    assert state_circle_count(pd, (1 << 10) - 1) == 4


def test_pretzel_rejects_bad_params():
    with pytest.raises(DiagramError):
        pretzel_pd((2, 0, 3))


def test_twist_one_vertex():
    for p, q in [(1, 2), (2, 3), (3, 2), (2, 4)]:
        pd = twist_pd(p, q)
        assert pd.n == p + q
        assert state_circle_count(pd, 0) == 1


# ==========================================================================
# one-vertex reduction
# ==========================================================================


def test_reduce_trefoil_frozen():
    pd = parse_pd(TREFOIL)
    red = reduce_to_one_vertex(pd)
    assert red.n == 5
    assert state_circle_count(red, 0) == 1
    assert state_sum_bracket(red) == state_sum_bracket(pd)


def test_reduce_already_reduced():
    pd = twist_pd(2, 3)
    assert reduce_to_one_vertex(pd) == pd


def test_reduce_bookkeeping_random():
    for pd in corpus(seed=23, count=12, max_crossings=7):
        v0 = state_circle_count(pd, 0)
        red = reduce_to_one_vertex(pd)
        assert red.n == pd.n + 2 * (v0 - 1)
        assert state_circle_count(red, 0) == 1


def large_reduction_inputs():
    """Seeded 4-6 strand braid closures of 40, 80 and 120 crossings, and
    two pretzels of about 100 crossings."""
    rng = random.Random(8080)
    out = []
    for strands in (4, 5, 6):
        for length in (40, 80, 120):
            while True:
                try:
                    out.append(braid_pd(random_braid_word(rng, strands, length), strands))
                    break
                except ValueError:
                    pass
    return out + [pretzel_pd([50, 49, -3]), pretzel_pd([41, 37, -23])]


def test_reduce_matches_resmoothing_reference(corpus200):
    inputs = [table_pd(name) for name in sorted(knot_table())]
    inputs += corpus200 + large_reduction_inputs()
    for pd in inputs:
        assert pd_to_text(reduce_to_one_vertex(pd)) == pd_to_text(reduce_by_resmoothing(pd))


def test_reduce_smooths_once(monkeypatch):
    pd = pretzel_pd([2, 3, -6])
    assert state_circle_count(pd, 0) == 7
    calls = []
    real = diagram.smooth_state

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(diagram, "smooth_state", counting)
    red = reduce_to_one_vertex(pd)
    assert red.n == pd.n + 12
    assert len(calls) == 1


# ==========================================================================
# braid closures (test helper sanity)
# ==========================================================================


def test_braid_pd_frozen():
    pd = braid_pd([1, 1, 1], 2)
    assert len(strand_components(pd)) == 1
    assert writhe(pd) == 3
    assert state_sum_bracket(pd) == state_sum_bracket(parse_pd(TREFOIL))
    with pytest.raises(ValueError):
        braid_pd([1, 1], 3)


# ==========================================================================
# bundled knot table
# ==========================================================================


def test_table_entries_present():
    names = set(knot_table())
    assert {"3_1", "4_1", "5_2", "6_2", "8_21"} <= names


def test_table_pd_frozen():
    assert table_pd("3_1") == parse_pd(TREFOIL)
    with pytest.raises(DiagramError):
        table_pd("9_99")


def test_table_env_override(tmp_path, monkeypatch):
    path = tmp_path / "table.txt"
    path.write_text("# custom\nuk: X[1,1,2,2]\n")
    monkeypatch.setenv("DESSINLINK_TABLE", str(path))
    assert set(knot_table()) == {"uk"}
    assert table_pd("uk") == parse_pd(KINK)
