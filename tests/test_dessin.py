"""Dessin construction, sub-dessin scans, duality, and serialization."""

import random

import pytest

from dessinlink import dessin, diagram
from dessinlink.diagram import (
    CapExceededError,
    DiagramError,
    PDCode,
    parse_pd,
    smooth_state,
    strand_components,
    table_pd,
    twist_pd,
)
from dessinlink.dessin import (
    Counts,
    Dessin,
    WeightedDessin,
    build_dessin,
    contract_parallel,
    dessin_counts,
    dessin_from_text,
    dessin_to_text,
    dual,
    faces,
    mixed_state_face_count,
    quasi_tree_counts,
    scan_subdessins,
)
from dessinlink.errors import InternalError
from dessinlink.table import knot_table

from helpers import add_curl, corpus, nugatory_join, random_decorated_diagram

TREFOIL = "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]"


# ==========================================================================
# construction and counts
# ==========================================================================


def test_build_trefoil_all_A():
    d = build_dessin(parse_pd(TREFOIL), 0)
    c = dessin_counts(d)
    assert (c.v, c.e, c.f, c.g, c.k) == (2, 3, 3, 0, 1)


def test_build_trefoil_all_B():
    d = build_dessin(parse_pd(TREFOIL), 0b111)
    c = dessin_counts(d)
    assert (c.v, c.e, c.f, c.g) == (3, 3, 2, 0)


def test_build_8_21_frozen():
    d = build_dessin(table_pd("8_21"), 0)
    c = dessin_counts(d)
    assert (c.v, c.e, c.f, c.g) == (3, 8, 5, 1)
    loops = sum(
        1
        for rot in d.rotations
        for i in range(d.n_edges)
        if 2 * i in rot and 2 * i + 1 in rot
    )
    assert loops == 2


def test_counts_outer_corner_invariance():
    pd = parse_pd(TREFOIL)
    base = dessin_counts(build_dessin(pd, "AAB"))
    for corner in range(1, 4 * pd.n):
        assert dessin_counts(build_dessin(pd, "AAB", outer_corner=corner)) == base


# ==========================================================================
# the build_dessin memo
# ==========================================================================


def test_build_dessin_memo_returns_one_object_per_diagram():
    assert build_dessin(parse_pd(TREFOIL), 0) is build_dessin(parse_pd(TREFOIL), 0)


def test_build_dessin_memo_matches_a_direct_smoothing():
    # corner 5 flips every circle of 8_21 against corner 0, so a key that
    # dropped the corner or the state would return a stale dessin here
    pd = table_pd("8_21")
    for forms in ([0, "A" * pd.n, [0] * pd.n], [0b10110101, "BABABBAB"]):
        for corner in (0, 5, 13, 31):
            circles = smooth_state(pd, forms[0], corner)
            direct = Dessin(circles)
            built = [build_dessin(pd, state, corner) for state in forms]
            assert built[0] == direct
            assert all(d is built[0] for d in built)
    assert dessin._dessin_of.cache_info().currsize == 8


def test_build_dessin_memo_does_not_cache_errors():
    pd = parse_pd(TREFOIL)
    bad = [("AAC", 0), ("AA", 0), (8, 0), (-1, 0), (0, 12), (0, -1)]
    for _ in range(2):
        for state, corner in bad:
            with pytest.raises(DiagramError):
                build_dessin(pd, state, corner)
    assert dessin._dessin_of.cache_info().currsize == 0


def test_reordered_crossings_get_their_own_memo_entry():
    pd = table_pd("8_21")
    reordered = PDCode(pd.crossings[::-1])
    d = build_dessin(pd, 0)
    assert build_dessin(reordered, 0) is not d
    assert build_dessin(pd, 0) is d
    info = dessin._dessin_of.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def test_bad_euler_data_is_internal():
    with pytest.raises(InternalError, match="^internal error: bad Euler data"):
        dessin._genus_of(1, 1, 1, 1)


def test_counts_validation():
    with pytest.raises(ValueError):
        Counts(v=1, e=1, f=1, k=1, g=7, n=1)


def test_rejects_isolated_vertex():
    with pytest.raises(ValueError):
        Dessin(rotations=((0, 1), ()))


# ==========================================================================
# sub-dessin scans
# ==========================================================================


def test_sub_counts_frozen():
    d = build_dessin(parse_pd(TREFOIL), 0)
    empty = dessin_counts(d, [])
    assert (empty.v, empty.e, empty.f, empty.k) == (2, 0, 2, 2)
    one = dessin_counts(d, [0])
    assert (one.v, one.e, one.k, one.g) == (2, 1, 1, 0)


def test_quasi_tree_counts_frozen():
    assert quasi_tree_counts(build_dessin(parse_pd(TREFOIL), 0)) == (3,)
    assert quasi_tree_counts(build_dessin(twist_pd(2, 3), 0)) == (1, 6)
    assert quasi_tree_counts(build_dessin(table_pd("8_21"), 0)) == (9, 24)


def test_scan_cap():
    d = build_dessin(table_pd("8_21"), 0)
    with pytest.raises(CapExceededError):
        quasi_tree_counts(d, cap=4)


def test_scan_visits_all_subsets():
    d = build_dessin(parse_pd(TREFOIL), 0)
    seen = []
    scan_subdessins(d, lambda mask, c: seen.append(mask))
    assert sorted(seen) == list(range(8))


def test_duality_on_corpus():
    for pd in corpus(seed=31, count=25, max_crossings=8):
        d = build_dessin(pd, 0)
        s = quasi_tree_counts(d)
        assert tuple(reversed(quasi_tree_counts(dual(d)))) == s


def test_dual_involution():
    for pd in corpus(seed=37, count=15, max_crossings=8):
        d = build_dessin(pd, 0)
        assert dual(dual(d)) == d


def test_dual_swaps_v_and_f():
    d = build_dessin(table_pd("8_21"), 0)
    c, cd = dessin_counts(d), dessin_counts(dual(d))
    assert (cd.v, cd.f, cd.g) == (c.f, c.v, c.g)


def test_faces_partition_half_edges():
    d = build_dessin(table_pd("8_21"), 0)
    fs = faces(d)
    flat = sorted(h for orbit in fs for h in orbit)
    assert flat == list(range(2 * d.n_edges))


# ==========================================================================
# mixed states vs sub-dessins
# ==========================================================================


def test_mixed_state_face_count_matches_scan():
    for text in [TREFOIL, "X[1,1,2,2]"]:
        pd = parse_pd(text)
        d = build_dessin(pd, 0)
        for sub in range(1 << d.n_edges):
            edges = [i for i in range(d.n_edges) if sub >> i & 1]
            assert dessin_counts(d, edges).f == mixed_state_face_count(pd, edges)


def test_state_sum_tally_is_the_subset_profile():
    # the (#B, circles) tally of the state sum and the (e(H), f(H)) profile
    # of the subset scan are one table, which `delta_spread` reads for both
    trefoil, figure8 = table_pd("3_1"), table_pd("4_1")
    cases = [table_pd(name) for name in sorted(knot_table())]
    cases += corpus(seed=41, count=12, max_crossings=12)
    rng = random.Random(41)
    cases += [random_decorated_diagram(rng, max_crossings=10) for _ in range(12)]
    cases += [
        add_curl(add_curl(trefoil, 2), 5, positive=False),
        nugatory_join(trefoil, figure8),
        nugatory_join(add_curl(figure8, 1), trefoil),
    ]
    components = {len(strand_components(pd)) == 1 for pd in cases}
    assert components == {True, False}  # knots and links
    for pd in cases:
        assert pd.n <= 12
        alpha = diagram._planar_map(pd.crossings).alpha
        tally = diagram._bracket_counts(alpha, pd.n, 0, 1 << pd.n)
        assert dessin._profile_scan(build_dessin(pd, 0)) == tally, pd


# ==========================================================================
# weighted dessins
# ==========================================================================


def test_contract_parallel_twist():
    wd = contract_parallel(build_dessin(twist_pd(2, 3), 0))
    assert wd.dessin.n_edges == 2
    assert sorted(wd.weights) == [2, 3]
    assert dessin_counts(wd.dessin).g == 1


def test_contract_parallel_identity_when_spread():
    d = build_dessin(table_pd("8_21"), 0)
    # not a one-vertex dessin: contraction requires the reduced form
    with pytest.raises(ValueError):
        contract_parallel(d)


def test_weighted_validation():
    d = build_dessin(twist_pd(2, 3), 0)
    with pytest.raises(ValueError):
        WeightedDessin(dessin=d, weights=(1,))
    with pytest.raises(ValueError):
        WeightedDessin(dessin=d, weights=(0,) * d.n_edges)


# ==========================================================================
# serialization
# ==========================================================================


def test_text_round_trip():
    for pd in corpus(seed=43, count=10, max_crossings=8):
        d = build_dessin(pd, 0)
        assert dessin_from_text(dessin_to_text(d)) == d


def test_text_frozen():
    d = build_dessin(parse_pd("X[1,1,2,2]"), 0)
    text = dessin_to_text(d)
    assert dessin_from_text(text) == d
    assert "V:" in text and "E:" in text


def test_from_text_renumbers():
    a = dessin_from_text("V: (1 2 3 4) E: (1,3) (2,4)")
    b = dessin_from_text("V: (10 20 30 40) E: (10,30) (20,40)")
    assert a == b


def test_from_text_rejects_bad():
    with pytest.raises(ValueError):
        dessin_from_text("V: (1 2 3) E: (1,2)")
    with pytest.raises(ValueError):
        dessin_from_text("V: (1 2) (3 4) E: (1,2)")
    for edges in ("(1,x)", "(1 2 3)"):
        with pytest.raises(DiagramError, match="not a pair of integers"):
            dessin_from_text(f"V: (1 2) E: {edges}")
