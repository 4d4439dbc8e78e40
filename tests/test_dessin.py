"""Dessin construction, sub-dessin scans, duality, and serialization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dessinlink import dessin, diagram
from dessinlink.chord import ChordDiagram, parse_chords, to_dessin
from dessinlink.diagram import (
    CapExceededError,
    DiagramError,
    PDCode,
    parse_pd,
    reduce_to_one_vertex,
    smooth_state,
    state_circle_count,
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
    dessin_to_text,
    dual,
    faces,
    quasi_tree_counts,
)
from dessinlink.errors import InternalError
from dessinlink.table import knot_table

from helpers import (
    add_curl,
    bfs_component_count,
    corpus,
    medial_alpha,
    nugatory_join,
    random_decorated_diagram,
    scan_profile,
)

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


# ==========================================================================
# the build_dessin memo
# ==========================================================================


def test_build_dessin_memo_returns_one_object_per_diagram():
    assert build_dessin(parse_pd(TREFOIL), 0) is build_dessin(parse_pd(TREFOIL), 0)


def test_build_dessin_memo_matches_a_direct_smoothing():
    # every spelling of a state shares one entry, and a key that dropped
    # the state would return a stale dessin here
    pd = table_pd("8_21")
    for forms in ([0, "A" * pd.n], [0b10110101, "BABABBAB"]):
        direct = Dessin(smooth_state(pd, forms[0]))
        built = [build_dessin(pd, state) for state in forms]
        assert built[0] == direct
        assert all(d is built[0] for d in built)
    assert dessin._dessin_of.cache_info().currsize == 2


def test_build_dessin_memo_does_not_cache_errors():
    pd = parse_pd(TREFOIL)
    for _ in range(2):
        for state in ("AAC", "AA", 8, -1):
            with pytest.raises(DiagramError):
                build_dessin(pd, state)
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


def test_empty_dessin_is_rejected():
    # accepted, it had 0 vertices and 0 edges, and its counts were "impossible"
    with pytest.raises(DiagramError, match="at least one vertex"):
        Dessin(())


def test_dessin_rejects_non_integer_half_edges():
    # truncated, 1.2 would name half-edge 1 and give a valid dessin
    with pytest.raises(DiagramError, match="half-edge ids must be integers"):
        Dessin([(0, 1.2)])


# ==========================================================================
# sub-dessin scans
# ==========================================================================


def test_sub_counts_frozen():
    d = build_dessin(parse_pd(TREFOIL), 0)
    empty = dessin_counts(d, 0)
    assert (empty.v, empty.e, empty.f, empty.k) == (2, 0, 2, 2)
    one = dessin_counts(d, 0b001)
    assert (one.v, one.e, one.k, one.g) == (2, 1, 1, 0)


def test_dessin_counts_rejects_non_integer_edge_indices():
    # a sub-dessin is an int bitmask: a float or a string, alone or in a
    # list, is refused, and so is a mask past the edges
    d = build_dessin(parse_pd(TREFOIL), 0)
    for sub in ([1.5], ["1"], 1.5, "1"):
        with pytest.raises(DiagramError, match="sub-dessin masks must be integers"):
            dessin_counts(d, sub)
    for mask in (-1, 8):
        with pytest.raises(DiagramError, match=f"^sub-dessin mask {mask} out of range for 3 edges"):
            dessin_counts(d, mask)


def test_a_list_is_never_read_as_a_mask_or_a_state():
    pd = parse_pd(TREFOIL)
    d = build_dessin(pd, 0)
    for call in (
        lambda: dessin_counts(d, [0]),
        lambda: state_circle_count(pd, [0, 1, 1]),
        lambda: build_dessin(pd, [0, 0, 0]),
        lambda: smooth_state(pd, ["A", "B", "B"]),
    ):
        with pytest.raises(DiagramError, match="masks must be integers, got"):
            call()


def test_build_dessin_rejects_a_non_integer_state():
    with pytest.raises(DiagramError, match="state masks must be integers"):
        build_dessin(parse_pd(TREFOIL), 1.5)


def test_quasi_tree_counts_frozen():
    assert quasi_tree_counts(build_dessin(parse_pd(TREFOIL), 0)) == (3,)
    assert quasi_tree_counts(build_dessin(twist_pd(2, 3), 0)) == (1, 6)
    assert quasi_tree_counts(build_dessin(table_pd("8_21"), 0)) == (9, 24)


def test_scan_cap():
    d = build_dessin(table_pd("8_21"), 0)
    with pytest.raises(CapExceededError):
        quasi_tree_counts(d, cap=4)


def test_scan_visits_all_subsets():
    # every mask 0 .. 2^e - 1, ascending; past the cap, an error at the
    # call, before any subset
    for d in (build_dessin(parse_pd(TREFOIL), 0), build_dessin(table_pd("6_2"), 0)):
        assert [mask for mask, _, _ in dessin._scan(d)] == list(range(1 << d.n_edges))
        with pytest.raises(CapExceededError, match=f"^scan over {d.n_edges} edges"):
            dessin._scan(d, d.n_edges - 1)


def random_ribbon_graph(rng: random.Random, e: int) -> Dessin:
    """Half-edges 0..2e-1 in random order, cut into 1..2e vertex rotations."""
    darts = rng.sample(range(2 * e), 2 * e)
    cuts = sorted(rng.sample(range(1, 2 * e), rng.randint(0, 2 * e - 1)))
    return Dessin(darts[i:j] for i, j in zip([0, *cuts], [*cuts, 2 * e]))


def test_component_counts_match_a_bfs():
    # chord dessins have one vertex; random ribbon graphs are often
    # disconnected, so their sub-dessins reach component counts above 1
    rng = random.Random(53)
    dessins = []
    for _ in range(30):
        word = list(range(rng.randint(1, 8))) * 2
        rng.shuffle(word)
        dessins.append(to_dessin(ChordDiagram(tuple(word))))
        dessins.append(random_ribbon_graph(rng, rng.randint(1, 8)))
    seen = set()
    for d in dessins:
        for dd in (d, dual(d)):
            for mask in range(1 << dd.n_edges):
                k = dessin_counts(dd, mask).k
                assert k == bfs_component_count(dd, mask)
                seen.add(k)
    assert {1, 2, 3, 4} <= seen


def assert_forest_matches_a_bfs(d: Dessin, mask: int) -> None:
    # edge i of the mask is in the forest exactly when it joins two
    # components of the mask's lower edges: the index-order spanning forest
    forest = dessin._forest(d, mask)
    k = bfs_component_count(d, mask)
    assert forest & ~mask == 0
    assert forest.bit_count() == d.n_vertices - k
    assert bfs_component_count(d, forest) == k
    for i in range(d.n_edges):
        if mask >> i & 1:
            lower = mask & ((1 << i) - 1)
            joins = bfs_component_count(d, lower | 1 << i) < bfs_component_count(d, lower)
            assert (forest >> i & 1) == joins, (d, mask, i)


def test_forest_matches_a_bfs_on_corpus(corpus200):
    rng = random.Random(61)
    for pd in corpus200:
        d = build_dessin(pd, 0)
        for dd in (d, dual(d)):
            full = (1 << dd.n_edges) - 1
            for mask in [0, full] + [rng.randint(0, full) for _ in range(6)]:
                assert_forest_matches_a_bfs(dd, mask)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_forest_matches_a_bfs_on_decorated_diagrams(seed, data):
    d = build_dessin(random_decorated_diagram(random.Random(seed), max_crossings=10), 0)
    for dd in (d, dual(d)):
        full = (1 << dd.n_edges) - 1
        masks = data.draw(st.lists(st.integers(min_value=0, max_value=full), max_size=8))
        for mask in [0, full, *masks]:
            assert_forest_matches_a_bfs(dd, mask)


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
    # the bridge: one mask is both a sub-dessin of the all-A dessin and the
    # state that B-smooths exactly its crossings, and faces = circles
    for text in [TREFOIL, "X[1,1,2,2]"]:
        pd = parse_pd(text)
        d = build_dessin(pd, 0)
        for mask in range(1 << d.n_edges):
            assert dessin_counts(d, mask).f == state_circle_count(pd, mask)


def test_kernel_faces_are_the_medial_circles_of_each_mask():
    # mask by mask, on dessins off the plane too: the kernel's faces are
    # the circles of the medial map's state that B-smooths the mask's
    # edges; some mask leaves a vertex untouched, holds all the edges of
    # another and part of those of a third
    rng = random.Random(67)
    dessins = []
    for _ in range(30):
        word = list(range(rng.randint(1, 10))) * 2
        rng.shuffle(word)
        dessins.append(to_dessin(ChordDiagram(tuple(word))))
        dessins.append(random_ribbon_graph(rng, rng.randint(1, 10)))
    dessins += [dual(d) for d in dessins]
    assert max(d.n_edges for d in dessins) == 10
    untouched_all_and_part = 0
    for d in dessins:
        e = d.n_edges
        alpha = medial_alpha(d)
        vertex_edges = [sum(1 << ei for ei in {h >> 1 for h in rot}) for rot in d.rotations]
        for mask, eh, f in dessin._counts(d, range(1 << e)):
            assert eh == mask.bit_count()
            assert f == len(diagram._trace_circles(alpha, e, mask)), (d, mask)
            # per vertex: None untouched, True all edges held, False part
            states = {mask & edges == edges if mask & edges else None for edges in vertex_edges}
            untouched_all_and_part += states == {None, True, False}
    assert untouched_all_and_part > 0


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
        alpha = pd.alpha
        tally = diagram._bracket_counts(alpha, pd.n, 0, 1 << pd.n)
        assert dessin._profile_scan(build_dessin(pd, 0)) == tally, pd


def test_medial_state_sum_tally_is_the_subset_profile():
    # on the medial map of any dessin, planar or not, the state sum's
    # kernel tallies that dessin's (e, f) profile, over any split of its
    # range; the reference is the ascending subset enumerator
    rng = random.Random(59)
    table = [table_pd(name) for name in sorted(knot_table())]
    pds = corpus(seed=59, count=20, max_crossings=8)
    dessins = [build_dessin(pd, 0) for pd in table + pds]
    dessins += [dual(d) for d in dessins]
    # the corpus's one-vertex reductions have at most 12 edges, 6_2's 17
    dessins += [build_dessin(reduce_to_one_vertex(pd), 0) for pd in pds]
    for _ in range(20):
        word = list(range(rng.randint(1, 12))) * 2
        rng.shuffle(word)
        dessins.append(to_dessin(ChordDiagram(tuple(word))))
        dessins.append(random_ribbon_graph(rng, rng.randint(1, 12)))
    assert max(d.n_edges for d in dessins) == 12
    assert {dessin_counts(d).g for d in dessins} >= {0, 1, 2, 3}
    assert {dessin_counts(d).k for d in dessins} >= {1, 2, 3}
    for d in dessins:
        e = d.n_edges
        profile = scan_profile(d)
        alpha = medial_alpha(d)
        assert diagram._bracket_counts(alpha, e, 0, 1 << e) == profile, d
        cuts = sorted(rng.sample(range(1, 1 << e), min(3, (1 << e) - 1)))
        split = {}
        for lo, hi in zip([0, *cuts], [*cuts, 1 << e]):
            for key, mult in diagram._bracket_counts(alpha, e, lo, hi).items():
                split[key] = split.get(key, 0) + mult
        assert split == profile, (d, cuts)


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


@pytest.mark.parametrize("word", ["1 1", "1 1 2 3 2 3"])
def test_contract_parallel_keeps_a_word_with_nothing_to_merge(word):
    # "1 1" is too short to merge; in "1 1 2 3 2 3" the loop 1 flanks itself
    d = to_dessin(parse_chords(word))
    assert contract_parallel(d) == WeightedDessin(d, (1,) * d.n_edges)


def test_weighted_validation():
    d = build_dessin(twist_pd(2, 3), 0)
    with pytest.raises(ValueError):
        WeightedDessin(dessin=d, weights=(1,))
    with pytest.raises(ValueError):
        WeightedDessin(dessin=d, weights=(0,) * d.n_edges)
    # the trefoil's all-A dessin has two vertices
    with pytest.raises(DiagramError, match="one vertex"):
        WeightedDessin(build_dessin(table_pd("3_1"), 0), (1, 1, 1))


def test_weighted_dessin_rejects_non_integer_weights():
    # truncated, 2.9 would weigh the chord 2
    with pytest.raises(DiagramError, match="weights must be integers"):
        WeightedDessin(Dessin([(0, 1)]), [2.9])


# ==========================================================================
# serialization
# ==========================================================================


def test_text_frozen():
    assert dessin_to_text(build_dessin(parse_pd("X[1,1,2,2]"), 0)) == "V: (1) (2) E: (1,2)"
    assert dessin_to_text(build_dessin(table_pd("4_1"), 0)) == (
        "V: (1 3 6 8 10 4 2 9 7 5) E: (1,2) (3,4) (5,6) (7,8) (9,10)"
    )
