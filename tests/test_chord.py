"""Chord diagrams, interlacement matrices, and characteristic polynomials."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

import dessinlink

from dessinlink import chord
from dessinlink.chord import (
    ChordDiagram,
    bareiss_det,
    char_poly,
    chords_to_text,
    interlacement_determinant,
    intersection_matrix,
    parse_chords,
    quasi_counts_and_det,
    to_chord_diagram,
    to_dessin,
)
from dessinlink.dessin import build_dessin, dessin_counts, quasi_tree_counts
from dessinlink.diagram import knot_table, reduce_to_one_vertex, table_pd, twist_pd
from dessinlink.errors import DiagramError, InternalError, PreconditionError
from dessinlink.poly import LaurentPoly
from helpers import rotate, unit_principal_minors

FIG8_WORD = "1 2 3 4 5 2 1 5 4 3"


def random_word(rng: random.Random, m: int):
    word = list(range(m)) * 2
    rng.shuffle(word)
    return ChordDiagram(word=tuple(word))


# ==========================================================================
# words and parsing
# ==========================================================================


def test_parse_and_canonical_relabeling():
    cd = parse_chords("7 3 7 3")
    assert cd.word == (0, 1, 0, 1)
    assert cd.m == 2
    assert chords_to_text(cd) == "1 2 1 2"


def test_parse_rejects_bad_words():
    with pytest.raises(ValueError):
        parse_chords("1 2 1")
    with pytest.raises(ValueError):
        parse_chords("1 1 2 2 2 2")


def test_empty_chord_word_is_rejected():
    # an empty word has no basepoint to rotate and no vertex to build
    with pytest.raises(DiagramError, match="at least one chord"):
        ChordDiagram(())


def test_a_multi_vertex_dessin_has_no_chord_word():
    d = build_dessin(table_pd("3_1"), 0)
    assert d.n_vertices == 2
    with pytest.raises(DiagramError, match="^chord diagrams come from one-vertex dessins$"):
        to_chord_diagram(d)


def test_round_trip_through_dessin():
    cd = parse_chords(FIG8_WORD)
    assert to_chord_diagram(to_dessin(cd)) == cd


def test_chord_word_of_reduced_twist():
    red = reduce_to_one_vertex(twist_pd(2, 3))
    cd = to_chord_diagram(build_dessin(red, 0))
    assert chords_to_text(cd) == FIG8_WORD


# ==========================================================================
# interlacement matrix
# ==========================================================================


def test_intersection_matrix_frozen():
    assert intersection_matrix(parse_chords("1 2 1 2")) == [[0, -1], [1, 0]]
    assert intersection_matrix(parse_chords("1 1 2 2")) == [[0, 0], [0, 0]]
    m = intersection_matrix(parse_chords(FIG8_WORD))
    assert m == [
        [0, 0, -1, -1, -1],
        [0, 0, -1, -1, -1],
        [1, 1, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [1, 1, 0, 0, 0],
    ]


def test_intersection_matrix_antisymmetric():
    rng = random.Random(3)
    for _ in range(20):
        cd = random_word(rng, rng.randint(1, 8))
        m = intersection_matrix(cd)
        for i in range(cd.m):
            for j in range(cd.m):
                assert m[i][j] == -m[j][i]


def test_intersection_matrix_is_the_endpoint_order():
    rng = random.Random(7)
    for _ in range(30):
        cd = random_word(rng, rng.randint(1, 12))
        pos = [[k for k, lab in enumerate(cd.word) if lab == i] for i in range(cd.m)]
        want = [
            [(i > j) - (i < j) if a0 < b0 < a1 < b1 or b0 < a0 < b1 < a1 else 0
             for j, (b0, b1) in enumerate(pos)]
            for i, (a0, a1) in enumerate(pos)
        ]
        assert intersection_matrix(cd) == want, cd


# ==========================================================================
# characteristic polynomial
# ==========================================================================


def test_char_poly_frozen():
    assert char_poly(parse_chords(FIG8_WORD)) == LaurentPoly({5: -1, 3: -6})
    assert char_poly(parse_chords("1 2 1 2")) == LaurentPoly({2: 1, 0: 1})
    assert char_poly(parse_chords("1 1")) == LaurentPoly({1: -1})


def test_char_poly_matches_sympy():
    rng = random.Random(17)
    x = sympy.Symbol("x")
    for _ in range(20):
        cd = random_word(rng, rng.randint(1, 8))
        mat = sympy.Matrix(intersection_matrix(cd))
        want = (mat - x * sympy.eye(cd.m)).det(method="berkowitz")
        want = sympy.Poly(sympy.expand(want), x).all_coeffs()
        got = char_poly(cd)
        coeffs = [got.coefficient(e) for e in range(cd.m, -1, -1)]
        assert [int(c) for c in want] == coeffs


def test_char_poly_matches_bareiss_on_interlacement_matrices():
    rng = random.Random(41)
    for m in (20, 27, 33, 40):
        cd = random_word(rng, m)
        mat = intersection_matrix(cd)
        p = char_poly(cd)
        for x in range(-(m // 2), m // 2 + 2):  # m + 1 or more points
            shifted = [[a - x * (i == j) for j, a in enumerate(row)] for i, row in enumerate(mat)]
            assert sum(c * x**e for e, c in p.terms()) == bareiss_det(shifted), (m, x)


def _plant_in_det_mod(monkeypatch, off):
    """Add off(w) to every det(I + wM) that `chord._det_mod` returns."""
    real = chord._det_mod

    def planted(rows, p):
        w = max(abs(x) for row in rows for x in row)
        return (real(rows, p) + off(w)) % p

    monkeypatch.setattr(chord, "_det_mod", planted)


@pytest.mark.parametrize("plant", ["interpolation_value", "spare_value"])
def test_char_poly_checks_its_spare_point(monkeypatch, plant):
    # m = 5: R is interpolated from w = 1, 2, 3 and checked at w = 4
    spoiled = 1 if plant == "interpolation_value" else 4
    _plant_in_det_mod(monkeypatch, lambda w: w == spoiled)
    with pytest.raises(InternalError, match="spare point"):
        char_poly(parse_chords(FIG8_WORD))


def test_char_poly_checks_itself_at_one(monkeypatch):
    # every value off by w^2 is R + x, which the spare point cannot see
    _plant_in_det_mod(monkeypatch, lambda w: w * w)
    with pytest.raises(InternalError, match="det\\(M - I\\)"):
        char_poly(parse_chords(FIG8_WORD))


@pytest.mark.parametrize("plant", ["s0_is_2", "s1_is_minus_1"])
def test_quasi_counts_check_their_lift(monkeypatch, plant):
    # R is patched after its spare point passed: s(0) = 2, or s(1) = -1 as residue p - 1
    real = chord._quasi_tree_residues

    def planted(masks, p):
        r = real(masks, p)
        if plant == "s0_is_2":
            r[0] = 2
        else:
            r[1] = p - 1
        return r

    monkeypatch.setattr(chord, "_quasi_tree_residues", planted)
    for route in (quasi_counts_and_det, char_poly):
        with pytest.raises(InternalError, match="s\\(0\\) != 1 or an s\\(j\\) < 0"):
            route(parse_chords(FIG8_WORD))


def test_char_poly_basepoint_invariance():
    rng = random.Random(29)
    for _ in range(10):
        cd = random_word(rng, rng.randint(2, 7))
        base = char_poly(cd)
        for k in range(1, 2 * cd.m):
            assert char_poly(rotate(cd, k)) == base


def test_quasi_counts_frozen():
    s, det = quasi_counts_and_det(parse_chords(FIG8_WORD))
    assert s == (1, 6, 0)
    assert det == 5
    s2, det2 = quasi_counts_and_det(parse_chords("1 2 1 2"))
    assert s2 == (1, 1)
    assert det2 == 0


@pytest.mark.parametrize("m", range(1, 13))
def test_quasi_counts_are_the_scan_counts_padded_to_m_halves(m):
    # s runs to m//2 whatever the genus: zeros past it, as the `charpoly` payload prints
    rng = random.Random(100 + m)
    for _ in range(3):
        cd = random_word(rng, m)
        scan = quasi_tree_counts(to_dessin(cd))
        assert len(scan) <= m // 2 + 1
        assert quasi_counts_and_det(cd)[0] == scan + (0,) * (m // 2 + 1 - len(scan)), cd


# ==========================================================================
# the determinant by one modular elimination
# ==========================================================================


def test_determinant_moduli_are_proth_primes_with_a_root_of_minus_one():
    sizes = []
    for k, s, a in chord._PROTH:
        p = (k << s) + 1
        assert k % 2 == 1 and k < 1 << s and p % 4 == 1
        assert pow(a, (p - 1) // 2, p) == p - 1  # Proth's theorem: p is prime
        root, iota = chord._proth_root(k, s, a)
        assert root == p and iota * iota % p == p - 1
        if p.bit_length() < 1100:
            assert sympy.isprime(p)
        sizes.append(p.bit_length())
    assert sizes == sorted(sizes) and sizes[0] == 64 and sizes[-1] > 4096


def test_interlacement_determinant_frozen():
    assert interlacement_determinant(parse_chords(FIG8_WORD)) == 5
    assert interlacement_determinant(parse_chords("1 2 1 2")) == 0
    assert interlacement_determinant(parse_chords("1 1")) == 1


@pytest.mark.parametrize("plant", ["off_by_one", "out_of_bound"])
def test_interlacement_determinant_checks_itself(monkeypatch, plant):
    real = chord._det_mod

    def planted(rows, p):
        return (real(rows, p) + 1) % p if plant == "off_by_one" else p // 3

    monkeypatch.setattr(chord, "_det_mod", planted)
    with pytest.raises(InternalError):
        interlacement_determinant(parse_chords(FIG8_WORD))


def test_interlacement_determinant_past_the_table_is_a_diagram_error(monkeypatch):
    monkeypatch.setattr(chord, "_PROTH", chord._PROTH[:1])  # the 64-bit prime alone
    assert interlacement_determinant(parse_chords(FIG8_WORD)) == 5
    assert char_poly(parse_chords(FIG8_WORD)) == LaurentPoly({5: -1, 3: -6})
    too_large = random_word(random.Random(5), 40)
    for route in (interlacement_determinant, char_poly):
        with pytest.raises(PreconditionError, match="no determinant modulus"):
            route(too_large)


def test_interlacement_determinant_is_the_char_poly_determinant():
    cds = [
        to_chord_diagram(build_dessin(reduce_to_one_vertex(table_pd(name)), 0))
        for name in sorted(knot_table())
    ]
    rng = random.Random(43)
    cds += [random_word(rng, m) for m in range(1, 41) for _ in range(2)]
    for cd in cds:
        assert interlacement_determinant(cd) == quasi_counts_and_det(cd)[1], cd


_DETERMINANTS_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
from dessinlink.chord import interlacement_determinant, parse_chords, quasi_counts_and_det
cd = parse_chords(sys.argv[1])
s, det = quasi_counts_and_det(cd)
print(json.dumps({"s": s, "det": det, "iota_det": interlacement_determinant(cd)}))
"""


def test_chord_determinants_need_no_numpy():
    src = str(Path(dessinlink.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _DETERMINANTS_WITHOUT_NUMPY, FIG8_WORD],
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert json.loads(proc.stdout) == {"s": [1, 6, 0], "det": 5, "iota_det": 5}


# ==========================================================================
# principal minors
# ==========================================================================


def test_unit_principal_minors_match_face_counts():
    rng = random.Random(59)
    for _ in range(6):
        cd = random_word(rng, rng.randint(1, 6))
        d = to_dessin(cd)
        minors = unit_principal_minors(cd)
        for mask, value in minors.items():
            c = dessin_counts(d, mask)
            assert value in (0, 1)
            assert (value == 1) == (c.f == 1)


def test_principal_minors_and_rotate_are_not_public():
    # the 2^m minors oracle and the basepoint move live in tests/helpers.py
    with pytest.raises(ImportError):
        from dessinlink.chord import unit_principal_minors  # noqa: F401
    with pytest.raises(ImportError):
        from dessinlink.chord import rotate  # noqa: F401
    assert not {"unit_principal_minors", "rotate"} & set(dessinlink.__all__)


def test_bareiss_det():
    assert bareiss_det([]) == 1
    assert bareiss_det([[7]]) == 7
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(mat) == int(sympy.Matrix(mat).det())
