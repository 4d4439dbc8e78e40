"""Chord diagrams of one-vertex dessins and their interlacement algebra.

A chord diagram is a circular word in which every chord label occurs
twice, read from a basepoint; chords are numbered 0.. by first
appearance.  Chords i and j are interlaced when their endpoints
alternate around the circle, and the interlacement matrix records
sign(i - j) for interlaced pairs.  Its characteristic polynomial
det(M - xI) collects the spanning quasi-tree counts of the dessin in
its coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from .errors import DiagramError
from .dessin import Dessin
from .poly import LaurentPoly, PolyError

__all__ = [
    "ChordDiagram",
    "to_chord_diagram",
    "parse_chords",
    "chords_to_text",
    "rotate",
    "to_dessin",
    "intersection_matrix",
    "char_poly",
    "quasi_counts_and_det",
    "bareiss_det",
    "unit_principal_minors",
]


def _canonical_word(word: Sequence[int]) -> Tuple[int, ...]:
    relabel: Dict[int, int] = {}
    out: List[int] = []
    for lab in word:
        if lab not in relabel:
            relabel[lab] = len(relabel)
        out.append(relabel[lab])
    counts: Dict[int, int] = {}
    for lab in out:
        counts[lab] = counts.get(lab, 0) + 1
    if any(c != 2 for c in counts.values()):
        raise DiagramError("every chord label must occur exactly twice")
    return tuple(out)


@dataclass(frozen=True)
class ChordDiagram:
    """Circular double-occurrence word, labels 0..m-1 by first appearance."""

    word: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", _canonical_word(self.word))

    @property
    def m(self) -> int:
        return len(self.word) // 2

    def __str__(self) -> str:
        return chords_to_text(self)


def to_chord_diagram(d: Dessin) -> ChordDiagram:
    """Read the chord word of a one-vertex dessin from its basepoint.

    The basepoint sits just before the smallest half-edge id, so the
    canonical rotation (which starts at that id) is the word itself.
    """
    if d.n_vertices != 1:
        raise DiagramError("chord diagrams come from one-vertex dessins")
    return ChordDiagram(tuple(h >> 1 for h in d.rotations[0]))


def to_dessin(cd: ChordDiagram) -> Dessin:
    """One-vertex dessin of the word: chord i gets half-edges 2i, 2i+1."""
    seen: Dict[int, int] = {}
    rot: List[int] = []
    for lab in cd.word:
        if lab in seen:
            rot.append(2 * lab + 1)
        else:
            seen[lab] = 1
            rot.append(2 * lab)
    return Dessin((tuple(rot),))


def parse_chords(text: str) -> ChordDiagram:
    """Parse a whitespace-separated endpoint sequence such as `1 2 1 2`."""
    toks = text.split()
    if not toks:
        raise DiagramError("empty chord input")
    try:
        word = [int(t) for t in toks]
    except ValueError:
        raise DiagramError(f"chord labels must be integers: {text!r}") from None
    return ChordDiagram(tuple(word))


def chords_to_text(cd: ChordDiagram) -> str:
    return " ".join(str(lab + 1) for lab in cd.word)


def rotate(cd: ChordDiagram, k: int) -> ChordDiagram:
    """Move the basepoint k endpoints along the circle."""
    w = cd.word
    k %= len(w)
    return ChordDiagram(w[k:] + w[:k])


# ============================================================
# Interlacement
# ============================================================


def intersection_matrix(cd: ChordDiagram) -> List[List[int]]:
    """M[i][j] = sign(i - j) when chords i and j interlace, else 0."""
    m = cd.m
    pos: Dict[int, List[int]] = {}
    for idx, lab in enumerate(cd.word):
        pos.setdefault(lab, []).append(idx)
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        a0, a1 = pos[i]
        for j in range(i + 1, m):
            b0, b1 = pos[j]
            # j first appears after i, so interlacement is a0 < b0 < a1 < b1
            if a0 < b0 < a1 < b1:
                out[i][j] = -1
                out[j][i] = 1
    return out


MatrixLike = Union[ChordDiagram, Sequence[Sequence[int]]]


def _as_matrix(source: MatrixLike) -> List[List[int]]:
    if isinstance(source, ChordDiagram):
        return intersection_matrix(source)
    rows = [[int(x) for x in row] for row in source]
    if any(len(row) != len(rows) for row in rows):
        raise DiagramError("matrix must be square")
    return rows


def char_poly(source: MatrixLike) -> LaurentPoly:
    """det(M - xI) as an exact integer polynomial in x.

    Computed by the Faddeev-LeVerrier recursion; every trace division is
    checked to be exact.
    """
    mat = _as_matrix(source)
    m = len(mat)
    # det(xI - M) = x^m + c_1 x^{m-1} + .. + c_m
    work = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    coeffs = [1]
    for k in range(1, m + 1):
        nxt = [
            [sum(mat[i][t] * work[t][j] for t in range(m)) for j in range(m)]
            for i in range(m)
        ]
        tr = sum(nxt[i][i] for i in range(m))
        if tr % k:
            raise PolyError(f"non-integral trace {tr}/{k} in char_poly")
        c = -(tr // k)
        coeffs.append(c)
        for i in range(m):
            nxt[i][i] += c
        work = nxt
    sign = -1 if m % 2 else 1
    return LaurentPoly({m - k: sign * c for k, c in enumerate(coeffs) if c})


def quasi_counts_and_det(cd: ChordDiagram) -> Tuple[Tuple[int, ...], int]:
    """Quasi-tree counts s(0..m//2) and the determinant from char_poly.

    For the antisymmetric interlacement matrix, det(M - xI) equals
    (-1)^m sum_j s(j) x^(m-2j) with every s(j) >= 0 and s(0) = 1; the
    determinant is |sum_j (-1)^j s(j)|.
    """
    p = char_poly(cd)
    m = cd.m
    sign = -1 if m % 2 else 1
    s: List[int] = []
    for j in range(m // 2 + 1):
        s.append(sign * p.coefficient(m - 2 * j))
    if sum(abs(c) for _, c in p.terms()) != sum(abs(x) for x in s):
        raise PolyError(f"unexpected odd-degree terms in {p.to_string('x')}")
    if s and s[0] != 1:
        raise PolyError("leading quasi-tree count is not 1")
    if any(x < 0 for x in s):
        raise PolyError(f"negative quasi-tree count in {s}")
    det = abs(sum((-1) ** j * sj for j, sj in enumerate(s)))
    return tuple(s), det


# ============================================================
# Exact determinants and principal minors
# ============================================================


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise DiagramError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), -1)
            if swap < 0:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def unit_principal_minors(cd: ChordDiagram) -> Dict[int, int]:
    """Map each chord subset (bitmask) to its principal minor, all 0 or 1.

    Even-size minors are exact Bareiss determinants; odd-size minors of
    an antisymmetric matrix vanish identically.
    """
    mat = intersection_matrix(cd)
    out: Dict[int, int] = {}
    for mask in range(1 << cd.m):
        idx = [i for i in range(cd.m) if mask >> i & 1]
        if len(idx) % 2:
            out[mask] = 0
            continue
        minor = bareiss_det([[mat[i][j] for j in idx] for i in idx])
        if minor not in (0, 1):
            raise DiagramError(
                f"principal minor {minor} for subset {mask:#x} is not 0 or 1"
            )
        out[mask] = minor
    return out
