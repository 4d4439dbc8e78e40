"""Chord diagrams of one-vertex dessins and their interlacement algebra.

A chord diagram is a circular word in which every chord label occurs
twice, read from a basepoint; chords are numbered 0.. by first
appearance.  Chords i and j are interlaced when their endpoints
alternate around the circle, and the interlacement matrix records
sign(i - j) for interlaced pairs.  The spanning quasi-tree counts s(j) of
the dessin are the coefficients of R(x) = sum_j s(j) x^j, and
det(I + wM) = R(w^2).  Both readings are modular eliminations of I + wM:
the determinant of the link, |sum_j (-1)^j s(j)|, is one at w = i, and the
counts interpolate R from m//2 + 2 of them, at w = 1, 2, ...; the
characteristic polynomial det(M - xI) = (-1)^m x^m R(x^-2) renders them.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Dict, Iterable, List, Sequence, Tuple

from ._record import Record
from .errors import DiagramError, InternalError, PreconditionError, _integers
from .dessin import Dessin
from .poly import LaurentPoly

__all__ = [
    "ChordDiagram",
    "to_chord_diagram",
    "parse_chords",
    "chords_to_text",
    "to_dessin",
    "intersection_matrix",
    "char_poly",
    "quasi_counts_and_det",
    "interlacement_determinant",
    "bareiss_det",
]


def _canonical_word(word: Sequence[int]) -> Tuple[int, ...]:
    if not word:
        raise DiagramError("a chord diagram needs at least one chord")
    relabel: Dict[int, int] = {}
    out: List[int] = []
    for lab in _integers(word, "chord labels"):
        if lab not in relabel:
            relabel[lab] = len(relabel)
        out.append(relabel[lab])
    counts: Dict[int, int] = {}
    for lab in out:
        counts[lab] = counts.get(lab, 0) + 1
    if any(c != 2 for c in counts.values()):
        raise DiagramError("every chord label must occur exactly twice")
    return tuple(out)


class ChordDiagram(Record):
    """Circular double-occurrence word, labels 0..m-1 by first appearance."""

    __slots__ = ("word",)

    def __init__(self, word: Sequence[int]):
        self._set(_canonical_word(word))

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


# ============================================================
# Interlacement
# ============================================================


def _interlacement_masks(cd: ChordDiagram) -> List[int]:
    """Bit j of entry i is set when chords i and j interlace: when one end
    of j lies between the ends of i, read off the word's prefix parities."""
    parity = [0]  # parity[k]: the labels occurring an odd number of times in word[:k]
    for lab in cd.word:
        parity.append(parity[-1] ^ 1 << lab)
    first: Dict[int, int] = {}
    masks = [0] * cd.m
    for pos, lab in enumerate(cd.word):
        if lab in first:
            masks[lab] = parity[pos] ^ parity[first[lab] + 1]
        else:
            first[lab] = pos
    return masks


def _interlacement_rows(
    masks: Sequence[int], order: Sequence[int], diagonal: int, scale: int
) -> List[List[int]]:
    """diagonal I + scale M, its rows and columns both taken in `order`."""
    rank = [0] * len(masks)
    for r, i in enumerate(order):
        rank[i] = r
    rows = []
    for i in order:
        row = [0] * len(masks)
        row[rank[i]] = diagonal
        mask = masks[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask ^= 1 << j
            row[rank[j]] = scale if j < i else -scale
        rows.append(row)
    return rows


def intersection_matrix(cd: ChordDiagram) -> List[List[int]]:
    """M[i][j] = sign(i - j) when chords i and j interlace, else 0."""
    return _interlacement_rows(_interlacement_masks(cd), range(cd.m), 0, 1)


def _hadamard_bound(squares: Iterable[int]) -> int:
    """prod (1 + ceil(sqrt(q))) over the squared row norms q."""
    bound = 1
    for sq in squares:
        bound *= 1 + (isqrt(sq - 1) + 1 if sq else 0)  # 1 + ceil(sqrt(sq))
    return bound


def _quasi_tree_residues(masks: Sequence[int], p: int) -> List[int]:
    """R(x) = sum_j s(j) x^j mod the prime p, coefficients from x^0 up to x^(m//2).

    det(I + wM) sums w^|S| det M[S] over the principal minors, and the odd
    ones of the antisymmetric M vanish, so it is R(w^2).  One `_det_mod` at
    each w = 1 .. m//2 + 1, rows by chord degree, gives R by Newton
    interpolation in x = w^2; one more, at w = m//2 + 2, checks it.
    """
    n = len(masks) // 2
    order = sorted(range(len(masks)), key=lambda i: masks[i].bit_count())
    xs = [w * w for w in range(1, n + 3)]
    ys = [_det_mod(_interlacement_rows(masks, order, 1, w), p) for w in range(1, n + 3)]
    c = ys[: n + 1]
    for k in range(1, n + 1):  # divided differences, in place
        for i in range(n, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) * pow(xs[i] - xs[i - k], -1, p) % p
    r = [c[n]]
    for i in range(n - 1, -1, -1):  # r = r (x - xs[i]) + c[i]
        r = [(a - xs[i] * b) % p for a, b in zip([c[i]] + r, r + [0])]
    if sum(a * pow(xs[-1], j, p) for j, a in enumerate(r)) % p != ys[-1]:
        raise InternalError(f"internal error: det(I + wM) at the spare point w = {n + 2} is off R")
    return r


def quasi_counts_and_det(cd: ChordDiagram) -> Tuple[Tuple[int, ...], int]:
    """Quasi-tree counts s(0..m//2) of cd and the determinant |sum_j (-1)^j s(j)|.

    R = sum_j s(j) x^j comes from `_quasi_tree_residues` modulo p, the
    `_modulus` of twice the Hadamard bound B over the chord degrees
    (|row_i|^2 counts the chords i crosses).  s(j) sums the 2j x 2j
    principal minors, and by Hadamard each minor on rows S is at most
    prod_{i in S} |row_i|_2; summing over all S gives B, so the symmetric
    lift of every s(j) is exact.  Each call checks s(0) = 1, that no count
    is negative, and (-1)^m sum_j s(j) = det(M - I) by Bareiss.
    """
    masks = _interlacement_masks(cd)
    p = _modulus(2 * _hadamard_bound(mask.bit_count() for mask in masks))[0]
    s = tuple(c - p if c > p // 2 else c for c in _quasi_tree_residues(masks, p))
    if s[0] != 1 or min(s) < 0:
        raise InternalError(f"internal error: quasi-tree counts {s}: s(0) != 1 or an s(j) < 0")
    at_one = bareiss_det(_interlacement_rows(masks, range(cd.m), -1, 1))
    if (-1 if cd.m % 2 else 1) * sum(s) != at_one:
        raise InternalError(f"internal error: char_poly(1) != det(M - I) = {at_one}")
    return s, abs(sum(-c if j % 2 else c for j, c in enumerate(s)))


def char_poly(cd: ChordDiagram) -> LaurentPoly:
    """det(M - xI) = (-1)^m sum_j s(j) x^(m-2j) for the interlacement matrix
    M of cd, from the checked counts of `quasi_counts_and_det`."""
    sign = -1 if cd.m % 2 else 1
    s = quasi_counts_and_det(cd)[0]
    return LaurentPoly({cd.m - 2 * j: sign * c for j, c in enumerate(s) if c})


# Proth primes p = k 2^s + 1, k odd and below 2^s, of 64 to 4099 bits, each
# about 1.5 times as wide as the one before, with a quadratic non-residue a:
# a^((p-1)/2) = -1 proves p prime (Proth's theorem), and iota = a^((p-1)/4)
# is a square root of -1.  They are the moduli of the chord layer's one
# elimination, `_det_mod` of I + wM: at w = iota for interlacement_determinant,
# and at w = 1 .. m//2 + 2 for the quasi-tree counts, which interpolate R(w^2).
_PROTH = (
    (175, 56, 3), (175, 88, 3), (231, 120, 5), (301, 184, 3), (207, 248, 5),
    (291, 376, 5), (745, 504, 3), (291, 760, 5), (715, 1016, 3), (193, 1528, 3),
    (1465, 2040, 3), (2403, 3064, 7), (1431, 4088, 5),
)


@lru_cache(maxsize=None)
def _proth_root(k: int, s: int, a: int) -> Tuple[int, int]:
    """The prime p = k 2^s + 1 of a `_PROTH` entry and iota, iota^2 = -1 mod p."""
    p = (k << s) + 1
    iota = pow(a, k << (s - 2), p)
    if iota * iota % p != p - 1:
        raise InternalError(f"internal error: {k}*2^{s}+1 fails its Proth test with {a}")
    return p, iota


def _modulus(bound: int) -> Tuple[int, int]:
    """The first `_PROTH` prime p with p - 1 >= bound, and its iota.

    A chord word past the table is valid input that the modular routes do
    not cover, so it is a precondition error.
    """
    entry = next((e for e in _PROTH if e[0] << e[1] >= bound), None)
    if entry is None:
        raise PreconditionError("interlacement matrix too large: no determinant modulus covers it")
    return _proth_root(*entry)


def _det_mod(rows: List[List[int]], p: int) -> int:
    """det(rows) mod the prime p by Gaussian elimination, rows changed in place.

    An entry is reduced only where it is read, as a pivot or a multiplier:
    the rows below a pivot take x * c unreduced, at most m products below
    p^2 each, and only the pivot row's nonzero entries are subtracted.
    """
    m = len(rows)
    det = 1
    for k in range(m):
        piv = next((i for i in range(k, m) if rows[i][k] % p), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        pivot = rows[k][k] % p
        det = det * pivot % p
        inv = pow(pivot, -1, p)
        tail = [(j, c * inv % p) for j, c in enumerate(rows[k][k + 1 :], k + 1) if c % p]
        for row in rows[k + 1 :]:
            x = row[k] % p
            if x:
                for j, c in tail:
                    row[j] -= x * c
    return det % p


def _gf2_det(masks: Sequence[int]) -> int:
    """det(I + M) mod 2 for the bitmask rows of M, eliminating by leading bit."""
    leads: Dict[int, int] = {}
    for i, mask in enumerate(masks):
        r = mask | 1 << i
        while r:
            other = leads.get(r.bit_length())
            if other is None:
                leads[r.bit_length()] = r
                break
            r ^= other
        else:
            return 0
    return 1


def interlacement_determinant(cd: ChordDiagram) -> int:
    """|det(I + iM)| for M the interlacement matrix: the determinant
    |sum_j (-1)^j s(j)| of `quasi_counts_and_det`, without the counts.

    det(I + iM) sums i^|S| det(M_S) over the principal minors, and the odd
    ones of the antisymmetric M vanish.  One elimination over Z/p gives it,
    for p the `_modulus` of 2^32 times twice the Hadamard bound B of
    `quasi_counts_and_det`, which bounds it too; so its symmetric lift is exact.
    Chords crossing fewer others come first, a reordering of rows and
    columns alike that keeps the determinant and cuts the fill-in.  Each
    call checks the lift: it must lie within B, where a wrong residue lands
    with chance below 2^-32, and be det(I + M) mod 2, the same minors
    summed without signs.
    """
    masks = _interlacement_masks(cd)
    degrees = [mask.bit_count() for mask in masks]
    bound = _hadamard_bound(degrees)
    p, iota = _modulus(bound << 33)
    order = sorted(range(cd.m), key=degrees.__getitem__)
    det = _det_mod(_interlacement_rows(masks, order, 1, iota), p)
    if det > p >> 1:
        det -= p
    if abs(det) > bound or det & 1 != _gf2_det(masks):
        raise InternalError(f"internal error: det(I + iM) lifts to {det}, out of bound or parity")
    return abs(det)


# ============================================================
# Exact determinants
# ============================================================


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    a = [list(_integers(row, "matrix entries")) for row in rows]
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
