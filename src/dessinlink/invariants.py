"""Link invariants computed from dessins: bracket, Jones, determinant,
leading coefficients, weighted expansions.

The central identity: the Kauffman bracket of a diagram P with all-A
dessin D on e edges is

    <P> = sum over edge subsets H of A^(e - 2 e(H)) * delta^(f(H) - 1),

with delta = -A^2 - A^-2.  Everything here is an aggregation of the
per-subset (edges, components, faces) profile of D.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ._record import Record
from .dessin import (
    Dessin,
    WeightedDessin,
    _genus_of,
    _scan,
    _subset_profile,
    build_dessin,
    dessin_counts,
    dual,
    quasi_tree_counts,
)
from .diagram import PDCode, reduce_to_one_vertex, strand_components, writhe
from .errors import CapExceededError, DiagramError, InternalError, PreconditionError
from .poly import LaurentPoly, delta_power_sum

__all__ = [
    "JonesResult",
    "DeterminantReport",
    "CoefficientTable",
    "bracket_via_dessin",
    "jones_polynomial",
    "determinant",
    "coefficient_table",
    "coefficient_restricted",
    "top_coefficient_closed_form",
    "a1_adequate",
    "one_vertex_coefficients",
    "weighted_bracket",
    "jones_at_minus_two",
    "pretzel_determinant",
    "spanning_tree_count",
    "DET_METHODS",
]

DET_METHODS = ("quasitree", "jones_eval", "charpoly", "tree_difference")


# ============================================================
# Bracket and Jones
# ============================================================


def bracket_via_dessin(pd: PDCode, cap: int = 24) -> LaurentPoly:
    """Kauffman bracket from the sub-dessin expansion of the all-A dessin.

    The sum is aggregated once per dessin and kept with its cached profile,
    so every later call returns that same (immutable) polynomial.
    """
    d = build_dessin(pd, 0)
    profile = _subset_profile(d, cap)
    if profile.bracket is None:
        e = d.n_edges
        profile.bracket = delta_power_sum(
            ((e - 2 * eh, f - 1), cnt) for (eh, _, f), cnt in profile.tally.items()
        )
    return profile.bracket


class JonesResult(Record):
    """Jones polynomial with its natural variable.

    q_poly is V in q = A^-2; for knots every q-exponent is even and
    t_poly is V in t = q^2, with variable naming the preferred form.
    """

    __slots__ = ("variable", "q_poly", "t_poly", "writhe")

    def __init__(
        self, variable: str, q_poly: LaurentPoly, t_poly: Optional[LaurentPoly], writhe: int
    ):
        self._set(variable, q_poly, t_poly, writhe)

    @property
    def poly(self) -> LaurentPoly:
        return self.t_poly if self.variable == "t" else self.q_poly

    def to_string(self) -> str:
        return self.poly.to_string(self.variable)


def jones_polynomial(pd: PDCode, cap: int = 24) -> JonesResult:
    """V(P) = (-A)^(-3w) <P>, re-expressed in q = A^-2 (t = q^2 for knots)."""
    w = writhe(pd)
    br = bracket_via_dessin(pd, cap)
    va = br.shift(-3 * w)
    if w % 2:
        va = -va
    if va and va.exponent_parity() != 0:
        raise InternalError("internal error: odd exponent after writhe normalization")
    q_poly = LaurentPoly({-(e // 2): c for e, c in va.terms()})
    knot = len(strand_components(pd)) == 1
    if knot:
        if q_poly and q_poly.exponent_parity() != 0:
            raise InternalError("internal error: odd q-exponent for a knot")
        t_poly = LaurentPoly({e // 2: c for e, c in q_poly.terms()})
        return JonesResult("t", q_poly, t_poly, w)
    return JonesResult("q", q_poly, None, w)


# ============================================================
# Determinant, four ways
# ============================================================


class DeterminantReport(Record):
    """Agreeing per-method determinant values, with skip reasons."""

    __slots__ = ("value", "methods", "skipped")

    def __init__(self, value: int, methods: Mapping[str, int], skipped: Mapping[str, str]):
        self._set(value, methods, skipped)


def spanning_tree_count(d: Dessin) -> int:
    """Spanning trees of the underlying multigraph (loops ignored)."""
    v = d.n_vertices
    lap = [[0] * v for _ in range(v)]
    for i in range(d.n_edges):
        a, b = d.vertex_of[2 * i : 2 * i + 2]
        if a == b:
            continue
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    from .chord import bareiss_det

    minor = [row[1:] for row in lap[1:]]
    return bareiss_det(minor)


def _det_quasitree(pd: PDCode, cap: int) -> int:
    s = quasi_tree_counts(build_dessin(pd, 0), cap=cap)
    return abs(sum((-1) ** j * sj for j, sj in enumerate(s)))


def _det_jones_eval(pd: PDCode, cap: int) -> int:
    """|<P>| at A^4 = -1: every exponent is M - 4l, so the value is the
    alternating coefficient sum |sum_l (-1)^l a[l]|."""
    coeffs = coefficient_table(pd, cap, check=False).coeffs
    if not any(coeffs):
        raise InternalError("internal error: zero bracket")
    return abs(sum(-c if l % 2 else c for l, c in enumerate(coeffs)))


def _det_charpoly(pd: PDCode) -> int:
    from .chord import quasi_counts_and_det, to_chord_diagram

    d = build_dessin(reduce_to_one_vertex(pd), 0)
    _, det = quasi_counts_and_det(to_chord_diagram(d))
    return det


def _det_tree_difference(pd: PDCode) -> int:
    d = build_dessin(pd, 0)
    if dessin_counts(d).g != 1:
        raise PreconditionError("tree_difference needs an all-A dessin of genus 1")
    return abs(spanning_tree_count(d) - spanning_tree_count(dual(d)))


def determinant(
    pd: PDCode, methods: Optional[Iterable[str]] = None, cap: int = 24
) -> DeterminantReport:
    """Link determinant with cross-checked evaluation routes.

    With methods=None every applicable route runs and inapplicable ones
    are reported as skipped; an explicitly requested route that does not
    apply raises instead.  All computed values must agree.
    """
    if methods is None:
        requested = set(DET_METHODS)
        strict = False
    else:
        requested = set(methods)
        strict = True
        unknown = requested.difference(DET_METHODS)
        if unknown:
            raise DiagramError(f"unknown determinant methods {sorted(unknown)}")
    values: Dict[str, int] = {}
    skipped: Dict[str, str] = {}

    def attempt(name, fn):
        if name not in requested:
            return
        try:
            values[name] = fn()
        except (CapExceededError, DiagramError) as exc:
            if strict:
                raise
            skipped[name] = str(exc)

    attempt("quasitree", lambda: _det_quasitree(pd, cap))
    attempt("jones_eval", lambda: _det_jones_eval(pd, cap))
    attempt("charpoly", lambda: _det_charpoly(pd))
    attempt("tree_difference", lambda: _det_tree_difference(pd))
    if not values:
        raise DiagramError(f"no determinant method applied: {skipped}")
    if len(set(values.values())) != 1:
        raise InternalError(f"internal error: determinant methods disagree: {values}")
    return DeterminantReport(next(iter(values.values())), values, skipped)


# ============================================================
# Coefficients of the bracket
# ============================================================


class CoefficientTable(Record):
    """Bracket coefficients a[l] of A^(M - 4l), M = e + 2v - 2.

    Every exponent in the bracket is congruent to M mod 4; coeffs[l]
    covers l = 0 .. (M - min exponent)/4.
    """

    __slots__ = ("top_exponent", "coeffs")

    def __init__(self, top_exponent: int, coeffs: Tuple[int, ...]):
        self._set(top_exponent, coeffs)

    def coefficient(self, l: int) -> int:
        if l < 0:
            raise DiagramError("coefficient level must be >= 0")
        return self.coeffs[l] if l < len(self.coeffs) else 0

    def as_poly(self) -> LaurentPoly:
        return LaurentPoly(
            {self.top_exponent - 4 * l: c for l, c in enumerate(self.coeffs) if c}
        )


def coefficient_table(pd: PDCode, cap: int = 24, check: bool = True) -> CoefficientTable:
    """The bracket read by level: a[l] is its coefficient of A^(M - 4l).

    This is the one place where bracket exponents become levels.  With
    check=True the table must match the binomial spread, which never reads
    the bracket, and a[0] its scan-free closed form.
    """
    d = build_dessin(pd, 0)
    m_top = d.n_edges + 2 * d.n_vertices - 2
    levels: Dict[int, int] = {}
    for x, c in bracket_via_dessin(pd, cap).terms():
        l, r = divmod(m_top - x, 4)
        if l < 0 or r:
            raise InternalError(
                f"internal error: bracket exponent {x} is not {m_top} mod 4 "
                f"and at most {m_top}: {x - m_top} not in -4N"
            )
        levels[l] = c
    top = max(levels, default=0)
    table = CoefficientTable(m_top, tuple(levels.get(l, 0) for l in range(top + 1)))
    if check:
        ok = _coefficient_checks(d, table, cap)
        if not ok["matches_bracket"]:
            raise InternalError("internal error: coefficient table != bracket")
        if not ok["top_closed_form"]:
            raise InternalError(
                f"internal error: top coefficient {table.coefficient(0)} "
                f"!= closed form {top_coefficient_closed_form(d)}"
            )
    return table


def _spread(d: Dessin, bound: int, cap: int) -> Tuple[int, ...]:
    """a[0..bound] without the bracket: a subset H first contributes at
    level l0(H) = (v - k(H)) + g(H), and its delta-power spreads it
    binomially across f(H) consecutive levels, a[l] = sum over H of
    (-1)^(f-1) C(f-1, l - l0)."""
    v = d.n_vertices
    groups: Dict[Tuple[int, int], int] = {}
    for (eh, k, f), cnt in _subset_profile(d, cap).tally.items():
        l0 = v - k + _genus_of(v, eh, k, f)
        if l0 <= bound:
            groups[l0, f] = groups.get((l0, f), 0) + cnt
    acc = [0] * (bound + 1)
    for (l0, f), cnt in groups.items():
        signed = -cnt if (f - 1) % 2 else cnt
        for l in range(l0, min(l0 + f, bound + 1)):
            acc[l] += signed * comb(f - 1, l - l0)
    return tuple(acc)


def _coefficient_checks(d: Dessin, table: CoefficientTable, cap: int) -> Dict[str, bool]:
    """The two checks of the table of d: a[0] against its closed form, and
    every level against the spread."""
    # f(H) <= e(H) + v, so no subset spreads past level e + v - 1
    spread = _spread(d, d.n_edges + d.n_vertices - 1, cap)
    return {
        "top_closed_form": top_coefficient_closed_form(d) == table.coefficient(0),
        "matches_bracket": spread == table.coeffs + (0,) * (len(spread) - len(table.coeffs)),
    }


def coefficient_restricted(pd: PDCode, l: int, cap: int = 24) -> int:
    """a[l] recomputed from only the subsets with l0(H) <= l.

    Locality of the coefficient: subsets of higher starting level cannot
    reach down to level l, so the restricted sum must match the table.
    """
    if l < 0:
        raise DiagramError("coefficient level must be >= 0")
    return _spread(build_dessin(pd, 0), l, cap)[l]


def top_coefficient_closed_form(d: Dessin) -> int:
    """a[0] = sum over genus-0 sets H of loops of (-1)^(v + e(H) - 1).

    Loops join no two vertices, so H has genus 0 exactly when no two of its
    chords interlace at any vertex, and a[0] = (-1)^(v-1) prod_v N(0, L).
    With the L loop ends of a vertex in rotation order, N(i, j) is the
    signed count of non-interlaced chord sets within ends i..j-1:
    N(i, i) = 1, N(i, j) = N(i+1, j) - [i < p < j] N(i+1, p) N(p+1, j) for
    p the partner of end i (its chord left out, or taken with sign -1 and
    every other chord wholly inside or after it).  O(sum L^2), no cap.
    """
    vert_of = d.vertex_of
    total = (-1) ** (d.n_vertices - 1)
    for rot in d.rotations:
        ends = [h for h in rot if vert_of[h ^ 1] == vert_of[h]]
        size = len(ends)
        n = [[1] * (size + 1) for _ in range(size + 1)]
        for i in range(size - 1, -1, -1):
            p = ends.index(ends[i] ^ 1)
            for j in range(i + 1, size + 1):
                n[i][j] = n[i + 1][j] - (n[i + 1][p] * n[p + 1][j] if i < p < j else 0)
        total *= n[0][size]
    return total


def a1_adequate(d: Dessin) -> int:
    """a[1] of a loopless dessin: (-1)^v (e' - v + 1), e' counting
    endpoint-pair classes of edges."""
    pairs: set = set()
    for i in range(d.n_edges):
        a, b = d.vertex_of[2 * i : 2 * i + 2]
        if a == b:
            raise DiagramError("dessin has a loop; the adequate a[1] form needs none")
        pairs.add(frozenset((a, b)))
    v = d.n_vertices
    return (-1) ** v * (len(pairs) - v + 1)


def one_vertex_coefficients(d: Dessin, l: int, cap: int = 24) -> int:
    """a[l] of a one-vertex dessin: sum over subsets with g(H) <= l of
    (-1)^e(H) C(e(H) - 2 g(H), l - g(H)), the spread term at v = 1."""
    if d.n_vertices != 1:
        raise DiagramError("one_vertex_coefficients needs a one-vertex dessin")
    if l < 0:
        raise DiagramError("coefficient level must be >= 0")
    return _spread(d, l, cap)[l]


# ============================================================
# Weighted expansion of a contracted dessin
# ============================================================


def weighted_bracket(wd: WeightedDessin, cap: int = 24) -> LaurentPoly:
    """Bracket of the expanded diagram from its parallel-contracted dessin.

    <P> = sum over chord subsets H of
          A^(e - 4 g(H)) (-1 - A^-4)^(-2 g(H)) prod_{c in H} ((-A^-4)^mu(c) - 1)
    with e the weighted edge total.  Each chord factor is the binomial
    telescope of its mu parallel copies, sum_j C(mu,j) (-1 - A^-4)^j; for
    odd mu it reduces to -1 - A^(-4 mu).  The negative genus powers are
    cleared globally by (1 + A^-4)^(2 g(D)) and divided back out, the
    zero remainder asserted.
    """
    d = wd.dessin
    e_total = sum(wd.weights)
    g_max = dessin_counts(d).g
    one_plus_u = LaurentPoly({0: 1, -4: 1})
    upow = [LaurentPoly.one()]
    for _ in range(2 * g_max):
        upow.append(upow[-1] * one_plus_u)
    chord_factor = [
        LaurentPoly({0: -1, -4 * mu: (-1) ** mu}) for mu in wd.weights
    ]
    v = d.n_vertices
    acc = LaurentPoly()
    for mask, eh, k, f in _scan(d, cap=cap):
        g = _genus_of(v, eh, k, f)
        term = upow[2 * (g_max - g)].shift(e_total - 4 * g)
        mm = mask
        while mm:
            low = mm & -mm
            mm ^= low
            term = term * chord_factor[low.bit_length() - 1]
        acc = acc + term
    return acc.divide_exact(upow[2 * g_max])


def jones_at_minus_two(pd: PDCode, cap: int = 24) -> Tuple[int, int]:
    """Evaluate A^(-e) <P> at A^-4 = -2 against the genus generating sum.

    The diagram is first reduced to a one-vertex all-A dessin; the left
    side is the exact integer value of the normalized bracket, the right
    side is sum over subsets H of (-2)^g(H).  The two agree.
    """
    pd = reduce_to_one_vertex(pd)
    d = build_dessin(pd, 0)
    if d.n_vertices != 1:
        raise InternalError(f"internal error: reduced dessin has {d.n_vertices} vertices")
    # at v = 1, M = e: A^(-e) <P> = sum_l a[l] A^(-4l)
    table = coefficient_table(pd, cap, check=False)
    lhs = sum(c * (-2) ** l for l, c in enumerate(table.coeffs))
    rhs = sum(
        cnt * (-2) ** _genus_of(1, eh, k, f)
        for (eh, k, f), cnt in _subset_profile(d, cap).tally.items()
    )
    return lhs, rhs


# ============================================================
# Pretzel closed form
# ============================================================


def pretzel_determinant(p_seq: Sequence[int], q_seq: Sequence[int]) -> int:
    """det K(p_1..p_n, -q_1..-q_m) = |prod p prod q (sum 1/p - sum 1/q)|."""
    ps = [int(p) for p in p_seq]
    qs = [int(q) for q in q_seq]
    if not ps or not qs:
        raise DiagramError("pretzel closed form needs both positive and negative columns")
    if any(x < 1 for x in ps + qs):
        raise DiagramError("pretzel closed form takes positive column magnitudes")
    product = 1
    for x in ps + qs:
        product *= x
    return abs(sum(product // p for p in ps) - sum(product // q for q in qs))
