"""Link invariants computed from dessins: bracket, Jones, determinant,
leading coefficients, weighted expansions.

The central identity: the Kauffman bracket of a diagram P with all-A
dessin D on e edges is

    <P> = sum over edge subsets H of A^(e - 2 e(H)) * delta^(f(H) - 1),

with delta = -A^2 - A^-2.  Everything here is an aggregation of the
per-subset (edges, components, faces) profile of D.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

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
from .errors import CapExceededError, DiagramError, InternalError
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


@dataclass(frozen=True)
class JonesResult:
    """Jones polynomial with its natural variable.

    q_poly is V in q = A^-2; for knots every q-exponent is even and
    t_poly is V in t = q^2, with variable naming the preferred form.
    """

    variable: str
    q_poly: LaurentPoly
    t_poly: Optional[LaurentPoly]
    writhe: int

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


@dataclass(frozen=True)
class DeterminantReport:
    """Agreeing per-method determinant values, with skip reasons."""

    value: int
    methods: Mapping[str, int]
    skipped: Mapping[str, str]


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
    """|<P>| at A^4 = -1: every exponent is e0 - 4l, so the value is the
    alternating coefficient sum |sum_l (-1)^l a[l]|."""
    br = bracket_via_dessin(pd, cap)
    if not br:
        raise InternalError("internal error: zero bracket")
    e0 = br.max_exp
    total = 0
    for e, c in br.terms():
        if (e0 - e) % 4:
            raise InternalError(f"internal error: bracket exponent {e} is not {e0} mod 4")
        total += -c if (e0 - e) % 8 else c
    return abs(total)


def _det_charpoly(pd: PDCode) -> int:
    from .chord import quasi_counts_and_det, to_chord_diagram

    d = build_dessin(reduce_to_one_vertex(pd), 0)
    _, det = quasi_counts_and_det(to_chord_diagram(d))
    return det


def _det_tree_difference(pd: PDCode) -> int:
    d = build_dessin(pd, 0)
    if dessin_counts(d).g != 1:
        raise DiagramError("tree_difference needs an all-A dessin of genus 1")
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


@dataclass(frozen=True)
class CoefficientTable:
    """Bracket coefficients a[l] of A^(M - 4l), M = e + 2v - 2.

    Every exponent in the bracket is congruent to M mod 4; coeffs[l]
    covers l = 0 .. (M - min exponent)/4.
    """

    top_exponent: int
    coeffs: Tuple[int, ...]

    def coefficient(self, l: int) -> int:
        if l < 0:
            raise DiagramError("coefficient level must be >= 0")
        return self.coeffs[l] if l < len(self.coeffs) else 0

    def as_poly(self) -> LaurentPoly:
        return LaurentPoly(
            {self.top_exponent - 4 * l: c for l, c in enumerate(self.coeffs) if c}
        )


def _level_groups(d: Dessin, cap: int) -> Dict[Tuple[int, int, int], int]:
    """Subset multiplicities grouped by (genus, level l0 = v-k+g, faces)."""
    v = d.n_vertices
    groups: Dict[Tuple[int, int, int], int] = {}
    for (eh, k, f), cnt in _subset_profile(d, cap).tally.items():
        g = _genus_of(v, eh, k, f)
        key = (g, v - k + g, f)
        groups[key] = groups.get(key, 0) + cnt
    return groups


def coefficient_table(pd: PDCode, cap: int = 24, check: bool = True) -> CoefficientTable:
    """All bracket coefficients from one sub-dessin scan.

    A subset H first contributes at level l0(H) = (v - k(H)) + g(H), and
    its delta-power spreads it binomially across f(H) consecutive levels:
    a[l] = sum over H of (-1)^(f-1) C(f-1, l - l0).  With check=True the
    top coefficient is verified against its scan-free closed form.
    """
    d = build_dessin(pd, 0)
    m_top = d.n_edges + 2 * d.n_vertices - 2
    acc: Dict[int, int] = {}
    for (g, l0, f), cnt in sorted(_level_groups(d, cap).items()):
        sign = -1 if (f - 1) % 2 else 1
        for t in range(f):
            acc[l0 + t] = acc.get(l0 + t, 0) + sign * cnt * comb(f - 1, t)
    top = max((l for l, c in acc.items() if c), default=0)
    coeffs = tuple(acc.get(l, 0) for l in range(top + 1))
    table = CoefficientTable(m_top, coeffs)
    if check:
        closed = top_coefficient_closed_form(d)
        if closed != table.coefficient(0):
            raise InternalError(
                f"internal error: top coefficient {table.coefficient(0)} "
                f"!= closed form {closed}"
            )
        if table.as_poly() != bracket_via_dessin(pd, cap):
            raise InternalError("internal error: coefficient table != bracket")
    return table


def coefficient_restricted(pd: PDCode, l: int, cap: int = 24) -> int:
    """a[l] recomputed from only the subsets with l0(H) <= l.

    Locality of the coefficient: subsets of higher starting level cannot
    reach down to level l, so the restricted sum must match the table.
    """
    if l < 0:
        raise DiagramError("coefficient level must be >= 0")
    d = build_dessin(pd, 0)
    total = 0
    for (g, l0, f), cnt in _level_groups(d, cap).items():
        if l0 > l or l - l0 >= f:
            continue
        sign = -1 if (f - 1) % 2 else 1
        total += sign * cnt * comb(f - 1, l - l0)
    return total


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
    (-1)^e(H) C(e(H) - 2 g(H), l - g(H))."""
    if d.n_vertices != 1:
        raise DiagramError("one_vertex_coefficients needs a one-vertex dessin")
    if l < 0:
        raise DiagramError("coefficient level must be >= 0")
    total = 0
    for (eh, _, f), cnt in _subset_profile(d, cap).tally.items():
        g = _genus_of(1, eh, 1, f)
        if g > l:
            continue
        total += (-1) ** eh * cnt * comb(eh - 2 * g, l - g)
    return total


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
    e = d.n_edges
    br = bracket_via_dessin(pd, cap)
    lhs = 0
    for exp, c in br.shift(-e).terms():
        if exp > 0 or exp % 4:
            raise InternalError(f"internal error: normalized bracket exponent {exp} not in -4N")
        lhs += c * (-2) ** (-exp // 4)
    v = d.n_vertices
    rhs = sum(
        cnt * (-2) ** _genus_of(v, eh, k, f)
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
