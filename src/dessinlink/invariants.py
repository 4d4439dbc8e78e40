"""Link invariants computed from dessins: bracket, Jones, determinant,
leading coefficients, weighted expansions.

The central identity: the Kauffman bracket of a diagram P with all-A
dessin D on e edges is

    <P> = sum over edge subsets H of A^(e - 2 e(H)) * delta^(f(H) - 1),

with delta = -A^2 - A^-2.  The bracket, and what is read off it (Jones,
the coefficients a[l], the `jones_eval` determinant), folds that sum
crossing by crossing; the quasi-tree counts and the checks read the
per-subset (e(H), f(H)) profile of D, a 2^e scan, and `poly.delta_spread`
turns that profile into levels.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ._record import Record
from .dessin import (
    Dessin,
    WeightedDessin,
    _scan,
    _subset_profile,
    build_dessin,
    dessin_counts,
    dual,
    quasi_tree_counts,
)
from .diagram import _PARTNER, PDCode, _writhe_and_components, reduce_to_one_vertex
from .errors import CapExceededError, DiagramError, InternalError, PreconditionError, _integers
from .poly import LaurentPoly, _signed_digits, delta_spread

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
    """Kauffman bracket: the sub-dessin sum of the all-A dessin, folded
    crossing by crossing as a frontier contraction.

    The contraction is the planar-algebra one of Bar-Natan, "Fast Khovanov
    homology computations" (arXiv math/0606318), taken for the bracket
    only: its cost grows with the width of the crossing order, the most
    arcs open at once, and `cap` bounds that width.  The subset scan stays
    the oracle for it.  The bracket is memoized per dart involution
    `pd.alpha`, which is all the contraction reads.
    """
    _, width = _contraction_order(pd.alpha)
    if width > cap:
        raise CapExceededError(f"contraction over {width} open arcs exceeds the cap {cap}")
    return _contract(pd.alpha)


# Greedy starts tried by `_contraction_order`, spread over the crossing
# indices.  On 96 seeded 4- to 8-strand 120-crossing braid closures, in
# braid order and shuffled, one start let 4-strand widths reach 10, not 8;
# a third start narrowed 14 orders by 2-4 arcs, widened 3, kept each strand
# count's widest (8, 12, 16, 18) and left the contraction time unchanged.
_ORDER_STARTS = 2


# Reuse is between the invariants of one diagram, so a few entries suffice.
@lru_cache(maxsize=16)
def _contraction_order(alpha: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    """A crossing order for `_contract` on the dart involution `alpha`, and
    its width.

    From each start, the next crossing is, among those the frontier
    touches, the one with the most arcs open, then the most neighbours on
    the frontier, then the earliest there; the order of least width wins.
    """
    n = len(alpha) >> 2
    # each crossing's neighbours across its arcs, and its curls (both ends
    # at the crossing), which never open; an arc counts at its later dart
    nbrs: List[List[int]] = [[] for _ in range(n)]
    curls = [0] * n
    for d, e in enumerate(alpha):
        if e < d:
            c, other = d >> 2, e >> 2
            if other == c:
                curls[c] += 1
            else:
                nbrs[c].append(other)
                nbrs[other].append(c)
    best: Tuple[int, Tuple[int, ...]] = (4 * n + 1, ())
    for start in range(0, n, -(-n // _ORDER_STARTS)):
        # 8 per open arc and 1 per neighbour on the frontier; once placed,
        # -8, which its at most 4 neighbours entering the frontier leave < 0
        rank = [0] * n
        for y in nbrs[start]:
            rank[y] += 1
        frontier = [start]
        order: List[int] = []
        width = opened = 0
        while frontier:
            c = max(frontier, key=rank.__getitem__)
            frontier.remove(c)
            order.append(c)
            opened += 4 - 2 * (rank[c] >> 3) - 2 * curls[c]
            if opened > width:
                width = opened
            rank[c] = -8
            for x in nbrs[c]:
                r = rank[x]
                if r < 0:
                    continue
                if r < 8:
                    frontier.append(x)
                    for y in nbrs[x]:
                        rank[y] += 1
                rank[x] = r + 7  # an arc opens, and c leaves the frontier
        if width < best[0]:
            best = (width, tuple(order))
    if len(best[1]) != n:
        raise InternalError("internal error: contraction order misses a crossing")
    return best[1], best[0]


# Unbounded: there are fewer than 5^4 shapes.
@lru_cache(maxsize=None)
def _routes(shape: Tuple[int, ...]) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], int, int], ...]:
    """Both smoothings of a crossing whose slot i leads on to slot j when
    shape[i] = ~j, and to an open arc when shape[i] = 0.

    A joins slots (0,1), (2,3) and weighs A; B joins (1,2), (3,0) and
    weighs A^-1.  For each: the pairs of slots a path now joins, the
    digit shift (A-power + 5) / 2 - loops of `_contract`, and the number
    of loops closed.
    """
    out = []
    for digits, join in zip((3, 2), _PARTNER):
        seen = [False] * 4
        pairs = []
        for i in range(4):
            if shape[i] or seen[i]:
                continue
            seen[i] = True
            j = join[i]
            while shape[j]:
                seen[j] = seen[~shape[j]] = True
                j = join[~shape[j]]
            seen[j] = True
            pairs.append((i, j))
        loops = 0
        for i in range(4):
            if not seen[i]:
                loops += 1
                while not seen[i]:
                    seen[i] = seen[join[i]] = True
                    i = ~shape[join[i]]
        out.append((tuple(pairs), digits - loops, loops))
    return tuple(out)


@lru_cache(maxsize=16)
def _contract(alpha: Tuple[int, ...]) -> LaurentPoly:
    """<P> of the dart involution `alpha`, folding the crossings in
    `_contraction_order`.

    Each open arc holds a register, keyed by the dart that opened it; a
    state maps every register to its partner's (-1 when free): which open
    arcs the smoothed crossings so far join in pairs.  A slot of the next
    crossing leads on to an open arc, or back to a slot of the same
    crossing (a curl, or two open arcs the state joins); `_routes` smooths
    it both ways.

    A state's value, its sum of A^(#A - #B) delta^(closed loops) after k
    crossings, is one integer: sum_j c_j A^(2j - 5k) is sum_j c_j X^j at
    X = 2^bits.  With delta = -A^-2 (1 + A^4), a crossing's smoothings
    shift the digits by (A-power + 5) / 2 - L and multiply by -(1 + X^2)
    per loop.  The last state has every loop closed, one of them counted
    once too many.  Evaluation at X is exact in Z, so the digits of the
    states on the way may carry; only the read-out needs every |c_j| of
    that last value, delta <P>, below 2^(bits - 1), and bits = n + 5
    leaves a bit to spare.  Thistlethwaite's spanning-tree expansion
    (Topology 26, 1987) gives sum |c| of <P> <= tau, the spanning trees of
    a Tait graph; Hadamard's inequality, det <= the product of the
    diagonal, on the reduced Laplacians of both Tait graphs, planar duals
    with as many spanning trees, bounds tau^2 by the product of their
    vertex degrees, the face sizes at most; the n + 2 faces of the connected
    diagram have sizes totalling 4n, so by AM-GM tau < 2^(n + 2); and delta
    at most doubles sum |c|, so every digit of delta <P> is below 2^(n + 3).
    """
    order, width = _contraction_order(alpha)
    bits = len(order) + 5
    reg: Dict[int, int] = {}  # opening dart -> register
    free = list(range(width - 1, -1, -1))
    states: Dict[Tuple[int, ...], int] = {(-1,) * width: 1}
    for c in order:
        darts = range(4 * c, 4 * c + 4)
        closing: Dict[int, int] = {}  # register -> ~slot, of the arcs closed here
        kinds: List[Optional[Tuple[int, int]]] = [None] * 4
        for i, d in enumerate(darts):
            e = alpha[d]
            if e in reg:
                r = reg.pop(e)
                closing[r] = ~i
                kinds[i] = (0, r)
            elif e >> 2 == c:
                kinds[i] = (1, ~(e & 3))
        free.extend(closing)
        for i, d in enumerate(darts):
            if kinds[i] is None:
                reg[d] = r = free.pop()
                kinds[i] = (1, r)
        nxt: Dict[Tuple[int, ...], int] = {}
        for state, value in states.items():
            exits = [v if kind else closing.get(state[v], state[v]) for kind, v in kinds]
            cleared = list(state)
            for r in closing:
                cleared[r] = -1
            for pairs, digits, loops in _routes(tuple([e if e < 0 else 0 for e in exits])):
                new = cleared.copy()
                for i, j in pairs:
                    a, b = exits[i], exits[j]
                    new[a] = b
                    new[b] = a
                value_out = value << digits * bits
                for _ in range(loops):
                    value_out = -(value_out + (value_out << 2 * bits))
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + value_out
        states = nxt
    if len(states) != 1:
        raise InternalError(f"internal error: contraction ended in {len(states)} states")
    # divide by delta = -A^-2 (1 + A^4); A^4 is two digits
    (value,) = states.values()
    value, rem = divmod(value, 1 + (1 << 2 * bits))
    if rem or not value:
        raise InternalError("internal error: contraction value is not a nonzero multiple of delta")
    low = ((value & -value).bit_length() - 1) // bits  # the digits below are 0
    digits = _signed_digits(value >> low * bits, bits, value.bit_length() // bits + 1 - low)
    return LaurentPoly._of({2 * j + 2 - 5 * len(order): -c for j, c in enumerate(digits, low) if c})


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
    """V(P) = (-A)^(-3w) <P>, re-expressed in q = A^-2 (t = q^2 for knots):
    one pass over the bracket's terms gives q's, and one over q's gives t's."""
    w, n_comps = _writhe_and_components(pd)
    shift, sign = -3 * w, -1 if w & 1 else 1
    q_terms: Dict[int, int] = {}
    for e, c in bracket_via_dessin(pd, cap)._terms.items():
        e += shift
        if e & 1:
            raise InternalError("internal error: odd exponent after writhe normalization")
        q_terms[-(e >> 1)] = sign * c
    q_poly = LaurentPoly._of(q_terms)
    if n_comps == 1:
        t_terms: Dict[int, int] = {}
        for e, c in q_terms.items():
            if e & 1:
                raise InternalError("internal error: odd q-exponent for a knot")
            t_terms[e >> 1] = c
        return JonesResult("t", q_poly, LaurentPoly._of(t_terms), w)
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
    """|det(I + iM)| for M the interlacement matrix of the one-vertex
    reduction, by one elimination mod a prime (`chord.interlacement_determinant`).

    The route is named `charpoly`, in `--method`, the `det` payloads and
    `verify`, after det(M - xI), which `chord.char_poly` renders from the
    quasi-tree counts of `chord.quasi_counts_and_det`: their alternating
    sum is det(I + iM).
    """
    from .chord import interlacement_determinant, to_chord_diagram

    d = build_dessin(reduce_to_one_vertex(pd), 0)
    return interlacement_determinant(to_chord_diagram(d))


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
    are reported as skipped; an explicitly requested route (a str names
    one) that does not apply raises instead, and so does requesting none.
    All computed values must agree.  When every route is skipped, which on
    a valid diagram only a cap on the scan routes brings about, it raises
    `CapExceededError` naming each skip.
    """
    if methods is None:
        requested = set(DET_METHODS)
        strict = False
    else:
        requested = {methods} if isinstance(methods, str) else set(methods)
        strict = True
        if not requested:
            raise DiagramError("no determinant method requested")
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
        raise CapExceededError(f"no determinant method applied: {skipped}")
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
        l = _level(l)
        return self.coeffs[l] if l < len(self.coeffs) else 0

    def as_poly(self) -> LaurentPoly:
        return LaurentPoly(
            {self.top_exponent - 4 * l: c for l, c in enumerate(self.coeffs) if c}
        )


def coefficient_table(pd: PDCode, cap: int = 24, check: bool = True) -> CoefficientTable:
    """The bracket read by level: a[l] is its coefficient of A^(M - 4l).

    This is the one place where bracket exponents become levels.  With
    check=True the table must match the binomial spread, which never reads
    the bracket, and a[0] its scan-free closed form; the spread is a scan,
    and is skipped past the cap.
    """
    d = build_dessin(pd, 0)
    m_top = d.n_edges + 2 * d.n_vertices - 2
    terms = bracket_via_dessin(pd, cap)._terms  # unsorted: each term has its own level
    coeffs = [0] * ((m_top - min(terms, default=m_top)) // 4 + 1)
    for x, c in terms.items():
        l = m_top - x
        if l < 0 or l & 3:
            raise InternalError(
                f"internal error: bracket exponent {x} is not {m_top} mod 4 "
                f"and at most {m_top}: {x - m_top} not in -4N"
            )
        coeffs[l >> 2] = c
    table = CoefficientTable(m_top, tuple(coeffs))
    if check:
        ok, _ = _coefficient_checks(d, table, cap)
        if not ok.get("matches_bracket", True):
            raise InternalError("internal error: coefficient table != bracket")
        if not ok["top_closed_form"]:
            raise InternalError(
                f"internal error: top coefficient {table.coefficient(0)} "
                f"!= closed form {top_coefficient_closed_form(d)}"
            )
    return table


def _level(l) -> int:
    """A coefficient level as an int: a float or a negative level is `DiagramError`."""
    (l,) = _integers((l,), "coefficient levels")
    if l < 0:
        raise DiagramError("coefficient level must be >= 0")
    return l


def _spread(d: Dessin, bound: int, cap: int) -> Tuple[int, ...]:
    """a[0..bound] without the bracket: the binomial spread of the profile."""
    return delta_spread(_subset_profile(d, cap), d.n_vertices, bound)


def _coefficient_checks(
    d: Dessin, table: CoefficientTable, cap: int
) -> Tuple[Dict[str, bool], Dict[str, str]]:
    """The checks of the table of d, and the skipped ones with the reason:
    a[0] against its closed form, and every level against the spread,
    skipped when its scan would pass the cap."""
    checks = {"top_closed_form": top_coefficient_closed_form(d) == table.coefficient(0)}
    skipped: Dict[str, str] = {}
    try:
        # f(H) <= e(H) + v, so no subset spreads past level e + v - 1
        spread = _spread(d, d.n_edges + d.n_vertices - 1, cap)
    except CapExceededError as exc:
        skipped["matches_bracket"] = str(exc)
    else:
        n = len(table.coeffs)  # a nonzero spread level past the table fails too
        checks["matches_bracket"] = spread[:n] == table.coeffs and not any(spread[n:])
    return checks, skipped


def coefficient_restricted(pd: PDCode, l: int, cap: int = 24) -> int:
    """a[l] recomputed from only the subsets with l0(H) <= l.

    Locality of the coefficient: subsets of higher starting level cannot
    reach down to level l, so the restricted sum must match the table.
    When the all-A dessin has one vertex (as after `reduce_to_one_vertex`),
    l0(H) is the genus g(H), and a[l] is the sum over the subsets with
    g(H) <= l of (-1)^e(H) C(e(H) - 2 g(H), l - g(H)).
    """
    l = _level(l)
    return _spread(build_dessin(pd, 0), l, cap)[l]


def top_coefficient_closed_form(d: Dessin) -> int:
    """a[0] = sum over genus-0 sets H of loops of (-1)^(v + e(H) - 1).

    Loops join no two vertices, so H has genus 0 exactly when no two of its
    chords interlace at any vertex, and a[0] = (-1)^(v-1) prod_v N(0, L).
    With the L loop ends of a vertex in rotation order, N(i, j) is the
    signed count of non-interlaced chord sets within ends i..j-1:
    N(i, i) = 1, N(i, j) = N(i+1, j) - [i < p < j] N(i+1, p) N(p+1, j) for
    p the partner of end i (its chord left out, or taken with sign -1 and
    every other chord wholly inside or after it).

    A row is one integer, row(i) = sum_j N(i, j) 2^(b j) over j >= i, so
    the step is row(i) = row(i+1) + 2^(b i) - N(i+1, p) row(p+1): a few
    big-integer operations, with row(p+1) kept from when the walk down
    passed p.  N(i, j) counts sets of at most L/2 chords, L the loop ends
    at the vertex, so |N| <= 2^(L/2) = 2^(b-3) for digits of b =
    floor(L/2) + 3 bits: the digits below p then total less than a quarter
    of 2^(b p), so rounding row(i+1) / 2^(b p) leaves N(i+1, p) as its
    lowest signed digit.  O(L) operations on O(L^2)-bit integers per
    vertex, and no cap.
    """
    vert_of = d.vertex_of
    total = 1 if d.n_vertices & 1 else -1
    rotations = d.rotations
    # a vertex with no loops has N(0, 0) = 1
    for v in {x for x, y in zip(vert_of[::2], vert_of[1::2]) if x == y}:
        ends = [h for h in rotations[v] if vert_of[h ^ 1] == v]
        b = (len(ends) >> 1) + 3
        mask, half = (1 << b) - 1, 1 << (b - 1)
        at = top = b * len(ends)
        row = 1 << top  # row(L)
        later = {}  # end p whose partner the walk has not reached -> (b p, row(p+1))
        for h in reversed(ends):
            at -= b  # b i
            got = later.pop(h ^ 1, None)
            if got is None:
                later[h] = at, row
                row += 1 << at
            else:
                bp, up = got
                c = (((row + (1 << bp - 1)) >> bp) + half & mask) - half  # N(i+1, p)
                row += (1 << at) - c * up
        total *= (row + (1 << top - 1)) >> top  # N(0, L), the top digit
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


# ============================================================
# Weighted expansion of a contracted dessin
# ============================================================


def weighted_bracket(wd: WeightedDessin, cap: int = 24) -> LaurentPoly:
    """Bracket of the expanded diagram from its parallel-contracted dessin.

    Chord c stands for mu(c) parallel copies.  A chord subset H that keeps
    j_c >= 1 copies of each of its chords (C(mu(c), j_c) ways) is a
    sub-dessin of the expanded one-vertex dessin with one more edge and one
    more face per copy past the first, each closing a bigon.  So H puts the
    coefficient of x^t in prod over c in H of ((1 + x)^mu(c) - 1) / x at
    (e(H) + t, f(H) + t) of the expanded profile, and `delta_spread` reads
    <P> = sum_l a[l] A^(E - 4l) off it at v = 1, E the weighted edge total.
    The scan runs over the 2^m contracted subsets: `cap` bounds m, not E.
    """
    e_total = sum(wd.weights)
    bits = e_total + 1  # each digit is below prod over H of 2^mu(c) <= 2^E
    digit = (1 << bits) - 1
    # ((1 + x)^mu - 1) / x at x = 2^bits: C(mu, j) in digit j - 1
    rows = [((1 << bits) + 1) ** mu >> bits for mu in wd.weights]
    tally: Dict[Tuple[int, int], int] = {}
    for mask, eh, f in _scan(wd.dessin, cap=cap):
        ways = 1
        while mask:
            low = mask & -mask
            mask ^= low
            ways *= rows[low.bit_length() - 1]
        while ways:
            tally[eh, f] = tally.get((eh, f), 0) + (ways & digit)
            ways >>= bits
            eh += 1
            f += 1
    levels = delta_spread(tally, 1, e_total)
    return LaurentPoly({e_total - 4 * l: c for l, c in enumerate(levels)})


def jones_at_minus_two(pd: PDCode, cap: int = 24) -> Tuple[int, int]:
    """Evaluate A^(-e) <P> at A^-4 = -2 against the genus generating sum.

    The diagram is first reduced to a one-vertex all-A dessin; the left
    side is the exact integer value of the normalized bracket, the right
    side is sum over subsets H of (-2)^g(H).  The two agree.
    """
    pd = reduce_to_one_vertex(pd)
    d = build_dessin(pd, 0)
    # at v = 1, M = e: A^(-e) <P> = sum_l a[l] A^(-4l)
    table = coefficient_table(pd, cap, check=False)
    lhs = sum(c * (-2) ** l for l, c in enumerate(table.coeffs))
    # one vertex: every subset is connected, of genus (1 + e(H) - f(H)) / 2
    profile = _subset_profile(d, cap)
    rhs = sum(cnt * (-2) ** ((1 + eh - f) // 2) for (eh, f), cnt in profile.items())
    return lhs, rhs


# ============================================================
# Pretzel closed form
# ============================================================


def pretzel_determinant(p_seq: Sequence[int], q_seq: Sequence[int]) -> int:
    """det K(p_1..p_n, -q_1..-q_m) = |prod p prod q (sum 1/p - sum 1/q)|."""
    ps = _integers(p_seq, "pretzel column magnitudes")
    qs = _integers(q_seq, "pretzel column magnitudes")
    if not ps or not qs:
        raise DiagramError("pretzel closed form needs both positive and negative columns")
    if any(x < 1 for x in ps + qs):
        raise DiagramError("pretzel closed form takes positive column magnitudes")
    product = 1
    for x in ps + qs:
        product *= x
    return abs(sum(product // p for p in ps) - sum(product // q for q in qs))
