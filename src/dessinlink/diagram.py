"""Planar diagram codes: parsing, smoothing, the state-sum bracket, generators.

A diagram is a PD code: one 4-tuple of arc labels per crossing, listed
counterclockwise starting at the incoming under-strand.  A-smoothing of
(a,b,c,d) joins the arc-ends (a,b) and (c,d); B-smoothing joins (b,c) and
(d,a).  Every downstream invariant is calibrated against this pairing.

Internally the diagram is a 4-valent planar map on "darts": dart 4c+p is
the arc-end at position p of crossing c, pointing away from the crossing.
alpha swaps the two darts of an arc; the counterclockwise successor at a
crossing is position p+1.  Faces are the orbits of sigma^-1 o alpha (the
face to the left of outward travel along a dart).  The faces are
checkerboard coloured, and a smoothing only ever joins two opposite
corners of a crossing, which share a colour; so in every state each region
is one colour and the two sides of every circle differ.

`PDCode` builds this map once, when it is made, and rejects a code that is
disconnected or not planar there; the smoothing walks, the state sum, the
strand walk and the bracket's contraction read its `alpha` and `flip`.

A state is an int bitmask, bit c set when crossing c is B-smoothed, or
an 'AABB' string; no other form is read.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._record import Record
from .errors import CapExceededError, DiagramError, InternalError, OrientationError, _integers
from .poly import LaurentPoly, delta_spread
from .table import knot_table

__all__ = [
    "PDCode",
    "DiagramError",
    "OrientationError",
    "CapExceededError",
    "parse_pd",
    "pd_to_text",
    "mirror",
    "smooth_state",
    "state_circle_count",
    "state_sum_bracket",
    "writhe",
    "strand_components",
    "pretzel_pd",
    "twist_pd",
    "reduce_to_one_vertex",
    "knot_table",
    "table_pd",
]


Crossing = Tuple[int, int, int, int]
StateLike = Union[int, str]

# Smoothing pairings by tuple position: A joins (a,b) and (c,d), B joins
# (b,c) and (d,a).  _PARTNER[bit][p] is the position joined to p under
# smoothing bit (0 = A, 1 = B); _CHANNEL[bit][p] numbers the two smoothing
# channels 0 and 1 at the crossing.
_PARTNER = ((1, 0, 3, 2), (3, 2, 1, 0))
_CHANNEL = ((0, 0, 1, 1), (1, 0, 0, 1))


# ============================================================
# PD codes
# ============================================================


class PDCode(Record):
    """A connected planar link diagram in planar-diagram notation.

    Construction checks the code and builds its planar map once, so a
    code that is disconnected or not planar raises `DiagramError`.  The
    map's `alpha` and `flip` are caches, in no part of equality, hash,
    repr or pickling: a copied or unpickled code builds its own.
    """

    __slots__ = ("crossings", "signs", "_alpha", "_flip")

    def __init__(self, crossings: Sequence[Sequence[int]], signs: Optional[Sequence[int]] = None):
        crossings = tuple(_integers(tup, "arc labels") for tup in crossings)
        if not crossings:
            raise DiagramError("a PD code needs at least one crossing")
        seen: Dict[int, int] = {}
        for tup in crossings:
            if len(tup) != 4:
                raise DiagramError(f"crossing {tup} is not a 4-tuple")
            for lab in tup:
                if lab < 1:
                    raise DiagramError(f"arc label {lab} is not a positive integer")
                seen[lab] = seen.get(lab, 0) + 1
        bad = {lab: cnt for lab, cnt in seen.items() if cnt != 2}
        if bad:
            raise DiagramError(f"arc labels must occur exactly twice, got {bad}")
        if signs is not None:
            signs = _integers(signs, "crossing signs")
            if len(signs) != len(crossings):
                raise DiagramError("sign list length differs from crossing count")
            if any(s not in (-1, 1) for s in signs):
                raise DiagramError("crossing signs must be +1 or -1")
        self._set(crossings, signs)
        alpha, flip = _planar_map(crossings)
        object.__setattr__(self, "_alpha", alpha)
        object.__setattr__(self, "_flip", flip)

    @property
    def alpha(self) -> Tuple[int, ...]:
        """The dart at the other end of each dart's arc."""
        return self._alpha

    @property
    def flip(self) -> Tuple[int, ...]:
        """Crossing c's corner ccw of dart 4c+p has colour (flip[c] + p) mod 2."""
        return self._flip

    @property
    def n(self) -> int:
        return len(self.crossings)

    def __str__(self) -> str:
        return pd_to_text(self)


_X_RE = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]\Z")
_S_RE = re.compile(r"S\[([^\]]*)\]\Z")
# a run of non-space characters, spaces allowed inside a closed [...] group
_TOKEN_RE = re.compile(r"(?:\[[^\[\]]*\]|\S)+")


def parse_pd(text: str) -> PDCode:
    """Parse whitespace-separated `X[a,b,c,d]` tokens, optionally `S[+,-,..]`;
    whitespace inside the brackets is allowed, as in `X[1, 5, 2, 4]`.

    Arc labels must be positive, as in `PDCode`; they are normalized to
    1..2n, for n crossings, preserving their relative order.
    """
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise DiagramError("empty PD input")
    crossings: List[Crossing] = []
    signs: Optional[Tuple[int, ...]] = None
    for tok in tokens:
        m = _X_RE.match(tok)
        if m:
            if signs is not None:
                raise DiagramError("S[...] must come after all crossings")
            crossings.append(tuple(int(g) for g in m.groups()))
            continue
        m = _S_RE.match(tok)
        if m:
            if signs is not None:
                raise DiagramError("duplicate S[...] token")
            entries = [e.strip() for e in m.group(1).split(",") if e.strip()]
            try:
                signs = tuple(int(e + "1") if e in ("+", "-") else int(e) for e in entries)
            except ValueError:
                raise DiagramError(f"bad sign entry in {tok!r}") from None
            continue
        raise DiagramError(f"malformed PD token {tok!r}")
    if not crossings:
        raise DiagramError("no crossings in PD input")
    labels = sorted({lab for tup in crossings for lab in tup})
    if labels[0] < 1:
        raise DiagramError(f"arc label {labels[0]} is not a positive integer")
    remap = {lab: i + 1 for i, lab in enumerate(labels)}
    crossings = [tuple(remap[lab] for lab in tup) for tup in crossings]
    return PDCode(tuple(crossings), signs)


def pd_to_text(pd: PDCode) -> str:
    parts = ["X[%d,%d,%d,%d]" % tup for tup in pd.crossings]
    if pd.signs is not None:
        parts.append("S[" + ",".join("+" if s > 0 else "-" for s in pd.signs) + "]")
    return " ".join(parts)


def mirror(pd: PDCode) -> PDCode:
    """Mirror image: reverse each tuple's cyclic order (swap over/under)."""
    flipped = tuple((a, d, c, b) for (a, b, c, d) in pd.crossings)
    signs = None if pd.signs is None else tuple(-s for s in pd.signs)
    return PDCode(flipped, signs)


# ============================================================
# The 4-valent planar map
# ============================================================


def _planar_map(crossings: Tuple[Crossing, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """`PDCode`'s (alpha, flip) of crossings whose arc labels each occur
    twice; `DiagramError` unless they are connected and planar.

    Faces are only counted, as the planarity check: orienting state
    circles needs a corner's colour, not its face.
    """
    n = len(crossings)
    nd = 4 * n
    alpha = [0] * nd
    first: Dict[int, int] = {}
    for d, lab in enumerate(lab for tup in crossings for lab in tup):
        other = first.pop(lab, None)
        if other is None:
            first[lab] = d
        else:
            alpha[d] = other
            alpha[other] = d

    # connectivity of the underlying 4-valent graph, colouring a spanning
    # tree on the way (the corner ccw of 4c+p is the corner ccw of 4c'+p'-1
    # for alpha = 4c'+p').  No conflict check: a connected map that passes
    # the face count below is planar, and a planar 4-valent map's faces are
    # always 2-colourable.
    flip = [-1] * n
    flip[0] = 0
    stack = [0]
    reached = 1
    while stack:
        c = stack.pop()
        for p in range(4):
            d2 = alpha[4 * c + p]
            c2 = d2 >> 2
            if flip[c2] < 0:
                flip[c2] = (flip[c] + p - d2 + 1) & 1
                reached += 1
                stack.append(c2)
    if reached != n:
        raise DiagramError(f"diagram is not connected ({reached} of {n} crossings reachable)")

    # left faces: orbits of d -> sigma^-1(alpha(d))
    seen = [False] * nd
    nf = 0
    for d0 in range(nd):
        if seen[d0]:
            continue
        d = d0
        while not seen[d]:
            seen[d] = True
            a = alpha[d]
            d = (a & ~3) | ((a + 3) & 3)
        nf += 1
    if nf != n + 2:
        raise DiagramError(
            f"PD code is not planar: {nf} faces for {n} crossings (expected {n + 2})"
        )
    return tuple(alpha), tuple(flip)


_STATE_BITS = {"A": 0, "a": 0, "0": 0, "B": 1, "b": 1, "1": 1}


def _state_mask(pd: PDCode, s: StateLike) -> int:
    """Normalize a state, an int bitmask or an 'AABB' string, to a bitmask;
    anything else, a list of entries included, raises `DiagramError`."""
    n = len(pd.crossings)
    if isinstance(s, str):
        if len(s) != n:
            raise DiagramError(f"state has {len(s)} entries for {n} crossings")
        mask = 0
        for i, ch in enumerate(s):
            bit = _STATE_BITS.get(ch)
            if bit is None:
                raise DiagramError(f"state entry {ch!r} is neither A nor B")
            mask |= bit << i
        return mask
    if not isinstance(s, int):
        (s,) = _integers((s,), "state masks")
    if not 0 <= s < (1 << n):
        raise DiagramError(f"state mask {s} out of range for {n} crossings")
    return s


# ============================================================
# State circles
# ============================================================


def _trace_circles(alpha, n, mask):
    """Traverse the smoothed diagram; yields (chord ends, start_dart) per circle.

    Crossing c's two smoothing channels are the chord ends 2c and 2c+1.
    The traversal at dart d crosses its smoothing channel to the partner
    dart, then follows the arc onward; marking both darts of each channel
    visits every circle exactly once, in one direction.
    """
    visited = [False] * (4 * n)
    out = []
    for d0 in range(4 * n):
        if visited[d0]:
            continue
        spots: List[int] = []
        d = d0
        while not visited[d]:
            visited[d] = True
            c = d >> 2
            p = d & 3
            bit = (mask >> c) & 1
            spots.append(2 * c + _CHANNEL[bit][p])
            d2 = (d & ~3) | _PARTNER[bit][p]
            visited[d2] = True
            d = alpha[d2]
        out.append((spots, d0))
    return out


def state_circle_count(pd: PDCode, s: StateLike) -> int:
    """Number of circles of the smoothed diagram (no orientation work).

    For a bitmask `s` this is the face count of the sub-dessin of the
    all-A dessin on the edges of `s`, the bridge between state sums and
    subset scans: `dessin_counts(build_dessin(pd, 0), s).f`."""
    return len(_trace_circles(pd.alpha, pd.n, _state_mask(pd, s)))


def smooth_state(pd: PDCode, s: StateLike) -> Tuple[Tuple[int, ...], ...]:
    """Smooth every crossing per the state; the oriented circles' rotations.

    Each circle lists the chord ends it meets along its traversal, crossing
    c's two smoothing channels being 2c and 2c+1: the rotations of the
    state's dessin (`dessin.build_dessin`).  Depth-even circles run
    counterclockwise, depth counted from the region at the corner of dart
    0: the ribbon-graph convention of Dasbach-Futer-Kalfagianni-Lin-Stoltzfus
    (arXiv math/0605571).  Each region of a state is one checkerboard
    colour and the two sides of a circle differ, so a region's depth is odd
    exactly when its colour is 1 (dart 0's is flip[0] = 0); and a traced
    circle keeps its direction exactly when the region on its left (ccw of
    its partner start dart b) is odd.
    """
    mask = _state_mask(pd, s)
    flip = pd.flip
    oriented: List[Tuple[int, ...]] = []
    for spots, d0 in _trace_circles(pd.alpha, pd.n, mask):
        b = (d0 & ~3) | _PARTNER[(mask >> (d0 >> 2)) & 1][d0 & 3]
        oriented.append(tuple(spots if (flip[b >> 2] + b) & 1 else spots[::-1]))
    return tuple(oriented)


# ============================================================
# State-sum Kauffman bracket (the brute-force oracle)
# ============================================================

def _bracket_counts(alpha: Tuple[int, ...], n: int, start: int, stop: int):
    """Tally (#B smoothings, circles) over the states gray(i), start <= i < stop.

    The state that B-smooths exactly the crossings of H has f(H) circles,
    so over all states this is the (e(H), f(H)) profile of the all-A dessin.

    The states are visited in Gray order, gray(i) = i ^ (i >> 1), so state
    gray(i) differs from gray(i-1) only at crossing c = ctz(i).  On a planar
    diagram that flip changes the circle count by exactly +-1 (Kauffman,
    "State models and the Jones polynomial", Topology 26, 1987): it splits
    the circle through c when both of c's channels lie on it, and merges the
    two circles through c otherwise.  So only the first state is traced from
    scratch; each later one walks the circle through dart 4c until it comes
    back to 4c (merge) or meets c's other channel first (split).  The rule
    needs an orientable map, not a planar one: a `PDCode`'s, or the medial
    map of any dessin (darts 2h and 2h+1 the corners before and after
    half-edge h, alpha[2h+1] = 2 next(h)), whose tally is that dessin's
    (e, f) profile.  As a check, the last state of the range is traced
    again from scratch and a mismatch raises `InternalError`.  Ranges that
    split [0, 2^n) visit every state once between them.
    """
    if start >= stop:
        return {}
    # rows[bit][c][p]: the dart reached from dart 4c+p by crossing its
    # smoothing channel under `bit`, then following the arc; step[d] holds
    # that for the current state
    rows = [[[alpha[4 * c + q] for q in _PARTNER[bit]] for c in range(n)] for bit in (0, 1)]
    mask = start ^ (start >> 1)
    step = [d for c in range(n) for d in rows[(mask >> c) & 1][c]]
    width = 4 * n + 2
    tally = [0] * ((n + 1) * width)

    def traced(mask: int) -> int:
        """Flat tally index (#B smoothings, circles) of a state traced from scratch."""
        return mask.bit_count() * width + len(_trace_circles(alpha, n, mask))

    at = traced(mask)
    tally[at] += 1
    for i in range(start + 1, stop):
        c = (i & -i).bit_length() - 1
        d0 = 4 * c
        d = step[d0]
        while d >> 2 != c:
            d = step[d]
        at += -1 if d == d0 else 1
        bit = 1 << c
        mask ^= bit
        if mask & bit:
            at += width
            step[d0:d0 + 4] = rows[1][c]
        else:
            at -= width
            step[d0:d0 + 4] = rows[0][c]
        tally[at] += 1
    if mask != (stop - 1) ^ ((stop - 1) >> 1) or at != traced(mask):
        raise InternalError(
            f"internal error: incremental circle count drifted over states {start}..{stop - 1}"
        )
    return {divmod(index, width): mult for index, mult in enumerate(tally) if mult}


def state_sum_bracket(pd: PDCode, cap: int = 20, workers: Optional[int] = None) -> LaurentPoly:
    """Kauffman bracket by direct summation over all 2^n states.

    <P> = sum over states of A^(#A - #B) * delta^(#circles - 1).  The states
    are walked in Gray order by `_bracket_counts`, one crossing flip and one
    partial circle walk per state, with a from-scratch recount at the end of
    each range, and `delta_spread` reads the levels off their tally.  From
    2^16 states on, contiguous ranges of the Gray sequence run in forked
    processes, one per CPU and at most `workers` when given
    (`_pool.pooled_tally`).  2^16 is the pool's threshold, not this sum's
    break-even, which is lower; the `_POOL_MIN_STATES` comment in
    `_pool.py` says why it stays.
    """
    from ._pool import pooled_tally

    n = len(pd.crossings)
    if n > cap:
        raise CapExceededError(f"{n} crossings exceeds the state-sum cap {cap}")
    counts = pooled_tally(_bracket_counts, (pd.alpha, n), 1 << n, workers)
    v = next(f for b, f in counts if b == 0)  # circles of the all-A state
    levels = delta_spread(counts, v, n + v - 1)
    return LaurentPoly({n + 2 * v - 2 - 4 * l: c for l, c in enumerate(levels)})


# ============================================================
# Orientation and writhe
# ============================================================


def strand_components(pd: PDCode) -> List[List[Tuple[int, int]]]:
    """Link components as strand walks; entries are (crossing, entry position).

    A strand entering a crossing at position p leaves at position p+2; the
    walk direction within each component is an arbitrary but fixed choice.
    """
    alpha = pd.alpha
    state = [0] * len(alpha)  # 0 untouched, 1 entry, 2 exit
    comps: List[List[Tuple[int, int]]] = []
    for d0 in range(len(alpha)):
        if state[d0]:
            continue
        walk: List[Tuple[int, int]] = []
        d = d0
        while state[d] == 0:
            state[d] = 1
            walk.append((d >> 2, d & 3))
            exit_d = (d & ~3) | ((d + 2) & 3)
            state[exit_d] = 2
            d = alpha[exit_d]
        comps.append(walk)
    return comps


def _traced_signs(pd: PDCode) -> Tuple[int, List[Tuple[int, int, int]]]:
    """Component count, and per crossing (sign, under component, over component)
    under the orientation `strand_components` traces.

    One dart walk, the one `strand_components` makes, marks the component
    entering at each entry dart and -2 at each exit dart.  Crossing c's
    under-strand enters at 4c or 4c+2, its over-strand at 4c+1 or 4c+3,
    and c is positive exactly when the over-entry is three positions
    counterclockwise of the under-entry.
    """
    alpha = pd.alpha
    entering = [-1] * len(alpha)
    n_comps = 0
    for d in range(len(alpha)):
        if entering[d] != -1:
            continue
        while entering[d] == -1:
            entering[d] = n_comps
            entering[d ^ 2] = -2  # a strand entering at p leaves at p + 2
            d = alpha[d ^ 2]
        n_comps += 1
    out = []
    for c in range(pd.n):
        pu = 0 if entering[4 * c] >= 0 else 2
        po = 1 if entering[4 * c + 1] >= 0 else 3
        cu, co = entering[4 * c + pu], entering[4 * c + po]
        if cu < 0 or co < 0:
            raise InternalError(f"internal error: no under- or over-entry traced at crossing {c}")
        out.append((1 if (po - pu) % 4 == 3 else -1, cu, co))
    return n_comps, out


def _check_signs(pd: PDCode, n_comps: int, traced: List[Tuple[int, int, int]]) -> None:
    """Explicit signs must be those of some orientation of the components.

    `n_comps` and `traced` are what `_traced_signs(pd)` returns.  Reversing
    one component flips exactly the crossings it shares with another
    component, so a self-crossing's sign must equal the traced one, and
    the mixed crossings must agree with one flip per component.
    """
    adj: List[List[Tuple[int, int, int]]] = [[] for _ in range(n_comps)]
    for c, ((sign, cu, co), given) in enumerate(zip(traced, pd.signs)):
        adj[cu].append((co, sign * given, c))
        adj[co].append((cu, sign * given, c))
    flip: List[Optional[int]] = [None] * n_comps
    flip[0] = 1
    pending = [0]
    while pending:
        a = pending.pop()
        for b, rel, c in adj[a]:
            if flip[b] is None:
                flip[b] = flip[a] * rel
                pending.append(b)
            elif flip[b] != flip[a] * rel:
                raise DiagramError(
                    f"S[...] sign of crossing {c} fits no orientation of the "
                    f"{n_comps}-component diagram"
                )


def _writhe_and_components(pd: PDCode) -> Tuple[int, int]:
    """The writhe and the number of link components, from one strand walk."""
    n_comps, traced = _traced_signs(pd)
    if pd.signs is not None:
        _check_signs(pd, n_comps, traced)
        return sum(pd.signs), n_comps
    if n_comps != 1:
        raise OrientationError(
            f"{n_comps}-component diagram: writhe needs explicit S[...] signs"
        )
    return sum(sign for sign, _, _ in traced), 1


def writhe(pd: PDCode) -> int:
    """Signed crossing count of an oriented diagram.

    Explicit S[...] signs are used when present, after checking that some
    orientation of the components gives them.  Otherwise the diagram must
    be a knot, and its single strand is traced.
    """
    return _writhe_and_components(pd)[0]


# ============================================================
# Generators: pretzel and twist families
# ============================================================


def pretzel_pd(params: Sequence[int]) -> PDCode:
    """Pretzel link diagram: one vertical twist column per parameter.

    A column with parameter q > 0 holds q crossings whose A-smoothing is
    vertical (the column smooths to two parallel strands); q < 0 mirrors
    the column crossings, so A-smoothing is horizontal.  Column tops are
    chained cyclically left to right, as are the bottoms.
    """
    cols = _integers(params, "pretzel parameters")
    if not cols:
        raise DiagramError("pretzel needs at least one column")
    if any(q == 0 for q in cols):
        raise DiagramError("pretzel parameters must be nonzero")
    m = len(cols)
    tops = [j + 1 for j in range(m)]
    bots = [m + j + 1 for j in range(m)]
    nxt = 2 * m + 1
    crossings: List[Crossing] = []
    for j, q in enumerate(cols):
        count = abs(q)
        ul, ur = tops[(j - 1) % m], tops[j]
        for i in range(count):
            if i < count - 1:
                dl, dr = nxt, nxt + 1
                nxt += 2
            else:
                dl, dr = bots[(j - 1) % m], bots[j]
            if q > 0:
                crossings.append((ul, dl, dr, ur))
            else:
                crossings.append((ur, ul, dl, dr))
            ul, ur = dl, dr
    return PDCode(tuple(crossings))


def twist_pd(p: int, q: int) -> PDCode:
    """The (p,q) double-twist knot diagram with a one-vertex all-A dessin.

    Builds the rational tangle from the 0-tangle (two horizontal strands):
    p twists of the two east endpoints, then q twists of the two south
    endpoints, closed by joining the two west ends and the two east ends.
    """
    p, q = _integers((p, q), "twist parameters")
    if p < 1 or q < 1:
        raise DiagramError("twist parameters must be >= 1")
    # Frozen orientation of the two twist regions and the closure; calibrated
    # so twist(2,3) is the figure-8 knot with the one-vertex all-A dessin.
    nw = ne = 1
    sw = se = 2
    nxt = 3
    crossings: List[Crossing] = []
    for _ in range(p):
        et, eb = nxt, nxt + 1
        nxt += 2
        crossings.append((se, eb, et, ne))
        ne, se = et, eb
    for _ in range(q):
        sl, sr = nxt, nxt + 1
        nxt += 2
        crossings.append((sw, sl, sr, se))
        sw, se = sl, sr
    relabel = {sw: nw, se: ne}
    merged = tuple(
        tuple(relabel.get(lab, lab) for lab in tup) for tup in crossings
    )
    pd = parse_pd(" ".join("X[%d,%d,%d,%d]" % tup for tup in merged))
    if state_circle_count(pd, 0) != 1:
        raise InternalError("internal error: twist diagram all-A state is not one circle")
    return pd


# ============================================================
# Reidemeister-II reduction to a one-vertex all-A dessin
# ============================================================


def reduce_to_one_vertex(pd: PDCode) -> PDCode:
    """Clasp-insert RII pairs until the all-A state has a single circle.

    At each crossing of `dessin._forest` of the all-A dessin, in index
    order, one strand slides over the other next to it (two new crossings,
    both A-smoothing across the old gap), merging the two circles that
    crossing joins.  The link type, hence the bracket, is unchanged; each
    clasp adds 2 crossings and removes 1 circle; a diagram whose all-A
    state is one circle comes back as it is.

    The all-A dessin is the one `build_dessin` memoizes for every
    invariant.  A clasp at t reads the far ends of t's slots 1 and 2 from
    a working copy of alpha, rewires 6 dart pairs and takes 4 fresh
    labels.  The result's all-A dessin, memoized for the caller that reads
    it next, must have one vertex: that checks the whole reduction.
    """
    from .dessin import _forest, build_dessin

    d = build_dessin(pd, 0)
    if d.n_vertices == 1:
        return pd
    forest = _forest(d, (1 << pd.n) - 1)
    crossings = [list(tup) for tup in pd.crossings]
    alpha = list(pd.alpha)
    top = max(map(max, crossings))
    for target in range(pd.n):
        if not forest >> target & 1:
            continue
        dx, dy = 4 * target + 1, 4 * target + 2
        fx, fy = alpha[dx], alpha[dy]
        if fx == dy:
            raise InternalError("internal error: joining crossing with x == y")
        x, y = crossings[target][1], crossings[target][2]
        x_mid, x_far, y_mid, y_far = range(top + 1, top + 5)
        top += 4
        crossings[fx >> 2][fx & 3] = x_far
        crossings[fy >> 2][fy & 3] = y_far
        m = len(alpha)  # first dart of the two new crossings
        crossings.append([y, x, y_mid, x_mid])
        crossings.append([y_mid, x_far, y_far, x_mid])
        alpha += [0] * 8
        for a, b in ((dy, m), (dx, m + 1), (m + 2, m + 4), (m + 3, m + 7),
                     (fx, m + 5), (fy, m + 6)):
            alpha[a], alpha[b] = b, a
    out = PDCode(tuple(tuple(t) for t in crossings))
    if out.n != pd.n + 2 * (d.n_vertices - 1) or build_dessin(out, 0).n_vertices != 1:
        raise InternalError("internal error: clasp insertion did not reduce to one circle")
    return out


# ============================================================
# Bundled knot table
# ============================================================


def table_pd(name: str) -> PDCode:
    table = knot_table()
    if name not in table:
        raise DiagramError(f"unknown table entry {name!r}; have {sorted(table)}")
    return parse_pd(table[name])
