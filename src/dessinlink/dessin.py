"""Ribbon graphs (dessins) of smoothed diagrams and their sub-dessin scans.

A dessin is a graph with a cyclic order of half-edge ends at each vertex.
Half-edges are numbered 0..2e-1 and edge i pairs half-edges 2i and 2i+1.
Faces are the orbits of h -> successor-at-vertex of the mate of h; genus
comes from Euler's relation v - e + f = 2k - 2g per component count k.

Sub-dessins keep every vertex and a subset of edges, named by an int
bitmask whose bit i keeps edge i; no other selector is read.  Edge c of
the all-A dessin of a PD code is crossing c, so the same mask is the
state that B-smooths exactly those crossings, and the bridge between
state sums and subset scans is
`dessin_counts(d, m).f == diagram.state_circle_count(pd, m)`.

`_counts` is the kernel of the production (e, f) profile and of every
sub-dessin count here; `diagram._bracket_counts`, the state-sum
oracle's kernel, tallies the same profile from the PD code
(`test_state_sum_tally_is_the_subset_profile`).
A subset costs `_counts` one AND per vertex plus work at the half-edges
the subset holds, none at the others.  It counts no components: the
profile needs none, because a one-face sub-dessin is connected.
Components are counted, from the spanning forest `_forest` builds, only
where a genus or a `Counts` is built; the one-vertex reduction clasps at
the forest of the all-A dessin.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ._record import Record
from .errors import CapExceededError, DiagramError, InternalError, _integers

if TYPE_CHECKING:
    from .diagram import PDCode, StateLike

__all__ = [
    "Dessin",
    "Counts",
    "WeightedDessin",
    "build_dessin",
    "dessin_counts",
    "faces",
    "dual",
    "quasi_tree_counts",
    "contract_parallel",
    "dessin_to_text",
]


def _canonical(rotations: Iterable[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    verts = []
    for rot in rotations:
        rot = _integers(rot, "half-edge ids")
        if not rot:
            raise DiagramError("isolated vertices are not representable")
        lo = rot.index(min(rot))
        verts.append(rot[lo:] + rot[:lo])
    if not verts:
        raise DiagramError("a dessin needs at least one vertex")
    verts.sort(key=lambda r: r[0])
    return tuple(verts)


class Dessin(Record):
    """A connected-or-not ribbon graph, rotations in canonical form.

    Its edge count (set here), vertex map and scan plan are cache slots,
    outside equality, hash and pickling."""

    __slots__ = ("rotations", "_n_edges", "_vertex_of", "_plan")

    def __init__(self, rotations: Iterable[Sequence[int]]):
        rotations = _canonical(rotations)
        ids = sorted(h for rot in rotations for h in rot)
        n = len(ids)
        if n % 2 != 0 or ids != list(range(n)):
            raise DiagramError("half-edges must be exactly 0..2e-1, each once")
        self._set(rotations)
        object.__setattr__(self, "_n_edges", n // 2)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @property
    def n_vertices(self) -> int:
        return len(self.rotations)

    @property
    def vertex_of(self) -> Tuple[int, ...]:
        """Index of the vertex each half-edge is attached to."""
        try:
            return self._vertex_of
        except AttributeError:
            out = [0] * (2 * self.n_edges)
            for vi, rot in enumerate(self.rotations):
                for h in rot:
                    out[h] = vi
            object.__setattr__(self, "_vertex_of", tuple(out))
            return self._vertex_of


class Counts(Record):
    """Vertex/edge/face/component/genus/nullity bookkeeping of a dessin."""

    __slots__ = ("v", "e", "f", "k", "g", "n")

    def __init__(self, v: int, e: int, f: int, k: int, g: int, n: int):
        self._set(v, e, f, k, g, n)
        if min(self.v, self.e, self.f, self.g, self.n) < 0 or self.k < 1:
            raise DiagramError(f"impossible counts {self}")
        if self.v - self.e + self.f != 2 * self.k - 2 * self.g:
            raise DiagramError(f"Euler relation fails for {self}")
        if self.n != self.e - self.v + self.k:
            raise DiagramError(f"nullity mismatch in {self}")


# ============================================================
# Construction from a smoothed diagram
# ============================================================


def build_dessin(pd: PDCode, s: StateLike) -> Dessin:
    """Dessin of a state: vertices are circles, edges are crossings.

    Crossing c becomes the chord with half-edges 2c and 2c+1, attached at
    its two smoothing channels; each circle's rotation lists the chord
    ends in the circle's oriented cyclic order, as `smooth_state` returns
    them.  The dessin is memoized per (PD code, state mask), so every
    invariant of a diagram, and `reduce_to_one_vertex`, reads the same
    `Dessin` object and smooths the state once.  A bitmask is the cache
    key as given; `smooth_state` checks its range on a miss.
    """
    if s.__class__ is not int:
        from .diagram import _state_mask

        s = _state_mask(pd, s)
    return _dessin_of(pd, s)


# Reuse is between the invariants of one diagram, so a few entries suffice.
@lru_cache(maxsize=16)
def _dessin_of(pd: PDCode, mask: int) -> Dessin:
    from .diagram import smooth_state

    return Dessin(smooth_state(pd, mask))


# ============================================================
# The subset-scan engine
# ============================================================


def _scan_plan(d: Dessin) -> List[list]:
    """What `_counts` needs of each vertex, built once per dessin.

    The kernel numbers half-edges by position: vertex after vertex, each
    rotation in order, so every vertex owns one slice of positions.  Per
    vertex the plan holds its edge mask, its slice, the mate position of
    each position's successor in the full rotation, its positions, and a
    (position, edge bit, mate position) triple per half-edge.  It is kept
    in a cache slot, outside equality, hash and pickling.  It is built of
    lists, not tuples: CPython keeps freed tuples of each length up to 19
    on a free list of that length, so per-vertex tuples freed with each
    dessin held memory no later tuple reused (on CPython 3.11, 7200 ops
    of 6-13 crossings ended 0.6 MB above the old kernel, 0.2 MB with lists).
    """
    try:
        return d._plan
    except AttributeError:
        pass
    order = [h for rot in d.rotations for h in rot]
    at = [0] * len(order)
    for p, h in enumerate(order):
        at[h] = p
    mate = [at[h ^ 1] for h in order]
    plan = []
    a = 0
    for rot in d.rotations:
        b = a + len(rot)
        own = range(a, b)
        bits = [1 << (h >> 1) for h in rot]
        mates = mate[a:b]
        # a loop's two ends share one edge bit, counted once in the mask
        edges = sum(set(bits))
        plan.append([edges, slice(a, b), mates[1:] + mates[:1], own, list(zip(own, bits, mates))])
        a = b
    object.__setattr__(d, "_plan", plan)
    return plan


def _counts(d: Dessin, masks: Iterable[int]) -> Iterator[Tuple[int, int, int]]:
    """Yield (mask, edges, faces) for each edge bitmask in `masks`.

    This is the dessin side's only per-subset kernel.  A mask costs one
    AND per vertex, against the vertex's edge mask in `_scan_plan`.  A
    vertex the subset leaves untouched is one face and costs nothing more;
    one whose edges it holds all links its whole rotation in one slice
    assignment; one it holds in part links only its held half-edges.
    Faces are then traced from the held half-edges alone, each walked
    once.  It counts faces only: the profile's readers need no component
    count, and the few that build a genus ask `_forest` for it.
    """
    plan = _scan_plan(d)
    # step[p]: the mate of p's successor among the held half-edges at its
    # vertex; the orbits of p -> step[p] are the faces, conjugated by the
    # mate, so there are as many.  The walk sets each entry it leaves to -1.
    step = [0] * (2 * d.n_edges)
    for mask in masks:
        f = 0
        held: List[int] = []
        for edges, own_slice, successors, own, pairs in plan:
            m = mask & edges
            if not m:
                f += 1  # vertex untouched by the subset: one face of its own
            elif m == edges:
                step[own_slice] = successors
                held += own
            else:
                first = prev = -1
                for p, bit, mate in pairs:
                    if m & bit:
                        if prev < 0:
                            first = mate
                        else:
                            step[prev] = mate
                        prev = p
                        held.append(p)
                step[prev] = first
        for h in held:
            if step[h] < 0:
                continue
            f += 1
            while h >= 0:
                step[h], h = -1, step[h]
        yield mask, mask.bit_count(), f


def _forest(d: Dessin, mask: int) -> int:
    """The spanning forest of the sub-dessin on the edges of `mask`, as an
    edge bitmask: each edge, in index order, that joins two components of
    the edges kept before it, by union-find over the vertices."""
    vert_of = d.vertex_of
    parent = list(range(d.n_vertices))
    forest = 0
    m = mask
    while m:
        low = m & -m
        m ^= low
        ei2 = 2 * (low.bit_length() - 1)
        a = vert_of[ei2]
        b = vert_of[ei2 + 1]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            forest |= low
    return forest


def _check_cap(d: Dessin, cap: int) -> None:
    if d.n_edges > cap:
        raise CapExceededError(f"scan over {d.n_edges} edges exceeds the cap {cap}")


def _scan(d: Dessin, cap: int = 24) -> Iterator[Tuple[int, int, int]]:
    """Yield (mask, edges, faces) for every edge subset of `d`, masks
    0 .. 2^e - 1 in increasing order.  The cap is checked before the
    first subset."""
    _check_cap(d, cap)
    return _counts(d, range(1 << d.n_edges))


def _subset_profile(d: Dessin, cap: int) -> Dict[Tuple[int, int], int]:
    """The cached profile of `d`: each (e(H), f(H)) pair with the number of
    edge subsets H that have it.  That is all the profile's readers need:
    (e, f) fixes the start level (v + e - f) / 2 of H in the bracket, and a
    one-face H is connected, of genus (e - v + 1) / 2.  The cap is checked
    outside the cache, so calls with any cap share one scan."""
    _check_cap(d, cap)
    return _profile_scan(d)


# Reuse is between the invariants of one diagram, so a few entries suffice.
@lru_cache(maxsize=16)
def _profile_scan(d: Dessin) -> Dict[Tuple[int, int], int]:
    """The (e, f) tally over every edge subset, split over the CPUs from
    2^16 subsets on by `_pool.pooled_tally`.  Its readers take the
    multiplicities in whatever order the tally was filled."""
    from ._pool import pooled_tally  # once per scanned dessin: a cache hit never gets here

    return pooled_tally(_profile_range, (d,), 1 << d.n_edges)


def _profile_range(d: Dessin, lo: int, hi: int) -> Dict[Tuple[int, int], int]:
    """The (e, f) tally of the edge subsets with bitmasks lo <= mask < hi."""
    tally: Dict[Tuple[int, int], int] = {}
    for _, eh, f in _counts(d, range(lo, hi)):
        key = (eh, f)
        tally[key] = tally.get(key, 0) + 1
    return tally


def _genus_of(v: int, eh: int, k: int, f: int) -> int:
    """Genus g from Euler's relation v - e + f = 2k - 2g."""
    g2 = 2 * k - v + eh - f
    if g2 < 0 or g2 % 2:
        raise InternalError(f"internal error: bad Euler data v={v} e={eh} f={f} k={k}")
    return g2 // 2


def dessin_counts(d: Dessin, mask: Optional[int] = None) -> Counts:
    """Counts of the whole dessin, or of the sub-dessin on the edges of the
    int bitmask `mask`, from the scan's kernel applied to that one subset
    and its spanning forest, which fixes the components."""
    full = (1 << d.n_edges) - 1
    if mask is None:
        mask = full
    else:
        (mask,) = _integers((mask,), "sub-dessin masks")
        if not 0 <= mask <= full:
            raise DiagramError(f"sub-dessin mask {mask} out of range for {d.n_edges} edges")
    _, eh, f = next(_counts(d, (mask,)))
    v = d.n_vertices
    k = v - _forest(d, mask).bit_count()
    return Counts(v, eh, f, k, _genus_of(v, eh, k, f), eh - v + k)


def quasi_tree_counts(d: Dessin, cap: int = 24) -> Tuple[int, ...]:
    """s(j) = number of spanning quasi-trees (one-face sub-dessins) of genus j.

    Returns (s(0), .., s(g)) for g the genus of d.  A one-face sub-dessin
    is connected, so Euler's relation gives its genus (e(H) - v + 1) / 2,
    which is checked to be an integer in 0..g.
    """
    tally = _subset_profile(d, cap)
    v = d.n_vertices
    g_full = dessin_counts(d).g
    s = [0] * (g_full + 1)
    for (eh, f), cnt in tally.items():
        if f != 1:
            continue
        g, odd = divmod(eh - v + 1, 2)
        if odd or not 0 <= g <= g_full:
            raise InternalError("internal error: quasi-tree genus out of range")
        s[g] += cnt
    return tuple(s)


# ============================================================
# Faces and duality
# ============================================================


def faces(d: Dessin) -> Tuple[Tuple[int, ...], ...]:
    """Face orbits of the full dessin, canonicalized like rotations."""
    nh = 2 * d.n_edges
    rho_next = [0] * nh
    for rot in d.rotations:
        for i, h in enumerate(rot):
            rho_next[rot[i - 1]] = h
    seen = [False] * nh
    out: List[Tuple[int, ...]] = []
    for h0 in range(nh):
        if seen[h0]:
            continue
        orbit: List[int] = []
        h = h0
        while not seen[h]:
            seen[h] = True
            orbit.append(h)
            h = rho_next[h ^ 1]
        out.append(tuple(orbit))
    return _canonical(out)


def dual(d: Dessin) -> Dessin:
    """Geometric dual: faces become vertices, edge pairing unchanged.

    The face successor of the dual is the vertex successor of the original,
    so dual(dual(d)) == d exactly.
    """
    return Dessin(faces(d))


# ============================================================
# Parallel-chord contraction (one-vertex dessins)
# ============================================================


class WeightedDessin(Record):
    """One-vertex dessin whose chords carry positive multiplicities.

    One vertex is enforced: a dessin with more raises `DiagramError`,
    since the weighted expansion reads each sub-dessin's genus from its
    face count alone."""

    __slots__ = ("dessin", "weights")

    def __init__(self, dessin: Dessin, weights: Sequence[int]):
        if dessin.n_vertices != 1:
            raise DiagramError("a weighted dessin needs one vertex")
        weights = _integers(weights, "weights")
        if len(weights) != dessin.n_edges:
            raise DiagramError("one weight per edge required")
        if any(w < 1 for w in weights):
            raise DiagramError("weights must be positive")
        self._set(dessin, weights)


def contract_parallel(d: Dessin) -> WeightedDessin:
    """Merge nested-adjacent parallel chords of a one-vertex dessin.

    Two chords are parallel when one's endpoints immediately flank the
    other's on both sides (pattern a b .. b a with nothing between the
    paired ends).  Merging adds multiplicities; the genus of the
    underlying dessin is asserted unchanged at every merge.
    """
    from .chord import ChordDiagram, to_dessin

    if d.n_vertices != 1:
        raise DiagramError("contract_parallel needs a one-vertex dessin")
    g0 = dessin_counts(d).g
    word = [h >> 1 for h in d.rotations[0]]
    weights = {lab: 1 for lab in set(word)}
    merged = True
    while merged:
        merged = False
        size = len(word)
        if size <= 2:
            break
        pos: Dict[int, List[int]] = {}
        for idx, lab in enumerate(word):
            pos.setdefault(lab, []).append(idx)
        for a, (s, t) in pos.items():
            b = word[(s + 1) % size]
            if b == a:
                continue
            inner = {(s + 1) % size, (t - 1) % size}
            if len(inner) == 2 and set(pos[b]) == inner:
                weights[a] += weights.pop(b)
                word = [lab for lab in word if lab != b]
                if dessin_counts(to_dessin(ChordDiagram(word))).g != g0:
                    raise InternalError("internal error: merge changed the genus")
                merged = True
                break
    out = to_dessin(ChordDiagram(word))
    return WeightedDessin(out, tuple(weights[lab] for lab in dict.fromkeys(word)))


# ============================================================
# Serialization
# ============================================================


def dessin_to_text(d: Dessin) -> str:
    """Render as `V: (1 3 2 4) E: (1,2) (3,4)` with 1-based half-edge ids."""
    verts = " ".join("(" + " ".join(str(h + 1) for h in rot) + ")" for rot in d.rotations)
    edges = " ".join(f"({2 * i + 1},{2 * i + 2})" for i in range(d.n_edges))
    return f"V: {verts} E: {edges}"

