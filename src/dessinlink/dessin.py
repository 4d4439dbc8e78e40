"""Ribbon graphs (dessins) of smoothed diagrams and their sub-dessin scans.

A dessin is a graph with a cyclic order of half-edge ends at each vertex.
Half-edges are numbered 0..2e-1 and edge i pairs half-edges 2i and 2i+1.
Faces are the orbits of h -> successor-at-vertex of the mate of h; genus
comes from Euler's relation v - e + f = 2k - 2g per component count k.

Sub-dessins keep every vertex and a subset of edges.  Every sub-dessin
count in the package comes from the one kernel in this module, `_counts`.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ._record import Record
from .errors import CapExceededError, DiagramError, InternalError

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
    "scan_subdessins",
    "quasi_tree_counts",
    "mixed_state_face_count",
    "contract_parallel",
    "dessin_to_text",
    "dessin_from_text",
]


def _canonical(rotations: Iterable[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    verts = []
    for rot in rotations:
        rot = tuple(int(h) for h in rot)
        if not rot:
            raise DiagramError("isolated vertices are not representable")
        lo = rot.index(min(rot))
        verts.append(rot[lo:] + rot[:lo])
    verts.sort(key=lambda r: r[0])
    return tuple(verts)


class Dessin(Record):
    """A connected-or-not ribbon graph, rotations in canonical form."""

    __slots__ = ("rotations", "_vertex_of")

    def __init__(self, rotations: Iterable[Sequence[int]]):
        rotations = _canonical(rotations)
        ids = sorted(h for rot in rotations for h in rot)
        n = len(ids)
        if n % 2 != 0 or ids != list(range(n)):
            raise DiagramError("half-edges must be exactly 0..2e-1, each once")
        self._set(rotations)

    @property
    def n_edges(self) -> int:
        return sum(len(rot) for rot in self.rotations) // 2

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


def build_dessin(pd: PDCode, s: StateLike, outer_corner: int = 0) -> Dessin:
    """Dessin of a state: vertices are circles, edges are crossings.

    Crossing c becomes the chord with half-edges 2c and 2c+1, attached at
    its two smoothing channels; each circle's rotation lists the chord
    ends in the circle's oriented cyclic order, as `smooth_state` returns
    them.  The dessin is memoized per (crossings, state mask, outer
    corner), so every invariant of a diagram, and `reduce_to_one_vertex`,
    reads the same `Dessin` object and smooths the state once.
    """
    from .diagram import _state_mask

    key = _StateKey((pd.crossings, _state_mask(pd, s), outer_corner))
    key.pd = pd
    return _dessin_of(key)


class _StateKey(tuple):
    """Memo key (crossings, state mask, outer corner).  It carries the PD
    code it was made from, which is not part of its hash or equality, so a
    miss smooths that code without parsing the crossings again."""

    pd: PDCode


# Reuse is between the invariants of one diagram, so a few entries suffice.
# A bad outer corner raises in `smooth_state`, and errors are not cached.
@lru_cache(maxsize=16)
def _dessin_of(key: _StateKey) -> Dessin:
    from .diagram import smooth_state

    _, mask, outer_corner = key
    return Dessin(smooth_state(key.pd, mask, outer_corner))


# ============================================================
# The subset-scan engine
# ============================================================


def _counts(d: Dessin, masks: Iterable[int]) -> Iterator[Tuple[int, int, int, int]]:
    """Yield (mask, edges, components, faces) for each edge bitmask in `masks`.

    This is the dessin side's only per-subset kernel; its buffers are
    allocated once per call and reused for every mask.
    """
    vert_of = d.vertex_of
    nh = 2 * d.n_edges
    nxt = [0] * nh
    stamp = [0] * nh
    v = d.n_vertices
    parent = list(range(v))
    cur = 0
    for mask in masks:
        cur += 1
        parent[:] = range(v)
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
        k = sum(1 for i in range(v) if parent[i] == i)

        f = 0
        for rot in d.rotations:
            first = -1
            prev = -1
            for h in rot:
                if (mask >> (h >> 1)) & 1:
                    if prev < 0:
                        first = h
                    else:
                        nxt[prev] = h
                    prev = h
            if prev >= 0:
                nxt[prev] = first
            else:
                f += 1  # vertex untouched by the subset: one face of its own
        for rot in d.rotations:
            for h0 in rot:
                if not (mask >> (h0 >> 1)) & 1 or stamp[h0] == cur:
                    continue
                f += 1
                h = h0
                while stamp[h] != cur:
                    stamp[h] = cur
                    h = nxt[h ^ 1]
        yield mask, mask.bit_count(), k, f


def _scan(
    d: Dessin, universe: Optional[int] = None, cap: int = 24
) -> Iterator[Tuple[int, int, int, int]]:
    """Yield (mask, edges, components, faces) for every subset of `universe`.

    This is the only dessin-side subset enumerator.  It walks the subsets in
    increasing bitmask order, which only `scan_subdessins` promises; the
    readers of `_subset_profile` take the (edges, faces) multiplicities in
    whatever order the tally was filled.
    """
    e = d.n_edges
    full = (1 << e) - 1
    if universe is None:
        universe = full
    elif universe & ~full:
        raise DiagramError(f"universe {universe:#x} has bits beyond {e} edges")
    if universe.bit_count() > cap:
        raise CapExceededError(
            f"scan over {universe.bit_count()} edges exceeds the cap {cap}"
        )

    def ascending() -> Iterator[int]:
        sub = 0
        while True:
            yield sub
            if sub == universe:
                return
            sub = (sub - universe) & universe

    yield from _counts(d, ascending())


def _subset_profile(d: Dessin, cap: int) -> Dict[Tuple[int, int], int]:
    """The cached profile of `d`: each (e(H), f(H)) pair with the number of
    edge subsets H that have it.  That is all the profile's readers need:
    (e, f) fixes the start level (v + e - f) / 2 of H in the bracket, and a
    one-face H is connected, of genus (e - v + 1) / 2.  The cap is checked
    outside the cache, so calls with any cap share one scan."""
    if d.n_edges > cap:
        raise CapExceededError(f"scan over {d.n_edges} edges exceeds the cap {cap}")
    return _profile_scan(d)


# Reuse is between the invariants of one diagram, so a few entries suffice.
@lru_cache(maxsize=16)
def _profile_scan(d: Dessin) -> Dict[Tuple[int, int], int]:
    tally: Dict[Tuple[int, int], int] = {}
    for _, eh, _, f in _scan(d, cap=d.n_edges):
        key = (eh, f)
        tally[key] = tally.get(key, 0) + 1
    return tally


def _genus_of(v: int, eh: int, k: int, f: int) -> int:
    """Genus g from Euler's relation v - e + f = 2k - 2g."""
    g2 = 2 * k - v + eh - f
    if g2 < 0 or g2 % 2:
        raise InternalError(f"internal error: bad Euler data v={v} e={eh} f={f} k={k}")
    return g2 // 2


def _counts_from_efk(d: Dessin, eh: int, k: int, f: int) -> Counts:
    v = d.n_vertices
    return Counts(v, eh, f, k, _genus_of(v, eh, k, f), eh - v + k)


def dessin_counts(d: Dessin, sub: Optional[Iterable[int]] = None) -> Counts:
    """Counts of the whole dessin, or of the sub-dessin on the given edges,
    from the scan's kernel applied to that one subset."""
    if sub is None:
        mask = (1 << d.n_edges) - 1
    else:
        mask = 0
        for ei in sub:
            if not 0 <= ei < d.n_edges:
                raise DiagramError(f"edge index {ei} out of range")
            mask |= 1 << ei
    _, eh, k, f = next(_counts(d, (mask,)))
    return _counts_from_efk(d, eh, k, f)


def scan_subdessins(
    d: Dessin,
    visitor: Callable[[int, Counts], None],
    cap: int = 24,
    universe: Optional[int] = None,
) -> None:
    """Call visitor(mask, counts) for every sub-dessin, ascending by mask."""
    for mask, eh, k, f in _scan(d, universe, cap):
        visitor(mask, _counts_from_efk(d, eh, k, f))


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


def mixed_state_face_count(pd: PDCode, edges: Iterable[int]) -> int:
    """Circles of the state that B-smooths exactly the listed crossings.

    Equals the face count of the corresponding sub-dessin of the all-A
    dessin, which is the bridge between state sums and subset scans.
    """
    from .diagram import state_circle_count

    mask = 0
    for c in edges:
        if not 0 <= c < len(pd.crossings):
            raise DiagramError(f"crossing index {c} out of range")
        mask |= 1 << c
    return state_circle_count(pd, mask)


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
    """One-vertex dessin whose chords carry positive multiplicities."""

    __slots__ = ("dessin", "weights")

    def __init__(self, dessin: Dessin, weights: Sequence[int]):
        weights = tuple(int(w) for w in weights)
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


_VERT_RE = re.compile(r"\(([^()]*)\)")


def dessin_from_text(text: str) -> Dessin:
    """Parse the textual form; arbitrary edge pairings are renumbered."""
    m = re.fullmatch(r"\s*V:\s*(.*?)\s*E:\s*(.*?)\s*", text, re.S)
    if not m:
        raise DiagramError("expected `V: (..) .. E: (a,b) ..`")
    vpart, epart = m.groups()
    verts: List[List[int]] = []
    rest = _VERT_RE.sub("", vpart).strip()
    if rest:
        raise DiagramError(f"stray text {rest!r} in vertex list")
    for grp in _VERT_RE.findall(vpart):
        try:
            verts.append([int(tok) for tok in grp.replace(",", " ").split()])
        except ValueError:
            raise DiagramError(f"bad vertex group ({grp})") from None
    pairs: List[Tuple[int, int]] = []
    rest = _VERT_RE.sub("", epart).strip()
    if rest:
        raise DiagramError(f"stray text {rest!r} in edge list")
    for grp in _VERT_RE.findall(epart):
        try:
            a, b = map(int, grp.replace(",", " ").split())
        except ValueError:
            raise DiagramError(f"edge ({grp}) is not a pair of integers") from None
        pairs.append((a, b))
    ids = sorted(h for rot in verts for h in rot)
    n = len(ids)
    if len(set(ids)) != n:
        raise DiagramError("half-edge ids must be distinct")
    if n % 2:
        raise DiagramError("a dessin needs an even number of half-edges")
    if sorted(h for pr in pairs for h in pr) != ids:
        raise DiagramError("edge pairs must cover each half-edge id exactly once")
    remap: Dict[int, int] = {}
    for i, (a, b) in enumerate(pairs):
        remap[a] = 2 * i
        remap[b] = 2 * i + 1
    return Dessin(tuple(tuple(remap[h] for h in rot) for rot in verts))
