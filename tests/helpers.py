"""Shared test utilities: braid-closure diagrams and seeded random corpora."""

import random
from math import comb
from typing import Dict, Iterator, List, Sequence, Tuple

from dessinlink.chord import ChordDiagram, bareiss_det, intersection_matrix
from dessinlink.dessin import Dessin, _counts, _scan, _subset_profile, build_dessin
from dessinlink.diagram import (
    PDCode,
    mirror,
    smooth_state,
    state_circle_count,
    strand_components,
)
from dessinlink.poly import LaurentPoly

# One line per acceptance criterion, echoed after the pytest run summary.
ACCEPTANCE_LINES: List[str] = []


def braid_pd(word: Sequence[int], n_strands: int) -> PDCode:
    """Trace closure of a braid word as a PD code.

    Letter +k crosses strand k-1 under strand k (right strand over);
    -k is the mirror crossing.  Every strand must meet a crossing.
    """
    n = n_strands
    cur = list(range(1, n + 1))
    fresh = n + 1
    tuples = []
    for letter in word:
        k = abs(letter) - 1
        if not 0 <= k < n - 1:
            raise ValueError(f"letter {letter} out of range for {n} strands")
        li, ri = cur[k], cur[k + 1]
        lo, ro = fresh, fresh + 1
        fresh += 2
        if letter > 0:
            tuples.append((li, lo, ro, ri))
        else:
            tuples.append((ri, li, lo, ro))
        cur[k], cur[k + 1] = lo, ro
    if any(cur[i] == i + 1 for i in range(n)):
        raise ValueError("closure has a crossing-free component")
    subs = {cur[i]: i + 1 for i in range(n)}
    return PDCode(
        crossings=[tuple(subs.get(x, x) for x in t) for t in tuples]
    )


def genus_0_loop_sum(d: Dessin) -> int:
    """a[0] by walking the subsets of the loops: sum of (-1)^(v + e(H) - 1)
    over the genus-0 sets H of loops.  A set of loops joins no two
    vertices, so it has v components and genus (v + e(H) - f(H)) / 2, and
    the scan's kernel `_counts` gives each subset's e(H) and f(H)."""
    vert_of = d.vertex_of
    masks = [0]
    for i in range(d.n_edges):
        if vert_of[2 * i] == vert_of[2 * i + 1]:
            masks += [mask | 1 << i for mask in masks]
    v = d.n_vertices
    return sum((-1) ** (v + eh - 1) for _, eh, f in _counts(d, masks) if f == v + eh)


def scan_profile(d: Dessin) -> Dict[Tuple[int, int], int]:
    """The (e, f) tally from the ascending subset enumerator."""
    tally: Dict[Tuple[int, int], int] = {}
    for _, eh, f in _scan(d, cap=d.n_edges):
        tally[eh, f] = tally.get((eh, f), 0) + 1
    return tally


def medial_alpha(d: Dessin) -> Tuple[int, ...]:
    """The dart involution of the medial map of `d`, as `diagram._bracket_counts`
    reads a PD code's: edge i is crossing i, darts 2h and 2h+1 are the corners
    before and after half-edge h, and alpha[2h+1] = 2 next(h), for next(h) the
    half-edge after h at its vertex."""
    alpha = [0] * (4 * d.n_edges)
    for rot in d.rotations:
        for h, k in zip(rot, rot[1:] + rot[:1]):
            alpha[2 * h + 1], alpha[2 * k] = 2 * k, 2 * h + 1
    return tuple(alpha)


def bfs_component_count(d: Dessin, mask: int) -> int:
    """Components of the sub-dessin on the edges of `mask`, by breadth-first
    search over vertices read off the rotations; every vertex is kept."""
    owner = {h: vi for vi, rot in enumerate(d.rotations) for h in rot}
    adjacent: List[List[int]] = [[] for _ in d.rotations]
    for ei in range(d.n_edges):
        if mask >> ei & 1:
            a, b = owner[2 * ei], owner[2 * ei + 1]
            adjacent[a].append(b)
            adjacent[b].append(a)
    seen = [False] * len(adjacent)
    count = 0
    for start in range(len(adjacent)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = [start]
        for u in queue:  # the list grows while it is read: a FIFO queue
            for w in adjacent[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return count


def reduce_by_resmoothing(pd: PDCode) -> PDCode:
    """Reference for `reduce_to_one_vertex`: clasp at the lowest-index
    crossing whose channels lie on distinct all-A circles, smooth the whole
    diagram again, and repeat until one circle is left."""
    crossings = [list(tup) for tup in pd.crossings]
    circles = smooth_state(PDCode(tuple(tuple(t) for t in crossings)), 0)
    while len(circles) > 1:
        member = {h: ci for ci, rot in enumerate(circles) for h in rot}
        target = next(c for c in range(len(crossings)) if member[2 * c] != member[2 * c + 1])
        x, y = crossings[target][1], crossings[target][2]
        assert x != y
        cx, px = next(
            (c, p)
            for c in range(len(crossings))
            for p in range(4)
            if crossings[c][p] == x and (c, p) != (target, 1)
        )
        cy, py = next(
            (c, p)
            for c in range(len(crossings))
            for p in range(4)
            if crossings[c][p] == y and (c, p) != (target, 2)
        )
        top = max(max(t) for t in crossings)
        x_mid, x_far, y_mid, y_far = top + 1, top + 2, top + 3, top + 4
        crossings[cx][px] = x_far
        crossings[cy][py] = y_far
        crossings.append([y, x, y_mid, x_mid])
        crossings.append([y_mid, x_far, y_far, x_mid])
        next_circles = smooth_state(PDCode(tuple(tuple(t) for t in crossings)), 0)
        assert len(next_circles) == len(circles) - 1
        circles = next_circles
    return PDCode(tuple(tuple(t) for t in crossings))


def goeritz_determinant(pd: PDCode) -> int:
    """|det| of the Goeritz matrix: the colour-0 face Laplacian of the
    diagram, crossing c weighed +1 when flip[c] = 0 and -1 otherwise, with
    one row and column deleted.

    Corner 4c + p lies ccw of dart 4c + p and has colour (flip[c] + p) mod 2;
    across the arc from 4c + p to 4c' + q = alpha[4c + p], corner (c, p) is
    one face with (c', q - 1), and (c, p - 1) with (c', q).
    """
    parent = list(range(4 * pd.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for d, e in enumerate(pd.alpha):
        for x, y in ((d, (e & ~3) | ((e - 1) & 3)), ((d & ~3) | ((d - 1) & 3), e)):
            parent[find(x)] = find(y)
    faces: Dict[int, int] = {}
    rows: List[Dict[int, int]] = []
    for c, f in enumerate(pd.flip):
        w = 1 if f == 0 else -1
        ends = []
        for p in (f, f + 2):  # the corners of colour 0
            root = find(4 * c + p)
            if root not in faces:
                faces[root] = len(faces)
                rows.append({})
            ends.append(faces[root])
        a, b = ends
        if a != b:
            for u, v in ((a, b), (b, a)):
                rows[u][u] = rows[u].get(u, 0) + w
                rows[u][v] = rows[u].get(v, 0) - w
    size = len(rows)
    return abs(bareiss_det([[rows[u].get(v, 0) for v in range(1, size)] for u in range(1, size)]))


def unit_principal_minors(cd: ChordDiagram) -> Dict[int, int]:
    """Map each chord subset (bitmask) to its principal minor of the
    interlacement matrix, asserted to be 0 or 1.

    Even-size minors are exact Bareiss determinants; odd-size minors of
    an antisymmetric matrix vanish identically.
    """
    mat = intersection_matrix(cd)
    out: Dict[int, int] = {}
    for mask in range(1 << cd.m):
        idx = [i for i in range(cd.m) if mask >> i & 1]
        minor = 0 if len(idx) % 2 else bareiss_det([[mat[i][j] for j in idx] for i in idx])
        assert minor in (0, 1), f"principal minor {minor} for subset {mask:#x} is not 0 or 1"
        out[mask] = minor
    return out


def rotate(cd: ChordDiagram, k: int) -> ChordDiagram:
    """The same chord diagram with its basepoint moved k endpoints along the circle."""
    w = cd.word
    k %= len(w)
    return ChordDiagram(w[k:] + w[:k])


def ceiling_closures(strands: Sequence[int]) -> List[PDCode]:
    """One seeded 120-crossing braid closure per strand count."""
    out = []
    for n_strands in strands:
        rng = random.Random(1000 + n_strands)
        while True:
            try:
                out.append(braid_pd(random_braid_word(rng, n_strands, 120), n_strands))
                break
            except ValueError:
                pass
    return out


def shuffled(pd: PDCode, rng: random.Random) -> PDCode:
    """The same diagram with its crossings in a random order and its arc
    labels permuted."""
    order = rng.sample(range(pd.n), pd.n)
    labels = sorted({lab for tup in pd.crossings for lab in tup})
    image = dict(zip(labels, rng.sample(labels, len(labels))))
    crossings = tuple(tuple(image[lab] for lab in pd.crossings[c]) for c in order)
    return PDCode(crossings, None if pd.signs is None else [pd.signs[c] for c in order])


def delta_terms(k: int, shift: int = 0, mult: int = 1) -> Iterator[Tuple[int, int]]:
    """The terms of mult A^shift delta^k, k >= 0, by the binomial theorem:
    delta^k = (-A^2 - A^-2)^k = (-1)^k sum_i C(k, i) A^(2k - 4i)."""
    sign = -mult if k & 1 else mult
    return ((shift + 2 * k - 4 * i, sign * comb(k, i)) for i in range(k + 1))


def delta_power(k: int, shift: int = 0) -> LaurentPoly:
    """A^shift delta^k for k >= 0, from `delta_terms`."""
    return LaurentPoly(delta_terms(k, shift))


def poly_product(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """p q, term by term; `LaurentPoly` has no arithmetic of its own."""
    return LaurentPoly((e + f, c * d) for e, c in p for f, d in q)


def scan_bracket(pd: PDCode) -> LaurentPoly:
    """<P> summed from the subset scan's profile of the all-A dessin."""
    return profile_bracket(build_dessin(pd, 0))


def profile_bracket(d: Dessin) -> LaurentPoly:
    """sum over edge subsets H of A^(e - 2 e(H)) delta^(f(H) - 1), summed
    term by term from the subset scan's profile of `d`."""
    return LaurentPoly(
        term
        for (eh, f), cnt in _subset_profile(d, 24).items()
        for term in delta_terms(f - 1, d.n_edges - 2 * eh, cnt)
    )


def random_braid_word(rng: random.Random, n_strands: int, length: int) -> List[int]:
    """Random word over +/- generators in which every generator appears."""
    gens = list(range(1, n_strands))
    while True:
        word = [rng.choice(gens) * rng.choice((1, -1)) for _ in range(length)]
        if {abs(x) for x in word} == set(gens):
            return word


def random_diagram(rng: random.Random, max_crossings: int = 10) -> PDCode:
    """One random connected braid-closure diagram, mirrored so the all-A
    state has no more circles than the all-B state."""
    while True:
        n_strands = rng.randint(2, 4)
        length = rng.randint(max(3, n_strands), max_crossings)
        try:
            pd = braid_pd(random_braid_word(rng, n_strands, length), n_strands)
        except ValueError:
            continue
        full = (1 << pd.n) - 1
        if state_circle_count(pd, 0) > state_circle_count(pd, full):
            pd = mirror(pd)
        return pd


def _cut_arc(crossings: List[List[int]], arc: int, new: int) -> None:
    """Relabel the second end of `arc` as `new`, leaving two loose ends."""
    c, p = [(c, p) for c, t in enumerate(crossings) for p, x in enumerate(t) if x == arc][1]
    crossings[c][p] = new


def add_curl(pd: PDCode, arc: int, positive: bool = True) -> PDCode:
    """Insert a Reidemeister-I curl into arc `arc`.

    The new crossing takes the arc's two ends at positions 0 and 3 and a
    small loop at two adjacent positions: (1, 2) or, for the other curl,
    (2, 3).  Either way the curl is a nugatory crossing.
    """
    top = max(max(t) for t in pd.crossings)
    cut, loop = top + 1, top + 2
    crossings = [list(t) for t in pd.crossings]
    _cut_arc(crossings, arc, cut)
    crossings.append([arc, loop, loop, cut] if positive else [arc, cut, loop, loop])
    return PDCode(tuple(tuple(t) for t in crossings))


def nugatory_join(p: PDCode, q: PDCode) -> PDCode:
    """P and Q joined through one crossing that a circle in the plane meets
    alone: the lowest arc of P is cut into the ends at positions 0, 1 of the
    new crossing, the lowest arc of Q into the ends at positions 2, 3."""
    shift = max(max(t) for t in p.crossings)
    crossings = [list(t) for t in p.crossings]
    crossings += [[x + shift for x in t] for t in q.crossings]
    top = max(max(t) for t in crossings)
    ends = []
    cuts = (min(min(t) for t in p.crossings), min(min(t) for t in q.crossings) + shift)
    for arc, new in zip(cuts, (top + 1, top + 2)):
        _cut_arc(crossings, arc, new)
        ends += [arc, new]
    crossings.append(ends)
    return PDCode(tuple(tuple(t) for t in crossings))


def random_decorated_diagram(rng: random.Random, max_crossings: int = 10) -> PDCode:
    """A random connected diagram of at most `max_crossings` + 2 crossings:
    a braid closure as from `random_diagram`, one with Reidemeister-I curls,
    two joined through a nugatory crossing, or a braid closure of at least
    3 components."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_diagram(rng, max_crossings)
    if kind == 1:
        pd = random_diagram(rng, max_crossings)
        for _ in range(rng.randint(1, 2)):
            arcs = sorted({x for t in pd.crossings for x in t})
            pd = add_curl(pd, rng.choice(arcs), rng.random() < 0.5)
        return pd
    if kind == 2:
        half = max(3, max_crossings // 2)
        return nugatory_join(random_diagram(rng, half), random_diagram(rng, half))
    while True:
        n_strands = rng.randint(3, 4)
        word = random_braid_word(rng, n_strands, rng.randint(2 * (n_strands - 1), max_crossings))
        try:
            pd = braid_pd(word, n_strands)
        except ValueError:
            continue
        if len(strand_components(pd)) >= 3:
            return pd


def space_polygon_pd(rng: random.Random, max_crossings: int = 14) -> PDCode:
    """The plane projection of a random closed space polygon, the "random
    jump" model of knot sampling: 6-12 points drawn in the unit cube,
    redrawn until the projection has 1 to `max_crossings` crossings.

    Two edges that cross in the xy-plane make a crossing, the one higher
    there over.  Walking the polygon meets every crossing twice; the arc
    after the i-th meeting is labelled i + 1, so the arc into the first
    meeting is the last label.  A crossing's tuple starts at its incoming
    under-arc and runs counterclockwise, so the over-strand's outgoing arc
    comes second exactly when the over-strand crosses the under-strand
    from its left to its right.  Unlike a braid closure, nothing bounds
    the width of its crossing order.
    """
    while True:
        m = rng.randint(6, 12)
        pts = [(rng.random(), rng.random(), rng.random()) for _ in range(m)]
        edges = [(pts[k], pts[(k + 1) % m]) for k in range(m)]
        meetings = []  # (position along the polygon, crossing, over?, x, y of the edge)
        for k in range(m):
            (ax, ay, az), (bx, by, bz) = edges[k]
            ux, uy = bx - ax, by - ay
            for l in range(k + 2, m - (k == 0)):  # no edge crosses its neighbours
                (cx, cy, cz), (dx, dy, dz) = edges[l]
                vx, vy = dx - cx, dy - cy
                den = ux * vy - uy * vx
                if den == 0:
                    continue
                wx, wy = cx - ax, cy - ay
                t, u = (wx * vy - wy * vx) / den, (wx * uy - wy * ux) / den
                if 0 < t < 1 and 0 < u < 1:
                    k_over = az + t * (bz - az) > cz + u * (dz - cz)
                    c = len(meetings) // 2
                    meetings.append((k + t, c, k_over, ux, uy))
                    meetings.append((l + u, c, not k_over, vx, vy))
        n = len(meetings) // 2
        if 1 <= n <= max_crossings:
            break
    meetings.sort()
    under: Dict[int, Tuple[int, int, float, float]] = {}
    over: Dict[int, Tuple[int, int, float, float]] = {}
    for i, (_, c, is_over, x, y) in enumerate(meetings):
        (over if is_over else under)[c] = (i or 2 * n, i + 1, x, y)
    crossings = []
    for c in range(n):
        u_in, u_out, ux, uy = under[c]
        o_in, o_out, ox, oy = over[c]
        if ux * oy - uy * ox < 0:  # from the under-strand's left to its right
            crossings.append((u_in, o_out, u_out, o_in))
        else:
            crossings.append((u_in, o_in, u_out, o_out))
    return PDCode(crossings)


def corpus(seed: int, count: int, max_crossings: int = 10) -> List[PDCode]:
    """Deterministic corpus of distinct random diagrams."""
    rng = random.Random(seed)
    seen = set()
    out: List[PDCode] = []
    while len(out) < count:
        pd = random_diagram(rng, max_crossings)
        key = pd.crossings
        if key in seen:
            continue
        seen.add(key)
        out.append(pd)
    return out


def knot_corpus(seed: int, count: int, max_crossings: int = 10) -> List[PDCode]:
    """Like corpus(), keeping only single-component diagrams."""
    rng = random.Random(seed)
    seen = set()
    out: List[PDCode] = []
    while len(out) < count:
        pd = random_diagram(rng, max_crossings)
        if len(strand_components(pd)) != 1:
            continue
        key = pd.crossings
        if key in seen:
            continue
        seen.add(key)
        out.append(pd)
    return out
