"""Shared test utilities: braid-closure diagrams and seeded random corpora."""

import random
from typing import List, Sequence

from dessinlink.dessin import Dessin, _subset_profile, build_dessin, scan_subdessins
from dessinlink.diagram import (
    PDCode,
    mirror,
    smooth_state,
    state_circle_count,
    strand_components,
)
from dessinlink.poly import DELTA, LaurentPoly

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
    """a[0] by the subset scan: sum of (-1)^(v + e(H) - 1) over the
    genus-0 sets H of loops."""
    vert_of = d.vertex_of
    loops = sum(1 << i for i in range(d.n_edges) if vert_of[2 * i] == vert_of[2 * i + 1])
    terms: List[int] = []
    scan_subdessins(
        d, lambda mask, c: terms.append((-1) ** (c.v + c.e - 1) if c.g == 0 else 0),
        universe=loops,
    )
    return sum(terms)


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


def shuffled(pd: PDCode, rng: random.Random) -> PDCode:
    """The same diagram with its crossings in a random order and its arc
    labels permuted."""
    order = rng.sample(range(pd.n), pd.n)
    labels = sorted({lab for tup in pd.crossings for lab in tup})
    image = dict(zip(labels, rng.sample(labels, len(labels))))
    crossings = tuple(tuple(image[lab] for lab in pd.crossings[c]) for c in order)
    return PDCode(crossings, None if pd.signs is None else [pd.signs[c] for c in order])


def scan_bracket(pd: PDCode) -> LaurentPoly:
    """<P> summed from the subset scan's profile of the all-A dessin."""
    d = build_dessin(pd, 0)
    return sum(
        (
            (DELTA ** (f - 1)).shift(d.n_edges - 2 * eh) * cnt
            for (eh, f), cnt in _subset_profile(d, 24).items()
        ),
        LaurentPoly(),
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
