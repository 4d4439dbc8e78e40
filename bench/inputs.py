"""Seeded inputs for the dessinlink benchmark.

Every input comes from one `random.Random(seed)` stream, so the same seed
gives the same inputs.  The generators cover braid closures (mirrored so
the all-A state has no more circles than the all-B state), `twist_pd`,
`pretzel_pd`, the bundled table names and chord words.  Each input is
recorded with its crossing count n, the vertex, edge and genus counts
v, e, g of its all-A dessin, and its component count c.

Inputs come in rounds of fixed composition: a run processes whole rounds,
so the mix of sizes is the same in every run whatever the machine speed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from dessinlink import chord, dessin, diagram

# corpus: one knot and one link per crossing count, every round
CORPUS_CROSSINGS = range(6, 14)
# large: (family, crossings, all-A circles v) per round.  Fixing v keeps the
# cost of a round nearly the same for every seed: the scan's cost per
# subset grows with v.
LARGE_ROUND = (
    ("braid", 16, 3), ("braid", 16, 3), ("twist", 16, 1), ("pretzel", 16, 6), ("pretzel", 16, 6),
    ("braid", 17, 3), ("pretzel", 18, 7),
)
# cli: at most this many crossings (or chords) per request
CLI_MAX_CROSSINGS = 10
CLI_REPEATS_PER_ROUND = 3


@dataclass(frozen=True)
class Item:
    """One diagram (or chord word) with its size record."""

    kind: str  # braid | twist | pretzel | table | chords
    source: str  # how it was made, e.g. "twist 7 9"
    text: str  # PD text, or the chord word for kind == "chords"
    n: int
    v: int
    e: int
    g: int
    c: Optional[int]  # link components; None for a chord word

    @property
    def knot(self) -> bool:
        return self.c == 1

    def record(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "source": self.source,
            "n": self.n, "v": self.v, "e": self.e, "g": self.g, "c": self.c,
        }


def _item(kind: str, source: str, pd: diagram.PDCode) -> Item:
    counts = dessin.dessin_counts(dessin.build_dessin(pd, 0))
    return Item(kind, source, diagram.pd_to_text(pd), pd.n, counts.v, counts.e,
                counts.g, len(diagram.strand_components(pd)))


def chord_item(word: Sequence[int]) -> Item:
    cd = chord.ChordDiagram(tuple(word))
    counts = dessin.dessin_counts(chord.to_dessin(cd))
    text = " ".join(str(x) for x in word)
    return Item("chords", "chords " + text, text, cd.m, counts.v, counts.e, counts.g, None)


def table_item(name: str) -> Item:
    return _item("table", "table " + name, diagram.table_pd(name))


def reversed_crossings(text: str) -> str:
    """The same diagram with its crossings listed in reverse order.

    Invariants and work are unchanged, but every memo key in the program
    differs, so a second pass over an input cannot reuse the first one's
    cached results.
    """
    return " ".join(reversed(text.split()))


# ============================================================
# Braid closures
# ============================================================


def braid_closure(word: Sequence[int], strands: int) -> Optional[diagram.PDCode]:
    """PD code of the closure of a braid word, None if a strand is unused.

    Letter +k crosses strand k under strand k+1 (1-based); -k is its
    mirror.  Each crossing is listed from its incoming under-arc,
    counterclockwise.
    """
    ends = list(range(1, strands + 1))  # arc currently leaving each position
    label = strands + 1
    tuples: List[Tuple[int, int, int, int]] = []
    for letter in word:
        k = abs(letter) - 1
        left, right = ends[k], ends[k + 1]
        out_left, out_right = label, label + 1
        label += 2
        if letter > 0:
            tuples.append((left, out_left, out_right, right))
        else:
            tuples.append((right, left, out_left, out_right))
        ends[k], ends[k + 1] = out_left, out_right
    if any(ends[i] == i + 1 for i in range(strands)):
        return None
    closing = {ends[i]: i + 1 for i in range(strands)}
    return diagram.PDCode(tuple(tuple(closing.get(a, a) for a in t) for t in tuples))


def _all_a_not_above_all_b(pd: diagram.PDCode) -> diagram.PDCode:
    """Mirror so the all-A state has no more circles than the all-B state."""
    if diagram.state_circle_count(pd, 0) > diagram.state_circle_count(pd, (1 << pd.n) - 1):
        return diagram.mirror(pd)
    return pd


class Generator:
    """Seeded source of diagrams whose PD codes never repeat.

    A family member drawn again (twist and pretzel families are small at a
    fixed size) is listed from another crossing, so the program sees a new
    PD code, as when a user starts a diagram at another point.
    """

    MAX_ATTEMPTS = 100_000

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seen: set = set()

    def _unseen(self, pd: diagram.PDCode) -> Optional[diagram.PDCode]:
        xs = pd.crossings
        for r in range(len(xs)):
            variant = xs[r:] + xs[:r]
            if variant not in self.seen:
                self.seen.add(variant)
                return diagram.PDCode(variant)
        return None

    def _draw(self, kind: str, make) -> Item:
        """Call make() -> (source, pd or None) until it gives an unseen diagram."""
        for _ in range(self.MAX_ATTEMPTS):
            source, pd = make()
            if pd is not None:
                pd = self._unseen(pd)
                if pd is not None:
                    return _item(kind, source, pd)
        raise RuntimeError(f"no unseen {kind} diagram after {self.MAX_ATTEMPTS} draws")

    def braid(self, n: int, knot: Optional[bool], strands: Tuple[int, int] = (2, 4),
              circles: Optional[int] = None) -> Item:
        """Closure of a random n-letter braid using every generator.

        knot=True keeps one-component closures, knot=False keeps links,
        None keeps either; `circles` fixes the all-A circle count v.
        """
        rng = self.rng

        def make():
            s = rng.randint(*strands)
            word = [rng.randint(1, s - 1) * rng.choice((1, -1)) for _ in range(n)]
            pd = None
            if {abs(x) for x in word} == set(range(1, s)):
                pd = braid_closure(word, s)
            if pd is not None and not _has_components(pd, knot):
                pd = None
            if pd is not None:
                pd = _all_a_not_above_all_b(pd)
                if circles is not None and diagram.state_circle_count(pd, 0) != circles:
                    pd = None
            return f"braid {s}:{word}", pd

        return self._draw("braid", make)

    def twist(self, n: int, knot: Optional[bool] = True) -> Item:
        """twist_pd(p, n - p) for a random p."""
        rng = self.rng

        def make():
            p = rng.randint(1, n - 1)
            pd = diagram.twist_pd(p, n - p)
            return f"twist {p} {n - p}", pd if _has_components(pd, knot) else None

        return self._draw("twist", make)

    def pretzel(self, n: int, knot: Optional[bool] = True, columns: int = 3,
                circles: Optional[int] = None) -> Item:
        """Pretzel diagram of `columns` columns, n crossings, both signs present.

        With `circles`, one column is negative, of size circles - 1, which
        makes the all-A circle count v equal `circles`.
        """
        rng = self.rng

        def make():
            if circles is None:
                params = pretzel_params(rng, n, columns)
            else:
                params = pretzel_params(rng, n - circles + 1, columns - 1)
                params = [abs(x) for x in params]
                params.insert(rng.randrange(columns), 1 - circles)
                params = tuple(params)
            pd = diagram.pretzel_pd(params)
            source = "pretzel " + " ".join(map(str, params))
            return source, pd if _has_components(pd, knot) else None

        return self._draw("pretzel", make)

    def chord_word(self, m: int) -> Item:
        word = [lab for lab in range(1, m + 1) for _ in range(2)]
        self.rng.shuffle(word)
        return chord_item(word)


def pretzel_params(rng: random.Random, n: int, columns: int) -> Tuple[int, ...]:
    """Column sizes summing to n, with both signs present."""
    cuts = sorted(rng.sample(range(1, n), columns - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    signs = [rng.choice((1, -1)) for _ in sizes]
    if len(set(signs)) == 1:
        signs[rng.randrange(columns)] *= -1
    return tuple(s * q for s, q in zip(signs, sizes))


def _has_components(pd: diagram.PDCode, knot: Optional[bool]) -> bool:
    return knot is None or (len(diagram.strand_components(pd)) == 1) == knot


# ============================================================
# Workload streams
# ============================================================


def corpus_rounds(seed: int) -> Iterator[List[Item]]:
    """Rounds of 16 distinct braid closures: a knot and a link per n in 6..13."""
    gen = Generator(seed)
    while True:
        items = [gen.braid(n, knot) for n in CORPUS_CROSSINGS for knot in (True, False)]
        gen.rng.shuffle(items)
        yield items


def large_rounds(seed: int) -> Iterator[List[Item]]:
    """Rounds of 16-18 crossing knots: braid closures, twist and pretzel members."""
    gen = Generator(seed)
    while True:
        items = []
        for family, n, v in LARGE_ROUND:
            if family == "braid":
                item = gen.braid(n, True, strands=(3, 5), circles=v)
            elif family == "twist":
                item = gen.twist(n)
            else:
                item = gen.pretzel(n, circles=v)
            if item.v != v:
                raise RuntimeError(f"{item.source} has v={item.v}, expected {v}")
            items.append(item)
        yield items


@dataclass(frozen=True)
class Request:
    """One `python -m dessinlink` command line (without --cache)."""

    command: str
    args: Tuple[str, ...]
    item: Optional[Item]  # the diagram or chord word it runs on, if any


class _CliSource:
    """Fresh CLI requests: each kind of command on a newly drawn input."""

    TABLE_SHARE = 0.2

    def __init__(self, gen: Generator):
        self.gen = gen
        self.table = sorted(diagram.knot_table())
        self.twists: List[Tuple[int, int]] = []

    def _diagram_arg(self, knot: Optional[bool]) -> Tuple[Tuple[str, ...], Item]:
        rng = self.gen.rng
        if rng.random() < self.TABLE_SHARE:
            name = rng.choice(self.table)
            return ("--name", name), table_item(name)
        item = self.gen.braid(rng.randint(5, CLI_MAX_CROSSINGS), knot)
        return ("--pd", item.text), item

    def _twist(self) -> Request:
        # every (p, q) once in a seeded order before any is drawn again
        if not self.twists:
            self.twists = [(p, n - p) for n in range(3, CLI_MAX_CROSSINGS + 1) for p in range(1, n)]
            self.gen.rng.shuffle(self.twists)
        p, q = self.twists.pop()
        return Request("twist", ("twist", str(p), str(q)),
                       _item("twist", f"twist {p} {q}", diagram.twist_pd(p, q)))

    def _pretzel(self) -> Request:
        rng = self.gen.rng
        params = pretzel_params(rng, rng.randint(5, CLI_MAX_CROSSINGS), 3)
        text = " ".join(map(str, params))
        return Request("pretzel", ("pretzel",) + tuple(text.split()) + ("--det",),
                       _item("pretzel", "pretzel " + text, diagram.pretzel_pd(params)))

    def requests(self) -> List[Request]:
        rng = self.gen.rng
        out = []
        args, item = self._diagram_arg(None)
        out.append(Request("det", ("det",) + args, item))
        args, item = self._diagram_arg(True)
        out.append(Request("jones", ("jones",) + args, item))
        args, item = self._diagram_arg(None)
        out.append(Request("coeffs", ("coeffs",) + args, item))
        out.append(self._twist())
        out.append(self._pretzel())
        item = self.gen.chord_word(rng.randint(3, CLI_MAX_CROSSINGS))
        out.append(Request("charpoly", ("charpoly", "--chords", item.text), item))
        out.append(Request("verify", ("verify",), None))
        return out


def cli_rounds(seed: int) -> Iterator[List[Request]]:
    """Rounds of seven fresh requests plus three repeats of earlier ones.

    Repeats hit the CLI's result cache; `verify` takes no input, so every
    `verify` after the first is a hit as well.
    """
    gen = Generator(seed)
    source = _CliSource(gen)
    history: List[Request] = []
    while True:
        fresh = source.requests()
        history.extend(fresh)
        repeats = [gen.rng.choice(history) for _ in range(CLI_REPEATS_PER_ROUND)]
        batch = fresh + repeats
        gen.rng.shuffle(batch)
        yield batch
