"""The value types' contract: construction, equality, hash, immutability,
repr; and the exact message of each rejected input."""

import copy
import pickle

import pytest

from dessinlink import chord, dessin, diagram, invariants
from dessinlink.errors import DiagramError

TREFOIL = diagram.table_pd("3_1")


def _examples():
    """(value, field names, hashable) for one instance of each value type."""
    d = dessin.build_dessin(TREFOIL, 0)
    one_vertex = chord.to_dessin(chord.ChordDiagram((0, 1, 0, 1)))
    return [
        (TREFOIL, ("crossings", "signs"), True),
        (d, ("rotations",), True),
        (dessin.dessin_counts(d), ("v", "e", "f", "k", "g", "n"), True),
        (dessin.WeightedDessin(one_vertex, (2, 1)), ("dessin", "weights"), True),
        (chord.ChordDiagram((0, 1, 0, 1)), ("word",), True),
        (invariants.jones_polynomial(TREFOIL), ("variable", "q_poly", "t_poly", "writhe"), True),
        (invariants.determinant(TREFOIL), ("value", "methods", "skipped"), False),
        (invariants.coefficient_table(TREFOIL), ("top_exponent", "coeffs"), True),
    ]


EXAMPLES = _examples()


@pytest.mark.parametrize(
    "value, names, hashable", EXAMPLES, ids=[type(v).__name__ for v, _, _ in EXAMPLES]
)
def test_value_type_contract(value, names, hashable):
    cls = type(value)
    fields = [getattr(value, name) for name in names]
    by_position = cls(*fields)
    by_keyword = cls(**dict(zip(names, fields)))
    assert by_position == by_keyword == value
    assert by_position != fields and not by_position == tuple(fields)
    if hashable:
        assert hash(by_position) == hash(by_keyword) == hash(value)
    else:
        with pytest.raises(TypeError):
            hash(value)
    for name in (*names, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in names] == fields
    assert repr(value).startswith(f"{cls.__name__}({names[0]}=")
    assert copy.copy(value) == pickle.loads(pickle.dumps(value)) == value


def test_a_copied_or_unpickled_pd_code_builds_its_own_map():
    for twin in (copy.copy(TREFOIL), pickle.loads(pickle.dumps(TREFOIL))):
        assert twin == TREFOIL and (twin.alpha, twin.flip) == (TREFOIL.alpha, TREFOIL.flip)
    assert pickle.dumps(TREFOIL) == pickle.dumps(diagram.PDCode(TREFOIL.crossings))
    assert repr(TREFOIL) == f"PDCode(crossings={TREFOIL.crossings!r}, signs=None)"


def test_signs_default_to_none():
    assert diagram.PDCode(TREFOIL.crossings).signs is None
    assert diagram.PDCode(TREFOIL.crossings) == diagram.PDCode(TREFOIL.crossings, None)


def test_vertex_of_is_computed_once_and_stays_out_of_equality():
    d = dessin.Dessin(dessin.build_dessin(TREFOIL, 0).rotations)
    fresh = dessin.Dessin(d.rotations)
    assert d.vertex_of is d.vertex_of
    assert d == fresh and hash(d) == hash(fresh)  # fresh has no vertex map yet
    assert repr(d) == repr(fresh) == f"Dessin(rotations={d.rotations!r})"
    assert fresh.vertex_of == d.vertex_of


def test_the_scan_plan_is_built_once_and_stays_out_of_equality_and_pickling():
    d = dessin.Dessin(dessin.build_dessin(TREFOIL, 0).rotations)
    fresh = dessin.Dessin(d.rotations)
    dessin.dessin_counts(d)
    assert dessin._scan_plan(d) is dessin._scan_plan(d)
    assert d == fresh and hash(d) == hash(fresh)  # fresh has no plan yet
    assert pickle.dumps(d) == pickle.dumps(fresh)
    assert dessin._scan_plan(pickle.loads(pickle.dumps(d))) == dessin._scan_plan(d)
    assert pickle.loads(pickle.dumps(d)).n_edges == d.n_edges == 3  # a slot set by __init__


HASHABLE = [(value, names) for value, names, hashable in EXAMPLES if hashable]


@pytest.mark.parametrize("value, names", HASHABLE, ids=[type(v).__name__ for v, _ in HASHABLE])
def test_the_hash_is_cached_out_of_equality_repr_and_pickling(value, names):
    cls = type(value)
    fields = tuple(getattr(value, name) for name in names)
    fresh = cls(*fields)
    assert hash(value) == hash(fields) == hash(fresh)
    assert value._hash == hash(fields)  # kept by the first call
    assert value == fresh and repr(value) == repr(fresh)
    assert pickle.dumps(value) == pickle.dumps(cls(*fields))
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert not hasattr(twin, "_hash")  # built anew, hashed afresh
        assert hash(twin) == hash(fields)


TREFOIL_TEXT = diagram.pd_to_text(TREFOIL)
REJECTIONS = [
    (lambda: diagram.parse_pd("S[+] X[1,2,3,4]"), "S[...] must come after all crossings"),
    (lambda: diagram.parse_pd(f"{TREFOIL_TEXT} S[+,+,+] S[+,+,+]"), "duplicate S[...] token"),
    (lambda: diagram.parse_pd(f"{TREFOIL_TEXT} S[x]"), "bad sign entry in 'S[x]'"),
    (lambda: diagram.parse_pd("S[+]"), "no crossings in PD input"),
    (lambda: diagram.PDCode([]), "a PD code needs at least one crossing"),
    (lambda: diagram.PDCode([(1, 2, 3)]), "crossing (1, 2, 3) is not a 4-tuple"),
    (lambda: diagram.PDCode([(1, 1, 2, 2)], signs=[2]), "crossing signs must be +1 or -1"),
    (lambda: dessin.Dessin([(0, 2)]), "half-edges must be exactly 0..2e-1, each once"),
    (
        lambda: dessin.dessin_counts(dessin.build_dessin(TREFOIL, 0), 8),
        "sub-dessin mask 8 out of range for 3 edges",
    ),
    (lambda: diagram.state_circle_count(TREFOIL, 8), "state mask 8 out of range for 3 crossings"),
    (lambda: chord.parse_chords("  "), "empty chord input"),
    (lambda: chord.parse_chords("1 a 1 a"), "chord labels must be integers: '1 a 1 a'"),
    (
        lambda: chord.ChordDiagram(["a", "b", "a", "b"]),
        "chord labels must be integers, got ['a', 'b', 'a', 'b']",
    ),
    (
        lambda: chord.ChordDiagram([1.5, 2.5, 1.5, 2.5]),
        "chord labels must be integers, got [1.5, 2.5, 1.5, 2.5]",
    ),
    (lambda: chord.bareiss_det([[1, 2]]), "matrix must be square"),
    (
        lambda: chord.bareiss_det([[0.5, 0], [0, 2]]),
        "matrix entries must be integers, got [0.5, 0]",
    ),
    (lambda: chord.bareiss_det([["3"]]), "matrix entries must be integers, got ['3']"),
    (lambda: diagram.pretzel_pd([]), "pretzel needs at least one column"),
    (lambda: diagram.twist_pd(0, 3), "twist parameters must be >= 1"),
]


@pytest.mark.parametrize("call, message", REJECTIONS, ids=[m for _, m in REJECTIONS])
def test_rejected_input_names_its_fault(call, message):
    with pytest.raises(DiagramError) as info:
        call()
    assert str(info.value) == message
