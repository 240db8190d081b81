"""The library's value types: equal inputs give equal objects with equal
hashes, fields are read-only, and point sets are normalized and sorted."""

import copy
import pickle

import pytest

from hyperarcs.arcs import Arc, build_complete_translation_arc, subgroup_make
from hyperarcs.blocking import BlockingSet
from hyperarcs.classify import classify_ghf
from hyperarcs.gf2 import field_make
from hyperarcs.onefact import Embedding, OneFactorization, closure

GF8 = field_make(3)
K4 = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))
POINTS = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))


def make(kind):
    """A fresh instance of each value type, built from fresh but equal inputs."""
    if kind == "Arc":
        return Arc(field_make(3), tuple(POINTS))
    if kind == "AdditiveSubgroup":
        return subgroup_make(field_make(3), [(1, 2), (2, 4)])
    if kind == "BlockingSet":
        return BlockingSet(field_make(3), tuple(POINTS))
    if kind == "OneFactorization":
        return OneFactorization(4, tuple(tuple(list(e) for e in f) for f in K4))
    if kind == "ClosureResult":
        return closure(OneFactorization(4, K4))
    if kind == "CompletionReport":
        return build_complete_translation_arc(6, 3)
    if kind == "ClassificationReport":
        return classify_ghf(field_make(3), max_k=6)
    if kind == "ClassRow":
        return classify_ghf(field_make(3), max_k=6).rows[0]
    return Embedding(field_make(3), OneFactorization(4, K4), POINTS, POINTS[:3])


KINDS = (
    "Arc", "AdditiveSubgroup", "BlockingSet", "OneFactorization", "Embedding",
    "ClosureResult", "CompletionReport", "ClassificationReport", "ClassRow",
)
# The types built by Record's own constructor: one value per slot, in order.
GENERIC_KINDS = (
    "Embedding", "ClosureResult", "CompletionReport", "ClassificationReport", "ClassRow"
)


@pytest.mark.parametrize("kind", KINDS)
def test_equal_inputs_equal_values(kind):
    a, b = make(kind), make(kind)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_fields_are_read_only(kind):
    value = make(kind)
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make(kind)


@pytest.mark.parametrize("kind", KINDS)
def test_copies_are_equal(kind):
    value = make(kind)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            setattr(twin, type(value).__slots__[0], None)


@pytest.mark.parametrize("kind", GENERIC_KINDS)
def test_one_value_per_slot(kind):
    value = make(kind)
    values = [getattr(value, name) for name in type(value).__slots__]
    assert type(value)(*values) == value
    with pytest.raises(TypeError):
        type(value)(*values[:-1])
    with pytest.raises(TypeError):
        type(value)(*values, None)


def test_values_of_different_fields_differ():
    assert Arc(GF8, POINTS) != Arc(field_make(3, 0b1101), POINTS)
    assert Arc(GF8, POINTS) != Arc(GF8, POINTS[:3])
    assert Arc(GF8, POINTS) != BlockingSet(GF8, POINTS)
    assert OneFactorization(4, K4) != OneFactorization(4, K4[::-1])


@pytest.mark.parametrize("cls", [Arc, BlockingSet])
def test_point_sets_normalized_and_sorted(cls):
    # each point twice, in reverse order; Arc also scales to the normal form
    scaled = tuple(reversed(POINTS)) + ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))
    if cls is Arc:
        scaled = scaled[:4] + ((0, 0, 5), (0, 3, 0), (7, 0, 0), (2, 2, 2))
    assert cls(GF8, scaled).points == tuple(sorted(POINTS))
