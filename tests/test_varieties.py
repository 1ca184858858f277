import copy
import pickle
import re

import pytest

from charbound.bounds import GridSpec
from charbound.schubert import Grassmannian
from charbound.varieties import (
    CompleteIntersection,
    MultiIndex,
    Partition,
    partitions_of,
)


def test_dimension_examples():
    assert CompleteIntersection(3, (2,)).dimension == 2
    assert CompleteIntersection(4, (2, 2)).dimension == 2
    assert CompleteIntersection(2, (5,)).dimension == 1


def test_degree_examples():
    assert CompleteIntersection(3, (2,)).degree == 2
    assert CompleteIntersection(4, (2, 2)).degree == 4
    assert CompleteIntersection(5, (1, 1)).degree == 1


def test_multidegree_canonically_sorted():
    assert CompleteIntersection(5, (3, 1, 2)).multidegree == (1, 2, 3)
    assert CompleteIntersection(5, (3, 1, 2)) == CompleteIntersection(5, (2, 3, 1))


def test_validation():
    with pytest.raises(ValueError):
        CompleteIntersection(3, ())
    with pytest.raises(ValueError):
        CompleteIntersection(3, (2, 2, 2))
    with pytest.raises(ValueError):
        CompleteIntersection(3, (0,))


def test_constructor_takes_integer_sizes_only():
    # int() used to truncate these silently: m=4.7 deg=(2) and deg=(1,2)
    with pytest.raises(ValueError, match="ambient_dim must be an integer"):
        CompleteIntersection(4.7, (2.9,))
    with pytest.raises(ValueError, match="degrees must be integers"):
        CompleteIntersection(5, (True, 2))
    with pytest.raises(ValueError, match="degrees must be integers"):
        CompleteIntersection(4, (2.0,))


# each call once truncated or kept its float or bool: MultiIndex((1.9, 2)) gave
# entries (1, 2), Partition((2.7, True)) parts (2, 1), Grassmannian(2.5, 4) G(2.5,4)
@pytest.mark.parametrize(
    "build, args, message",
    [
        pytest.param(MultiIndex, ((1.9, 2),), "got 1.9", id="MultiIndex-float"),
        pytest.param(MultiIndex, ((True, 2),), "got True", id="MultiIndex-bool"),
        pytest.param(Partition, ((2.7, 1),), "got 2.7", id="Partition-float"),
        pytest.param(Partition, ((2, True),), "got True", id="Partition-bool"),
        pytest.param(Grassmannian, (2.5, 4), "got q=2.5", id="Grassmannian-float"),
        pytest.param(Grassmannian, (1, True), "N=True", id="Grassmannian-bool"),
    ],
)
def test_value_types_take_exact_ints_only(build, args, message):
    with pytest.raises(ValueError, match=r"must be int.*" + re.escape(message)):
        build(*args)


def test_json_roundtrip():
    assert CompleteIntersection.from_dict({"ambient_dim": 3, "multidegree": [2]}) == (
        CompleteIntersection(3, (2,))
    )
    with pytest.raises(ValueError):
        CompleteIntersection.from_dict({"multidegree": [2]})


def test_multi_index():
    idx = MultiIndex((2, 1, 1))
    assert idx.weight == 4
    assert len(idx) == 3
    assert list(idx) == [2, 1, 1]
    with pytest.raises(ValueError):
        MultiIndex((0,))


def test_partition_normalization():
    assert Partition((2, 1, 0, 0)).parts == (2, 1)
    assert Partition(()).size == 0
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_partition_box_helpers():
    lam = Partition((2, 1))
    assert lam.fits_in_box(2, 2)
    assert not lam.fits_in_box(1, 5)
    assert lam.box_complement(2, 3) == Partition((2, 1))
    assert Partition((1,)).box_complement(2, 2) == Partition((2, 1))
    assert Partition(()).box_complement(2, 2) == Partition((2, 2))


def test_partitions_of():
    assert sorted(partitions_of(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    )
    assert list(partitions_of(0)) == [()]


# -- value types ---------------------------------------------------------------
#
# (value, its field tuple, its repr, a value of the same type with other
# fields); the repr texts are those of the frozen dataclasses these types were.
_SPEC = GridSpec(3, 2, 1, ["betti"], 4)
VALUES = [
    (
        CompleteIntersection(5, (3, 1, 2)),
        (5, (1, 2, 3)),
        "CompleteIntersection(ambient_dim=5, multidegree=(1, 2, 3))",
        CompleteIntersection(5, (1, 2, 2)),
    ),
    (MultiIndex((2, 1)), ((2, 1),), "MultiIndex(entries=(2, 1))", MultiIndex((1, 2))),
    (Partition((2, 1, 0)), ((2, 1),), "Partition(parts=(2, 1))", Partition((2,))),
    (Grassmannian(2, 4), (2, 4), "Grassmannian(q=2, N=4)", Grassmannian(2, 5)),
    (
        _SPEC,
        (3, 2, 1, ("betti",), 4),
        "GridSpec(max_ambient_dim=3, max_degree_per_factor=2, max_codim=1, "
        "checks=('betti',), max_cases=4)",
        GridSpec(3, 2, 1, ["euler"], 4),
    ),
]


@pytest.mark.parametrize(
    "value, fields, text, other", VALUES, ids=[type(v[0]).__name__ for v in VALUES]
)
def test_value_type_semantics(value, fields, text, other):
    assert repr(value) == text
    twin = type(value)(*fields)
    assert value == twin and hash(value) == hash(twin) == hash(fields)
    assert value != other
    # equal only to the same type: not to the field tuple, not to another
    # record type with the same fields
    assert value != fields
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value
    first = text.partition("(")[2].partition("=")[0]  # the first field's name
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(value, first))
    with pytest.raises(AttributeError):
        value.unknown = 1
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert value == twin


def test_value_types_differ_across_types():
    assert Partition((1,)) != MultiIndex((1,))
    assert hash(Partition((1,))) == hash(MultiIndex((1,)))
    assert Grassmannian(2, 4) != CompleteIntersection(4, (2,))


def test_value_repr_prints_long_ints_in_full():
    # str() refuses ints past 4,300 digits; repr must not
    big = 10**4999 + 7
    digits = "1" + "0" * 4998 + "7"
    assert repr(CompleteIntersection(5, (1, big))) == (
        f"CompleteIntersection(ambient_dim=5, multidegree=(1, {digits}))"
    )
    assert repr(GridSpec(max_cases=big)).endswith(f"max_cases={digits})")
