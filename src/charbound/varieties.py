"""Smooth complete intersections in projective space and the index types
used to label characteristic numbers and Schubert classes.

A complete intersection is the only first-class variety here: it admits
closed-form Chern classes and exact Betti numbers, which is what makes the
bound checks verifiable against ground truth. Anything else enters the
pipeline only as a (dimension, degree) pair.
"""

from __future__ import annotations

from math import prod

# str(int) refuses past sys.get_int_max_str_digits(), which can be set as low
# as 640; every integer below this constant has at most 639 digits
_SHORT_INT = 10**639


def exact_decimal(value: int) -> str:
    """Exact decimal text of any int, however many digits it has."""
    if -_SHORT_INT < value < _SHORT_INT:
        return str(value)
    # decimal costs about 2 ms to import, so only a long int loads it
    from decimal import Decimal

    return str(Decimal(value))


def exact_repr(value) -> str:
    """repr() of a value, with every int in it printed in full.

    Ints go through ``exact_decimal`` and plain tuples item by item; any
    other value gives its own repr(). Records print their fields through
    this function.
    """
    if type(value) is int:
        return exact_decimal(value)
    if type(value) is tuple:
        comma = "," if len(value) == 1 else ""
        return "(" + ", ".join(map(exact_repr, value)) + comma + ")"
    return repr(value)


class Record:
    """Immutable value with the fields named in ``_fields``.

    A record equals only a record of the same type with equal fields,
    hashes as the tuple of its fields, prints as ``Type(field=value, ...)``
    and refuses assignment. A subclass names its fields in ``_fields`` and
    ``__slots__`` (or keeps them in ``__dict__``), checks its arguments in
    ``__init__`` and hands the normalized values, in order, to the base.
    """

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        items = (f"{name}={exact_repr(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__qualname__}({', '.join(items)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, never through setattr
        return type(self), self._values()


class CompleteIntersection(Record):
    """Variety cut out by hypersurfaces of the given degrees in P^ambient_dim.

    The multidegree is stored sorted ascending, so equal varieties compare
    equal regardless of input order. Degree-1 factors are allowed; they model
    linear re-embeddings.
    """

    __slots__ = _fields = ("ambient_dim", "multidegree")

    def __init__(self, ambient_dim: int, multidegree: tuple):
        if type(ambient_dim) is not int:
            raise ValueError(f"ambient_dim must be an integer, got {ambient_dim!r}")
        for d in multidegree:
            if type(d) is not int:
                raise ValueError(f"degrees must be integers, got {d!r}")
        degs = tuple(sorted(multidegree))
        if not degs:
            raise ValueError("multidegree must contain at least one factor")
        if any(d < 1 for d in degs):
            raise ValueError("every degree factor must be >= 1")
        if len(degs) >= ambient_dim:
            raise ValueError(
                "codimension must be strictly below the ambient dimension"
            )
        super().__init__(ambient_dim, degs)

    @property
    def codimension(self) -> int:
        return len(self.multidegree)

    @property
    def dimension(self) -> int:
        return self.ambient_dim - self.codimension

    @property
    def degree(self) -> int:
        return prod(self.multidegree)

    @classmethod
    def from_dict(cls, data) -> "CompleteIntersection":
        """Parse the JSON shape {"ambient_dim": int, "multidegree": [int, ...]}."""
        if not isinstance(data, dict):
            raise ValueError(f"variety spec must be an object, got {type(data).__name__}")
        unknown = set(data) - {"ambient_dim", "multidegree"}
        if unknown:
            raise ValueError(f"unknown variety spec keys: {sorted(unknown)}")
        ambient, degs = data.get("ambient_dim"), data.get("multidegree")
        if type(ambient) is not int:
            raise ValueError(f"ambient_dim must be an integer, got {ambient!r}")
        if type(degs) is not list or any(type(d) is not int for d in degs):
            raise ValueError(f"multidegree must be a list of integers, got {degs!r}")
        return cls(ambient, tuple(degs))

    def __str__(self):
        return f"m={self.ambient_dim} deg=({','.join(map(str, self.multidegree))})"


class MultiIndex(Record):
    """Indices (i_1, ..., i_r) of a monomial in Chern classes; entries >= 1."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple):
        entries = tuple(entries)
        for i in entries:
            if type(i) is not int:
                raise ValueError(f"multi-index entries must be integers, got {i!r}")
        if any(i < 1 for i in entries):
            raise ValueError("multi-index entries must be >= 1")
        super().__init__(entries)

    @property
    def weight(self) -> int:
        """Total degree the index selects: sum of the entries."""
        return sum(self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class Partition(Record):
    """Weakly decreasing nonnegative parts; trailing zeros stripped."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple):
        parts = tuple(parts)
        for p in parts:
            if type(p) is not int:
                raise ValueError(f"partition parts must be integers, got {p!r}")
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be >= 0")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        super().__init__(parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def fits_in_box(self, rows: int, cols: int) -> bool:
        return len(self.parts) <= rows and all(p <= cols for p in self.parts)

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"


def partitions_of(total: int):
    """Yield all partitions of ``total`` as weakly decreasing tuples."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    yield from _partitions(total, total)


def _partitions(remaining: int, largest: int):
    """Yield the partitions of ``remaining`` into parts of at most ``largest``."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(largest, remaining), 0, -1):
        for rest in _partitions(remaining - first, first):
            yield (first,) + rest
