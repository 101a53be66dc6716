"""Small pieces that the command line and several modules share.

They live apart from the modules that use them, so that building the
CLI's options (and ``--help``, ``--version`` or a usage error) loads none
of the kernels, and so that a module needs neither ``graphs`` to check a
level, ``covers`` to check the label lists of a JSON document, nor
``dataclasses`` to define a record. ``functors`` and ``verify`` re-export
the name tuples.
"""

import math

from .errors import InvalidArgument

FAMILIES = ("sl", "ml", "l", "vl", "el", "bk", "bkstar", "generated")

CATEGORIES = ("met", "metinj")


def _check_level(k) -> None:
    if k == math.inf:
        return
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidArgument(f"k must be a positive integer or inf, got {k!r}")


def _string_lists(data: dict, key: str, depth: int) -> list:
    """data[key] of a parsed JSON document checked against its schema:
    lists nested depth deep with strings at the bottom (depth 1 for a
    space's points or a base, 2 for a block list, 3 for a sieve's covers).
    InvalidArgument naming the key otherwise."""
    message = f"{key!r} must be a list of {'lists of ' * (depth - 1)}strings"
    level = [data[key]]
    for _ in range(depth):
        if not all(isinstance(v, list) for v in level):
            raise InvalidArgument(message)
        level = [x for v in level for x in v]
    if not all(isinstance(v, str) for v in level):
        raise InvalidArgument(message)
    return data[key]


class _Record:
    """A plain record whose fields are its class's ``__slots__``, in
    constructor order. ``repr`` and ``==`` read the fields as a dataclass's
    do: equal only to a record of the same class with equal fields. It is
    mutable and unhashable."""

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented


class _FrozenRecord(_Record):
    """A record whose fields cannot be assigned after construction; it
    hashes by its fields. ``__init__`` sets them through ``_set``."""

    __slots__ = ()

    _set = object.__setattr__

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, as they cannot
        # assign the fields
        return type(self), self._fields()
