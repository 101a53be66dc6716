"""Small pieces that the command line and several modules share.

They live apart from the modules that use them, so that building the
CLI's options (and ``--help``, ``--version`` or a usage error) loads none
of the kernels, and so that a module needs neither ``graphs`` to check a
level nor ``dataclasses`` to define a record. ``functors`` and ``verify``
re-export the name tuples.
"""

import math

FAMILIES = ("sl", "ml", "l", "vl", "el", "bk", "bkstar", "generated")

CATEGORIES = ("met", "metinj")


def _check_level(k) -> None:
    if k == math.inf:
        return
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer or inf, got {k!r}")


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
