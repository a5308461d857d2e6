"""Immutable value records, written out by hand.

A record class lists its fields in __slots__ and sets them in its own
__init__ through object.__setattr__, then validates them there.  This base
gives it the rest of a frozen value type, with no code generated at
import: assignment and deletion raise AttributeError, equality holds only
between instances of the same class with equal fields, the hash is that
of the tuple of fields, and the repr is Name(field=value, ...).  The
classes on hot paths (UniPoly, Perm, Step) spell out __eq__ and __hash__
with the same meaning, one attribute read per field.
"""


class Record:
    """Base of the package's immutable records; fields are __slots__."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
