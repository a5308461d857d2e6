"""Immutable value records with one shared constructor.

A record class lists its fields in __slots__; this base sets them, in
that order or by name, and gives it the rest of a frozen value type, with
no code generated at import: assignment and deletion raise
AttributeError, equality holds only between instances of the same class
with equal fields, the hash is that of the tuple of fields, and the repr
is Name(field=value, ...).  A class that validates its fields calls
super().__init__ first and checks them after.  The classes on hot paths
(UniPoly, Perm, Step) spell out __init__, __eq__ and __hash__ with the
same meaning, one attribute access per field.
"""


class Record:
    """Base of the package's immutable records; fields are __slots__."""

    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if named or len(values) != len(names):
            fields = dict(zip(names, values))
            if (len(values) > len(names) or not named.keys() <= set(names)
                    or named.keys() & fields.keys()
                    or len(fields) + len(named) != len(names)):
                raise TypeError(f"{self.__class__.__qualname__} takes the "
                                f"fields {', '.join(names)}, each exactly once")
            fields.update(named)
            values = map(fields.__getitem__, names)
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

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
