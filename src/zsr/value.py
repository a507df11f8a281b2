"""The immutable-value base shared by zsr's descriptors, spectra and reports."""

from __future__ import annotations

# What Value.__init__ sets each field with, past Value.__setattr__.
set_field = object.__setattr__


class Value:
    """A read-only record whose fields are its class's ``__slots__``, in constructor order.

    A value is built positionally, one value per field; a wrong count raises
    TypeError.  A subclass lists its fields in ``__slots__``, and writes an
    ``__init__`` only to validate, ending it with ``super().__init__(...)``.
    Two values are equal when they have exactly the same type and equal
    fields, the hash is that of the field tuple, assignment and deletion raise
    AttributeError, and the repr reads ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} fields "
                            f"({', '.join(self.__slots__)}), got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            set_field(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through __init__, which revalidates, for pickle and copy.
        return type(self), self._fields()
