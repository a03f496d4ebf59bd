"""Plain base classes for the library's value types.

They give what ``@dataclass`` would derive from a class's field names,
without importing ``dataclasses`` (and through it ``inspect``) or building
each class at import time: ``==`` on the tuple of fields, for instances of
one class only, a ``Name(field=value, ...)`` repr, and, for a frozen class,
a hash of that tuple and an ``AttributeError`` on assignment.
"""

from __future__ import annotations


class Record:
    """Fields named in ``_fields``, in constructor order; unhashable, as a
    mutable dataclass is."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose ``__init__`` stores its fields once, in ``__dict__``;
    assigning or deleting an attribute afterwards raises AttributeError."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
