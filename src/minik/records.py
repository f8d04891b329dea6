"""Plain records: the values miniK's layers hand one another.

A record class names its fields in `__slots__`, after those of its record
bases, and writes its own `__init__`. `Record` gives it what `@dataclass`
would: two records are equal when they are of the same class and their
fields are equal in order, and `repr` shows `Name(field=value, ...)`. A
record is unhashable unless its class statement says otherwise:

- `frozen=True`: assigning or deleting a field raises AttributeError, and
  the record hashes by its fields. Its `__init__` assigns through
  `object.__setattr__`.
- `hashable=True`: a mutable record that hashes by its fields.
- `hidden=(...)`: slots that are not fields, so neither compare nor show.

A record class that already hashes keeps its hash: the syntax tree's nodes
and types (`ast.py`) are records that compare and hash by identity, and
its types are frozen. Defining a record generates no code, which keeps
importing miniK cheap; no miniK module uses `dataclasses`.
"""

from __future__ import annotations

from reprlib import recursive_repr


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, hashable: bool = False, hidden: tuple[str, ...] = ()) -> None:
        super().__init_subclass__()
        cls._fields += tuple(name for name in cls.__dict__.get("__slots__", ()) if name not in hidden)
        if frozen:
            cls.__setattr__ = _refuse_assignment
            cls.__delattr__ = _refuse_deletion
        if (frozen or hashable) and cls.__hash__ is None:
            cls.__hash__ = _hash_fields

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    @recursive_repr()
    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


def _refuse_assignment(self: Record, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self: Record, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _hash_fields(self: Record) -> int:
    return hash(self._values())
