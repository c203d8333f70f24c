"""Base of the immutable value classes, built from plain ``__slots__`` so
that an exact CLI command imports neither ``inspect`` nor ``ast``, a fixed
cost of about 10 ms per fresh interpreter.

A subclass checks its arguments in ``__init__`` and stores them in
``__slots__`` order with ``_set``; it compares, hashes, prints and pickles
by the tuple of its field values, and refuses assignment. Slots named
``_...`` are caches, not fields.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__ if name[0] != "_"])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot change field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__
