"""Read-only value records.

A subclass lists its fields in ``__slots__``, sets each once in ``__init__``
through ``object.__setattr__``, and returns from ``_key`` the field values
that equality and hashing read.  Assigning or deleting an attribute later
raises AttributeError; copy and pickle still work.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots through here, not __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
