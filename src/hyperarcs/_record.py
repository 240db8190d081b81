"""Read-only value records.

A subclass lists its fields in ``__slots__``.  Its constructor takes one
value per slot, in slot order, and sets each once; a subclass that checks
or derives its values first passes them on to ``Record.__init__``.
Equality and hashing read ``_key``, by default every slot; a subclass with
derived slots overrides it to return the slots that define the value.
Assigning or deleting an attribute later raises AttributeError; copy and
pickle still work.

Three constructions write their slots through ``object.__setattr__``
instead: AdditiveSubgroup, the arc translation_arc builds, and BlockingSet.
A translation-arc sweep builds each of them hundreds to thousands of
times, and the generic loop costs about 0.3 us more per construction.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} values, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

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
