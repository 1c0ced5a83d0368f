"""Plain record classes: fields in ``__slots__``, set by a written-out ``__init__``.

:class:`Record` adds what the fields alone decide: a ``repr`` in
constructor order, equality over the fields between records of the same
class (an array field by its shape and entries), and copying and pickling
through the constructor.  A :class:`Frozen` record also rejects assignment
and hashes by its fields.
"""

import numpy as np


def _field_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is b or np.array_equal(a, b)
    return a is b or a == b


class Record:
    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_field_equal, self._values(), other._values()))

    __hash__ = None  # mutable: no hash

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    __slots__ = ()

    def _set(self, *values):
        """Set the fields, in ``__slots__`` order, once, from ``__init__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
