"""Plain record class: fields in ``__slots__``, set once by a written-out ``__init__``.

A :class:`Frozen` record has what the fields alone decide: a ``repr`` in
constructor order, equality over the fields between records of the same
class (an array field by its shape and entries), a hash over the fields,
and copying and pickling through the constructor.  It rejects assignment
and deletion after construction.
"""

import numpy as np

__all__ = ["Frozen"]


def _field_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is b or np.array_equal(a, b)
    return a is b or a == b


class Frozen:
    __slots__ = ()

    def _set(self, *values):
        """Set the fields, in ``__slots__`` order, once, from ``__init__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

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

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
