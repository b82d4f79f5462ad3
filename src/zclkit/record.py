"""Immutable value records, without ``dataclasses``.

Importing ``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``, and
each decorated class generates its methods at import time: more start-up
than most commands' own work.
"""


class Record:
    """A value compared, hashed and shown by the attributes named in ``_fields``.

    ``Record(*values)`` stores one value per field, after a subclass's own
    checks; then assignment and deletion raise.  Pickling restores
    ``__dict__`` directly, so it needs no ``__setattr__``.
    """

    _fields: tuple = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__}: {len(values)} values for {self._fields}")
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"
