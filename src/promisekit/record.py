"""The base of promisekit's records: plain classes with `__slots__` and a
hand-written `__init__`, which cost nothing to define at import. As with a
dataclass, a record equals only a record of its own class whose `_fields`
are equal, shows them in its `repr`, and is unhashable. `_fields` are the
slots unless the class names fewer."""


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A record that is read-only once `__init__` has set its slots with
    `_freeze`, and hashed by its fields, as a frozen dataclass is. Its
    `_fields` are its constructor's arguments in order: a copy rebuilds it."""

    __slots__ = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__qualname__} is read-only")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()
