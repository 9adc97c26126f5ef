"""Shared exception types, the integer check the record constructors run,
and the Record base of the frozen request and value types. Each record
checks its arguments in its constructor, raising ParameterError, so a
record that exists is valid and no caller checks it again."""


class ParameterError(ValueError):
    """Arguments violate a family's validity constraints (wrong parity,
    divisibility, coprimality, or range)."""


class CostGuardError(ParameterError):
    """An admissible request whose cost exceeds a documented guard."""


def check_int(name: str, value) -> None:
    # bool is an int subclass, but True as a parameter is a caller bug
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} must be an int, not {type(value).__name__}")


# object.__setattr__, bound once: a Record's __init__ sets its fields
# through it, past the Record's own __setattr__.
set_field = object.__setattr__


class Record:
    """A frozen record over the fields a subclass names in ``__slots__``.

    The subclass writes its own ``__init__``, which sets each field with
    ``set_field`` and then runs its checks. Record supplies what a
    frozen dataclass would: equality only between records of the same class
    with equal fields, a hash of the fields, the dataclass repr, pickling
    (``__reduce__`` calls the class with the fields, since a slotted record
    has no ``__dict__`` to restore, so unpickling runs the checks again)
    and AttributeError on assignment. It
    does so without importing ``dataclasses``, which loads ``inspect`` and
    ``ast`` and generates each class's methods at import time.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
