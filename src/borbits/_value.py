"""The value types' shared methods, derived from their field names with
no code generation: ``dataclasses`` would cost every CLI start the
import of ``inspect``, ``ast`` and ``dis`` and an ``exec`` per method."""

from operator import attrgetter

set_field = object.__setattr__  # for a frozen type's own straight-line __init__


class FrozenInstanceError(AttributeError):
    """A field of an immutable value was assigned or deleted."""


def _getter(names: tuple[str, ...]) -> staticmethod:
    get = attrgetter(*names)  # a tuple for two names or more
    return staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))


class Value:
    """Base of the value types, whose fields are a subclass's annotated
    class attributes: construction from them, positional or by keyword;
    equality with the same class only; the hash of the field tuple; the
    repr ``Name(field=value, ...)`` of the fields not in ``repr_hides``;
    and fields that cannot be assigned or deleted."""

    def __init_subclass__(cls, repr_hides: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._repr_fields = tuple(name for name in cls._fields if name not in repr_hides)
        cls._key, cls._repr_key = _getter(cls._fields), _getter(cls._repr_fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        values = dict(zip(self._fields, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self._fields)}")
        vars(self).update(values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        pairs = map("{}={!r}".format, self._repr_fields, self._repr_key(self))
        return f"{self.__class__.__qualname__}({', '.join(pairs)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
