"""The base class of obscheck's immutable value types."""


class Value:
    """Equality, hashing and repr over the fields that ``_fields`` names, and
    no assignment after ``__init__``, which sets the fields through
    ``self.__dict__``.  Two values are equal when they are of one class and
    their fields are equal."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")
