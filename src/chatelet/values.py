"""Value classes whose fields are their slots, in order: equality within one
class, a dataclass-style repr and, once frozen, a hash and no assignment."""


class Value:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):  # defining it leaves Value unhashable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copies and pickles go through __init__: frozen slots refuse setattr
        return self.__class__, self._fields()


class FrozenValue(Value):
    __slots__ = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of {self.__class__.__qualname__} is frozen")

    __delattr__ = __setattr__
