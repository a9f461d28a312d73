"""Shared value types: frozen records, tagged sums, option values, tiny
function helpers.

Every value flowing through an optic in this library is an ordinary,
comparable Python object; these wrappers give sums and options stable
equality so exhaustive checks can compare results directly.
"""

UNIT = ()


class Record:
    """A frozen record whose fields are its class's ``__slots__``.

    A record is built by position or keyword; a class whose fields have
    defaults states them in its own ``__init__``.  It is equal only to a
    record of the same class with equal fields, hashes as the tuple of its
    fields, refuses assignment, and prints as ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__}() takes {len(names)} arguments, got {len(args)}"
            )
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(
                f"{type(self).__name__}() got unexpected arguments {sorted(kwargs)}"
            )

    def _fields(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if type(other) is type(self):
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor, since
        # assignment is refused
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Box(Record):
    """A one-field payload box, equal to a box of its own class with an equal
    value.  Boxes are built and compared on every probe of the law suite, so
    the constructor, equality and hash are stated here directly, once."""

    __slots__ = ()

    def __init__(self, value):
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.value is other.value or self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))


class Left(Box):
    __slots__ = ("value",)


class Right(Box):
    __slots__ = ("value",)


class Just(Box):
    __slots__ = ("value",)


class Nothing(Record):
    __slots__ = ()

    def __init__(self):
        pass

    def __eq__(self, other):
        if type(other) is Nothing:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())


def identity(x):
    return x
