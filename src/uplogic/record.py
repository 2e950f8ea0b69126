"""Record, the base of the package's immutable value classes.

A record's fields are the public names in its own class's __slots__, set
by its __init__ with Record.__init__, or with object.__setattr__ and then
set_hash(self, None).  Records of one class with equal fields are equal,
so And(p, q) != Or(p, q); a record keeps its hash once computed, prints as
Name(field=value, ...) and raises AttributeError on assignment.  A class
with a cached_property lists __dict__ in its __slots__.  Generating these
methods at import instead took most of the CLI's start-up time.
"""

from operator import attrgetter


class Record:
    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        fields = tuple(f for f in cls.__dict__.get("__slots__", ()) if not f.startswith("_"))
        if fields:
            cls._fields, cls._values = fields, attrgetter(*fields)

    def __init__(self, *values):
        """Set the fields, in __slots__ order."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)
        set_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._values(self))
            set_hash(self, h)
        return h

    def __setstate__(self, state):  # copy and pickle
        for name in self._fields:
            object.__setattr__(self, name, state[1][name])
        set_hash(self, None)  # a str hashes differently in another process

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# Writes the hash slot past __setattr__, in half the time of object.__setattr__
set_hash = Record._hash.__set__
