"""The immutable value record that the package's value classes derive from.

A record names its fields once, in its class-body annotations, and a
field's class attribute, where it has one, is its default.  The base's
``__init__`` binds positional, then keyword, arguments to the fields in
order; a record has an ``__init__`` of its own only where it checks or
derives its fields, and sets them with one ``self.__dict__.update(...)``.
Equality, the hash and the repr read the fields through one
``attrgetter`` made when the class is defined, so no method source is
generated and compiled at import.
"""

from operator import attrgetter


class Record:
    """Equal to a record of the same class with equal fields; hashed by its
    field tuple, so an unhashable field makes it unhashable; immutable."""

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the class's own annotations, strings (postponed evaluation) that are never evaluated
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            self.__dict__.update(zip(fields, args))
            return
        name = type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} values but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword {key!r}")
            if key in values:
                raise TypeError(f"{name}() got {key!r} twice")
            values[key] = value
        for key in fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(f"{name}() is missing the field {key!r}")
                values[key] = self._defaults[key]
        self.__dict__.update(values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
