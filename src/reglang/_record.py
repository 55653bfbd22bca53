"""Record classes built without generating code.

A record class lists its fields as annotations and writes its own
`__init__` with the fields as named parameters; a frozen one sets them with
`object.__setattr__`.  `record` gives it the other methods that
`@dataclass` would:
- a `Name(field=value, ...)` `__repr__`;
- an `__eq__` comparing the fields of two instances of the same class;
- for a frozen record, a `__hash__` of the tuple of its fields and a
  `__setattr__` and `__delattr__` that refuse every change.  Any other
  record is unhashable;
- `__match_args__`, the field names.
A method the class defines itself is kept, as `@dataclass` keeps it.

The methods are closures over the field names, and they read the fields
alone, never the rest of `__dict__`, where instances keep what they have
analysed.  `@dataclass` instead compiles their source with `exec` for
every class on every import, which cost more start-up time than anything
else in the package.
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """An assignment to or a deletion of an attribute of a frozen record."""


def record(cls=None, *, frozen=False):
    """`cls` with the methods of a record, as `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    # the fields as a tuple: `attrgetter` of one name returns the bare value
    get = attrgetter(*fields) if fields else None
    values = get if len(fields) > 1 else (lambda self: (get(self),)) if fields else (lambda self: ())

    def __repr__(self):
        shown = ", ".join([f"{field}={value!r}" for field, value in zip(fields, values(self))])
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, attribute, value):
        raise FrozenInstanceError(f"cannot assign to field {attribute!r}")

    def __delattr__(self, attribute):
        raise FrozenInstanceError(f"cannot delete field {attribute!r}")

    methods = {"__repr__": __repr__, "__eq__": __eq__, "__match_args__": fields}
    if frozen:
        methods.update(__hash__=__hash__, __setattr__=__setattr__, __delattr__=__delattr__)
    else:
        methods["__hash__"] = None
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
