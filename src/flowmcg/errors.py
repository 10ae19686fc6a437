"""Base types shared across the package: the exceptions, and `Record`, the
base of every value type."""

import operator


class ValidationError(ValueError):
    """Input outside the stated domain of an operation."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured budget before converging."""


class InternalCheckError(AssertionError):
    """A machine-checked identity failed; indicates a bug, not bad input."""


class Record:
    """An immutable value.  The names annotated in a subclass's own body, in
    order, are its fields; a value assigned to one there is its default.

    Fields are given positionally or by keyword, then `__post_init__` runs.
    Records of one class with equal fields are equal, a record hashes as the
    tuple of its fields and prints as `Name(field=value, ...)`.  No code is
    generated for a subclass."""

    def __init_subclass__(cls) -> None:
        own = vars(cls)
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {name: own[name] for name in cls._fields if name in own}
        # an attrgetter does not bind to the instance, and over one name it
        # gives the bare value where the field tuple is a 1-tuple
        get = operator.attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = {**dict(zip(fields, args)), **kwargs}
            values = {**self._defaults, **given}
            if len(given) != len(args) + len(kwargs) or values.keys() != set(fields):
                got = f"{len(args)} positional and the keywords {sorted(kwargs)}"
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}; got {got}")
            args = [values[name] for name in fields]
        # one attribute at a time keeps the instance's inline attribute values
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # a tuple compares each field with itself as equal, so `is` decides
        return other is self or self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes: object) -> "Record":
        """A copy with the given fields changed, checked by `__post_init__`."""
        return type(self)(**{**dict(zip(self._fields, self._values(self))), **changes})
