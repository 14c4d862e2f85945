"""Frozen records: what the package used of frozen dataclasses, with no generated code."""

from operator import attrgetter


class Record:
    """Immutable value compared, hashed and printed by its fields, as a frozen dataclass is.

    The fields are a subclass's own annotated public names, two or more (so
    ``attrgetter`` reads them as a tuple), in order; a default is a class-level
    value. Records keep a ``__dict__``, so ``cached_property`` works on them.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(n for n in vars(cls).get("__annotations__", ()) if n[0] != "_")
        cls._field_set = frozenset(fields)
        cls._defaults = {n: vars(cls)[n] for n in fields if n in vars(cls)}
        cls._values = attrgetter(*fields)

    def __init__(self, *args, **kwargs) -> None:
        cls, given = type(self), len(args) + len(kwargs)
        kwargs.update(zip(cls._fields, args))
        values = {**cls._defaults, **kwargs} if len(kwargs) < len(cls._fields) else kwargs
        if len(kwargs) < given or values.keys() != cls._field_set:
            wanted, got = ", ".join(cls._fields), ", ".join(kwargs)
            raise TypeError(f"{cls.__name__}() takes ({wanted}), got {given} arguments for ({got})")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate or complete a new record; the default does nothing."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({shown})"

    def _replace(self, **changes: object) -> "Record":
        """This record with the given fields changed, built anew so ``__post_init__`` runs."""
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))
