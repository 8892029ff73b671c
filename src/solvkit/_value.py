"""The base of the immutable value classes, kept out of ``__init__.py`` so
that ``import solvkit`` alone does not compile it."""

from operator import attrgetter as _attrgetter


class _Value:
    """Base of the immutable value classes.  A subclass's ``__init__`` takes the
    fields (``__match_args__``), stores each with ``object.__setattr__`` and calls
    ``self.__post_init__()`` for any checks.  Equality, hash and repr read the
    fields; assigning or deleting an attribute raises ``AttributeError``."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = fields = code.co_varnames[1 : code.co_argcount]
        get = _attrgetter(*fields)  # the value of one field, the tuple of several
        cls._fields = (lambda self: (get(self),)) if len(fields) == 1 else (lambda self: get(self))
        cls._repr = f"{cls.__qualname__}({', '.join(name + '=%r' for name in fields)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return self._repr % self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
