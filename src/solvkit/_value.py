"""The base of the immutable value classes, the one int check and the one
square-and-multiply, kept out of ``__init__.py`` so that ``import solvkit``
alone does not compile them."""

from operator import attrgetter as _attrgetter


class _Value:
    """Base of the immutable value classes.  A subclass's ``__init__`` takes the
    fields (``__match_args__``), checks them and stores each with
    ``object.__setattr__``.  Equality, hash and repr read the fields; assigning
    or deleting an attribute raises ``AttributeError``."""

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


def _int_only(value, what: str) -> int:
    """``value`` if it is an ``int`` and no ``bool``, else ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _power(mul, one, g, n: int):
    """``g^n`` for ``n >= 0`` by square-and-multiply, under the product
    ``mul`` with identity ``one``."""
    result = one
    while n:
        if n & 1:
            result = mul(result, g)
        n >>= 1
        if n:
            g = mul(g, g)
    return result
