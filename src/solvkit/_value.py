"""The base of the immutable value classes, the one place that stores,
builds without checks and compares a value; the one int check; and the
square-and-multiply of ``gc_pow``, ``wr_pow`` and ``mat_pow``.  Kept out
of ``__init__.py`` so that ``import solvkit`` alone does not compile them."""

from operator import attrgetter as _attrgetter


class _Value:
    """Base of the immutable value classes.  A subclass's ``__init__`` takes the
    fields (``__match_args__``), checks them and stores them with
    :meth:`_set`; :meth:`_unchecked` builds a value the library computed,
    which needs no checks.  What a value stores is named by the class
    attribute ``_stored``, the fields unless the class says otherwise, and
    ``==`` compares it; hash and repr read the fields.  Assigning or
    deleting an attribute raises ``AttributeError``."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = fields = code.co_varnames[1 : code.co_argcount]
        get = _attrgetter(*fields)  # the value of one field, the tuple of several
        cls._fields = (lambda self: (get(self),)) if len(fields) == 1 else (lambda self: get(self))
        cls._repr = f"{cls.__qualname__}({', '.join(name + '=%r' for name in fields)})"
        cls._stored = cls.__dict__.get("_stored", fields)
        cls._state = _attrgetter(*cls._stored)

    def _set(self, *values):
        """Store ``values`` as the ``_stored`` attributes, in that order.  Each
        goes in by ``object.__setattr__``, never through ``__dict__``: reading
        ``__dict__`` gives the value a dict of its own, which turns every
        later read into a dict lookup."""
        for name, value in zip(self._stored, values):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _unchecked(cls, *values):
        """The value that stores ``values``, without the checks of ``__init__``."""
        return object.__new__(cls)._set(*values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        state = self._state
        return state(self) == state(other)

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


def _power(mul, one, g, n: int, inv):
    """``g^n`` by square-and-multiply, under the product ``mul`` with
    identity ``one``; a negative ``n`` powers ``inv(g)``, and an ``n`` that
    is no int is refused before any product is taken."""
    if _int_only(n, "exponent") < 0:
        g, n = inv(g), -n
    result = one
    while n:
        if n & 1:
            result = mul(result, g)
        n >>= 1
        if n:
            g = mul(g, g)
    return result
