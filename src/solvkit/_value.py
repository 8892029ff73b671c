"""The base of the immutable value classes, the one place that generates
how a value is stored and built without checks, and compares it; the one
int check; and the square-and-multiply of ``gc_pow``, ``wr_pow`` and
``mat_pow``.  Kept out of ``__init__.py`` so that ``import solvkit`` alone
does not compile them."""

from operator import attrgetter as _attrgetter


class _Value:
    """Base of the immutable value classes.  A subclass's ``__init__`` takes the
    fields (``__match_args__``), checks them and stores them with ``_set``;
    ``_unchecked`` builds a value the library computed, which needs no
    checks.  What a value stores is named by the class attribute ``_stored``,
    the fields unless the class says otherwise; ``_set`` and ``_unchecked``
    take it in that order, and ``==`` compares it; hash and repr read the
    fields.  Assigning or deleting an attribute raises ``AttributeError``."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = fields = code.co_varnames[1 : code.co_argcount]
        get = _attrgetter(*fields)  # the value of one field, the tuple of several
        cls._fields = (lambda self: (get(self),)) if len(fields) == 1 else (lambda self: get(self))
        cls._repr = f"{cls.__qualname__}({', '.join(name + '=%r' for name in fields)})"
        cls._stored = stored = cls.__dict__.get("_stored", fields)
        cls._state = _attrgetter(*stored)
        cls._set, cls._unchecked = _builders(cls, stored)

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


def _builders(cls, names):
    """``cls``'s ``_set(self, *values)``, which stores ``values`` as the
    attributes ``names``, in that order, and ``_unchecked(*values)``, the
    value that stores them without the checks of ``__init__``.  Like the
    ``__init__`` of a dataclass, each is generated once for its class: one
    ``object.__new__``, then one store per name, so a call with the wrong
    number of values raises ``TypeError``.  Each store goes in by
    ``object.__setattr__``, never through ``__dict__``: reading ``__dict__``
    gives the value a dict of its own, which turns every later read into a
    dict lookup."""
    params = ", ".join(names)
    stores = "".join(f"\n    _store(self, {name!r}, {name})" for name in names)
    namespace = {"_cls": cls, "_new": object.__new__, "_store": object.__setattr__}
    exec(f"def _set(self, {params}):{stores}\n"
         f"def _unchecked({params}):\n    self = _new(_cls){stores}\n    return self",
         namespace)
    made = namespace["_set"], namespace["_unchecked"]
    for function in made:
        function.__qualname__ = f"{cls.__qualname__}.{function.__name__}"
    return made[0], staticmethod(made[1])


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
