"""solvkit: exact arithmetic for a family of two-generator soluble groups,
wreath products over the integer line, and the integer matrix machinery
(Smith normal form, minor gcds, banded relation matrices) they rest on,
plus a seeded self-verification harness."""

# Each exported name under the submodule that defines it.  Nothing is
# imported until a name is first read (PEP 562), so ``import solvkit``, and
# with it every ``python -m solvkit`` call, loads no submodule by itself, and
# a closed form loads ``forms`` alone.  The star import leaves out the module
# ``forms`` itself, whose names ``gcgroup`` and ``linalg`` also serve.
_EXPORTS = {
    "forms": (
        "GcSignature", "IntervalSubgroupReport", "PowerIndexResult", "band_matrix",
        "gc_abelianization", "gc_is_proper", "interval_subgroup", "minkowski_bound",
        "parse_signature", "power_subgroup_index",
    ),
    "gcgroup": (
        "GcElement", "MembershipResult", "base_membership", "companion_action", "gc_eval",
        "gc_identity", "gc_inv", "gc_is_identity", "gc_mul", "gc_pow", "relator_check",
    ),
    "linalg": (
        "DimensionError", "Matrix", "SingularMatrixError", "SNFResult", "exact_scalar",
        "mat_pow", "matrix_from_json", "matrix_to_json", "minor_gcds", "snf",
        "solve_integer_system",
    ),
    "verify": ("LemmaReport", "run_all"),
    "words": ("GeneratorWord", "WordParseError", "format_word", "parse_word"),
    "wreath": (
        "WreathElement", "wr_base_relation", "wr_eval", "wr_inv", "wr_is_identity",
        "wr_mul", "wr_pow",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_HOME]
__all__.remove("forms")
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__`` takes the C import path, which ``python -X importtime`` logs
    __import__(f"{__name__}.{module}")
    return globals()[module] if name == module else getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
