"""Per-layer spans recorded from outside solvkit.

solvkit modules import each other's functions by name (``gcgroup`` calls
its own global ``snf``, ``verify`` its own ``gc_eval``), so wrapping a
function means replacing every module global that refers to it.
:meth:`Tracer.install` does that for the functions in ``TRACED`` and for
the ``check_*`` functions of ``verify``.  Each call records one span
``(id, parent id, name, start, end)`` in memory; :meth:`Tracer.write` dumps
them when the run ends.  The untraced run never creates a tracer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = (
    "words.parse_word",
    "gcgroup.gc_eval",
    "gcgroup.gc_mul",
    "gcgroup.gc_is_identity",
    "gcgroup.gc_is_proper",
    "gcgroup.power_subgroup_index",
    "gcgroup.base_membership",
    "gcgroup.interval_subgroup",
    "gcgroup.relator_check",
    "wreath.wr_eval",
    "linalg.snf",
    "linalg.solve_integer_system",
    "linalg.minor_gcds",
    "linalg.mat_pow",
)
# An snf call whose parent span is one of these needs the transforms; any
# other caller reads only the invariant factors (or the diagonal).
TRANSFORM_USERS = ("linalg.solve_integer_system", "op.snf.band", "op.snf.dense")
SNF_SPLIT = ("linalg.snf.factors_only", "linalg.snf.with_transforms")
COUNTERS = (
    "gcgroup.action_power.cache_hits",
    "gcgroup.action_power.cache_misses",
    "gcgroup.action_power.cache_size",
    "linalg.snf.entry_bits_max",
    "gcgroup.translation_bits_max",
    "wreath.support_max",
    "words.letters",
)
CLI_TIMINGS = ("cli.import_ms", "cli.main_inprocess_ms", "cli.process_ms")
CHECK_PREFIX = "verify.check_"


def _bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.stack = [0]
        self.next_id = 0
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.lemma_of: dict[int, str] = {}

    def _after(self, name, sid, result):
        counts = self.counts
        if name == "linalg.snf":
            bits = max(_bits(x) for m in (result.smith, result.left, result.right)
                       for row in m.rows_as_tuples() for x in row)
            counts["linalg.snf.entry_bits_max"] = max(counts["linalg.snf.entry_bits_max"], bits)
        elif name == "gcgroup.gc_eval":
            bits = max((_bits(x) for x in result.translation), default=0)
            counts["gcgroup.translation_bits_max"] = max(counts["gcgroup.translation_bits_max"], bits)
        elif name == "wreath.wr_eval":
            counts["wreath.support_max"] = max(counts["wreath.support_max"], len(result.support))
        elif name == "words.parse_word":
            counts["words.letters"] += len(result.letters)
        elif name.startswith(CHECK_PREFIX):
            self.lemma_of[sid] = result.lemma_id

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        watched = name in ("linalg.snf", "gcgroup.gc_eval", "wreath.wr_eval",
                           "words.parse_word") or name.startswith(CHECK_PREFIX)

        def traced(*args, **kwargs):
            self.next_id += 1
            sid = self.next_id
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if watched:
                self._after(name, sid, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn):
        """Run ``fn()`` as a root span (one benchmark operation)."""
        return self.wrap(name, fn)()

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "solvkit" or name.startswith("solvkit.")}
        targets = []
        for qualified in TRACED:
            module, function = qualified.split(".")
            original = getattr(modules.get("solvkit." + module), function, None)
            if original is not None:
                targets.append((qualified, original))
        verify = modules.get("solvkit.verify")
        for key, value in vars(verify).items() if verify else ():
            if key.startswith("check_") and callable(value):
                targets.append(("verify." + key, value))
        for qualified, original in targets:
            wrapper = self.wrap(qualified, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def metrics(self, lemma_ids) -> dict[str, float]:
        """``calls``/``s``/``self_s`` per traced function (``s`` counts only
        the outermost of nested same-name spans), the snf split by caller,
        one ``verify.<lemma>.s`` per check, and the counters."""
        info = {sid: (parent, name) for sid, parent, name, _, _ in self.spans}
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            child_ns[parent] += end - start

        def ancestors(sid):
            parent = info[sid][0]
            while parent in info:
                yield info[parent][1]
                parent = info[parent][0]

        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        lemma_s = dict.fromkeys(lemma_ids, 0.0)
        for sid, parent, name, start, end in self.spans:
            keys = [name]
            if name == "linalg.snf":
                parent_name = info.get(parent, (0, ""))[1]
                keys.append(SNF_SPLIT[parent_name in TRANSFORM_USERS])
            outermost = name not in set(ancestors(sid))
            for key in keys:
                calls[key] += 1
                own[key] += end - start - child_ns[sid]
                if outermost:
                    total[key] += end - start
            if name.startswith(CHECK_PREFIX) and not any(
                    a.startswith(CHECK_PREFIX) for a in ancestors(sid)):
                lemma = self.lemma_of.get(sid)
                if lemma in lemma_s:
                    lemma_s[lemma] += (end - start) / 1e9
        out: dict[str, float] = {}
        for key in TRACED + SNF_SPLIT:
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.s"] = total[key] / 1e9
            out[f"{key}.self_s"] = own[key] / 1e9
        for lemma, seconds in lemma_s.items():
            out[f"verify.{lemma}.s"] = seconds
        out.update(self.counts)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")


def cache_counts(gcgroup) -> dict[str, int]:
    """``action_power`` cache statistics, or zeros once the cache is gone."""
    info = getattr(getattr(gcgroup, "action_power", None), "cache_info", None)
    hits, misses, _, size = info() if info else (0, 0, 0, 0)
    return {
        "gcgroup.action_power.cache_hits": hits,
        "gcgroup.action_power.cache_misses": misses,
        "gcgroup.action_power.cache_size": size,
    }
