"""Spans and counters around termbound's public functions.

The tracer wraps module attributes and class methods from outside the
package; nothing under ``src/`` changes. A wrapper replaces every binding
of the original function in every loaded ``termbound`` module, because
modules import each other's functions by name (``cli`` binds
``check_invariant``, ``erdos`` and ``ktree`` bind ``cmp`` and
``nat_sum``). Functions imported at call time (``PhiSequence`` imports
``height_of_tree`` and ``to_vector``) see the wrapped module attribute.

Spans record name, start, end, parent span and the id of the CLI call
they belong to, in memory. The ordinal primitives, ``height_nil``, sigma
evaluations and relation memberships run millions of times per pass and
are only counted: timing each would swamp the run.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs that get a span; the span name is "module.function".
SPANNED = (
    ("cli", "main"),
    ("prcompile", "parse_term"),
    ("prcompile", "compile_term"),
    ("prcompile", "eval_pr"),
    ("termlang", "program_from_text"),
    ("termlang", "invariant_from_doc"),
    ("termlang", "run_trace"),
    ("termlang", "check_invariant"),
    ("termlang", "step_bound"),
    ("erdos", "height_of_tree"),
    ("erdos", "to_labelled_tree"),
    ("ktree", "height_tree"),
    ("bounds", "bound_g"),
    ("bounds", "find_nondescent"),
)
# (module, class, method, span name)
SPANNED_METHODS = (
    ("termlang", "PhiSequence", "__init__", "termlang.PhiSequence"),
    ("erdos", "ErdosTree", "insert", "erdos.ErdosTree.insert"),
)
COUNTED = (
    ("ordinals", "cmp"),
    ("ordinals", "nat_sum"),
    ("ordinals", "to_vector"),
    ("ktree", "height_nil"),
)
COUNTED_METHODS = (("bounds", "SequenceFn", "__call__", "bounds.sigma"),)

# Counters whose values depend only on the inputs and the code.
DETERMINISTIC_SUFFIXES = (".calls", ".pairs", ".steps", ".hits", ".hit_ratio")


def _module(name: str):
    return sys.modules[f"termbound.{name}"]


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "termbound" or mod_name.startswith("termbound."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


class Tracer:
    """Installs wrappers into the imported ``termbound`` package."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, call id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._call = -1

    def _spanned(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not stack:
                self._call += 1
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self._call])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts, key = self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_member(self, compile_member):
        counts = self.counts

        def wrapped_compile(relation, program):
            member = compile_member(relation, program)

            def counted(s, s2):
                counts["termlang.member.calls"] += 1
                hit = member(s, s2)
                if hit:
                    counts["termlang.member.hits"] += 1
                return hit

            return counted

        return wrapped_compile

    def install(self) -> None:
        counts = self.counts

        def count_steps(trace):
            counts["termlang.run_trace.steps"] += trace.steps

        def count_pairs(report):
            counts["termlang.check_invariant.pairs"] += report.pairs_checked

        on_result = {
            "termlang.run_trace": count_steps,
            "termlang.check_invariant": count_pairs,
        }
        for mod, fn_name in SPANNED:
            name = f"{mod}.{fn_name}"
            original = getattr(_module(mod), fn_name)
            _rebind(original, self._spanned(name, original, on_result.get(name)))
        for mod, fn_name in COUNTED:
            original = getattr(_module(mod), fn_name)
            _rebind(original, self._counted(f"{mod}.{fn_name}", original))
        for mod, cls_name, method, name in SPANNED_METHODS:
            cls = getattr(_module(mod), cls_name)
            setattr(cls, method, self._spanned(name, getattr(cls, method)))
        for mod, cls_name, method, name in COUNTED_METHODS:
            cls = getattr(_module(mod), cls_name)
            setattr(cls, method, self._counted(name, getattr(cls, method)))
        relation = _module("termlang").ConstraintRelation
        relation.compile_member = self._counted_member(relation.compile_member)

    def summary(self) -> dict[str, float]:
        """Per-layer totals of every span name and counter.

        ``.s`` sums the spans with no enclosing span of the same name, so a
        recursive function is not counted twice; ``.self_s`` is span time
        minus the time of direct child spans.
        """
        totals: Counter = Counter()
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                self_time[parent] -= end - start
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            totals[name + ".calls"] += 1
            totals[name + ".self_s"] += self_time[index]
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                totals[name + ".s"] += end - start
        totals.update(self.counts)
        pairs = totals["termlang.check_invariant.pairs"]
        check_s = totals["termlang.check_invariant.s"]
        totals["termlang.check_invariant.pairs_per_s"] = pairs / check_s if check_s else 0.0
        calls = totals["termlang.member.calls"]
        totals["termlang.member.hit_ratio"] = (
            totals["termlang.member.hits"] / calls if calls else 0.0
        )
        return dict(totals)
