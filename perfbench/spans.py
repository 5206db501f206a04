"""Spans around the benchmark's calls into htlp's layers.

A span records its name, start, end and the span open when it began, so
a layer's self time is its duration minus what its child spans cover.
Spans stay in memory and are written out once, when the traced process
ends.  Only the standard library's `time` is imported at module level, so
a traced CLI child can time `import htlp.cli` without paying for ours.
"""

import time

# htlp function name -> span name; the layer is the part before the dot.
SPAN_OF = {
    "parse_theory": "parser.parse",
    "parse": "parser.parse",
    "ht_models": "semantics.models",
    "ht_countermodels": "semantics.models",
    "equilibrium_models": "semantics.equilibrium",
    "ht_equivalent": "semantics.equiv",
    "program_from_set": "countermodels.build",
    "theory_to_program_cm": "countermodels.build",
    "theory_to_dnf": "dnf.build",
    "theory_to_dnf_clauses": "dnf.build",
    "eliminate_connectives": "rewriting.eliminate",
    "formula_to_program_syn": "rewriting.convert",
    "theory_to_program_syn": "rewriting.convert",
    "simplify": "rewriting.simplify",
    "count_formula": "counting.count",
    "factor_table": "counting.count",
    "program_to_text": "formula.print",
    "to_text": "formula.print",
    "to_theory": "formula.to_theory",
}


def _interps(*theories):
    names = set()
    for t in theories:
        names.update(t.signature)
    return 3 ** len(names) * sum(len(t.formulas) for t in theories)


# span name -> how much work a call did, read from its arguments and result
WORK = {
    "parser.parse": lambda args, result: {
        "formulas": len(result.formulas) if hasattr(result, "formulas") else 1},
    "semantics.models": lambda args, result: {"interps": _interps(args[0])},
    "semantics.equilibrium": lambda args, result: {"interps": _interps(args[0])},
    "semantics.equiv": lambda args, result: {"interps": _interps(args[0], args[1])},
    "countermodels.build": lambda args, result: {"rules": len(result)},
    "dnf.build": lambda args, result: (
        {"clauses": len(result)} if isinstance(result, tuple) else {}),
    "rewriting.simplify": lambda args, result: {
        "rules_in": len(args[0]), "rules_kept": len(result)},
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, work dict]
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, time.perf_counter(), 0.0, parent, None]
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        work = WORK.get(name)
        if work is not None:
            span[4] = work(args, result)
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def note(self, name, **work):
        """A zero-length span that only carries a count."""
        now = time.perf_counter()
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, now, now, parent, work])


def self_times(spans):
    """Per span name: total self time and summed work counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, work) in enumerate(spans):
        entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - child_time[i]
        entry["calls"] += 1
        for key, value in (work or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
