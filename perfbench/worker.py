"""The process that imports htlp and runs one workload's ops.

    python worker.py JOB.json

The job names the workload, the op inputs as texts, the run length and
whether to trace.  The worker times set-up (import htlp, parse every
input text), then runs whole passes over the op list.  After each op,
outside the timed region, it turns the op's outputs into plain data and
writes one JSON line; the parent checks those lines against the oracle
once the worker has exited, so the oracle never runs in this process and
the peak resident memory reported is htlp's.

With tracing on, the worker runs one untraced pass, then each op once more
untraced and once through `Staged`, which splits each composite htlp call
into the public calls it is made of and records a span around each, then
one traced probe pass over the paper's example, so that every layer has
spans on every workload.
"""

import hashlib
import json
import resource
import sys
import time

from calib import Calibrator
from spans import SPAN_OF, Tracer


class Direct:
    """The htlp calls an op makes, untraced: the functions themselves."""

    def __init__(self, htlp):
        self.htlp = htlp
        for name in SPAN_OF:
            if hasattr(htlp, name) and not hasattr(type(self), name):
                setattr(self, name, getattr(htlp, name))

    def to_theory(self, program):
        return program.to_theory()

    def raw_program(self, f):
        """The literal syntactic construction of one formula."""
        return self.formula_to_program_syn(f)


class Staged(Direct):
    """The same calls through spans, with composites split into stages.

    `ht_countermodels` then `program_from_set` stands in for
    `theory_to_program_cm`, `ht_models` then the clause loop for
    `theory_to_dnf`, and `eliminate_connectives` then
    `formula_to_program_syn` per formula for `theory_to_program_syn`.
    """

    def __init__(self, htlp, tracer):
        super().__init__(htlp)
        self.tracer = tracer
        for name, span in SPAN_OF.items():
            fn = getattr(self, name, None)
            if fn is not None and name not in vars(Staged):
                setattr(self, name, tracer.wrap(span, fn))

    def theory_to_program_cm(self, t, mode="whole"):
        h = self.htlp
        if mode == "whole":
            return self.program_from_set(self.ht_countermodels(t))

        def merge():
            rules = {}
            for f in t.formulas:
                sub = h.Theory((f,), h.atoms_of(f))
                rules.update(dict.fromkeys(self.program_from_set(self.ht_countermodels(sub))))
            return h.Program(tuple(rules), t.signature)

        return self.tracer.call("countermodels.merge", merge)

    def theory_to_dnf(self, t):
        h = self.htlp
        models = self.ht_models(t)
        self.tracer.note("dnf.clauses", clauses=len(models))
        return self.tracer.call(
            "dnf.build",
            lambda: h.disj(dict.fromkeys(h.build_clause(m).clause for m in models)),
        )

    def theory_to_program_syn(self, t, simplify=False):
        h = self.htlp
        parts = [
            self.formula_to_program_syn(self.eliminate_connectives(f), simplify)
            for f in t.formulas
        ]

        def merge():
            rules = {}
            for p in parts:
                rules.update(dict.fromkeys(p))
            return h.Program(tuple(rules), t.signature)

        return self.tracer.call("rewriting.merge", merge)

    def raw_program(self, f):
        program = self.formula_to_program_syn(self.eliminate_connectives(f))
        self.tracer.note("rewriting.raw", rules=len(program))
        return program


# --- ops -------------------------------------------------------------------
# Each workload has a parse step (timed as set-up), an op (timed) and a
# report step that turns the op's outputs into plain data (not timed).

def _masks(interp, bit):
    return [sum(bit[a] for a in interp.there), sum(bit[a] for a in interp.here)]


def sem_parse(api, item):
    return tuple(api.parse_theory(item[k]) for k in ("theory", "same", "diff"))


def sem_op(api, parsed):
    t, same, diff = parsed
    return (api.ht_models(t), api.ht_countermodels(t), api.equilibrium_models(t),
            api.ht_equivalent(t, same), api.ht_equivalent(t, diff))


def sem_report(api, parsed, out):
    bit = {name: 1 << i for i, name in enumerate(parsed[0].signature)}
    models, countermodels, answer_sets, same, diff = out

    def verdict(result):
        witness = _masks(result.witness, bit) if result.witness is not None else None
        return [result.equivalent, witness]

    return {
        "models": [_masks(m, bit) for m in models],
        "countermodels": [_masks(m, bit) for m in countermodels],
        "equilibrium": [sum(bit[a] for a in y) for y in answer_sets],
        "same": verdict(same),
        "diff": verdict(diff),
        "rules": 0,
    }


def cm_parse(api, item):
    return api.parse_theory(item["theory"])


def cm_op(api, t):
    whole = api.theory_to_program_cm(t, "whole")
    per_formula = api.theory_to_program_cm(t, "per_formula")
    dnf = api.theory_to_dnf(t)
    texts = api.program_to_text(whole), api.program_to_text(per_formula)
    api.to_theory(whole)
    api.to_theory(per_formula)
    return whole, per_formula, dnf, texts


def _disjuncts(f):
    """The top-level disjuncts of f, left to right, without recursion."""
    out, stack = [], [f]
    while stack:
        node = stack.pop()
        if type(node).__name__ == "Or":
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def cm_report(api, t, out):
    whole, per_formula, dnf, texts = out
    h = api.htlp
    clauses = [] if dnf == h.BOT else [h.to_text(c) for c in _disjuncts(dnf)]
    return {
        "whole": texts[0], "per_formula": texts[1], "dnf": clauses,
        "rules": len(whole) + len(per_formula),
    }


def syn_parse(api, item):
    return api.parse_theory(item["theory"]), [api.parse(text) for text in item["small"]]


def syn_op(api, parsed):
    t, small = parsed
    program = api.theory_to_program_syn(t, simplify=True)
    verified = api.ht_equivalent(t, api.to_theory(program))
    programs = [program]
    for f in small:
        raw = api.raw_program(f)
        programs += [raw, api.simplify(raw)]
    return verified, programs


def syn_report(api, parsed, out):
    verified, programs = out
    return {
        "verified": verified.equivalent,
        "programs": [api.htlp.program_to_text(p) for p in programs],
        "rules": sum(len(p) for p in programs),
    }


WORKLOADS = {
    "ht-semantics": (sem_parse, sem_op, sem_report),
    "cm-translate": (cm_parse, cm_op, cm_report),
    "syn-rewrite": (syn_parse, syn_op, syn_report),
}


def probe(api, paper):
    """Every layer once on the paper's example (3 atoms)."""
    t = api.parse_theory(paper["theory"])
    partner = api.parse_theory(paper["partner"])
    sem_op(api, (t, partner, partner))
    emitted = cm_op(api, t)[:2]
    emitted += tuple(syn_op(api, (t, t.formulas))[1])
    api.count_formula(8)
    return sum(len(p) for p in emitted)


# --- the run ---------------------------------------------------------------

def _setup(job):
    """Import htlp and parse every input text."""
    start = time.perf_counter()
    import htlp
    api = Direct(htlp)
    parse = WORKLOADS.get(job["workload"], (cm_parse,))[0]
    parsed = [parse(api, item) for item in job["items"]]
    elapsed = time.perf_counter() - start
    if not htlp.__file__.startswith(job["src"]):
        raise SystemExit(f"htlp was imported from {htlp.__file__}, not {job['src']}")
    return api, parsed, elapsed


def _pass(api, numbered, op, report, sink, keep, calib):
    """Run the (index, parsed input) ops in order.

    Returns [op seconds, reference seconds] per op.  Only the first pass
    writes its outputs in full; later runs of an op write a digest, which
    the parent compares with the first pass's.
    """
    times = []
    for i, item in numbered:
        ref = calib.before_op()
        start = time.perf_counter()
        out = op(api, item)
        times.append([time.perf_counter() - start, ref])
        line = json.dumps(report(api, item, out), separators=(",", ":"))
        if not keep:
            line = json.dumps({"op": i, "digest": hashlib.sha256(line.encode()).hexdigest()})
        sink.write(line + "\n")
    return times


def main(job_path):
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    api, parsed, setup_s = _setup(job)
    if job["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return
    if job["mode"] == "probe":
        tracer = Tracer()
        summary = {"probe_rules": probe(Staged(api.htlp, tracer), job["probe"]),
                   "spans": tracer.spans}
        with open(job["summary"], "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
        return
    parse, op, report = WORKLOADS[job["workload"]]
    summary = {"setup_s": setup_s, "passes": []}
    with open(job["results"], "w", encoding="utf-8") as sink:
        start = time.perf_counter()
        numbered = list(enumerate(parsed))
        calib = Calibrator()
        summary["passes"].append(_pass(api, numbered, op, report, sink, True, calib))
        pass_wall = time.perf_counter() - start
        if job["trace"]:
            tracer = Tracer()
            staged = Staged(api.htlp, tracer)
            staged_items = [parse(staged, item) for item in job["items"]]
            # Each op runs untraced then traced, so the two op times of a
            # pair see the same machine state and their ratio is the
            # tracing overhead.
            summary["paired_pass"], summary["traced_pass"] = [], []
            for i, staged_item in enumerate(staged_items):
                summary["paired_pass"] += _pass(api, [numbered[i]], op, report, sink, False,
                                                calib)
                summary["traced_pass"] += _pass(staged, [(i, staged_item)], op, report, sink,
                                                False, calib)
            summary["probe_rules"] = probe(staged, job["probe"])
            summary["spans"] = tracer.spans
        else:
            for _ in range(max(1, int(job["seconds"] // pass_wall)) - 1):
                summary["passes"].append(_pass(api, numbered, op, report, sink, False, calib))
    summary["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(job["summary"], "w", encoding="utf-8") as handle:
        json.dump(summary, handle)


if __name__ == "__main__":
    main(sys.argv[1])
