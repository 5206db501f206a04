"""Checks of htlp's outputs against the oracle and the paper.

Each checker takes one op's input (as generated, with oracle formulas)
and the plain-data outputs the worker or a CLI child produced, and
returns a list of problems; an empty list means the outputs are right.
"""

from __future__ import annotations

import re
import sys

import gen
import oracle as o


def _index(n: int) -> dict[str, int]:
    return {name: i for i, name in enumerate(gen.NAMES[:n])}


def _listed(s: o.Space, pairs, what: str, problems: list) -> int:
    """Bitset of a listing, which must be in strictly canonical order."""
    try:
        positions = [s.position[tuple(p)] for p in pairs]
    except KeyError as error:
        problems.append(f"{what}: {error} is not an interpretation")
        return 0
    if any(a >= b for a, b in zip(positions, positions[1:])):
        problems.append(f"{what}: not in canonical order or repeated")
    return s.bits_of(pairs)


def check_semantics(item: dict, out: dict) -> list[str]:
    s = o.space(item["n"])
    forms = item["formulas"]
    problems: list[str] = []
    models = s.models(forms["theory"])
    got_models = _listed(s, out["models"], "models", problems)
    got_counter = _listed(s, out["countermodels"], "countermodels", problems)
    if got_models & got_counter or got_models | got_counter != s.full:
        problems.append("models and countermodels do not partition the space")
    if got_models != models:
        problems.append("models differ from the oracle's")
    if got_counter != s.full & ~models:
        problems.append("countermodels differ from the oracle's")
    if not s.total_closed(got_counter):
        problems.append("countermodels are not total-closed")
    if not s.persistent_to_total(got_models):
        problems.append("a model (X, Y) without the model (Y, Y)")
    if out["equilibrium"] != s.equilibrium(models):
        problems.append("equilibrium models differ from the oracle's")
    for key in ("same", "diff"):
        expected = s.first_difference(models, s.models(forms[key]))
        equivalent, witness = out[key]
        if equivalent != (expected is None):
            problems.append(f"{key}: equivalence verdict is wrong")
        elif witness != (list(expected) if expected is not None else None):
            problems.append(f"{key}: witness {witness} is not the first "
                            f"difference {expected}")
    return problems


def _program_models(s: o.Space, text: str, index: dict, nonnested: bool,
                    what: str, problems: list) -> int:
    bits = s.full
    for line in text.splitlines():
        rule = o.nonnested_rule(line, index)
        if rule is not None:
            bits &= s.nonnested_models(*rule)
        elif nonnested:
            problems.append(f"{what}: not a nonnested rule: {line!r}")
            return 0
        else:
            bits &= s.tables(o.parse(line, index))[0]
    return bits


_CLAUSE_PART = re.compile(r"(~~|~)?([a-z][A-Za-z0-9_]*)\Z|\(([a-z]\w*) -> ([a-z]\w*)\)\Z")


def clause_table(s: o.Space, text: str, index: dict) -> int:
    """HT table of one model-DNF clause, with a fast path for its parts."""
    bits = s.full
    for part in text.split(" & "):
        m = _CLAUSE_PART.match(part)
        if m is None:
            return s.tables(o.parse(text, index))[0]
        if m.group(2):
            atom = index[m.group(2)]
            if m.group(1) == "~~":  # ~~a holds at (X, Y) iff a is in Y
                table = s.full & ~s.literal_table(atom, False)
            else:
                table = s.literal_table(atom, m.group(1) is None)
        else:
            table = s.tables(("imp", ("atom", index[m.group(3)]),
                              ("atom", index[m.group(4)])))[0]
        bits &= table
    return bits


def check_countermodel(item: dict, out: dict) -> list[str]:
    n = item["n"]
    s, index = o.space(n), _index(n)
    problems: list[str] = []
    models = s.models(item["formulas"]["theory"])
    whole = out["whole"].splitlines()
    if len(whole) != s.size - bin(models).count("1"):
        problems.append(f"whole: {len(whole)} rules for "
                        f"{s.size - bin(models).count('1')} countermodels")
    if len(set(whole)) != len(whole):
        problems.append("whole: repeated rules")
    for key in ("whole", "per_formula"):
        if _program_models(s, out[key], index, True, key, problems) != models:
            problems.append(f"{key}: the program's countermodels differ from the input's")
    if len(out["dnf"]) != bin(models).count("1"):
        problems.append(f"dnf: {len(out['dnf'])} clauses for "
                        f"{bin(models).count('1')} models")
    dnf = 0
    for clause in out["dnf"]:
        dnf |= clause_table(s, clause, index)
    if dnf != models:
        problems.append("dnf: its models differ from the input's")
    return problems


def check_rewrite(item: dict, out: dict) -> list[str]:
    n = item["n"]
    s, index = o.space(n), _index(n)
    forms = item["formulas"]
    sources = [forms["theory"]]
    for f in forms["small"]:
        sources += [[f], [f]]  # the raw construction, then its simplification
    problems: list[str] = []
    if not out["verified"]:
        problems.append("htlp's own verification failed")
    if len(out["programs"]) != len(sources):
        return [f"{len(out['programs'])} programs for {len(sources)} constructions"]
    for k, (text, source) in enumerate(zip(out["programs"], sources)):
        if _program_models(s, text, index, False, f"program {k}", problems) != s.models(source):
            problems.append(f"program {k}: its countermodels differ from the input's")
    return problems


# --- the paper's example through the CLI ----------------------------------

PAPER_INDEX = {"p": 0, "q": 1, "r": 2}


def display(s: o.Space, position: int) -> str:
    """An interpretation as htlp prints it: 'here | there', names sorted."""
    y, x = s.pairs[position]

    def names(mask):
        found = [n for n, i in sorted(PAPER_INDEX.items()) if mask >> i & 1]
        return " ".join(found) if found else "∅"

    return f"{names(x)} | {names(y)}"


def check_cli(name: str, stdout: str) -> list[str]:
    """Problems in the output of one CLI op on the paper's example that exited 0."""
    s = o.space(3)
    example = o.parse(gen.PAPER_EXAMPLE, PAPER_INDEX)
    models = s.models([example])
    lines = stdout.splitlines()
    problems: list[str] = []

    def listing(bits):
        return [display(s, p) for p in s.positions(bits)]

    if name == "models":
        if lines != gen.PAPER_MODELS or lines != listing(models):
            problems.append("models listing differs from the paper's")
    elif name == "countermodels":
        if lines != gen.PAPER_COUNTERMODELS or lines != listing(s.full & ~models):
            problems.append("countermodel listing differs from the paper's")
    elif name == "equilibrium":
        expected = [" ".join(n for n, i in sorted(PAPER_INDEX.items()) if y >> i & 1) or "∅"
                    for y in s.equilibrium(models)]
        if lines != gen.PAPER_ANSWER_SETS or lines != expected:
            problems.append("equilibrium models differ from the paper's")
    elif name in ("to-program-syn", "to-program-cm"):
        nonnested = name == "to-program-cm"
        if not lines or lines[-1] != "VERIFIED":
            problems.append(f"{name}: no VERIFIED line")
        program = "\n".join(lines[:-1])
        if nonnested and lines[:-1] != gen.PAPER_PROGRAM:
            problems.append("countermodel program differs from the paper's")
        if _program_models(s, program, PAPER_INDEX, nonnested, name, problems) != models:
            problems.append(f"{name}: the program's countermodels differ from the input's")
    elif name == "to-dnf":
        if len(lines) != 2 or lines[1] != "VERIFIED":
            problems.append("to-dnf: expected the DNF and a VERIFIED line")
        else:
            clauses = lines[0].split(" | ")
            dnf = 0
            for clause in clauses:
                dnf |= clause_table(s, clause, PAPER_INDEX)
            if len(clauses) != bin(models).count("1") or dnf != models:
                problems.append("to-dnf: clauses differ from the models")
    elif name == "check-equiv":
        partner = [o.parse(line, PAPER_INDEX) for line in gen.PAPER_PROGRAM]
        if lines != ["EQUIVALENT"] or s.models(partner) != models:
            problems.append("check-equiv: expected EQUIVALENT")
    elif name.startswith("count-"):
        n = int(name.split("-")[1])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # count 9 has about 5800 digits
        try:
            expected = str(o.count_closed_form(n))
        finally:
            sys.set_int_max_str_digits(limit)
        if lines != [expected]:
            problems.append(f"count {n}: wrong value")
    else:
        problems.append(f"unknown command {name}")
    return problems
