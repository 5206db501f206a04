"""Acceptance suite: one timed check per criterion, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test fails if its assertions or its time bound fail.
"""

import random
import time

from htlp import (
    BOT,
    TOP,
    And,
    Atom,
    Implies,
    Or,
    Signature,
    Theory,
    build_clause,
    build_rule,
    count_formula,
    equilibrium_models,
    estimated_rule_count,
    formula_to_program_syn,
    ht_countermodels,
    ht_equivalent,
    ht_valid,
    iff,
    neg,
    parse,
    rule_to_text,
    theory_to_program_cm,
    theory_to_program_syn,
)
from htlp.cli import main
import ht_reference as ref
from api_reference import enumerate_interpretations, lemma1_rewrite
from conftest import random_formula, single
from count_reference import count_bruteforce, count_subset_filter

AB = Signature(["a", "b"])
PQR = Signature(["p", "q", "r"])

GOLDEN_COUNTERMODELS = [
    "∅ | q",
    "q | q",
    "q | p q",
    "∅ | q r",
    "q | q r",
    "q | p q r",
]

GOLDEN_RULES = [
    "~p & ~r -> q | ~q",
    "q & ~p & ~r -> bot",
    "q & ~r -> p | ~p",
    "~p -> q | ~q | r | ~r",
    "q & ~p -> r | ~r",
    "q -> p | ~p | r | ~r",
]

GOLDEN_MODELS = [
    "∅ | ∅",
    "∅ | p",
    "p | p",
    "∅ | p q",
    "p | p q",
    "p q | p q",
    "∅ | r",
    "r | r",
    "∅ | p r",
    "p | p r",
    "r | p r",
    "p r | p r",
    "r | q r",
    "q r | q r",
    "∅ | p q r",
    "p | p q r",
    "p q | p q r",
    "r | p q r",
    "p r | p q r",
    "q r | p q r",
    "p q r | p q r",
]


def _stamp(number: int, description: str, start: float, bound: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS ({elapsed:.2f}s, bound {bound:g}s) {description}")
    assert elapsed < bound, f"criterion {number} took {elapsed:.2f}s"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_criterion_1_countermodel_listing(capsys, tmp_path):
    start = time.perf_counter()
    path = _write(tmp_path, "f2.lp", "(q -> p) | r\n")
    code = main(["countermodels", path, "--signature", "p q r"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == GOLDEN_COUNTERMODELS
    _stamp(1, "six countermodels, exact listing", start, 1.0)


def test_criterion_2_countermodel_program_golden(capsys, tmp_path):
    start = time.perf_counter()
    path = _write(tmp_path, "f2.lp", "(q -> p) | r\n")
    code = main(["to-program", "--method=countermodel", path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == GOLDEN_RULES
    _stamp(2, "six-rule program, exact match", start, 1.0)


def test_criterion_3_models_and_dnf(capsys, tmp_path):
    start = time.perf_counter()
    path = _write(tmp_path, "f2.lp", "(q -> p) | r\n")

    code = main(["models", path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == GOLDEN_MODELS

    code = main(["to-dnf", path])
    out = capsys.readouterr().out
    assert code == 0
    clauses = out.strip().split(" | ")
    # " | " also separates the a | ~a style pairs inside no clause here:
    # every clause is a conjunction, so the split is exactly by clause.
    assert len(clauses) == 21
    spelled_out = {
        0: "~p & ~q & ~r",
        1: "~q & ~r & ~~p & (p -> p)",
        2: "p & ~q & ~r",
        3: "~r & ~~p & ~~q & (p -> p) & (p -> q) & (q -> p) & (q -> q)",
        6: "~p & ~q & ~~r & (r -> r)",
    }
    for position, text in spelled_out.items():
        assert clauses[position] == text
    _stamp(3, "21 models and 21 clauses, displayed clauses verbatim", start, 1.0)


def test_criterion_4_worked_syntactic_example(capsys, tmp_path):
    start = time.perf_counter()
    inner = formula_to_program_syn(parse("r -> (q -> p)"), simplify=True)
    assert [rule_to_text(r) for r in inner] == ["q & r -> p"]

    first_conjunct = formula_to_program_syn(
        parse("(r -> (q -> p)) -> (q -> p)"), simplify=True
    )
    assert [rule_to_text(r) for r in first_conjunct] == [
        "q & ~r -> p",
        "q -> p | r | ~p",
    ]

    path = _write(tmp_path, "sub.lp", "r -> (q -> p)\n")
    code = main(["to-program", "--method=syntactic", "--simplify", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "q & r -> p" in out.splitlines()
    _stamp(4, "worked derivation reproduced exactly", start, 1.0)


def test_criterion_5_theorem_suite_depth3(corpus_depth3):
    start = time.perf_counter()
    assert len(corpus_depth3) > 2000  # several thousand trees
    raw_checked = 0
    for f in corpus_depth3:
        t = single(f, "a", "b")
        syn = theory_to_program_syn(t, simplify=True)
        assert ht_equivalent(t, syn.to_theory()).equivalent
        if estimated_rule_count(f) <= 64:
            # the literal construction explodes doubly exponentially on
            # nested disjunctions; materialize it wherever it stays small
            raw = theory_to_program_syn(t)
            assert ht_equivalent(t, raw.to_theory()).equivalent
            raw_checked += 1
        cm = theory_to_program_cm(t)
        assert cm.is_nonnested()
        assert ht_equivalent(t, cm.to_theory()).equivalent
    assert raw_checked >= 1500, f"raw construction only checked {raw_checked}x"
    _stamp(5, f"both methods equivalent on all {len(corpus_depth3)} formulas "
              f"({raw_checked} also via the raw construction), "
              "countermodel outputs nonnested", start, 60.0)


def test_criterion_6_lemma_suite(corpus_depth2):
    start = time.perf_counter()

    # Lemma on rule bodies: satisfaction iff sandwiched between the sets.
    space3 = list(enumerate_interpretations(PQR))
    for m in space3:
        body = build_rule(m).rule.body
        for other in space3:
            expected = m.here <= other.here and other.there <= m.there
            assert ref.sat_ht(other.here, other.there, body) == expected

    # Countermodels of the principal rule: the interpretation itself, or
    # its whole column when total.
    for m in space3:
        rule_formula = build_rule(m).rule.to_formula()
        counter = {
            (o.here, o.there)
            for o in space3
            if not ref.sat_ht(o.here, o.there, rule_formula)
        }
        if m.total():
            assert counter == {
                (o.here, o.there) for o in space3 if o.there == m.there
            }
        else:
            assert counter == {(m.here, m.there)}

    # Characteristic clauses: satisfied by the source and its total twin only.
    for m in space3:
        clause = build_clause(m).clause
        models = {
            (o.here, o.there) for o in space3 if ref.sat_ht(o.here, o.there, clause)
        }
        assert models == {(m.here, m.there), (m.there, m.there)}

    # Implication unfolding: exhaustive on the depth-2 corpus over two
    # atoms, plus every literal/constant triple over three atoms.
    for f in corpus_depth2:
        for g in corpus_depth2:
            for k in corpus_depth2:
                lhs = Implies(Implies(f, g), k)
                first, second = lemma1_rewrite(f, g, k)
                rhs = And(first, second)
                assert ht_equivalent(Theory((lhs,), AB), Theory((rhs,), AB)).equivalent

    units3 = (
        [Atom(a) for a in PQR]
        + [neg(Atom(a)) for a in PQR]
        + [BOT, TOP]
    )
    for f in units3:
        for g in units3:
            for k in units3:
                lhs = Implies(Implies(f, g), k)
                first, second = lemma1_rewrite(f, g, k)
                rhs = And(first, second)
                assert ht_equivalent(Theory((lhs,), PQR), Theory((rhs,), PQR)).equivalent

    _stamp(6, "lemma and proposition suites exhaustive", start, 30.0)


def test_criterion_7_strong_equivalence_probe():
    start = time.perf_counter()
    rng = random.Random(20177)
    atoms = ("a", "b")
    for _ in range(200):
        theory = Theory(
            tuple(
                random_formula(rng, atoms, rng.randint(1, 3))
                for _ in range(rng.randint(1, 2))
            ),
            AB,
        )
        context = Theory(
            tuple(
                random_formula(rng, atoms, rng.randint(1, 2))
                for _ in range(rng.randint(0, 2))
            ),
            AB,
        )
        base = equilibrium_models(theory.union(context))
        for program in (
            theory_to_program_syn(theory, simplify=True),
            theory_to_program_cm(theory),
        ):
            translated = program.to_theory().union(context)
            assert equilibrium_models(translated) == base
    _stamp(7, "200 random context probes, both methods", start, 60.0)


def test_criterion_8_counting_theorem():
    start = time.perf_counter()
    for n in range(4):
        assert count_formula(n).value == count_bruteforce(n).value
    assert count_subset_filter(2).value == 162
    assert count_formula(2).value == 162
    _stamp(8, "closed form equals both brute-force paths", start, 10.0)


def test_criterion_9_tautology_suite(corpus_depth2):
    start = time.perf_counter()
    for f in corpus_depth2:
        assert ht_valid(Or(neg(f), neg(neg(f))))  # weak excluded middle
        for g in corpus_depth2:
            assert ht_valid(Or(Or(f, Implies(f, g)), neg(g)))  # axiom schema
            assert ht_valid(iff(neg(And(f, g)), Or(neg(f), neg(g))))  # De Morgan
            encoded = And(Implies(Implies(f, g), g), Implies(Implies(g, f), f))
            assert ht_valid(iff(Or(f, g), encoded))  # disjunction encoding

    a = Atom("a")
    witness = ht_countermodels(Theory((Or(a, neg(a)),), AB))
    assert witness, "excluded middle must fail somewhere"
    _stamp(9, "tautology suite holds, excluded middle fails", start, 10.0)
