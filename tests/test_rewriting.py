"""The syntactic transformation path and the simplifier."""

import ast
import hashlib
import inspect
import itertools
import random

import pytest

from htlp import (
    BOT,
    DEFAULT_CAP,
    TOP,
    And,
    Atom,
    CapExceededError,
    Formula,
    Implies,
    Or,
    Program,
    Rule,
    RewriteTrace,
    RuleBudgetExceededError,
    Signature,
    Theory,
    atoms_of,
    conj,
    disj,
    eliminate_connectives,
    estimated_rule_count,
    formula_to_program_syn,
    ht_equivalent,
    ht_models,
    ht_valid,
    is_rule,
    neg,
    parse,
    program_to_text,
    rule_to_text,
    simplify,
    theory_to_program_cm,
    theory_to_program_syn,
    to_text,
)
from htlp import rewriting
from htlp.rewriting import RULE_COUNT_CEILING
from api_reference import implication_of_programs, lemma1_rewrite
from conftest import formulas_up_to, single
import ht_reference as ref

p, q, r = Atom("p"), Atom("q"), Atom("r")


def rules_text(program: Program) -> list[str]:
    return [rule_to_text(rule) for rule in program]


def program_of(*texts: str) -> Program:
    return Program(tuple(Rule.from_formula(parse(t)) for t in texts))


class TestEliminateConnectives:
    def test_formula2_expansion(self):
        got = eliminate_connectives(parse("(q -> p) | r"))
        expected = parse(
            "(((q -> p) -> r) -> r) & ((r -> (q -> p)) -> (q -> p))"
        )
        assert got == expected

    def test_conjunction_unchanged(self):
        f = parse("p & q")
        assert eliminate_connectives(f) == f

    def test_no_or_nodes_left(self, corpus_depth3):
        def has_or(f):
            if isinstance(f, Or):
                return True
            if isinstance(f, And):
                return has_or(f.left) or has_or(f.right)
            if isinstance(f, Implies):
                return has_or(f.antecedent) or has_or(f.consequent)
            return False

        for f in corpus_depth3:
            assert not has_or(eliminate_connectives(f))

    def test_preserves_equivalence(self, corpus_depth2):
        for f in corpus_depth2:
            t = single(f, "a", "b")
            t2 = Theory((eliminate_connectives(f),), t.signature)
            assert ht_equivalent(t, t2).equivalent


class TestLemma1:
    def test_golden_instance(self):
        first, second = lemma1_rewrite(q, p, r)
        assert to_text(first) == "p | ~q -> r"
        assert to_text(second) == "r | q | ~p"

    def test_bottom_k_encodes_negated_implication(self):
        units = [Atom("a"), Atom("b"), BOT, TOP, neg(Atom("a")), neg(Atom("b"))]
        for f in units:
            for g in units:
                first, second = lemma1_rewrite(f, g, BOT)
                together = single(And(first, second), "a", "b")
                negated = single(neg(Implies(f, g)), "a", "b")
                assert ht_equivalent(together, negated).equivalent

    def test_soundness_on_literal_triples(self):
        sig = ("a", "b", "c")
        units = [Atom(a) for a in sig] + [neg(Atom(a)) for a in sig] + [BOT, TOP]
        for f in units:
            for g in units:
                for k in units:
                    original = single(Implies(Implies(f, g), k), *sig)
                    first, second = lemma1_rewrite(f, g, k)
                    rewritten = Theory((And(first, second),), original.signature)
                    assert ht_equivalent(original, rewritten).equivalent


class TestImplicationOfPrograms:
    def test_empty_antecedent_returns_consequent(self):
        p2 = program_of("q -> p", "r")
        got = implication_of_programs(Program(()), p2)
        assert got.rules == p2.rules

    def test_single_rule_pair_shape(self):
        p1 = program_of("q & r -> p")
        p2 = program_of("q -> p")
        got = implication_of_programs(p1, p2)
        assert rules_text(got) == [
            "q & (p | ~(q & r)) -> p",
            "q -> p | q & r | ~p",
        ]
        combined = Implies(parse("q & r -> p"), parse("q -> p"))
        assert ht_equivalent(
            single(combined), got.to_theory()
        ).equivalent

    def test_implication_into_constraint(self):
        p1 = program_of("a -> b")
        p2 = program_of("bot")
        got = implication_of_programs(p1, p2)
        target = single(neg(parse("a -> b")))
        assert ht_equivalent(got.to_theory(), target).equivalent

    def test_random_small_programs(self):
        rng = random.Random(777)
        atoms = ("a", "b", "c")
        literals = [Atom(a) for a in atoms] + [neg(Atom(a)) for a in atoms]

        def random_rule():
            body = conj(rng.sample(literals, rng.randint(0, 2)))
            head = disj(rng.sample(literals, rng.randint(0, 2)))
            return Rule(body, head)

        for _ in range(100):
            p1 = Program(tuple(random_rule() for _ in range(rng.randint(0, 3))))
            p2 = Program(tuple(random_rule() for _ in range(rng.randint(0, 3))))
            got = implication_of_programs(p1, p2)
            expected = Implies(
                conj(rule.to_formula() for rule in p1),
                conj(rule.to_formula() for rule in p2),
            )
            t_expected = single(expected, *atoms)
            assert ht_equivalent(
                Theory(got.to_theory().formulas, t_expected.signature), t_expected
            ).equivalent


class TestFormulaToProgram:
    def test_atom_is_fact(self):
        got = formula_to_program_syn(p)
        assert rules_text(got) == ["p"]

    def test_bottom_is_constraint(self):
        got = formula_to_program_syn(BOT)
        assert rules_text(got) == ["bot"]

    def test_formula2_equivalent_to_intro_translation(self):
        f = parse("(q -> p) | r")
        got = formula_to_program_syn(f)
        intro = Theory((parse("q -> p | r"), parse("~p -> ~q | r")))
        assert ht_equivalent(got.to_theory(), intro).equivalent

    def test_nested_body_formula(self):
        f = parse("(r -> q) -> p")
        got = formula_to_program_syn(f)
        intro = Theory(
            (parse("~r -> p"), parse("q -> p"), parse("p | ~q | r"))
        )
        assert ht_equivalent(got.to_theory(), intro).equivalent

    def test_every_output_is_a_rule(self, corpus_depth2):
        for f in corpus_depth2:
            for rule in formula_to_program_syn(f):
                assert is_rule(rule.to_formula())

    def test_equivalence_depth2_both_flavors(self, corpus_depth2):
        for f in corpus_depth2:
            t = single(f, "a", "b")
            for flag in (False, True):
                program = formula_to_program_syn(f, simplify=flag)
                assert ht_equivalent(
                    t, Theory(program.to_theory().formulas, t.signature)
                ).equivalent

    def test_cross_method_agreement(self, corpus_depth2):
        for f in corpus_depth2:
            t = single(f, "a", "b")
            syn = theory_to_program_syn(t)
            cm = theory_to_program_cm(t)
            assert ht_equivalent(syn.to_theory(), cm.to_theory()).equivalent

    def test_theory_level_union(self):
        t = Theory((parse("p -> q"), parse("q | r")))
        program = theory_to_program_syn(t)
        assert ht_equivalent(t, program.to_theory()).equivalent


class TestEstimatedRuleCount:
    def test_paper_example(self):
        f = parse("(q -> p) | r")
        assert estimated_rule_count(f) == 48
        assert len(formula_to_program_syn(f)) == 48

    def test_exact_below_the_ceiling(self):
        antecedent = conj([Atom("a")] * 63)
        assert estimated_rule_count(Implies(antecedent, Atom("b"))) == 1 << 63
        assert estimated_rule_count(Implies(antecedent, And(p, q))) == RULE_COUNT_CEILING
        longer = And(antecedent, Atom("c"))
        assert estimated_rule_count(Implies(longer, Atom("b"))) == RULE_COUNT_CEILING

    @pytest.mark.parametrize("text", [
        "((a | b) -> c | d) | (b -> a)",
        "p | q | r",
        "((a|b)->(c|d))->((b|c)->(d|a))",
    ])
    def test_saturates_instead_of_overflowing(self, text):
        assert estimated_rule_count(parse(text)) == RULE_COUNT_CEILING

    def test_deep_negation_chain_saturates_without_recursion(self):
        f = Atom("a")
        for _ in range(5000):
            f = neg(f)
        assert estimated_rule_count(f) == RULE_COUNT_CEILING
        message = (
            f"^the raw syntactic translation has at least {RULE_COUNT_CEILING} rules, "
            "over the budget of 4096$"
        )
        with pytest.raises(RuleBudgetExceededError, match=message):
            formula_to_program_syn(f)
        with pytest.raises(RuleBudgetExceededError, match=message):
            theory_to_program_syn(Theory((f,)))

    @pytest.mark.parametrize("value", ["a", None, 0, And])
    def test_non_formula_is_refused(self, value):
        with pytest.raises(TypeError, match=f"^not a formula: {value!r}$"):
            estimated_rule_count(value)


def deep_formula(shape: str) -> Formula:
    """A 5000-deep chain, far past the interpreter's recursion limit."""
    a, b = Atom("a"), Atom("b")
    f = a
    for i in range(5000):
        if shape == "negations":
            f = neg(f)
        elif shape == "implications":
            f = Implies(a, f)
        else:  # a left-nested chain alternating & a and | b
            f = And(f, a) if i % 2 == 0 else Or(f, b)
    return f


class TestDeepInputs:
    """The simplified translation walks without recursion on the depth;
    the parser refuses such nesting, so only the library reaches it."""

    @pytest.mark.parametrize("shape, expected", [
        ("negations", "~a -> bot"),
        ("implications", ""),
        ("alternating", "a | b"),
    ])
    def test_simplified_translation_answers(self, shape, expected):
        f = deep_formula(shape)
        assert atoms_of(eliminate_connectives(f)) == atoms_of(f)
        t = Theory((f,))
        for program in (formula_to_program_syn(f, True), theory_to_program_syn(t, True)):
            assert program_to_text(program) == expected
            assert ht_equivalent(program.to_theory(), t).equivalent

    def test_deep_rule_sides_still_recurse(self):
        # x0 | x1 | ... | x1999, left-nested: the walks answer, but each
        # distribution step's rule head is the disjunction so far, and
        # hashing and normalizing a rule recurse on its sides (ROADMAP
        # item 6).  This pins that limit until those become iterative.
        f = disj(Atom(f"x{i}") for i in range(2000))
        assert atoms_of(eliminate_connectives(f)) == atoms_of(f)
        with pytest.raises(RecursionError):
            formula_to_program_syn(f, True)


class TestSimplifiedRuleBudget:
    def test_one_budget_per_translation(self, monkeypatch):
        # Simplified, each of these builds 9 rules and body branches.
        first, second = parse("(q -> p) | r"), parse("(p -> q) | r")
        monkeypatch.setattr(rewriting, "SIMPLIFY_RULE_BUDGET", 9)
        for f in (first, second):
            assert len(formula_to_program_syn(f, simplify=True)) > 0
            assert len(theory_to_program_syn(Theory((f,)), simplify=True)) > 0
        with pytest.raises(RuleBudgetExceededError, match="more than 9 rules"):
            theory_to_program_syn(Theory((first, second)), simplify=True)

    def test_counts_only_the_simplified_translation(self, monkeypatch):
        monkeypatch.setattr(rewriting, "SIMPLIFY_RULE_BUDGET", 0)
        f = parse("(q -> p) | r")
        assert len(formula_to_program_syn(f)) == 48
        assert len(simplify(formula_to_program_syn(f))) > 0
        with pytest.raises(RuleBudgetExceededError):
            formula_to_program_syn(f, simplify=True)


class TestRawRuleBudget:
    # Built, p | q | r has more than 2^64 rules; the estimate refuses it
    # before anything is built.
    def test_formula_refused_up_front(self):
        with pytest.raises(
            RuleBudgetExceededError,
            match=r"^the raw syntactic translation has at least \d+ rules, "
            r"over the budget of 4096$",
        ):
            formula_to_program_syn(parse("p | q | r"))

    def test_theory_refused_up_front(self):
        trace = RewriteTrace()
        with pytest.raises(RuleBudgetExceededError, match="budget of 4096"):
            theory_to_program_syn(Theory((parse("p"), parse("p | q | r"))), trace=trace)
        assert trace.steps == []

    def test_estimates_of_a_theory_add_up(self, monkeypatch):
        t = Theory((parse("(q -> p) | r"), parse("(p -> q) | r")))
        monkeypatch.setattr(rewriting, "RAW_RULE_BUDGET", 96)
        assert len(theory_to_program_syn(t)) > 0
        monkeypatch.setattr(rewriting, "RAW_RULE_BUDGET", 95)
        with pytest.raises(
            RuleBudgetExceededError,
            match="^the raw syntactic translation has 96 rules, over the budget of 95$",
        ):
            theory_to_program_syn(t)

    def test_not_checked_when_simplifying(self, monkeypatch):
        monkeypatch.setattr(rewriting, "RAW_RULE_BUDGET", 0)
        assert len(formula_to_program_syn(parse("p | q | r"), simplify=True)) == 1
        t = Theory((parse("(q -> p) | r"),))
        assert len(theory_to_program_syn(t, simplify=True)) == 2


class TestWorkedExample:
    def test_inner_subformula_simplifies_to_single_rule(self):
        got = formula_to_program_syn(parse("r -> (q -> p)"), simplify=True)
        assert rules_text(got) == ["q & r -> p"]

    def test_first_conjunct_simplifies_to_golden_pair(self):
        f = parse("(r -> (q -> p)) -> (q -> p)")
        got = formula_to_program_syn(f, simplify=True)
        assert rules_text(got) == ["q & ~r -> p", "q -> p | r | ~p"]

    def test_lemma2_intermediate_simplification(self):
        # the two-rule result of the single-rule reduction collapses to
        # the expected pair once cleaned up
        raw = implication_of_programs(
            program_of("q & r -> p"), program_of("q -> p")
        )
        cleaned = simplify(raw)
        assert rules_text(cleaned) == ["q & ~r -> p", "q -> p | r | ~p"]


class TestSimplify:
    def test_constant_folding_and_tautology_drop(self):
        program = Program((
            Rule(And(q, Or(r, neg(TOP))), p),
            Rule(q, Or(Or(p, TOP), neg(r))),
        ))
        got = simplify(program)
        assert rules_text(got) == ["q & r -> p"]

    def test_worked_example_second_step(self):
        program = Program((
            Rule(And(q, Or(p, neg(And(q, r)))), p),
            Rule(q, Or(Or(p, And(q, r)), neg(p))),
        ))
        got = simplify(program)
        assert rules_text(got) == ["q & ~r -> p", "q -> p | r | ~p"]

    def test_empty_program(self):
        assert len(simplify(Program(()))) == 0

    def test_removes_duplicate_rules(self):
        program = program_of("p -> q", "p -> q")
        assert rules_text(simplify(program)) == ["p -> q"]

    def test_contradictory_body_drops_rule(self):
        program = program_of("p & ~p -> q")
        assert len(simplify(program)) == 0

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, DEFAULT_CAP])
    @pytest.mark.parametrize("head", [Or(r, And(p, q)), Or(r, p)], ids=["body", "unit"])
    def test_head_holding_the_body_is_dropped_at_every_cap(self, cap, head):
        # A head disjunct that is top or a body unit makes a tautology,
        # which simplify() drops without evaluating it: also below the
        # rule's three atoms, where ht_valid at that cap cannot check it.
        rule = Rule(And(p, q), head)
        assert len(simplify(Program((rule,), atoms_of(p, q, r)))) == 0
        if cap < 3:
            with pytest.raises(CapExceededError):
                ht_valid(rule.to_formula(), cap=cap)
        else:
            assert ht_valid(rule.to_formula(), cap=cap)

    @pytest.mark.parametrize("text, expected", [
        ("a -> ~a | b", "a -> b"),
        ("~a -> a | b", "~a -> b"),
        ("a -> b & ~a | c", "a -> c"),
        ("a -> a & b | c", "a -> b | c"),
        ("~a -> ~~a & b | c", "~a -> c"),
        ("a -> a | b", ""),
        # a body disjunct that is a conjunction splits into units
        ("(a & b | c) -> a", "c -> a"),
        ("(a & ~a | b) -> c", "b -> c"),
        ("(a & b | c) & ~a -> c", ""),
        ("(b & ~a & ~~a | c) -> a | ~a", "c -> a | ~a"),
        # a head conjunction left with one disjunction splits into the head
        ("a -> (b | ~a) & a", "a -> b"),
        ("a -> c | (a | b) & a", ""),
    ])
    def test_body_units_propagate_into_the_head(self, text, expected):
        # A head disjunct, or a conjunct of one, that the body makes false
        # is dropped; a conjunct that is a body unit is implied by the body;
        # a head holding a body unit makes the rule a tautology.
        program = Program((Rule.from_formula(parse(text)),))
        assert program_to_text(simplify(program)) == expected

    @pytest.mark.parametrize("text", [
        "~a | ~~a", "a -> ~~a", "b -> ~a | ~~a",
        # normalized to ~a | ~b | ~~a & ~~b, a & b -> ~~a & ~~b and
        # a -> ~b | ~~a & ~~b: each conjunct ~~G has G a unit or ~G kept
        "~(a & b) | ~~(a & b)", "a & b -> ~~(a & b)", "a -> ~b | ~~(a & b)",
    ])
    def test_double_negation_tautologies_are_dropped(self, text):
        # F -> ~~F and the weak excluded middle ~F | ~~F hold in HT for any F.
        f = parse(text)
        assert len(formula_to_program_syn(f, simplify=True)) == 0
        assert len(simplify(Program((Rule.from_formula(f),)))) == 0

    @pytest.mark.parametrize("text", ["b -> ~~a", "~b | ~~a", "~b | ~~a & ~~b",
                                      "a -> ~~a & ~~b"])
    def test_double_negations_of_other_formulas_are_kept(self, text):
        program = Program((Rule.from_formula(parse(text)),))
        assert program_to_text(simplify(program)) == text

    def test_syntax_decides_validity_of_nonnested_rules(self):
        # A nonnested rule over {a, b} is six sets of atoms: those that
        # occur as x, ~x and ~~x in its body and in its head.  Without
        # evaluating any rule, the simplifier drops exactly the valid ones.
        a, b = Atom("a"), Atom("b")
        sig = atoms_of(a, b)
        literals = (lambda x: x, neg, lambda x: neg(neg(x)))
        subsets = [(), (a,), (b,), (a, b)]
        mismatched = []
        for sets in itertools.product(subsets, repeat=6):
            body, head = (
                [literal(x) for literal, xs in zip(literals, part) for x in xs]
                for part in (sets[:3], sets[3:])
            )
            rule = Rule(conj(body), disj(head))
            dropped = len(simplify(Program((rule,), sig))) == 0
            if dropped != ref.valid(rule.to_formula(), sig):
                mismatched.append(rule_to_text(rule))
        assert mismatched == []

    def test_classically_valid_head_is_kept_when_not_ht_valid(self):
        program = program_of("p | ~p")
        assert rules_text(simplify(program)) == ["p | ~p"]

    def test_preserves_models_exactly(self, corpus_depth2):
        for f in corpus_depth2:
            t = single(f, "a", "b")
            program = theory_to_program_syn(t)
            cleaned = simplify(program)
            assert ht_models(program.to_theory()) == ht_models(
                cleaned.to_theory()
            )

    def test_preserves_models_on_countermodel_programs(self, corpus_depth2):
        for f in corpus_depth2[:60]:
            t = single(f, "a", "b")
            program = theory_to_program_cm(t)
            cleaned = simplify(program)
            assert ht_models(program.to_theory()) == ht_models(
                cleaned.to_theory()
            )


class TestByteIdentity:
    """SHA-256 digests of the syntactic translation's outputs, so that a
    change to the simplifier's internals keeps them byte-identical.

    Two digests per corpus.  The translation digest covers, per formula,
    the simplified program's text, the rules and branches its run spent
    and its trace lines.  The cleanup digest covers simplify() of the raw
    program within RAW_RULE_BUDGET.  A budget error's message stands in
    for a program.
    """

    DIGESTS = {
        "corpus_depth2": {
            "translation": "d064ab6eabf8d9e7ee93eb137ace2c616331944b3596066f6ab43ef451c9e14b",
            "cleanup": "7df5467a22aa6e4177966696851f6d46c0fe4166e35ca1dcde1ea7fbc3d7116c",
        },
        "corpus_depth3": {
            "translation": "7c5fe5a8cbc8c1f34ae7acbaaf5d7fc1751e191a1123ab01e9d8252c08b88ef6",
            "cleanup": "13f489822e9f9eb3b621bb34b59b9f2061d2e151741291a97f5b312aeb7325a0",
        },
        "paper": {
            "translation": "4b2a986c0d31064b84f65ef2d61c591998a5ebb1960d1391bc0356ef638e9ced",
            "cleanup": "2bd63e029f5d876a48dc50eb28121eb5f6b8aecb4f699c0d4ac8577e1a653cb5",
        },
    }

    @staticmethod
    def translation_lines(f, runs):
        yield f"FORMULA {to_text(f)}"
        trace = RewriteTrace()
        try:
            yield program_to_text(formula_to_program_syn(f, True, trace))
        except RuleBudgetExceededError as error:
            yield f"simplified: {error}"
        yield f"spent {runs[-1].spent}"
        yield from trace.lines()

    @staticmethod
    def cleanup_lines(f):
        yield f"FORMULA {to_text(f)}"
        try:
            raw = formula_to_program_syn(f)
        except RuleBudgetExceededError as error:
            yield f"raw: {error}"
        else:
            yield program_to_text(simplify(raw))

    @pytest.mark.parametrize("corpus", sorted(DIGESTS))
    def test_outputs_match_the_pinned_digest(self, request, monkeypatch, corpus):
        if corpus == "paper":
            formulas = [parse("(q -> p) | r"), parse("((a|b)->(c|d))->((b|c)->(d|a))")]
        else:
            formulas = request.getfixturevalue(corpus)
        runs = []
        start = rewriting._Run.start.__func__

        def recording_start(cls, *args):
            runs.append(start(cls, *args))
            return runs[-1]

        monkeypatch.setattr(rewriting._Run, "start", classmethod(recording_start))
        translation, cleanup = hashlib.sha256(), hashlib.sha256()
        for f in formulas:
            for line in self.translation_lines(f, runs):
                translation.update(line.encode("utf-8") + b"\n")
            for line in self.cleanup_lines(f):
                cleanup.update(line.encode("utf-8") + b"\n")
        got = {"translation": translation.hexdigest(), "cleanup": cleanup.hexdigest()}
        assert got == self.DIGESTS[corpus]


class TestLayering:
    """The syntactic path builds on the formula layer alone."""

    def test_rewriting_imports_only_the_formula_module(self):
        tree = ast.parse(inspect.getsource(rewriting))
        relative, absolute = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                (relative if node.level else absolute).add(node.module)
            elif isinstance(node, ast.Import):
                absolute.update(alias.name for alias in node.names)
        assert relative == {"formula"}
        assert not any(name.split(".")[0] == "htlp" for name in absolute)

    @pytest.mark.parametrize(
        "entry", [formula_to_program_syn, theory_to_program_syn, simplify],
        ids=lambda entry: entry.__name__,
    )
    def test_entry_points_take_no_cap(self, entry):
        assert "cap" not in inspect.signature(entry).parameters


class TestTrace:
    ALLOWED = {
        "or-elim", "lemma1", "lemma2-split", "currying", "conj-merge",
        "or-distribute", "simplify-rewrite", "simplify-drop-taut", "simplify-dedup",
    }

    def test_steps_are_equivalence_preserving(self):
        trace = RewriteTrace()
        formula_to_program_syn(parse("(q -> p) | r"), simplify=True, trace=trace)
        assert trace.steps
        for step in trace.steps:
            assert step.rule_name in self.ALLOWED
            before = single(step.before, "p", "q", "r")
            after = Theory((step.after,), before.signature)
            assert ht_equivalent(before, after).equivalent

    def test_distribution_recorded_only_when_simplifying(self):
        f = parse("(q -> p) | r")
        simplified, raw = RewriteTrace(), RewriteTrace()
        formula_to_program_syn(f, simplify=True, trace=simplified)
        formula_to_program_syn(f, trace=raw)
        names = [step.rule_name for step in simplified.steps]
        assert names[0] == "or-elim" and "or-distribute" in names
        assert "lemma1" not in names[names.index("or-distribute"):]
        assert "or-distribute" not in {step.rule_name for step in raw.steps}

    def test_currying_recorded_for_larger_antecedents(self):
        trace = RewriteTrace()
        formula_to_program_syn(parse("(p & q) -> r"), trace=trace)
        assert any(step.rule_name == "currying" for step in trace.steps)

    def test_line_format(self):
        trace = RewriteTrace()
        formula_to_program_syn(parse("p | q"), trace=trace)
        for line in trace.lines():
            assert line.startswith("STEP ")
            assert " ==> " in line


class TestDepth3Properties:
    def test_lemma1_soundness_depth2_corpus(self, corpus_depth2):
        # the full 30^3 grid is exercised in the acceptance suite; keep a
        # deterministic sample here for quick feedback
        rng = random.Random(99)
        triples = [
            (rng.choice(corpus_depth2), rng.choice(corpus_depth2),
             rng.choice(corpus_depth2))
            for _ in range(400)
        ]
        for f, g, k in triples:
            original = single(Implies(Implies(f, g), k), "a", "b")
            first, second = lemma1_rewrite(f, g, k)
            rewritten = Theory((And(first, second),), original.signature)
            assert ht_equivalent(original, rewritten).equivalent
