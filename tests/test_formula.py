"""Syntax trees, parser, printer, and the syntactic classifiers."""

import copy
import dataclasses
import pickle
import sys
import threading
import time

import pytest

import formula_reference
from htlp import (
    BOT,
    TOP,
    And,
    Atom,
    CountermodelRule,
    DnfClause,
    EquivalenceResult,
    HtInterpretation,
    Implies,
    InterpretationSet,
    Or,
    ParseError,
    Program,
    ProgramCount,
    Rule,
    Signature,
    Theory,
    TraceStep,
    atoms_of,
    conj,
    disj,
    is_nested_expression,
    is_nonnested_rule,
    is_rule,
    neg,
    parse,
    parse_theory,
    program_to_text,
    rule_to_text,
    to_text,
)
from htlp import formula
from htlp.formula import _names
from htlp.parser import Token

p, q, r = Atom("p"), Atom("q"), Atom("r")

MISSING_P = r"^signature is missing occurring atoms: \['p'\]$"


class TestParse:
    def test_single_implication(self):
        assert parse("q -> p") == Implies(q, p)

    def test_disjunction_of_rule(self):
        assert parse("(q -> p) | r") == Or(Implies(q, p), r)

    def test_negation_expands(self):
        assert parse("~p") == Implies(p, BOT)

    def test_not_keyword(self):
        assert parse("not p") == Implies(p, BOT)
        assert parse("not not p") == neg(neg(p))

    def test_top_expands(self):
        assert parse("top") == Implies(BOT, BOT)

    def test_iff_expands(self):
        assert parse("p <-> q") == And(Implies(p, q), Implies(q, p))

    def test_precedence(self):
        assert parse("~p & q | r -> p") == Implies(
            Or(And(neg(p), q), r), p
        )

    def test_implication_right_associative(self):
        assert parse("p -> q -> r") == Implies(p, Implies(q, r))

    def test_and_or_left_associative(self):
        assert parse("p & q & r") == And(And(p, q), r)
        assert parse("p | q | r") == Or(Or(p, q), r)

    def test_iff_binds_loosest(self):
        assert parse("p -> q <-> r") == And(
            Implies(Implies(p, q), r), Implies(r, Implies(p, q))
        )

    def test_atom_may_embed_keyword(self):
        assert parse("nota & bottom") == And(Atom("nota"), Atom("bottom"))

    def test_comment_and_whitespace(self):
        assert parse("  p ->\tq  % trailing comment") == Implies(p, q)

    @pytest.mark.parametrize("bad,expected_bits", [
        ("p &", "atom"),
        ("(p", "')'"),
        ("p q", "trailing"),
        ("p $ q", "unexpected character"),
        ("-> p", "unexpected"),
        ("", "end of input"),
    ])
    def test_errors_carry_position_and_expectation(self, bad, expected_bits):
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert expected_bits in str(err.value)
        assert err.value.line == 1
        assert err.value.column >= 1

    def test_error_line_numbers_in_theories(self):
        with pytest.raises(ParseError) as err:
            parse_theory("p\nq ->\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("text", ["a\x0bb", "a\x0cb\nc ->"])
    def test_theory_lines_end_only_at_newlines(self, text):
        """Other line breaks of str.splitlines are characters the tokenizer rejects."""
        with pytest.raises(ParseError) as err:
            parse_theory(text)
        assert (err.value.line, err.value.column) == (1, 2)
        assert "unexpected character" in str(err.value)

    def test_crlf_theory(self):
        assert parse_theory("p -> q\r\n\r\nr\r\n").formulas == (Implies(p, q), r)

    def test_any_depth_parses(self):
        """Past the interpreter's recursion limit: the parser keeps explicit stacks."""
        depth = 20_000
        assert sys.getrecursionlimit() < depth
        assert parse("(" * depth + "p" + ")" * depth) == p
        f = parse("~" * depth + "p")
        for _ in range(depth):
            assert type(f) is Implies and f.consequent == BOT
            f = f.antecedent
        assert f == p
        f = parse(" -> ".join(["p"] * (depth + 1)))
        for _ in range(depth):
            assert type(f) is Implies and f.antecedent == p
            f = f.consequent
        assert f == p


class TestTheoryFiles:
    def test_basic_file(self):
        t = parse_theory("% a comment line\np -> q\n\nr\n")
        assert t.formulas == (Implies(p, q), r)
        assert list(t.signature) == ["p", "q", "r"]

    def test_signature_header_extends(self):
        t = parse_theory("#signature a b\np\n")
        assert list(t.signature) == ["a", "b", "p"]

    def test_unknown_directive_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("#foo bar\n")

    def test_bad_header_atom_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("#signature Bad\n")

    def test_blanks_are_the_tokenizer_whitespace(self):
        """A line of other whitespace is no blank line, and no separator in a header."""
        with pytest.raises(ParseError, match=r"unexpected character '\\x0c'") as err:
            parse_theory("a\n\x0c\n#signature b\x0cc d\n")
        assert (err.value.line, err.value.column) == (2, 1)
        with pytest.raises(ParseError, match=r"invalid atom name 'b\\x0cc' in #signature") as err:
            parse_theory("a\n#signature b\x0cc d\n")
        assert err.value.line == 2
        t = parse_theory(" \t\r\n#\tsignature\tb \r\n# signature c\na\r\n")
        assert t.formulas == (Atom("a"),) and list(t.signature) == ["a", "b", "c"]


class TestPrint:
    def test_sugared_folds(self):
        assert to_text(Implies(p, BOT)) == "~p"
        assert to_text(TOP) == "top"
        assert to_text(neg(neg(p))) == "~~p"
        assert to_text(neg(And(p, q))) == "~(p & q)"

    @pytest.mark.parametrize("text, sugared, raw", [
        ("~top", "~top", "((bot -> bot) -> bot)"),
        ("~~a", "~~a", "((a -> bot) -> bot)"),
        ("~bot", "top", "(bot -> bot)"),
        ("top -> bot", "~top", "((bot -> bot) -> bot)"),
        ("a -> ~b", "a -> ~b", "(a -> (b -> bot))"),
    ])
    def test_negation_and_top_texts(self, text, sugared, raw):
        assert to_text(parse(text)) == sugared
        assert formula_reference.to_text(parse(text), "raw") == raw

    def test_sugared_minimal_parens(self):
        assert to_text(Implies(And(q, neg(p)), Or(r, neg(r)))) == "q & ~p -> r | ~r"
        assert to_text(Or(p, Or(q, r))) == "p | (q | r)"
        assert to_text(Implies(Implies(p, q), r)) == "(p -> q) -> r"

    def test_round_trip_corpus(self, corpus_depth3):
        for f in corpus_depth3:
            assert parse(formula_reference.to_text(f, "raw")) == f
            assert parse(to_text(f)) == f

    def test_atoms_stable_under_round_trip(self, corpus_depth2):
        for f in corpus_depth2:
            assert atoms_of(parse(to_text(f))) == atoms_of(f)


class TestAtoms:
    def test_collects_and_orders(self):
        assert list(atoms_of(Or(Implies(q, p), r))) == ["p", "q", "r"]

    def test_bottom_is_empty(self):
        assert len(atoms_of(BOT)) == 0

    def test_duplicates_collapse(self):
        assert list(atoms_of(Implies(p, Implies(q, p)))) == ["p", "q"]

    def test_reserved_names_rejected(self):
        for name in ("bot", "top", "not", "Upper", "9x", ""):
            with pytest.raises(ValueError):
                Atom(name)

    def test_signature_set_behavior(self):
        sig = Signature(["b", "a", "b"])
        assert list(sig) == ["a", "b"]
        assert sig | Signature(["c"]) == Signature(["a", "b", "c"])
        assert "a" in sig and "z" not in sig

    def test_signature_membership(self):
        sig = Signature(["b", "a", "b"]) | Signature(["c"])
        for name in ("a", "b", "c"):
            assert name in sig
        for name in ("d", "ab", "A", "", "bot", 1, None):
            assert name not in sig
        assert "a" not in Signature()


class TestClassifiers:
    def test_nested_expression(self):
        assert is_nested_expression(And(Atom("a"), Or(Atom("e"), p)))
        assert not is_nested_expression(Implies(q, p))
        assert is_nested_expression(TOP)
        assert is_nested_expression(neg(Or(p, q)))
        assert not is_nested_expression(neg(Implies(q, p)))

    def test_is_rule(self):
        assert is_rule(Implies(And(q, r), p))
        assert not is_rule(Implies(Implies(q, p), r))
        assert is_rule(p)

    def test_is_nonnested_rule(self):
        assert is_nonnested_rule(parse("q & ~r -> p | ~p"))
        assert is_nonnested_rule(parse("q & r -> p"))
        assert not is_nonnested_rule(parse("~~p -> q"))
        assert is_nonnested_rule(parse("p | ~p"))
        assert is_nonnested_rule(parse("bot"))
        assert not is_nonnested_rule(parse("(p | q) -> r"))

    def test_nonnested_checks_walk_long_chains_without_recursion(self):
        atoms = [Atom(f"x{i}") for i in range(3000)]
        rule = Rule(conj(atoms), Atom("y"))
        assert rule.is_nonnested()
        assert Program((rule,)).is_nonnested()
        assert is_nonnested_rule(rule.to_formula())
        assert Rule(Atom("y"), disj(atoms)).is_nonnested()
        # A nested item at the far end of either chain is still found.
        assert not Rule(conj([neg(neg(p))] + atoms), q).is_nonnested()
        assert not Rule(p, disj([And(p, q)] + atoms)).is_nonnested()

    def test_classifier_chain(self, corpus_depth3):
        for f in corpus_depth3:
            if is_nonnested_rule(f):
                assert is_rule(f)
            if is_nested_expression(f):
                assert is_rule(f)


class TestRuleAndProgram:
    def test_rule_requires_nested_sides(self):
        with pytest.raises(ValueError):
            Rule(Implies(q, p), p)
        with pytest.raises(ValueError):
            Rule(p, Implies(q, p))

    def test_rule_side_errors_name_the_side(self):
        body = r"^rule body is not a nested expression: q -> p$"
        with pytest.raises(ValueError, match=body):
            Rule(Implies(q, p), p)
        head = r"^rule head is not a nested expression: ~q & \(q -> p\)$"
        with pytest.raises(ValueError, match=head):
            Rule(p, And(neg(q), Implies(q, p)))
        with pytest.raises(TypeError, match="not a formula: None"):
            Rule(And(p, None), q)
        # The body is checked first: a non-nested body is named before a
        # non-nested or non-formula head.
        for head in (Implies(q, p), None):
            with pytest.raises(ValueError, match=body):
                Rule(Implies(q, p), head)

    def test_rule_atoms_are_collected_and_interned(self):
        # A rule's atoms are the OR of its sides' bits: one int per set of atoms.
        rule = Rule(And(p, neg(q)), Or(r, neg(neg(p))))
        assert Program((rule,)).signature.names == {"p", "q", "r"}
        assert _names(rule.body._bits | rule.head._bits) == {"p", "q", "r"}
        assert not (rule.body._bits | rule.head._bits) & 1
        other = Rule(neg(r), Or(q, p))
        assert other.body._bits | other.head._bits == rule.body._bits | rule.head._bits
        assert Program((Rule(TOP, BOT),)).signature == Signature()

    def test_rule_copies_and_pickles_keep_the_atoms(self):
        rule = Rule(And(p, neg(q)), Or(r, neg(r)))
        pickled = pickle.loads(pickle.dumps(rule))
        for twin in (copy.copy(rule), copy.deepcopy(rule), pickled):
            assert twin == rule
        assert Rule.__match_args__ == ("body", "head")
        assert repr(rule) == "p & ~q -> r | ~r"
        assert rule.__reduce__() == (Rule, (rule.body, rule.head))

    def test_program_signature_must_cover_atoms(self):
        with pytest.raises(ValueError, match=MISSING_P):
            Program((Rule(TOP, p),), Signature(["q"]))
        with pytest.raises(ValueError, match=MISSING_P):
            Program((Rule(q, Or(p, neg(q))),), Signature(["q", "r"]))

    def test_to_theory_checks_the_program_signature(self):
        # Program's constructor refuses such a program, so build it past it.
        narrow = object.__new__(Program)
        object.__setattr__(narrow, "rules", (Rule(q, p),))
        object.__setattr__(narrow, "signature", Signature(["q"]))
        with pytest.raises(ValueError, match=MISSING_P):
            narrow.to_theory()

    def test_program_signature_is_the_atoms_of_the_sides(self):
        rules = (Rule(TOP, p), Rule(And(q, neg(r)), BOT), Rule(neg(neg(q)), Or(p, neg(p))))
        sides = [side for rule in rules for side in (rule.body, rule.head)]
        assert Program(rules).signature == atoms_of(*sides)
        assert Program(()).signature == Signature()

    def test_from_formula_splits_implication(self):
        rule = Rule.from_formula(parse("q & r -> p"))
        assert rule.body == And(q, r)
        assert rule.head == p

    def test_from_formula_wraps_nested_expression(self):
        rule = Rule.from_formula(parse("p | ~p"))
        assert rule.body == TOP
        assert rule.head == Or(p, neg(p))

    def test_from_formula_reads_constraints_as_rules(self):
        rule = Rule.from_formula(parse("q & ~p -> bot"))
        assert rule.head == BOT
        assert rule.is_nonnested()

    def test_from_formula_rejects_non_rules(self):
        with pytest.raises(ValueError):
            Rule.from_formula(parse("(p -> q) -> r"))

    def test_to_formula_round_trip(self):
        for text in ("q & r -> p", "p | ~p", "bot", "~p", "top"):
            rule = Rule.from_formula(parse(text))
            assert Rule.from_formula(rule.to_formula()) == rule

    def test_rule_text_implicit_top_body(self):
        assert rule_to_text(Rule(TOP, Or(p, q))) == "p | q"
        assert rule_to_text(Rule(And(q, neg(p)), BOT)) == "q & ~p -> bot"

    def test_program_text_and_theory(self):
        prog = Program(
            (Rule(TOP, p), Rule(q, BOT)), Signature(["p", "q", "z"])
        )
        assert program_to_text(prog) == "p\nq -> bot"
        assert prog.to_theory().formulas == (p, Implies(q, BOT))
        assert list(prog.to_theory().signature) == ["p", "q", "z"]

    def test_non_formulas_and_non_rules_are_refused_on_entry(self):
        with pytest.raises(TypeError, match=r"^not a formula: 'a'$"):
            atoms_of(p, "a")
        with pytest.raises(TypeError, match=r"^not a formula: 'q'$"):
            Theory((And(p, "q"),))
        with pytest.raises(TypeError, match=r"^not a rule: 'x'$"):
            Program(("x",))
        with pytest.raises(TypeError, match=r"^not a rule: q$"):
            Program((Rule(TOP, p), q))

    def test_theory_signature_must_cover_atoms(self):
        with pytest.raises(ValueError):
            Theory((p,), Signature(["q"]))
        wide = Theory((p,), Signature(["p", "q"]))
        assert list(wide.signature) == ["p", "q"]

    def test_theory_union_dedups(self):
        t1 = Theory((p, q))
        t2 = Theory((q, r))
        assert t1.union(t2).formulas == (p, q, r)
        assert list(t1.union(t2).signature) == ["p", "q", "r"]


def _node_kinds():
    """One instance of each immutable value class, built from scratch."""
    a, b = Atom("a"), Atom("b")
    sig = Signature(["a", "b"])
    here_a = HtInterpretation({"a"}, {"a", "b"}, sig)
    rule = Rule(And(a, neg(b)), Or(b, neg(b)))
    return [
        BOT, a, And(a, neg(b)), Or(a, TOP), Implies(Or(a, b), neg(a)), rule,
        sig, Theory((a, neg(b)), sig), Program((rule,)),
        here_a, InterpretationSet((here_a,)), EquivalenceResult(False, here_a),
        CountermodelRule(here_a, rule), DnfClause(here_a, And(a, neg(neg(b)))),
        TraceStep("neg", neg(a), Implies(a, BOT)), Token("atom", "a", 1, 2),
        ProgramCount(2, 162),
    ]


#: The fields of each value class, in order, and the repr of its _node_kinds() instance.
FIELDS_AND_REPRS = {
    "Bottom": ((), "bot"),
    "Atom": (("name",), "a"),
    "And": (("left", "right"), "a & ~b"),
    "Or": (("left", "right"), "a | top"),
    "Implies": (("antecedent", "consequent"), "a | b -> ~a"),
    "Rule": (("body", "head"), "a & ~b -> b | ~b"),
    "Signature": (("atoms",), "{a, b}"),
    "Theory": (("formulas", "signature"), "Theory(formulas=(a, ~b), signature={a, b})"),
    "Program": (("rules", "signature"), "a & ~b -> b | ~b"),
    "HtInterpretation": (("here", "there", "over"), "(a | a b)"),
    "InterpretationSet": (
        ("members", "signature"),
        "InterpretationSet(members=((a | a b),), signature={a, b})",
    ),
    "EquivalenceResult": (
        ("equivalent", "witness"), "EquivalenceResult(equivalent=False, witness=(a | a b))",
    ),
    "CountermodelRule": (
        ("source", "rule"), "CountermodelRule(source=(a | a b), rule=a & ~b -> b | ~b)",
    ),
    "DnfClause": (("source", "clause"), "DnfClause(source=(a | a b), clause=a & ~~b)"),
    "TraceStep": (
        ("rule_name", "before", "after"), "TraceStep(rule_name='neg', before=~a, after=~a)",
    ),
    "Token": (
        ("kind", "text", "line", "column"),
        "Token(kind='atom', text='a', line=1, column=2)",
    ),
    "ProgramCount": (("n", "value"), "ProgramCount(n=2, value=162)"),
}


class TestNodeValues:
    @pytest.mark.parametrize("node", _node_kinds(), ids=lambda n: type(n).__name__)
    def test_copies_and_pickles_are_equal(self, node):
        pickled = pickle.loads(pickle.dumps(node))
        for twin in (copy.copy(node), copy.deepcopy(node), pickled):
            assert twin == node and hash(twin) == hash(node)
            assert type(twin) is type(node)

    @pytest.mark.parametrize("node", _node_kinds(), ids=lambda n: type(n).__name__)
    def test_assignment_raises(self, node):
        for name in list(node.__match_args__) + ["anything"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, BOT)

    @pytest.mark.parametrize("node", _node_kinds(), ids=lambda n: type(n).__name__)
    def test_deletion_raises(self, node):
        for name in list(node.__match_args__) + ["anything"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)

    @pytest.mark.parametrize("node", _node_kinds(), ids=lambda n: type(n).__name__)
    def test_slotted(self, node):
        assert not hasattr(node, "__dict__")

    @pytest.mark.parametrize("node", _node_kinds(), ids=lambda n: type(n).__name__)
    def test_fields_and_repr(self, node):
        fields, text = FIELDS_AND_REPRS[type(node).__name__]
        assert type(node).__match_args__ == fields
        assert repr(node) == text

    @pytest.mark.parametrize("node", _node_kinds(), ids=lambda n: type(n).__name__)
    def test_keyword_construction(self, node):
        keywords = {name: getattr(node, name) for name in node.__match_args__}
        assert type(node)(**keywords) == node

    def test_independent_builds_are_equal(self):
        for first, second in zip(_node_kinds(), _node_kinds()):
            assert first is not second or type(first) in (Atom, formula.Bottom)
            assert first == second and hash(first) == hash(second)

    def test_equal_only_to_the_same_class_and_fields(self):
        a, b = Atom("a"), Atom("b")
        assert And(a, b) != Or(a, b) and And(a, b) != And(b, a)
        assert Rule(a, b) != Implies(a, b) and Atom("a") != "a"
        assert Implies(a, b) != And(a, b) and Implies(a, b) != Or(a, b)
        assert ProgramCount(2, 162) != ProgramCount(2, 163)
        assert EquivalenceResult(True) == EquivalenceResult(equivalent=True, witness=None)

    def test_trees_with_a_non_formula_cannot_be_built(self):
        with pytest.raises(TypeError, match=r"^not a formula: None$"):
            Implies(BOT, None)
        with pytest.raises(TypeError, match=r"^not a formula: None$"):
            And(Atom("a"), Or(None, BOT))
        # The class in place of its instance BOT is refused too.
        with pytest.raises(TypeError, match=r"^not a formula: <class 'htlp.formula.Bottom'>$"):
            Or(formula.Bottom, Atom("a"))

    def test_atom_name_still_checked(self):
        with pytest.raises(ValueError, match="invalid atom name"):
            Atom("1x")


class TestInternedLeaves:
    def test_one_atom_per_name_and_one_bot(self):
        assert Atom("a") is Atom("a") is Atom(name="a")
        assert Atom("a") is not Atom("b")
        assert formula.Bottom() is BOT and formula.Bottom() is formula.Bottom()
        assert parse("a & bot").left is Atom("a") and parse("a & bot").right is BOT

    @pytest.mark.parametrize("leaf", [BOT, Atom("a")], ids=["Bottom", "Atom"])
    def test_copies_and_pickles_are_the_leaf_itself(self, leaf):
        assert copy.copy(leaf) is leaf
        assert copy.deepcopy(leaf) is leaf
        assert pickle.loads(pickle.dumps(leaf)) is leaf
        twin = copy.deepcopy(And(leaf, neg(leaf)))
        assert twin.left is leaf and twin.right.antecedent is leaf

    def test_leaves_compare_and_hash_by_identity(self):
        a = Atom("a")
        assert a == a and hash(a) == object.__hash__(a)
        assert BOT == BOT and hash(BOT) == object.__hash__(BOT)
        assert a != BOT and a != Atom("b") and a != "a" and BOT != ()

    def test_one_fresh_name_from_several_threads_gets_one_atom(self):
        start = threading.Barrier(8)
        built: list[Atom | None] = [None] * 8
        name = "threads_share_this_atom"
        assert name not in formula._INDEXED

        def build(k: int) -> None:
            start.wait()
            built[k] = Atom(name)

        threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
        # Every thread that registers the name yields just after appending
        # it, so registering without the lock would build a second atom.
        indexed = formula._INDEXED
        slow = formula._INDEXED = _YieldingList(indexed)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            indexed.extend(slow[len(indexed):])
            formula._INDEXED = indexed
        assert not any(thread.is_alive() for thread in threads)
        assert all(atom is built[0] for atom in built) and built[0] is Atom(name)
        assert indexed.count(name) == 1


class _YieldingList(list):
    """A list whose append lets other threads run just after it."""

    def append(self, item):
        super().append(item)
        time.sleep(0)


class TestNodeBits:
    def test_bits_hold_the_atoms_and_nestedness(self):
        f = And(p, Or(neg(q), Implies(r, p)))
        assert _names(f._bits) == {"p", "q", "r"}
        assert f._bits & 1 and not f.left._bits & 1 and not f.right.left._bits & 1
        assert BOT._bits == 0 and TOP._bits == 0
        assert p._bits & (p._bits - 1) == 0  # one bit per atom name

    def test_new_names_from_several_threads_get_their_own_bits(self):
        start = threading.Barrier(4)
        built: list[list[Atom]] = [[] for _ in range(4)]

        def build(k: int) -> None:
            start.wait()
            built[k].extend(Atom(f"thread{k}_atom{i}") for i in range(300))

        threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        # A thread seldom loses the interpreter lock between the index's
        # append and its read of the length; this list makes it lose it
        # there every time, so registering without the lock would hand
        # two names the same bit.
        indexed = formula._INDEXED
        slow = formula._INDEXED = _YieldingList(indexed)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            indexed.extend(slow[len(indexed):])
            formula._INDEXED = indexed
        assert not any(thread.is_alive() for thread in threads)
        atoms = [a for group in built for a in group]
        assert len(atoms) == 1200
        assert len({a._bits for a in atoms}) == 1200
        for a in atoms:
            assert list(atoms_of(a)) == [a.name]

    def test_deep_negation_chains_are_checked_without_walking(self):
        chain = p
        for _ in range(5000):
            chain = neg(chain)
        assert is_nested_expression(chain)
        assert Rule(TOP, chain).head is chain
        assert list(atoms_of(chain)) == ["p"]
        assert list(Theory((chain,)).signature) == ["p"]
        assert not is_nested_expression(Implies(chain, q))
