"""Here-and-there satisfaction, model sets, equivalence, equilibrium."""

import copy
import gc
import pickle
import random

import pytest

from htlp import (
    BOT,
    TOP,
    And,
    Atom,
    CapExceededError,
    HtInterpretation,
    Implies,
    InterpretationSet,
    Or,
    Signature,
    Theory,
    atoms_of,
    equilibrium_models,
    ht_countermodels,
    ht_equivalent,
    ht_models,
    ht_valid,
    iff,
    neg,
    parse,
    parse_theory,
    theory_to_dnf,
    theory_to_program_cm,
)
import ht_reference as ref
from htlp import semantics
from api_reference import enumerate_interpretations, strong_equivalence_probe
from conftest import random_formula, single

PQR = Signature(["p", "q", "r"])


def interp(here, there, sig=PQR):
    return HtInterpretation(frozenset(here), frozenset(there), sig)


def holds(m, f):
    """m satisfies f: m is an HT model of f over m's signature."""
    return m in ht_models(Theory((f,), m.over))


class TestInterpretations:
    def test_requires_subset_chain(self):
        with pytest.raises(ValueError):
            interp({"p"}, set())
        with pytest.raises(ValueError):
            interp({"z"}, {"z"})

    def test_total(self):
        assert interp({"p"}, {"p"}).total()
        assert not interp(set(), {"p"}).total()

    def test_display(self):
        assert interp({"q"}, {"p", "q"}).display() == "q | p q"
        assert interp(set(), set()).display() == "∅ | ∅"

    def test_check_messages(self):
        with pytest.raises(ValueError) as error:
            interp({"p", "r"}, {"p"})
        assert str(error.value) == "here-set must be contained in there-set: p r | p"
        with pytest.raises(ValueError) as error:
            interp({"p"}, {"p", "z", "y"})
        assert str(error.value) == "atoms outside the signature: ['y', 'z']"

    def test_immutable(self):
        m = interp({"p"}, {"p", "q"})
        for field in ("here", "there", "over"):
            with pytest.raises(AttributeError):
                setattr(m, field, frozenset())
            with pytest.raises(AttributeError):
                delattr(m, field)
        with pytest.raises(AttributeError):
            m.extra = 1
        assert m.here == {"p"} and m.there == {"p", "q"} and m.over == PQR

    def test_coerces_to_shared_frozensets(self):
        here, there = frozenset({"p"}), frozenset({"p", "q"})
        m = HtInterpretation(here, there, PQR)
        assert m.here is here and m.there is there
        listed = HtInterpretation(["p"], ("q", "p"), PQR)
        assert type(listed.here) is frozenset and listed == m

    def test_equality_and_hash(self):
        m = interp({"p"}, {"p", "q"})
        twin = interp({"p"}, {"q", "p"})
        assert m == twin and hash(m) == hash(twin)
        assert hash(m) == hash((m.here, m.there, m.over))
        assert m != interp({"p"}, {"p", "q"}, Signature(["p", "q"]))
        assert m != interp(set(), {"p", "q"}) and m != (m.here, m.there, m.over)

    def test_copy_and_pickle(self):
        m = interp({"p"}, {"p", "q"})
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and repr(twin) == "(p | p q)"


class TestSatisfaction:
    def test_classical_examples(self):
        # at a total interpretation (Y, Y), the classical truth at Y
        assert holds(interp({"p", "q"}, {"p", "q"}), Implies(Atom("q"), Atom("p")))
        assert not holds(interp(set(), set()), BOT)
        assert holds(interp({"q"}, {"q"}), parse("q & ~p & ~r"))

    def test_ht_examples(self):
        assert holds(interp({"q"}, {"p", "q"}), parse("q & ~r"))
        assert not holds(interp(set(), {"q"}), parse("(q -> p) | r"))

    def test_total_collapse(self, corpus_depth2):
        sig = Signature(["a", "b"])
        subsets = [set(), {"a"}, {"b"}, {"a", "b"}]
        for f in corpus_depth2:
            models = ht_models(Theory((f,), sig))
            for y in subsets:
                total = HtInterpretation(frozenset(y), frozenset(y), sig)
                assert (total in models) == ref.sat_classical(y, f)

    def test_persistence_exhaustive(self, corpus_depth3):
        sig = Signature(["a", "b"])
        for f in corpus_depth3:
            models = ht_models(Theory((f,), sig))
            for m in models:
                assert HtInterpretation(m.there, m.there, sig) in models

    def test_negation_collapse_exhaustive(self, corpus_depth3):
        sig = Signature(["a", "b"])
        space = list(enumerate_interpretations(sig))
        for f in corpus_depth3:
            models = ht_models(Theory((neg(f),), sig))
            for m in space:
                there = HtInterpretation(m.there, m.there, sig)
                assert (m in models) == (there in models)

    def test_persistence_random_depth4(self):
        rng = random.Random(20211)
        sig = Signature(["a", "b"])
        space = list(enumerate_interpretations(sig))
        for _ in range(300):
            f = random_formula(rng, ("a", "b"), 4)
            models = ht_models(Theory((f,), sig))
            negated = ht_models(Theory((neg(f),), sig))
            for m in space:
                there = HtInterpretation(m.there, m.there, sig)
                if m in models:
                    assert there in models
                assert (m in negated) == (there in negated)


class TestEnumeration:
    def test_one_atom(self):
        sig = Signature(["a"])
        got = [(set(m.here), set(m.there)) for m in enumerate_interpretations(sig)]
        assert got == [(set(), set()), (set(), {"a"}), ({"a"}, {"a"})]

    def test_empty_signature(self):
        assert len(enumerate_interpretations(Signature())) == 1

    def test_three_atoms_count(self):
        assert len(enumerate_interpretations(PQR)) == 27

    def test_cap_error_names_cap(self):
        with pytest.raises(CapExceededError) as err:
            enumerate_interpretations(PQR, cap=2)
        assert "cap of 2" in str(err.value)
        assert err.value.cap == 2 and err.value.needed == 3

    def test_canonical_order(self):
        members = list(enumerate_interpretations(Signature(["a", "b"])))
        lines = [m.display() for m in members]
        assert lines == [
            "∅ | ∅",
            "∅ | a", "a | a",
            "∅ | b", "b | b",
            "∅ | a b", "a | a b", "b | a b", "a b | a b",
        ]


class TestModelSets:
    def test_formula2_counts(self):
        t = single(parse("(q -> p) | r"))
        assert len(ht_models(t)) == 21
        assert len(ht_countermodels(t)) == 6

    def test_formula2_countermodels_exact(self):
        t = single(parse("(q -> p) | r"))
        assert ht_countermodels(t).display_lines() == [
            "∅ | q",
            "q | q",
            "q | p q",
            "∅ | q r",
            "q | q r",
            "q | p q r",
        ]

    def test_empty_theory(self):
        t = Theory((), Signature(["p"]))
        assert len(ht_models(t)) == 3
        assert len(ht_countermodels(t)) == 0

    def test_bot_theory(self):
        t = single(BOT)
        assert len(ht_models(t)) == 0

    def test_countermodels_total_closed(self, corpus_depth2):
        for f in corpus_depth2:
            assert ht_countermodels(single(f)).total_closure_violation() is None

    def test_interpretation_set_canonicalizes(self):
        sig = Signature(["a"])
        a_total = HtInterpretation({"a"}, {"a"}, sig)
        empty = HtInterpretation(set(), set(), sig)
        s = InterpretationSet((a_total, empty, a_total), sig)
        assert [m.display() for m in s] == ["∅ | ∅", "a | a"]

    def test_total_closure_violation_reported(self):
        sig = Signature(["a", "b"])
        lonely = InterpretationSet(
            (HtInterpretation({"a"}, {"a", "b"}, sig),
             HtInterpretation({"a", "b"}, {"a", "b"}, sig)),
            sig,
        )
        violation = lonely.total_closure_violation()
        assert violation is not None
        total, missing = violation
        assert total.display() == "a b | a b"
        assert missing.display() == "∅ | a b"


class TestTautologies:
    def test_axiom_schema(self, corpus_depth2):
        for f in corpus_depth2:
            for g in corpus_depth2:
                assert ht_valid(Or(Or(f, Implies(f, g)), neg(g)))

    def test_weak_excluded_middle(self, corpus_depth2):
        for f in corpus_depth2:
            assert ht_valid(Or(neg(f), neg(neg(f))))

    def test_de_morgan(self, corpus_depth2):
        for f in corpus_depth2:
            for g in corpus_depth2:
                assert ht_valid(iff(neg(And(f, g)), Or(neg(f), neg(g))))

    def test_lukasiewicz_disjunction_encoding(self, corpus_depth2):
        for f in corpus_depth2:
            for g in corpus_depth2:
                encoded = And(
                    Implies(Implies(f, g), g), Implies(Implies(g, f), f)
                )
                assert ht_valid(iff(Or(f, g), encoded))

    def test_excluded_middle_fails(self):
        a = Atom("a")
        assert not ht_valid(Or(a, neg(a)))
        witness = HtInterpretation(set(), {"a"}, Signature(["a"]))
        assert not holds(witness, Or(a, neg(a)))


class TestEquivalence:
    def test_formula2_intro_translation(self):
        t1 = single(parse("(q -> p) | r"))
        t2 = parse_theory("q -> p | r\n~p -> ~q | r\n")
        assert ht_equivalent(t1, t2).equivalent

    def test_excluded_middle_vs_top_witness(self):
        t1 = single(parse("p | ~p"))
        t2 = Theory((TOP,), Signature(["p"]))
        outcome = ht_equivalent(t1, t2)
        assert not outcome.equivalent
        assert outcome.witness.display() == "∅ | p"

    def test_reflexive(self):
        t = parse_theory("p -> q\nq -> r\n")
        assert ht_equivalent(t, t).equivalent

    def test_union_signature_comparison(self):
        # p over {p} versus p over {p, q}: still equivalent after rebasing
        t1 = single(Atom("p"))
        t2 = Theory((Atom("p"),), Signature(["p", "q"]))
        assert ht_equivalent(t1, t2).equivalent


class TestEquilibrium:
    def test_fact(self):
        assert equilibrium_models(single(Atom("p"))) == (frozenset({"p"}),)

    def test_disjunction(self):
        got = equilibrium_models(single(parse("p | q")))
        assert got == (frozenset({"p"}), frozenset({"q"}))

    def test_default_negation(self):
        t = single(parse("~p -> q"), "p")
        assert equilibrium_models(t) == (frozenset({"q"}),)

    def test_constraint_only(self):
        assert equilibrium_models(single(parse("~p"))) == (frozenset(),)

    def test_subset_of_classical_models(self, corpus_depth2):
        for f in corpus_depth2:
            t = single(f)
            for y in equilibrium_models(t):
                assert ref.sat_classical(y, f)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            equilibrium_models(single(parse("p & q & r")), cap=2)


class TestStrongEquivalenceProbe:
    def test_equivalent_theories_pass_any_context(self):
        t1 = single(parse("(q -> p) | r"))
        t2 = parse_theory("q -> p | r\n~p -> ~q | r\n")
        for context_text in ("", "q\n", "r -> q\n", "~p -> q\np -> r\n"):
            context = parse_theory(context_text)
            assert strong_equivalence_probe(t1, t2, context)

    def test_classical_equivalence_is_not_strong(self):
        t1 = single(parse("p | ~p"))
        t2 = Theory((TOP,), Signature(["p"]))
        context = parse_theory("~p -> q\nq -> p\n")
        assert not strong_equivalence_probe(t1, t2, context)

    def test_empty_context_reduces_to_equilibrium_equality(self):
        t1 = single(parse("p | q"))
        t2 = parse_theory("~q -> p\n~p -> q\n")
        union_sig = t1.signature | t2.signature
        expected = equilibrium_models(
            Theory(t1.formulas, union_sig)
        ) == equilibrium_models(Theory(t2.formulas, union_sig))
        assert strong_equivalence_probe(t1, t2, Theory(())) == expected


class TestNegationShortcut:
    """An implication whose consequent is never true "there" compiles to
    ~F.there for both of its tables; these consequents are unsatisfiable
    without being bot."""

    @pytest.mark.parametrize("text", ["a -> b & ~b", "(a | b) -> ~c & c", "a -> ~(b | ~b)"])
    def test_tables_match_the_reference(self, text):
        f = parse(text)
        sig = atoms_of(f)
        space = semantics._space(sig)
        here, there = semantics._tables(f, space)
        for m in enumerate_interpretations(sig):
            bit = space.position(m)
            assert here >> bit & 1 == ref.sat_ht(m.here, m.there, f)
            assert there >> bit & 1 == ref.sat_classical(m.there, f)
        t = single(f)
        assert [(m.here, m.there) for m in ht_models(t)] == ref.models(t)
        assert [(m.here, m.there) for m in ht_countermodels(t)] == ref.countermodels(t)
        assert list(equilibrium_models(t)) == ref.equilibrium_models(t)


class TestHtValid:
    def test_constants(self):
        assert ht_valid(TOP)
        assert not ht_valid(BOT)

    def test_respects_cap(self):
        f = parse("a & b & c & d")
        with pytest.raises(CapExceededError):
            ht_valid(f, cap=3)


class TestSharedSpace:
    """Calls over one signature share its space and its decoded members."""

    @pytest.mark.parametrize("call", [
        ht_models,
        ht_countermodels,
        equilibrium_models,
        lambda t, cap: ht_equivalent(t, t, cap),
        lambda t, cap: theory_to_program_cm(t, cap=cap),
        theory_to_dnf,
    ])
    def test_cap_holds_on_a_cache_hit(self, call):
        t = single(parse("p & q -> r"))
        assert len(ht_models(t)) == 22  # the space over {p, q, r} is now kept
        with pytest.raises(CapExceededError) as err:
            call(t, cap=2)
        assert (err.value.cap, err.value.needed) == (2, 3)

    def test_alternating_signatures_give_the_reference_listings(self):
        for extra in ("b", "c", "b"):  # over {a, b}, {a, c}, {a, b}
            t = Theory((parse("~~a -> a"),), Signature(["a", extra]))
            assert [(m.here, m.there) for m in ht_models(t)] == ref.models(t)
            assert [(m.here, m.there) for m in ht_countermodels(t)] == ref.countermodels(t)
            assert list(equilibrium_models(t)) == ref.equilibrium_models(t)
            partner = Theory((parse(f"~a -> {extra}"),), t.signature)
            witness = ht_equivalent(t, partner).witness
            assert (witness.here, witness.there) == ref.equivalence_witness(t, partner)

    def test_members_are_shared_between_calls(self):
        t = single(parse("(q -> p) | r"))
        first, second = ht_models(t), ht_models(t)
        assert len(first) == 21 and all(m is n for m, n in zip(first, second))
        rebuilt = InterpretationSet(
            [HtInterpretation(m.here, m.there, t.signature) for m in first])
        assert all(m is n for m, n in zip(first, rebuilt))

    def test_per_formula_translation_keeps_the_theory_table(self, monkeypatch):
        # Each formula has fewer atoms than the theory, so its sub-space is
        # another size and leaves the theory's space and table in place.
        t = parse_theory("p -> q\nr\n~q -> r\n")
        compiled = []
        original = semantics._Space.theory
        monkeypatch.setattr(
            semantics._Space, "theory",
            lambda space, u: compiled.append(u) or original(space, u),
        )
        theory_to_program_cm(t)
        theory_to_program_cm(t, "per_formula")
        theory_to_dnf(t)
        assert sum(u is t for u in compiled) == 1
        assert len(compiled) == 4  # t, then its three formulas

    def test_witness_decodes_one_member(self):
        t = parse_theory("p -> q\nq -> r\nr -> p\n")
        partner = parse_theory("~q -> ~p\n~r -> ~q\n~p -> ~r\n")
        semantics._spaces.pop(len(t.signature), None)
        gc.collect()  # no cyclic garbage left to free members while counting
        before = sum(type(o) is HtInterpretation for o in gc.get_objects())
        witness = ht_equivalent(t, partner).witness
        after = sum(type(o) is HtInterpretation for o in gc.get_objects())
        assert after - before == 1
        assert (witness.here, witness.there) == ref.equivalence_witness(t, partner)
        space = semantics._space(t.signature)
        assert [m for column in space.columns.values() for m in column[3] if m] == [witness]
