"""The model-based disjunctive normal form."""

from htlp import (
    BOT,
    TOP,
    And,
    Atom,
    HtInterpretation,
    Implies,
    Or,
    Signature,
    Theory,
    build_clause,
    ht_equivalent,
    is_literal,
    neg,
    parse,
    theory_to_dnf,
    theory_to_dnf_clauses,
    to_text,
)
import ht_reference as ref
from api_reference import enumerate_interpretations
from conftest import single

PQR = Signature(["p", "q", "r"])


def interp(here, there, sig=PQR):
    return HtInterpretation(frozenset(here), frozenset(there), sig)


class TestBuildClause:
    def test_partial_interpretation(self):
        clause = build_clause(interp({"q"}, {"p", "q"})).clause
        assert to_text(clause) == "q & ~r & ~~p & (p -> p)"

    def test_total_interpretation(self):
        clause = build_clause(interp({"p"}, {"p"})).clause
        assert to_text(clause) == "p & ~q & ~r"

    def test_empty_over_one_atom(self):
        clause = build_clause(interp(set(), set(), Signature(["p"]))).clause
        assert clause == neg(Atom("p"))

    def test_full_total_is_plain_conjunction(self):
        clause = build_clause(
            interp({"p", "q", "r"}, {"p", "q", "r"})
        ).clause
        assert to_text(clause) == "p & q & r"

    def test_empty_signature_gives_top(self):
        clause = build_clause(
            HtInterpretation(frozenset(), frozenset(), Signature())
        ).clause
        assert clause == TOP

    def test_restricted_shape(self):
        def conjuncts(f):
            if isinstance(f, And):
                return conjuncts(f.left) + conjuncts(f.right)
            return [f]

        def is_allowed(part):
            if is_literal(part):
                return True
            # double negation of an atom
            if (
                isinstance(part, Implies)
                and part.consequent == BOT
                and is_literal(part.antecedent)
            ):
                return True
            # implication between two atoms
            return (
                isinstance(part, Implies)
                and isinstance(part.antecedent, Atom)
                and isinstance(part.consequent, Atom)
            )

        for m in enumerate_interpretations(PQR):
            clause = build_clause(m).clause
            if clause == TOP:
                continue
            for part in conjuncts(clause):
                assert is_allowed(part)
                assert not isinstance(part, Or)


class TestClauseModels:
    def test_exactly_source_and_total_twin(self):
        space = list(enumerate_interpretations(PQR))
        for m in space:
            clause = build_clause(m).clause
            models = {
                (o.here, o.there)
                for o in space
                if ref.sat_ht(o.here, o.there, clause)
            }
            assert models == {(m.here, m.there), (m.there, m.there)}


class TestTheoryToDnf:
    def test_formula2_has_21_clauses(self):
        t = single(parse("(q -> p) | r"))
        clauses = theory_to_dnf_clauses(t)
        assert len(clauses) == 21
        assert to_text(clauses[0].clause) == "~p & ~q & ~r"

    def test_formula2_contains_the_displayed_clauses(self):
        t = single(parse("(q -> p) | r"))
        texts = [to_text(c.clause) for c in theory_to_dnf_clauses(t)]
        # sources in canonical order; the five spelled-out clauses land at
        # the positions of their models
        assert texts[0] == "~p & ~q & ~r"
        assert texts[1] == "~q & ~r & ~~p & (p -> p)"
        assert texts[2] == "p & ~q & ~r"
        assert texts[3] == (
            "~r & ~~p & ~~q & (p -> p) & (p -> q) & (q -> p) & (q -> q)"
        )
        assert texts[6] == "~p & ~q & ~~r & (r -> r)"

    def test_unsatisfiable_theory_gives_bot(self):
        assert theory_to_dnf(single(BOT)) == BOT

    def test_single_fact(self):
        assert theory_to_dnf(single(Atom("p"))) == Atom("p")

    def test_equivalence_depth2(self, corpus_depth2):
        for f in corpus_depth2:
            t = single(f, "a", "b")
            dnf = theory_to_dnf(t)
            assert ht_equivalent(t, Theory((dnf,), t.signature)).equivalent

    def test_empty_theory_over_empty_signature(self):
        t = Theory(())
        assert theory_to_dnf(t) == TOP
