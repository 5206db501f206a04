"""The countermodel-to-rule construction and its exactness."""

import gc
import inspect
import random

import pytest

from htlp import (
    CapExceededError,
    HtInterpretation,
    InterpretationSet,
    NotTotalClosedError,
    Program,
    Rule,
    Signature,
    Theory,
    atoms_of,
    build_rule,
    ht_countermodels,
    ht_equivalent,
    ht_models,
    is_nonnested_rule,
    parse,
    parse_theory,
    program_from_set,
    rule_to_text,
    theory_to_dnf,
    theory_to_dnf_clauses,
    theory_to_program_cm,
)
import ht_reference as ref
from htlp import countermodels, semantics
from api_reference import enumerate_interpretations
from conftest import single

PQR = Signature(["p", "q", "r"])


def interp(here, there, sig=PQR):
    return HtInterpretation(frozenset(here), frozenset(there), sig)


class TestBuildRule:
    def test_partial_interpretation(self):
        built = build_rule(interp({"q"}, {"p", "q"}))
        assert rule_to_text(built.rule) == "q & ~r -> p | ~p"

    def test_total_interpretation_is_constraint(self):
        built = build_rule(interp({"q"}, {"q"}))
        assert rule_to_text(built.rule) == "q & ~p & ~r -> bot"

    def test_empty_here_full_there(self):
        built = build_rule(interp(set(), {"p", "q", "r"}))
        assert rule_to_text(built.rule) == "p | ~p | q | ~q | r | ~r"

    def test_always_nonnested(self):
        for m in enumerate_interpretations(PQR):
            assert is_nonnested_rule(build_rule(m).rule.to_formula())


class TestBodyCharacterization:
    def test_body_satisfied_iff_sandwiched(self):
        space = list(enumerate_interpretations(PQR))
        for m in space:
            body = build_rule(m).rule.body
            for other in space:
                expected = (
                    m.here <= other.here
                    and other.here <= other.there
                    and other.there <= m.there
                )
                assert ref.sat_ht(other.here, other.there, body) == expected


class TestCountermodelCharacterization:
    def test_unique_countermodel_when_partial(self):
        space = list(enumerate_interpretations(PQR))
        for m in space:
            rule_formula = build_rule(m).rule.to_formula()
            countermodels = {
                (other.here, other.there)
                for other in space
                if not ref.sat_ht(other.here, other.there, rule_formula)
            }
            if m.total():
                expected = {
                    (other.here, other.there)
                    for other in space
                    if other.there == m.there
                }
            else:
                expected = {(m.here, m.there)}
            assert countermodels == expected


class TestProgramFromSet:
    def test_golden_six_rules(self):
        t = single(parse("(q -> p) | r"))
        program = program_from_set(ht_countermodels(t))
        assert [rule_to_text(r) for r in program] == [
            "~p & ~r -> q | ~q",
            "q & ~p & ~r -> bot",
            "q & ~r -> p | ~p",
            "~p -> q | ~q | r | ~r",
            "q & ~p -> r | ~r",
            "q -> p | ~p | r | ~r",
        ]

    def test_empty_set(self):
        program = program_from_set(InterpretationSet((), PQR))
        assert len(program) == 0
        assert program.signature == PQR

    def test_full_set_has_no_models(self):
        sig = Signature(["p"])
        everything = enumerate_interpretations(sig)
        program = program_from_set(everything)
        assert len(ht_models(program.to_theory())) == 0

    def test_rejects_non_total_closed(self):
        sig = Signature(["a"])
        bad = InterpretationSet(
            (HtInterpretation({"a"}, {"a"}, sig),), sig
        )
        with pytest.raises(NotTotalClosedError) as err:
            program_from_set(bad)
        assert err.value.total_member.display() == "a | a"
        assert err.value.missing.display() == "∅ | a"

    def test_exactness_on_random_total_closed_sets(self):
        rng = random.Random(424242)
        space = list(enumerate_interpretations(PQR))
        for _ in range(50):
            chosen = {m for m in space if rng.random() < 0.3}
            # repair closure: a total member drags in its whole column
            for m in list(chosen):
                if m.total():
                    chosen.update(o for o in space if o.there == m.there)
            s = InterpretationSet(tuple(chosen), PQR)
            assert s.total_closure_violation() is None
            program = program_from_set(s)
            assert ht_countermodels(program.to_theory()) == s


class TestTheoryToProgram:
    def test_whole_mode_formula2(self):
        t = single(parse("(q -> p) | r"))
        program = theory_to_program_cm(t)
        assert len(program) == 6
        assert ht_equivalent(t, program.to_theory()).equivalent

    def test_empty_theory(self):
        t = Theory((), Signature(["p"]))
        assert len(theory_to_program_cm(t, "whole")) == 0
        assert len(theory_to_program_cm(t, "per_formula")) == 0

    def test_nested_implication_formula(self):
        t = single(parse("p -> (r -> q)"))
        program = theory_to_program_cm(t)
        assert program.is_nonnested()
        assert ht_equivalent(t, program.to_theory()).equivalent

    def test_per_formula_mode_equivalent_over_union(self):
        t = parse_theory("p -> q\nr\n~q -> r\n")
        whole = theory_to_program_cm(t, "whole")
        per_formula = theory_to_program_cm(t, "per_formula")
        assert ht_equivalent(t, per_formula.to_theory()).equivalent
        assert ht_equivalent(
            whole.to_theory(), per_formula.to_theory()
        ).equivalent
        # per-formula rules stay local to each formula's own atoms
        formula_atom_sets = [set(atoms_of(f)) for f in t.formulas]
        for rule in per_formula:
            rule_atoms = set(atoms_of(rule.to_formula()))
            assert any(rule_atoms <= atom_set for atom_set in formula_atom_sets)

    def test_every_table_gets_the_closure_check(self, monkeypatch):
        checked = []
        original = semantics._Space.closure_violation
        monkeypatch.setattr(
            semantics._Space, "closure_violation",
            lambda space, table: checked.append(table) or original(space, table),
        )
        theory = parse_theory("p -> q\nq | ~r\n")
        theory_to_program_cm(theory)
        assert len(checked) == 1
        theory_to_program_cm(theory, "per_formula")
        assert len(checked) == 3
        program_from_set(ht_countermodels(theory))
        assert len(checked) == 4

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            theory_to_program_cm(single(parse("p")), "sideways")

    def test_end_to_end_depth2(self, corpus_depth2):
        for f in corpus_depth2:
            t = single(f)
            program = theory_to_program_cm(t)
            assert program.is_nonnested()
            assert ht_equivalent(t, program.to_theory()).equivalent


PAPER = single(parse("(q -> p) | r"))
PAPER_PROGRAM = theory_to_program_cm(PAPER)

# Each builder that pauses the collector, called on the paper's example.
PAUSED_CALLS = {
    "theory_to_program_cm": lambda: theory_to_program_cm(PAPER),
    "theory_to_program_cm per_formula": lambda: theory_to_program_cm(PAPER, "per_formula"),
    "program_from_set": lambda: program_from_set(ht_countermodels(PAPER)),
    "theory_to_dnf": lambda: theory_to_dnf(PAPER),
    "theory_to_dnf_clauses": lambda: theory_to_dnf_clauses(PAPER),
}

NOT_TOTAL_CLOSED = InterpretationSet(
    (HtInterpretation({"a"}, {"a"}, Signature(["a"])),), Signature(["a"])
)

# Each error a paused builder raises from inside the pause.
PAUSED_ERRORS = {
    "cap": (CapExceededError, lambda: theory_to_dnf(PAPER, cap=2)),
    "mode": (ValueError, lambda: theory_to_program_cm(PAPER, "bogus")),
    "closure": (NotTotalClosedError, lambda: program_from_set(NOT_TOTAL_CLOSED)),
}


class TestCollectorPaused:
    """The model-based builders and Program.to_theory grow their outputs
    with the cyclic collector off, and leave it as they found it."""

    def _recording(self, monkeypatch, owner, name):
        seen, original = [], getattr(owner, name)

        def recording(*args):
            seen.append(gc.isenabled())
            return original(*args)

        monkeypatch.setattr(owner, name, recording)
        return seen

    @pytest.mark.parametrize("call", PAUSED_CALLS)
    def test_builders_run_with_the_collector_off(self, monkeypatch, call):
        seen = self._recording(monkeypatch, countermodels, "_build")
        assert gc.isenabled()
        PAUSED_CALLS[call]()
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_to_theory_runs_with_the_collector_off(self, monkeypatch):
        seen = self._recording(monkeypatch, Rule, "to_formula")
        assert gc.isenabled()
        assert len(PAPER_PROGRAM.to_theory().formulas) == len(PAPER_PROGRAM) == len(seen)
        assert not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("error", PAUSED_ERRORS)
    def test_an_error_leaves_the_collector_as_found(self, error, enabled):
        kind, call = PAUSED_ERRORS[error]
        if not enabled:
            gc.disable()
        try:
            with pytest.raises(kind):
                call()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("call", [*PAUSED_CALLS.values(), PAPER_PROGRAM.to_theory],
                             ids=[*PAUSED_CALLS, "to_theory"])
    def test_a_disabled_collector_stays_disabled(self, call):
        gc.disable()
        try:
            call()
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("builder", [
        theory_to_program_cm, program_from_set, theory_to_dnf,
        theory_to_dnf_clauses, Program.to_theory,
    ])
    def test_the_wrapper_keeps_name_doc_and_signature(self, builder):
        build = builder.__wrapped__
        assert builder.__name__ == build.__name__
        assert builder.__doc__ == build.__doc__
        assert inspect.signature(builder) == inspect.signature(build)
