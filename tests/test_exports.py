"""htlp's export list: computed once, complete, and still serving perfbench."""

import importlib.util
import inspect
import types
from pathlib import Path

import htlp

REMOVED = {
    "load_theory",
    "lemma1_rewrite",
    "implication_of_programs",
    "strong_equivalence_probe",
    "enumerate_interpretations",
    "sat_ht",
    "sat_classical",
    "SignatureMismatchError",
}


def perfbench_span_functions() -> set:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return set(spans.SPAN_OF)


def test_no_duplicates():
    assert len(htlp.__all__) == len(set(htlp.__all__))


def test_exports_are_the_public_non_module_attributes():
    public = {
        name for name, value in vars(htlp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(htlp.__all__) == public


def test_every_export_comes_from_a_submodule():
    # A helper imported to compute __all__ must not leak into it.
    submodules = [m for m in vars(htlp).values() if isinstance(m, types.ModuleType)]
    for name in htlp.__all__:
        value = getattr(htlp, name)
        assert any(getattr(m, name, None) is value for m in submodules), name


def test_test_only_and_dead_names_are_gone():
    assert REMOVED.isdisjoint(htlp.__all__)
    assert not any(hasattr(htlp, name) for name in REMOVED)


def test_test_only_methods_are_gone():
    assert not hasattr(htlp.Theory, "with_signature")
    assert not hasattr(htlp.InterpretationSet, "is_total_closed")


def test_one_printer_style():
    assert list(inspect.signature(htlp.to_text).parameters) == ["f"]


def test_names_the_benchmark_calls_are_exported():
    # perfbench's worker skips a missing name silently, so a trimmed export
    # would otherwise surface only as a crashed benchmark op.
    called = perfbench_span_functions() - {"factor_table", "to_theory"}
    called |= {"Theory", "Program", "atoms_of", "disj", "build_clause", "BOT"}
    assert called <= set(htlp.__all__)
