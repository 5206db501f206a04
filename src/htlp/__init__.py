"""Here-and-there logic toolkit.

Parse propositional theories, enumerate their models and countermodels
in the logic of here-and-there, compute equilibrium models (answer
sets), decide strong equivalence, translate arbitrary theories into
strongly equivalent logic programs by two independent constructions, and
count programs modulo strong equivalence.
"""

from types import ModuleType as _ModuleType

from .formula import (
    BOT,
    TOP,
    And,
    Atom,
    Bottom,
    Formula,
    Implies,
    Or,
    Program,
    Rule,
    Signature,
    Theory,
    atoms_of,
    conj,
    disj,
    iff,
    is_literal,
    is_nested_expression,
    is_nonnested_rule,
    is_rule,
    neg,
    program_to_text,
    rule_to_text,
    to_text,
)
from .parser import ParseError, parse, parse_theory
from .semantics import (
    DEFAULT_CAP,
    CapExceededError,
    EquivalenceResult,
    HtInterpretation,
    InterpretationSet,
    equilibrium_models,
    format_atom_set,
    ht_countermodels,
    ht_equivalent,
    ht_models,
    ht_valid,
)
from .countermodels import (
    CountermodelRule,
    DnfClause,
    NotTotalClosedError,
    build_clause,
    build_rule,
    program_from_set,
    theory_to_dnf,
    theory_to_dnf_clauses,
    theory_to_program_cm,
)
from .rewriting import (
    RewriteTrace,
    RuleBudgetExceededError,
    TraceStep,
    eliminate_connectives,
    estimated_rule_count,
    formula_to_program_syn,
    simplify,
    theory_to_program_syn,
)
from .counting import CountBoundExceededError, ProgramCount, count_formula

__version__ = "0.1.0"

# The imports above are the export list: every public name but the modules.
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
