"""Differential property tests: the table evaluator against the reference.

Random theories over at most five atoms; every answer of htlp's
semantics must equal the one-interpretation-at-a-time reference in
ht_reference.py, listings in the same order.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import countermodel_reference
import formula_reference
import ht_reference as ref
import parser_reference
import rewriting_reference
from htlp import (
    BOT,
    TOP,
    And,
    Atom,
    Bottom,
    HtInterpretation,
    Implies,
    InterpretationSet,
    NotTotalClosedError,
    Or,
    ParseError,
    Program,
    Rule,
    RuleBudgetExceededError,
    Signature,
    Theory,
    atoms_of,
    build_clause,
    build_rule,
    conj,
    disj,
    equilibrium_models,
    estimated_rule_count,
    is_nested_expression,
    is_nonnested_rule,
    formula_to_program_syn,
    ht_countermodels,
    ht_equivalent,
    ht_models,
    ht_valid,
    iff,
    neg,
    parse,
    program_from_set,
    program_to_text,
    rule_to_text,
    simplify,
    theory_to_dnf,
    theory_to_dnf_clauses,
    theory_to_program_cm,
    theory_to_program_syn,
    to_text,
)
from htlp import semantics
from htlp.formula import _is_top, _names, _postorder
from htlp.rewriting import (
    RewriteTrace,
    _Run,
    _disjunction,
    _encoded_disjunction,
    _flatten_and,
    _flatten_or,
    _normalize,
    _rule_disjunction,
    eliminate_connectives,
)
from api_reference import enumerate_interpretations

ATOMS = ("a", "b", "c", "d", "e")

# The same examples on every run, and nothing written to disk.
fixed = settings(derandomize=True, database=None, deadline=None)


def trees(leaves):
    """Trees of &, | and -> over the leaves."""
    return st.recursive(
        leaves,
        lambda sub: st.builds(And, sub, sub) | st.builds(Or, sub, sub)
        | st.builds(Implies, sub, sub),
        max_leaves=10,
    )


formula_leaves = st.just(BOT) | st.sampled_from(ATOMS).map(Atom)
formulas = trees(formula_leaves)
# Non-formulas, as a caller could pass by mistake.  The node constructors
# refuse them as children, so only a top-level value can be one.
malformed = st.sampled_from((None, 0, "a"))


def nested_trees(leaves):
    """Nested expressions over the leaves: every implication a negation.

    These are the rule sides that the simplifier normalizes.
    """
    return st.recursive(
        leaves,
        lambda sub: st.builds(neg, sub) | st.builds(And, sub, sub)
        | st.builds(Or, sub, sub),
        max_leaves=10,
    )


nested = nested_trees(formula_leaves)


def raw_size_at_most(bound):
    """Formulas whose literal syntactic translation has at most bound rules."""
    return formulas.filter(lambda f: estimated_rule_count(f) <= bound)


def connectives(f) -> int:
    """The number of &, | and -> nodes in f."""
    if isinstance(f, (And, Or)):
        return 1 + connectives(f.left) + connectives(f.right)
    if isinstance(f, Implies):
        return 1 + connectives(f.antecedent) + connectives(f.consequent)
    return 0


@st.composite
def theories(draw, max_formulas=3, formula=formulas):
    """At least one formula, each with an atom and at least two connectives."""
    nontrivial = formula.filter(lambda f: connectives(f) >= 2 and len(atoms_of(f)) > 0)
    fs = tuple(draw(st.lists(nontrivial, min_size=1, max_size=max_formulas)))
    extra = draw(st.sets(st.sampled_from(ATOMS), max_size=2))
    occurring = Signature(a for f in fs for a in atoms_of(f))
    return Theory(fs, occurring | Signature(extra))


def pairs(s: InterpretationSet) -> list:
    return [(m.here, m.there) for m in s]


def program_models(program, sig: Signature) -> list:
    return ref.models(Theory(program.to_theory().formulas, sig))


@fixed
@given(theories())
def test_model_listings(t):
    assert pairs(ht_models(t)) == ref.models(t)
    assert pairs(ht_countermodels(t)) == ref.countermodels(t)


@fixed
@given(formulas)
def test_model_listings_over_alternating_signatures(f):
    # One space is kept, for the last signature: widening f's signature by
    # f, then by g, then by f again swaps it out and back in.
    for extra in ("f", "g", "f"):
        t = Theory((f,), atoms_of(f) | Signature([extra]))
        assert pairs(ht_models(t)) == ref.models(t)
        assert pairs(ht_countermodels(t)) == ref.countermodels(t)


@fixed
@given(theories())
def test_equilibrium_models(t):
    assert list(equilibrium_models(t)) == ref.equilibrium_models(t)


@fixed
@given(formulas)
def test_validity(f):
    assert ht_valid(f) == ref.valid(f, atoms_of(f))


@fixed
@given(theories(), theories())
def test_equivalence_verdict_and_witness(t1, t2):
    outcome = ht_equivalent(t1, t2)
    witness = ref.equivalence_witness(t1, t2)
    assert outcome.equivalent == (witness is None)
    if witness is not None:
        assert (outcome.witness.here, outcome.witness.there) == witness


@fixed
@given(theories(max_formulas=1), st.data())
def test_equivalence_with_a_near_copy(t, data):
    # A random partner rarely agrees with t; a weakened copy often does,
    # and then differs late in canonical order or not at all.
    weakened = Theory(tuple(Or(f, data.draw(formulas)) for f in t.formulas))
    outcome = ht_equivalent(t, weakened)
    witness = ref.equivalence_witness(t, weakened)
    assert outcome.equivalent == (witness is None)
    if witness is not None:
        assert (outcome.witness.here, outcome.witness.there) == witness


COMPILING_CALLS = ("models", "countermodels", "equilibrium", "equivalent", "rebuild")


def renamed(f):
    """f with each atom a replaced by a2."""
    if type(f) is Atom:
        return Atom(f.name + "2")
    return f if f is BOT else type(f)(renamed(f.left), renamed(f.right))


@fixed
@given(st.lists(theories(), min_size=2, max_size=3), st.data())
def test_compiled_tables_are_never_stale(pool, data):
    # Each space keeps the table of the last theory compiled over it, and
    # one space is kept per signature size: pool[0] renamed has another
    # signature of the same size, so the two evict each other's space.
    # ht_equivalent compiles over the union; an equal but distinct copy is
    # another key, and a rebuilt theory may take a dropped one's address.
    sig = pool[0].signature
    pool.append(Theory(pool[0].formulas, sig))
    pool.append(Theory(map(renamed, pool[0].formulas), Signature(a + "2" for a in sig)))
    index = st.sampled_from(range(len(pool)))
    calls = st.tuples(st.sampled_from(COMPILING_CALLS), index, index)
    for call, i, j in data.draw(st.lists(calls, min_size=4, max_size=12)):
        t, u = pool[i], pool[j]
        if call == "models":
            assert pairs(ht_models(t)) == ref.models(t)
        elif call == "countermodels":
            assert pairs(ht_countermodels(t)) == ref.countermodels(t)
        elif call == "equilibrium":
            assert list(equilibrium_models(t)) == ref.equilibrium_models(t)
        elif call == "equivalent":
            outcome, witness = ht_equivalent(t, u), ref.equivalence_witness(t, u)
            assert outcome.equivalent == (witness is None)
            if witness is not None:
                assert (outcome.witness.here, outcome.witness.there) == witness
        else:
            sig, leaves = t.signature, st.sampled_from(t.signature.atoms).map(Atom)
            fs = tuple(data.draw(st.lists(trees(leaves), min_size=1, max_size=2)))
            t = u = pool[i] = None
            pool[i] = Theory(fs, sig)


@fixed
@given(theories())
def test_decoded_members_equal_their_checked_twins(t):
    decoded = list(ht_models(t)) + list(ht_countermodels(t))
    twins = [HtInterpretation(set(m.here), set(m.there), t.signature) for m in decoded]
    for m, twin in zip(decoded, twins):
        assert m == twin and hash(m) == hash(twin)
    position = {twin: i for i, twin in enumerate(twins)}
    assert [position[m] for m in decoded] == list(range(len(decoded)))


def masks(sig: Signature, listing: list) -> list:
    """The reference's (X, Y) pairs as the (x, y) bit masks of sig's atoms."""
    bit = {name: 1 << i for i, name in enumerate(sig)}
    return [(sum(bit[a] for a in x), sum(bit[a] for a in y)) for x, y in listing]


@fixed
@given(theories(), st.data())
def test_column_selectors_list_in_canonical_order(t, data):
    # A column's selector is built on its first listing and kept; its
    # slots fill as members are decoded.  (∅, ∅), alone in column 0, is a
    # model or a countermodel, so every round lists the one-position column.
    sig, expected = t.signature, (ref.models(t), ref.countermodels(t))

    def listings_match():
        assert (pairs(ht_models(t)), pairs(ht_countermodels(t))) == expected
        space = semantics._space(sig)
        table = space.compiled(t)
        listed = [list(space.pairs(table)), list(space.pairs(space.full ^ table))]
        assert listed == [masks(sig, e) for e in expected]

    semantics._spaces.pop(len(sig), None)
    listings_match()  # cold: every column is built by the listing
    listings_match()  # warm: the selectors and the decoded members are kept

    # A witness, or a drawn column's first member, decodes one member and
    # leaves the rest of its column empty for the listings to fill.
    semantics._spaces.pop(len(sig), None)
    witnesses = [ht_equivalent(t, Theory((), sig)).witness,  # t's first countermodel
                 ht_equivalent(t, Theory((BOT,), sig)).witness]  # t's first model
    space = semantics._space(sig)
    table = space.compiled(t)
    y = data.draw(st.sampled_from(range(1 << len(sig))), label="column")
    for part in (table, space.full ^ table):
        if space.project(part) >> 2 * space.offset[y] & 1:
            space.member(part, 1 << 2 * space.offset[y])
    filled = sum(m is not None for column in space.columns.values() for m in column[3])
    assert filled <= 4  # the two witnesses and at most two drawn members
    listings_match()
    listed = list(ht_countermodels(t)) + list(ht_models(t))
    assert all(any(w is m for m in listed) for w in witnesses if w is not None)


@fixed
@given(st.data())
def test_interpretation_set_membership_reads_the_table(data):
    sig, members = data.draw(interpretation_sets())
    s = InterpretationSet(tuple(members), sig)
    other = Signature(sig.atoms + ("z",))
    for m in enumerate_interpretations(sig):
        assert (m in s) == any(m == n for n in s.members)
    for m in enumerate_interpretations(other):
        assert m not in s and not any(m == n for n in s.members)
    for item in (None, 0, "a", (frozenset(), frozenset()), sig, s):
        assert item not in s and not any(item == n for n in s.members)


@st.composite
def interpretation_sets(draw):
    sig = Signature(draw(st.sets(st.sampled_from(ATOMS), max_size=4)))
    space = list(enumerate_interpretations(sig))
    members = draw(st.lists(st.sampled_from(space), max_size=len(space)))
    return sig, members


@fixed
@given(interpretation_sets())
def test_total_closure_violation(drawn):
    sig, members = drawn
    s = InterpretationSet(tuple(members), sig)
    drawn_pairs = {(m.here, m.there) for m in members}
    expected_members = [p for p in ref.interpretations(sig) if p in drawn_pairs]
    assert pairs(s) == expected_members
    violation = s.total_closure_violation()
    expected = ref.closure_violation(expected_members, sig)
    if expected is None:
        assert violation is None
    else:
        total, missing = violation
        assert ((total.here, total.there), (missing.here, missing.there)) == expected


@fixed
@given(theories())
def test_countermodel_program_has_one_rule_per_countermodel(t):
    countermodels = ht_countermodels(t)
    program = program_from_set(countermodels)
    assert len(program) == len(set(program.rules)) == len(countermodels)
    assert ht_countermodels(program.to_theory()) == countermodels


@fixed
@given(theories())
def test_dnf_has_one_distinct_clause_per_model(t):
    clauses = theory_to_dnf_clauses(t)
    assert [c.source for c in clauses] == list(ht_models(t))
    assert len({c.clause for c in clauses}) == len(clauses)
    assert ht_equivalent(t, Theory((theory_to_dnf(t),), t.signature)).equivalent


SIX_ATOMS = ("a", "b", "c", "d", "e", "f")


@st.composite
def interpretations(draw):
    """(X, Y) over 0-6 atoms; totals, empty here-sets and all-undefined pairs often."""
    sig = Signature(draw(st.sets(st.sampled_from(SIX_ATOMS), max_size=6)))
    there = draw(st.sets(st.sampled_from(sig.atoms))) if len(sig) else set()
    shape = draw(st.sampled_from(("any", "total", "empty here", "all undefined")))
    if shape == "total":
        here = there
    elif shape == "empty here":
        here = set()
    elif shape == "all undefined":
        here, there = set(), sig.names
    else:
        here = draw(st.sets(st.sampled_from(sorted(there)))) if there else set()
    return HtInterpretation(here, there, sig)


SIX = Signature(SIX_ATOMS)


@fixed
@given(interpretations())
@example(HtInterpretation((), (), Signature()))
@example(HtInterpretation((), (), SIX))
@example(HtInterpretation((), SIX_ATOMS, SIX))
@example(HtInterpretation(SIX_ATOMS, SIX_ATOMS, SIX))
@example(HtInterpretation(("b", "e"), ("b", "e"), SIX))
@example(HtInterpretation(("c",), ("a", "c", "f"), SIX))
def test_builders_equal_the_reference(m):
    # Node for node: == compares the exact node kinds, field by field.
    built, expected = build_rule(m), countermodel_reference.build_rule(m)
    assert built == expected and built.source is m
    assert rule_to_text(built.rule) == rule_to_text(expected.rule)
    bits = built.rule.body._bits | built.rule.head._bits
    assert bits == expected.rule.body._bits | expected.rule.head._bits
    assert _names(bits) == m.over.names
    built, expected = build_clause(m), countermodel_reference.build_clause(m)
    assert built == expected and built.source is m
    assert to_text(built.clause) == to_text(expected.clause)


@fixed
@given(theories())
def test_programs_equal_the_reference_rules(t):
    countermodels = ht_countermodels(t)
    program = program_from_set(countermodels)
    rules = (countermodel_reference.build_rule(m).rule for m in countermodels)
    expected = Program(tuple(rules), t.signature)
    assert program == expected
    assert program_to_text(program) == program_to_text(expected)
    assert program.to_theory() == expected.to_theory()


def reference_program(t: Theory) -> Program:
    """The countermodel rules of t over its signature, from the reference listing."""
    rules = (
        countermodel_reference.build_rule(HtInterpretation(x, y, t.signature)).rule
        for x, y in ref.countermodels(t)
    )
    return Program(tuple(rules), t.signature)


@fixed
@given(theories())
@example(Theory(()))
@example(Theory((), Signature(("a", "b"))))
@example(Theory((BOT,)))
@example(Theory((BOT,), Signature(("a", "c"))))
@example(Theory((Or(Atom("a"), neg(Atom("a"))),), Signature(("a", "b", "e"))))
def test_translations_equal_the_reference(t):
    # Node for node, and in text: == compares the exact node kinds, field by field.
    whole, expected = theory_to_program_cm(t), reference_program(t)
    assert whole == expected
    assert program_to_text(whole) == program_to_text(expected)
    per_formula = theory_to_program_cm(t, "per_formula")
    rules: dict = {}
    for f in t.formulas:
        rules.update(dict.fromkeys(reference_program(Theory((f,)))))
    expected = Program(tuple(rules), t.signature)
    assert per_formula == expected
    assert program_to_text(per_formula) == program_to_text(expected)
    models = [HtInterpretation(x, y, t.signature) for x, y in ref.models(t)]
    expected_clauses = [countermodel_reference.build_clause(m) for m in models]
    clauses = theory_to_dnf_clauses(t)
    assert list(clauses) == expected_clauses
    assert [c.source for c in clauses] == models
    assert [to_text(c.clause) for c in clauses] == [to_text(c.clause) for c in expected_clauses]
    dnf, expected = theory_to_dnf(t), disj(c.clause for c in expected_clauses)
    assert dnf == expected and to_text(dnf) == to_text(expected)


def spine_nodes(f) -> list:
    """The & nodes down the left spine of f."""
    nodes = []
    while type(f) is And:
        nodes.append(f)
        f = f.left
    return nodes


EVERY_INTERPRETATION = Theory((BOT,), Signature(("a", "b", "c", "d")))


def test_bodies_of_one_call_share_their_prefixes():
    program = theory_to_program_cm(EVERY_INTERPRETATION)
    by_text = {rule_to_text(r): r for r in program}
    longer = by_text["a & ~c & ~d -> b | ~b"]
    shorter = by_text["a & ~c -> b | ~b | d | ~d"]
    assert longer.body.left is shorter.body
    bodies = [r.body for r in program]
    clauses = list(_disjuncts(theory_to_dnf(Theory((), EVERY_INTERPRETATION.signature))))
    for built in (bodies, clauses):
        seen: dict = {}
        for f in built:
            for node in spine_nodes(f):
                assert seen.setdefault(node, node) is node


def _disjuncts(f):
    while type(f) is Or:
        yield f.right
        f = f.left
    yield f


def test_separate_calls_share_no_spine_node():
    sig = EVERY_INTERPRETATION.signature
    builds = [
        lambda: [r.body for r in theory_to_program_cm(EVERY_INTERPRETATION)],
        lambda: list(_disjuncts(theory_to_dnf(Theory((), sig)))),
        lambda: [c.clause for c in theory_to_dnf_clauses(Theory((), sig))],
        lambda: [build_rule(HtInterpretation("a", "ab", sig)).rule.body],
        lambda: [build_clause(HtInterpretation("a", "ab", sig)).clause],
    ]
    for build in builds:
        first, second = build(), build()
        assert first == second
        kept = {id(node) for f in first for node in spine_nodes(f)}
        assert kept and not any(id(node) in kept for f in second for node in spine_nodes(f))


@fixed
@given(interpretation_sets())
def test_program_from_an_open_set_raises(drawn):
    sig, members = drawn
    s = InterpretationSet(tuple(members), sig)
    drawn_pairs = {(m.here, m.there) for m in members}
    expected = ref.closure_violation([p for p in ref.interpretations(sig) if p in drawn_pairs], sig)
    assume(expected is not None)
    (total_here, total_there), (here, there) = expected
    with pytest.raises(NotTotalClosedError) as err:
        program_from_set(s)
    total, missing = HtInterpretation(total_here, total_there, sig), HtInterpretation(here, there, sig)
    assert str(err.value) == f"set contains total ({total.display()}) but not ({missing.display()})"
    assert (err.value.total_member, err.value.missing) == (total, missing)


@fixed
@given(
    st.lists(st.tuples(nested, nested), max_size=4),
    st.sets(st.sampled_from(ATOMS), max_size=2),
)
def test_program_signature_from_the_rules(sides, extra):
    rules = tuple(Rule(body, head) for body, head in sides)
    occurring = atoms_of(*(side for pair in sides for side in pair))
    theory = Program(rules).to_theory()
    assert Program(rules).signature == theory.signature == occurring
    wide = occurring | Signature(extra)
    assert Program(rules, wide).to_theory() == Theory(theory.formulas, wide)
    if len(occurring):
        missing = occurring.atoms[0]
        narrow = Signature((occurring.names | extra) - {missing})
        with pytest.raises(ValueError, match=rf"missing occurring atoms: \['{missing}'\]$"):
            Program(rules, narrow)


@fixed
@given(raw_size_at_most(64))
def test_raw_syntactic_translation(f):
    program = formula_to_program_syn(f)
    assert len(program) == estimated_rule_count(f)
    expected = ref.models(Theory((f,)))
    assert program_models(program, atoms_of(f)) == expected
    assert program_models(simplify(program), atoms_of(f)) == expected


# A Lemma 1 rule with a disjunct dropped passed at 100 examples while
# theories() still drew mostly tiny formulas; it now fails at 100, and
# 300 keep a margin.
@settings(fixed, max_examples=300)
@given(theories(formula=raw_size_at_most(4096)))
def test_simplified_syntactic_translation(t):
    program = theory_to_program_syn(t, simplify=True)
    assert program_models(program, t.signature) == ref.models(t)


# Disjunctions nested in disjunctions: raw, each has more than 2^64 rules.
disjunctions = st.builds(Or, formulas, formulas)
nested_disjunctions = (
    st.builds(Or, disjunctions, formulas)
    | st.builds(Or, formulas, disjunctions)
    | st.builds(Implies, disjunctions, disjunctions)
)


@fixed
@given(theories(formula=nested_disjunctions))
def test_simplified_translation_of_nested_disjunctions(t):
    assert all(estimated_rule_count(f) > 4096 for f in t.formulas)
    try:
        program = theory_to_program_syn(t, simplify=True)
    except RuleBudgetExceededError:
        assume(False)
    assert program_models(program, t.signature) == ref.models(t)


@fixed
@given(formulas | nested_disjunctions)
def test_simplified_translation_of_an_eliminated_formula(f):
    # The benchmark's traced run stages the translation this way.
    try:
        direct = formula_to_program_syn(f, simplify=True)
    except RuleBudgetExceededError:
        assume(False)
    staged = formula_to_program_syn(eliminate_connectives(f), simplify=True)
    assert staged.rules == direct.rules
    assert staged.signature == direct.signature


def assert_normalized_sides(program):
    # Lemma 1 builds its sides with _and, _or and _not from the rules the
    # simplified path emits, instead of normalizing them again.
    for rule in program:
        for side in (rule.body, rule.head):
            assert _normalize(side, {}) == side


@fixed
@given(theories(formula=raw_size_at_most(4096)))
def test_simplified_translation_emits_normalized_sides(t):
    assert_normalized_sides(theory_to_program_syn(t, simplify=True))


@fixed
@given(raw_size_at_most(4096))
def test_simplify_of_a_raw_program_emits_normalized_sides(f):
    assert_normalized_sides(simplify(formula_to_program_syn(f)))


@fixed
@given(raw_size_at_most(256))
def test_memoized_normalize_matches_the_reference_on_raw_programs(f):
    # Raw Lemma 1 rules share their subtrees, and simplify() normalizes a
    # whole program with one memo.
    memo = {}
    for rule in formula_to_program_syn(f):
        for side in (rule.body, rule.head):
            assert _normalize(side, memo) == rewriting_reference.normalize(side)


# Atoms often, so that the identities' schemata themselves are drawn.
sides = st.sampled_from(ATOMS).map(Atom) | nested
bodies = st.just(TOP) | sides


def disjunction_models(rules1, rules2, rules):
    """The models of rules, and those of the disjunction of the two programs."""
    disjunction = Or(
        conj(r.to_formula() for r in rules1), conj(r.to_formula() for r in rules2)
    )
    sig = atoms_of(disjunction)
    return (
        program_models(Program(tuple(rules), sig), sig),
        ref.models(Theory((disjunction,), sig)),
    )


@fixed
@given(bodies, sides, bodies, sides)
@example(Atom("a"), Atom("b"), Atom("c"), Atom("d"))
@example(Atom("a"), Atom("b"), TOP, Atom("d"))
@example(TOP, Atom("b"), Atom("c"), Atom("d"))
def test_disjunction_of_two_rules(b, h, c, g):
    r, s = Rule(b, h), Rule(c, g)
    rules = _rule_disjunction(r, s)
    got, expected = disjunction_models((r,), (s,), rules)
    assert got == expected
    assert len(rules) == (4, 2, 1)[_is_top(b) + _is_top(c)]


@fixed
@given(st.lists(st.builds(Rule, bodies, sides), max_size=3),
       st.lists(st.builds(Rule, bodies, sides), max_size=3))
def test_disjunction_of_two_programs(rules1, rules2):
    run = _Run(None, 10_000)
    rules = _disjunction(tuple(rules1), tuple(rules2), run)
    assert run.spent >= 4 * len(rules1) * len(rules2)
    got, expected = disjunction_models(rules1, rules2, rules)
    assert got == expected


@fixed
@given(st.lists(st.builds(Rule, bodies, sides), max_size=3))
@example([Rule(And(Atom("a"), Atom("b")), Or(Atom("c"), And(Atom("a"), Atom("b"))))])
def test_simplify_emits_normalized_sides(rules):
    assert_normalized_sides(simplify(Program(tuple(rules))))


@fixed
@given(theories())
def test_simplify_leaves_countermodel_programs_unchanged(t):
    # Why the CLI's countermodel path skips simplify() under --simplify.
    for mode in ("whole", "per_formula"):
        program = theory_to_program_cm(t, mode)
        assert simplify(program).rules == program.rules


@fixed
@given(formulas, formulas)
@example(Atom("a"), Atom("a"))
@example(BOT, BOT)
@example(neg(Atom("a")), Implies(Atom("a"), BOT))
@example(And(Atom("a"), Atom("b")), And(Atom("a"), Atom("b")))
@example(And(Atom("a"), Atom("b")), Or(Atom("a"), Atom("b")))
@example(Implies(Atom("a"), Atom("b")), And(Atom("a"), Atom("b")))
def test_equality_and_hash_agree_with_the_structure(f, g):
    # An independent build: fresh binary nodes over the interned leaves.
    twin = parse(to_text(f))
    assert formula_reference.same_tree(twin, f)
    assert twin == f and not twin != f and hash(twin) == hash(f)
    same = formula_reference.same_tree(f, g)
    assert (f == g) == same and (f != g) == (not same) and (g == f) == same
    if same:
        assert hash(f) == hash(g)


@fixed
@given(formulas)
def test_printer_round_trip(f):
    assert parse(to_text(f)) == f
    assert parse(formula_reference.to_text(f, "raw")) == f


def test_deep_negation_chain_needs_no_recursion():
    f = Atom("a")
    for _ in range(5000):
        f = neg(f)
    t = Theory((f,))
    assert pairs(ht_models(t)) == pairs(ht_models(Theory((neg(neg(Atom("a"))),))))


def outcome(fn, *args):
    """fn's result, or the message of the TypeError it raises."""
    try:
        return fn(*args)
    except TypeError as error:
        return f"TypeError: {error}"


def assert_bits_match_the_reference(f):
    """f's node bits decode to the reference's atoms and nestedness; a
    non-formula, which the reference refuses, has none."""
    bits = getattr(f, "_bits", None)
    atoms = outcome(formula_reference.atoms_of, f)
    if isinstance(atoms, str):
        assert bits is None
    else:
        assert _names(bits) == atoms.names
        assert (not bits & 1) == formula_reference.is_nested_expression(f)


@fixed
@given(formulas | malformed)
def test_nested_expression_matches_the_recursive_walk(f):
    assert outcome(is_nested_expression, f) == outcome(
        formula_reference.is_nested_expression, f
    )
    assert_bits_match_the_reference(f)


@fixed
@given(st.lists(formulas | malformed, max_size=3))
def test_atoms_of_matches_the_reference_walk(fs):
    assert outcome(atoms_of, *fs) == outcome(formula_reference.atoms_of, *fs)
    for f in fs:
        assert_bits_match_the_reference(f)


@fixed
@given(formulas | malformed)
@example(And)
@example(Bottom)
def test_postorder_matches_the_recursive_walk(f):
    # The node classes are the walk's markers, so a class as the root
    # must be refused like any other non-formula.
    assert outcome(lambda g: list(_postorder(g)), f) == outcome(
        formula_reference.postorder, f
    )


@fixed
@given(formulas | nested | st.builds(Implies, nested, nested) | malformed)
def test_nonnested_rule_matches_the_recursive_walk(f):
    assert outcome(is_nonnested_rule, f) == outcome(formula_reference.is_nonnested_rule, f)


@fixed
@given(formulas, nested, malformed, st.booleans())
def test_a_non_formula_is_refused_where_it_enters(f, side, bad, bad_first):
    # Rule gets a nested side, so that only the non-formula is wrong.
    def pair(g):
        return (bad, g) if bad_first else (g, bad)

    message = f"TypeError: not a formula: {bad!r}"
    assert outcome(neg, bad) == message
    for build in (And, Or, Implies, iff, atoms_of):
        assert outcome(build, *pair(f)) == message
    assert outcome(Rule, *pair(side)) == message
    for build in (conj, disj, Theory):
        assert outcome(build, pair(f)) == message


def assert_rule_atoms_match_the_reference(program):
    for rule in program:
        bits = rule.body._bits | rule.head._bits
        assert _names(bits) == formula_reference.atoms_of(rule.body, rule.head).names
        assert not bits & 1


@fixed
@given(raw_size_at_most(64))
def test_built_rules_keep_the_reference_atoms_of_their_sides(f):
    assert_rule_atoms_match_the_reference(formula_to_program_syn(f))
    assert_rule_atoms_match_the_reference(formula_to_program_syn(f, simplify=True))
    for mode in ("whole", "per_formula"):
        assert_rule_atoms_match_the_reference(theory_to_program_cm(Theory((f,)), mode))


@fixed
@given(formulas | malformed)
def test_printer_matches_the_reference_printer(f):
    assert outcome(to_text, f) == outcome(formula_reference.to_text, f)


@fixed
@given(formulas | malformed)
@example(TOP)
def test_is_top_is_equality_with_top(f):
    assert _is_top(f) == (f == TOP)


@fixed
@given(nested)
@example(neg(neg(neg(Atom("a")))))  # random draws seldom nest three negations
@example(neg(And(Atom("a"), neg(neg(Or(Atom("b"), BOT))))))
def test_normalize_matches_the_renormalizing_reference(f):
    # _normalize meets rule sides only, so its domain is nested expressions.
    assert _normalize(f, {}) == rewriting_reference.normalize(f)


@fixed
@given(nested)
def test_normalize_is_idempotent_on_nested_expressions(f):
    # What lets _normalize build over normalized parts instead of
    # normalizing each De Morgan rewrite again.
    once = _normalize(f, {})
    assert _normalize(once, {}) == once


@fixed
@given(formulas | malformed)
def test_flattening_matches_the_recursive_reference(f):
    assert _flatten_or(f) == rewriting_reference.flatten_or(f)


@fixed
@given(nested | formulas)
@example(TOP)
@example(And(TOP, Atom("a")))
def test_conjunct_flattening_matches_the_reference_on_normalized_sides(f):
    # _flatten_and looks for top at the root only: a normalized side is
    # either top as a whole or holds no top conjunct.
    side = _normalize(f, {})
    assert _flatten_and(side) == rewriting_reference.flatten_and(side)


@fixed
@given(formulas | malformed)
def test_eliminate_connectives_matches_the_reference(f):
    trace, reference_trace = RewriteTrace(), RewriteTrace()
    assert outcome(eliminate_connectives, f, trace) == outcome(
        rewriting_reference.eliminate_connectives, f, reference_trace
    )
    assert trace.steps == reference_trace.steps


def encodes_a_disjunction(f) -> bool:
    """Whether some & node of f has the shape eliminate_connectives gives |."""
    if isinstance(f, (And, Or)):
        return (isinstance(f, And) and _encoded_disjunction(f) is not None
                or encodes_a_disjunction(f.left) or encodes_a_disjunction(f.right))
    if isinstance(f, Implies):
        return encodes_a_disjunction(f.antecedent) or encodes_a_disjunction(f.consequent)
    return False


@fixed
@given(formulas.filter(
    lambda f: Or in formula_reference.postorder(f) and not encodes_a_disjunction(f)
))
def test_an_encoded_disjunction_is_walked_as_one(f):
    # How a simplified translation walks a formula without |: as the
    # formula it was eliminated from.
    walked = list(_postorder(eliminate_connectives(f), _encoded_disjunction))
    assert walked == formula_reference.postorder(f)


#: Every token kind, comments, line breaks, and characters the tokenizer rejects.
TEXT_PIECES = ("a", "b", "not", "bot", "top", "~", "(", ")", "&", "|", "->", "<->",
               "%", "\n", " ", "$", "A")
pieces = st.sampled_from(TEXT_PIECES)


def parsed(parse_fn, text):
    """parse_fn's tree, or the message, line, column and expected kinds of its error."""
    try:
        return parse_fn(text)
    except ParseError as error:
        return (str(error), error.line, error.column, error.expected)


@settings(fixed, max_examples=1000)
@given(st.lists(pieces, max_size=16).map("".join))
def test_parse_matches_the_recursive_descent_of_random_text(text):
    assert parsed(parse, text) == parsed(parser_reference.parse, text)


@settings(fixed, max_examples=500)
@given(formulas.map(to_text), pieces, st.data())
def test_parse_matches_the_recursive_descent_of_printed_formulas(text, piece, data):
    # The printed text parses; one inserted piece mostly breaks it, somewhere.
    assert parsed(parse, text) == parsed(parser_reference.parse, text)
    at = data.draw(st.integers(0, len(text)))
    text = text[:at] + piece + text[at:]
    assert parsed(parse, text) == parsed(parser_reference.parse, text)
