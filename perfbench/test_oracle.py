"""Tests of the benchmark's oracle and checks (stdlib unittest; pytest runs them too).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import oracle as o  # noqa: E402

PQR = {"p": 0, "q": 1, "r": 2}
ABC = ["a", "b", "c"]  # the names the workload checks read; p, q, r renamed


def to_abc(lines):
    return [line.replace("p", "a").replace("q", "b").replace("r", "c") for line in lines]


def sat(f, x, y):
    """HT satisfaction at (X, Y) by the textbook two-world definition."""
    kind = f[0]
    if kind == "atom":
        return bool(x >> f[1] & 1)
    if kind == "bot":
        return False
    if kind == "and":
        return sat(f[1], x, y) and sat(f[2], x, y)
    if kind == "or":
        return sat(f[1], x, y) or sat(f[2], x, y)
    return all((not sat(f[1], w, y)) or sat(f[2], w, y) for w in (x, y))


def clause_text(x, y, names):
    """The model-DNF clause of (X, Y), as htlp prints it."""
    inside = [names[i] for i in range(len(names)) if y >> i & 1]
    undefined = [a for a in inside if not x >> names.index(a) & 1]
    parts = [names[i] for i in range(len(names)) if x >> i & 1]
    parts += ["~" + names[i] for i in range(len(names)) if not y >> i & 1]
    parts += ["~~" + a for a in undefined]
    parts += [f"({d} -> {e})" for d in undefined for e in undefined]
    return " & ".join(parts) if parts else "top"


class OracleSemantics(unittest.TestCase):
    def test_tables_match_the_two_world_definition(self):
        rng = random.Random(7)
        s = o.space(3)
        for _ in range(300):
            f = gen.random_tree(rng, [0, 1, 2], rng.randint(0, 6))
            here = s.tables(f)[0]
            for position, (y, x) in enumerate(s.pairs):
                self.assertEqual(bool(here >> position & 1), sat(f, x, y), (f, x, y))

    def test_canonical_order(self):
        s = o.space(2)
        self.assertEqual(s.pairs, [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2),
                                   (3, 0), (3, 1), (3, 2), (3, 3)])

    def test_paper_example(self):
        s = o.space(3)
        models = s.models([o.parse(gen.PAPER_EXAMPLE, PQR)])
        self.assertEqual([checks.display(s, p) for p in s.positions(models)],
                         gen.PAPER_MODELS)
        self.assertEqual([checks.display(s, p) for p in s.positions(s.full & ~models)],
                         gen.PAPER_COUNTERMODELS)
        self.assertEqual(s.equilibrium(models), [0])
        program = [o.parse(line, PQR) for line in gen.PAPER_PROGRAM]
        self.assertEqual(s.models(program), models)

    def test_properties_of_model_sets(self):
        rng = random.Random(3)
        s = o.space(3)
        for _ in range(100):
            models = s.models([gen.random_tree(rng, [0, 1, 2], 4)])
            self.assertTrue(s.total_closed(s.full & ~models))
            self.assertTrue(s.persistent_to_total(models))
        self.assertFalse(s.total_closed(1 << 2))  # (a, a) without (∅, a)

    def test_counting(self):
        self.assertEqual(o.count_enumerated(2), 162)
        self.assertEqual(o.count_closed_form(2), 162)
        self.assertEqual(o.count_enumerated(1), o.count_closed_form(1))


class OracleText(unittest.TestCase):
    def test_precedence_and_sugar(self):
        a, b, c = ("atom", 0), ("atom", 1), ("atom", 2)
        index = {"a": 0, "b": 1, "c": 2}
        self.assertEqual(o.parse("a | b & c", index), ("or", a, ("and", b, c)))
        self.assertEqual(o.parse("a -> b -> c", index), ("imp", a, ("imp", b, c)))
        self.assertEqual(o.parse("not ~a", index), o.neg(o.neg(a)))
        self.assertEqual(o.parse("top", index), o.TOP)
        self.assertEqual(o.parse("a <-> b", index), ("and", ("imp", a, b), ("imp", b, a)))
        with self.assertRaises(o.OracleParseError):
            o.parse("a & (b", index)

    def test_render_round_trips(self):
        rng = random.Random(11)
        index = {n: i for i, n in enumerate(gen.NAMES)}
        for _ in range(200):
            f = gen.random_tree(rng, list(range(4)), rng.randint(0, 7))
            self.assertEqual(o.parse(o.render(f, gen.NAMES), index), f)

    def test_nonnested_rules(self):
        self.assertEqual(o.nonnested_rule("q & ~r -> p | ~p", PQR),
                         ([(1, True), (2, False)], [(0, True), (0, False)]))
        self.assertEqual(o.nonnested_rule("q & ~p & ~r -> bot", PQR)[1], [])
        self.assertIsNone(o.nonnested_rule("~~p -> q", PQR))
        self.assertIsNone(o.nonnested_rule("(p | q) -> r", PQR))
        s = o.space(3)
        for line in gen.PAPER_PROGRAM:
            self.assertEqual(s.nonnested_models(*o.nonnested_rule(line, PQR)),
                             s.tables(o.parse(line, PQR))[0])

    def test_raw_rule_bound(self):
        index = {"a": 0, "b": 1, "c": 2, "d": 3}
        self.assertEqual(o.raw_rule_bound(o.parse("a", index), 10 ** 6), 1)
        self.assertEqual(o.raw_rule_bound(o.parse("a & b -> c", index), 10 ** 6), 4)
        self.assertEqual(o.raw_rule_bound(o.parse("a | b", index), 10 ** 6), 8)
        huge = o.parse("((a | b) -> c | d) | (b -> a)", index)
        self.assertEqual(o.raw_rule_bound(huge, 10 ** 6), 10 ** 6)


class Checks(unittest.TestCase):
    """Each checker accepts a right output and rejects a wrong one."""

    def semantics_item(self):
        theory = [o.parse(gen.PAPER_EXAMPLE, PQR)]
        diff = theory + [("atom", 0)]
        return {"n": 3, "formulas": {"theory": theory, "same": list(theory), "diff": diff}}

    def semantics_output(self, item):
        s = o.space(3)
        models = s.models(item["formulas"]["theory"])
        witness = s.first_difference(models, s.models(item["formulas"]["diff"]))
        return {
            "models": [list(s.pairs[p]) for p in s.positions(models)],
            "countermodels": [list(s.pairs[p]) for p in s.positions(s.full & ~models)],
            "equilibrium": s.equilibrium(models),
            "same": [True, None],
            "diff": [False, list(witness)],
        }

    def test_semantics(self):
        item = self.semantics_item()
        out = self.semantics_output(item)
        self.assertEqual(checks.check_semantics(item, out), [])
        self.assertEqual(out["diff"][1], out["models"][0])
        flipped = dict(out, diff=[False, out["models"][1]])
        self.assertTrue(checks.check_semantics(item, flipped))
        swapped = dict(out, models=[out["models"][1], out["models"][0]] + out["models"][2:])
        self.assertTrue(checks.check_semantics(item, swapped))
        self.assertTrue(checks.check_semantics(item, dict(out, same=[False, [0, 0]])))

    def test_countermodel_program(self):
        s = o.space(3)
        theory = [o.parse(gen.PAPER_EXAMPLE, PQR)]
        models = s.models(theory)
        item = {"n": 3, "formulas": {"theory": theory}}
        dnf = [clause_text(*reversed(s.pairs[p]), ABC) for p in s.positions(models)]
        program = "\n".join(to_abc(gen.PAPER_PROGRAM))
        out = {"whole": program, "per_formula": program, "dnf": dnf}
        self.assertEqual(checks.check_countermodel(item, out), [])
        dropped = "\n".join(to_abc(gen.PAPER_PROGRAM[:-1]))
        self.assertTrue(checks.check_countermodel(item, dict(out, whole=dropped)))
        self.assertTrue(checks.check_countermodel(item, dict(out, per_formula=dropped)))
        self.assertTrue(checks.check_countermodel(item, dict(out, dnf=dnf[1:])))
        nested = program.replace("b & ~c -> a | ~a", "b & ~c -> ~~a")
        self.assertNotEqual(nested, program)
        self.assertTrue(checks.check_countermodel(item, dict(out, whole=nested)))

    def test_rewrite(self):
        f = o.parse("r -> (q -> p)", PQR)
        item = {"n": 3, "formulas": {"theory": [f], "small": [f]}}
        out = {"verified": True, "programs": ["b & c -> a", "c & b -> a", "b & c -> a"]}
        self.assertEqual(checks.check_rewrite(item, out), [])
        self.assertTrue(checks.check_rewrite(item, dict(out, verified=False)))
        wrong = dict(out, programs=["b -> a", "c & b -> a", "b & c -> a"])
        self.assertTrue(checks.check_rewrite(item, wrong))

    def test_cli(self):
        ok = "\n".join(gen.PAPER_PROGRAM + ["VERIFIED"])
        self.assertEqual(checks.check_cli("to-program-cm", ok), [])
        dropped = "\n".join(gen.PAPER_PROGRAM[:-1] + ["VERIFIED"])
        self.assertTrue(checks.check_cli("to-program-cm", dropped))
        self.assertEqual(checks.check_cli("models", "\n".join(gen.PAPER_MODELS)), [])
        self.assertTrue(checks.check_cli("models", "\n".join(gen.PAPER_MODELS[1:])))
        self.assertTrue(checks.check_cli("check-equiv", "WITNESS ∅ | q"))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            value = str(o.count_closed_form(9))
        finally:
            sys.set_int_max_str_digits(limit)
        self.assertEqual(checks.check_cli("count-9", value), [])
        self.assertTrue(checks.check_cli("count-8", value))


class Reference(unittest.TestCase):
    def test_samples_are_reused_within_the_interval(self):
        self.assertGreater(calib.reference(), 0)
        clock = calib.Calibrator()
        first = clock.before_op()
        self.assertEqual(clock.before_op(), first)


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in ("ht-semantics", "cm-translate", "syn-rewrite", "cli-paper"):
            make = gen.GENERATORS[name]
            self.assertEqual(make(5)[:3], make(5)[:3], name)

    def test_partners(self):
        s = o.space(gen.SEM_ATOMS)
        item = gen.ht_semantics(2)[0]
        forms = item["formulas"]
        models = s.models(forms["theory"])
        self.assertEqual(s.models(forms["same"]), models)
        witness = s.first_difference(models, s.models(forms["diff"]))
        self.assertLess(s.position[witness], s.size // gen.EARLY_SHARE)

    def test_ht_same_is_equivalent(self):
        rng = random.Random(1)
        s = o.space(3)
        for _ in range(200):
            f = gen.random_tree(rng, [0, 1, 2], 5)
            self.assertEqual(s.tables(gen.ht_same(rng, f))[0], s.tables(f)[0])


if __name__ == "__main__":
    unittest.main()
