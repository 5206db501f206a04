"""Seeded input generators for the benchmark's workloads.

Every generator draws from `random.Random(seed)` and sizes its inputs with
the independent oracle only, never with htlp, so the inputs of a seed stay
the same whatever htlp does.  Each op's input is a dict of theory texts
plus the oracle formulas the checks need.
"""

from __future__ import annotations

import random

import oracle as o

NAMES = list("abcdefghij")

# ht-semantics: theories over 8 atoms, two shapes in alternation.
SEM_ATOMS = 7
SEM_OPS = 64
DEEP_FORMULAS, DEEP_CONNECTIVES = 3, 8
RULES_PER_PROGRAM = 14
EARLY_SHARE = 16  # the early witness lies in the first 1/16 of the space

# cm-translate: four formulas, each over 4 of 7 atoms, countermodels banded.
CM_ATOMS = 7
CM_OPS = 40
CM_FORMULAS, CM_FORMULA_ATOMS, CM_CONNECTIVES = 4, 4, 4
CM_BAND = (1100, 1300)

# syn-rewrite: two formulas small enough for the raw construction and two
# larger ones that only the simplifying construction handles, per theory.
SYN_OPS = 400
SYN_RAW_CAP = 1 << 20
SYN_SMALL_BAND = (6, 40)
SYN_LARGE_BAND = (64, 4096)

PAPER_EXAMPLE = "(q -> p) | r"


def signature_line(n: int) -> str:
    return "#signature " + " ".join(NAMES[:n])


def random_tree(rng: random.Random, atoms: list[int], connectives: int) -> tuple:
    """A random formula with exactly this many binary connectives."""
    if connectives == 0:
        leaf = ("atom", rng.choice(atoms))
        return o.neg(leaf) if rng.random() < 0.3 else leaf
    left = rng.randint(0, connectives - 1)
    kind = rng.choice(("and", "or", "imp", "imp"))
    f = (kind, random_tree(rng, atoms, left),
         random_tree(rng, atoms, connectives - 1 - left))
    return o.neg(f) if rng.random() < 0.15 else f


def random_literal(rng: random.Random, n: int) -> tuple:
    atom = ("atom", rng.randrange(n))
    return o.neg(atom) if rng.random() < 0.4 else atom


def random_rule(rng: random.Random, n: int) -> tuple:
    body = o.conj(random_literal(rng, n) for _ in range(rng.randint(1, 2)))
    head = o.disj(("atom", rng.randrange(n)) for _ in range(rng.randint(1, 2)))
    return ("imp", body, head)


def ht_same(rng: random.Random, f: tuple) -> tuple:
    """An intuitionistically (so HT-) equivalent variant of f."""
    kind = f[0]
    if kind in ("atom", "bot"):
        return f
    left, right = ht_same(rng, f[1]), ht_same(rng, f[2])
    if kind in ("and", "or"):
        return (kind, right, left) if rng.random() < 0.5 else (kind, left, right)
    if right == o.BOT and rng.random() < 0.2:
        return o.neg(o.neg(o.neg(left)))  # ~~~F is ~F
    if right[0] == "and" and rng.random() < 0.5:
        return ("and", ("imp", left, right[1]), ("imp", left, right[2]))
    if left[0] == "or" and rng.random() < 0.5:
        return ("and", ("imp", left[1], right), ("imp", left[2], right))
    return ("imp", left, right)


def _texts(formulas, n: int) -> str:
    return "\n".join(o.render(f, NAMES) for f in formulas) + "\n" + signature_line(n)


def ht_semantics(seed: int) -> list[dict]:
    rng = random.Random(seed)
    n = SEM_ATOMS
    s = o.space(n)
    ops = []
    while len(ops) < SEM_OPS:
        shape = "deep" if len(ops) % 2 == 0 else "rules"
        if shape == "deep":
            theory = [random_tree(rng, list(range(n)), DEEP_CONNECTIVES)
                      for _ in range(DEEP_FORMULAS)]
        else:
            theory = [random_rule(rng, n) for _ in range(RULES_PER_PROGRAM)]
        models = s.models(theory)
        if shape == "rules" and not s.equilibrium(models):
            continue  # programs must keep models and answer sets
        if shape == "deep" and not models:
            continue
        same = [ht_same(rng, f) for f in theory]
        rng.shuffle(same)
        if s.models(same) != models:
            raise AssertionError("a rewrite changed the HT models")
        for _ in range(200):
            extra = random_rule(rng, n) if rng.random() < 0.5 else random_literal(rng, n)
            diff = same + [extra]
            witness = s.first_difference(models, s.models(diff))
            if witness is not None and s.position[witness] < s.size // EARLY_SHARE:
                break
        else:
            continue
        ops.append({
            "shape": shape,
            "theory": _texts(theory, n),
            "same": _texts(same, n),
            "diff": _texts(diff, n),
            "formulas": {"theory": theory, "same": same, "diff": diff},
            "n": n,
        })
    return ops


def cm_translate(seed: int) -> list[dict]:
    rng = random.Random(seed)
    n = CM_ATOMS
    s = o.space(n)
    ops = []
    while len(ops) < CM_OPS:
        theory = [
            random_tree(rng, rng.sample(range(n), CM_FORMULA_ATOMS), CM_CONNECTIVES)
            for _ in range(CM_FORMULAS)
        ]
        countermodels = s.size - bin(s.models(theory)).count("1")
        if not CM_BAND[0] <= countermodels <= CM_BAND[1]:
            continue
        ops.append({"theory": _texts(theory, n), "formulas": {"theory": theory}, "n": n})
    return ops


def _syn_formula(rng, atoms, band):
    while True:
        f = random_tree(rng, atoms, rng.randint(3, 5))
        if band[0] <= o.raw_rule_bound(f, SYN_RAW_CAP) <= band[1]:
            return f


def syn_rewrite(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    while len(ops) < SYN_OPS:
        atoms = list(range(3 + len(ops) % 2))
        small = [_syn_formula(rng, atoms, SYN_SMALL_BAND) for _ in range(2)]
        large = [_syn_formula(rng, atoms, SYN_LARGE_BAND) for _ in range(2)]
        theory = small + large
        used = sorted({i for f in theory for i in _atoms(f)})
        if used != atoms:
            continue  # keep the signature exactly 3 or 4 atoms
        ops.append({
            "theory": "\n".join(o.render(f, NAMES) for f in theory),
            "small": [o.render(f, NAMES) for f in small],
            "formulas": {"theory": theory, "small": small},
            "n": len(atoms),
        })
    return ops


def _atoms(f: tuple):
    if f[0] == "atom":
        yield f[1]
    elif f[0] != "bot":
        yield from _atoms(f[1])
        yield from _atoms(f[2])


# cli-paper: the paper's example through every subcommand, checked against
# the listings derived by hand in the paper.  `partner.lp` holds the six-rule
# countermodel program for the example.
PAPER_MODELS = [
    "∅ | ∅", "∅ | p", "p | p", "∅ | p q", "p | p q", "p q | p q", "∅ | r",
    "r | r", "∅ | p r", "p | p r", "r | p r", "p r | p r", "r | q r",
    "q r | q r", "∅ | p q r", "p | p q r", "p q | p q r", "r | p q r",
    "p r | p q r", "q r | p q r", "p q r | p q r",
]
PAPER_COUNTERMODELS = ["∅ | q", "q | q", "q | p q", "∅ | q r", "q | q r", "q | p q r"]
PAPER_ANSWER_SETS = ["∅"]
PAPER_PROGRAM = [
    "~p & ~r -> q | ~q",
    "q & ~p & ~r -> bot",
    "q & ~r -> p | ~p",
    "~p -> q | ~q | r | ~r",
    "q & ~p -> r | ~r",
    "q -> p | ~p | r | ~r",
]

CLI_COMMANDS = [
    ("models", ["models", "example.lp"]),
    ("countermodels", ["countermodels", "example.lp"]),
    ("equilibrium", ["equilibrium", "example.lp"]),
    ("to-program-syn", ["to-program", "--method", "syntactic", "--verify", "example.lp"]),
    ("to-program-cm", ["to-program", "--method", "countermodel", "--verify", "example.lp"]),
    ("to-dnf", ["to-dnf", "--verify", "example.lp"]),
    ("check-equiv", ["check-equiv", "example.lp", "partner.lp"]),
    ("count-8", ["count", "8"]),
    ("count-9", ["count", "9"]),
]
CLI_ROUNDS = 5


def cli_paper(seed: int) -> list[dict]:
    """Whole rounds of the nine subcommands, each round in a seeded order."""
    rng = random.Random(seed)
    ops = []
    for _ in range(CLI_ROUNDS):
        order = list(CLI_COMMANDS)
        rng.shuffle(order)
        ops.extend({"name": name, "argv": argv} for name, argv in order)
    return ops


GENERATORS = {
    "ht-semantics": ht_semantics,
    "cm-translate": cm_translate,
    "syn-rewrite": syn_rewrite,
    "cli-paper": cli_paper,
}
