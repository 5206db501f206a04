"""The command-line interface: outputs, formats, exit codes."""

import ast
import contextlib
import decimal
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ht_reference as ref
import parser_reference
from htlp import (
    BOT,
    TOP,
    And,
    Atom,
    Implies,
    Or,
    Signature,
    Theory,
    cli,
    ht_countermodels,
    ht_models,
    iff,
    neg,
    parse_theory,
    rewriting,
    semantics,
)
from htlp.cli import main

FORMULA2 = "(q -> p) | r\n"

#: Whole outputs too long to inline, captured from the CLI.
GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_COUNTERMODELS = """\
∅ | q
q | q
q | p q
∅ | q r
q | q r
q | p q r
"""

GOLDEN_PROGRAM = """\
~p & ~r -> q | ~q
q & ~p & ~r -> bot
q & ~r -> p | ~p
~p -> q | ~q | r | ~r
q & ~p -> r | ~r
q -> p | ~p | r | ~r
"""


SEVEN_ATOMS = "(a -> b) | ~c\nb & c -> ~a\nd | ~e\nf -> g | ~~a\n"


def _listed(m):
    return {"here": sorted(m.here), "there": sorted(m.there)}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env():
    """The environment for a child interpreter that imports this htlp."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def formula2_file(tmp_path):
    path = tmp_path / "formula2.lp"
    path.write_text(FORMULA2, encoding="utf-8")
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestModelListing:
    def test_countermodels_golden(self, capsys, formula2_file):
        code, out, _ = run_cli(capsys, "countermodels", formula2_file)
        assert code == 0
        assert out == GOLDEN_COUNTERMODELS

    def test_models_count_and_head(self, capsys, formula2_file):
        code, out, _ = run_cli(capsys, "models", formula2_file)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 21
        assert lines[0] == "∅ | ∅"

    def test_structured_document(self, capsys, formula2_file):
        code, out, _ = run_cli(
            capsys, "models", formula2_file, "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "models"
        assert doc["signature"] == ["p", "q", "r"]
        assert len(doc["results"]["models"]) == 21
        assert len(doc["results"]["countermodels"]) == 6
        assert doc["verification"] is None
        assert doc["results"]["countermodels"][0] == {
            "here": [], "there": ["q"],
        }

    @pytest.mark.parametrize("command", ["models", "countermodels"])
    @pytest.mark.parametrize("text", [FORMULA2, SEVEN_ATOMS], ids=["paper", "7-atoms"])
    def test_structured_listing_compiles_once(
        self, capsys, tmp_path, monkeypatch, command, text
    ):
        path = write(tmp_path, "theory.lp", text)
        theory = parse_theory(text)
        expected = json.dumps({
            "command": command,
            "signature": list(theory.signature),
            "results": {
                "models": [_listed(m) for m in ht_models(theory)],
                "countermodels": [_listed(m) for m in ht_countermodels(theory)],
            },
            "verification": None,
        }, indent=2) + "\n"
        compiled = []
        original = semantics._Space.theory
        monkeypatch.setattr(
            semantics._Space, "theory",
            lambda space, t: compiled.append(t) or original(space, t),
        )
        code, out, _ = run_cli(capsys, command, path, "--format", "structured")
        assert code == 0
        assert out == expected
        assert len(compiled) == 1

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("p | q\n"))
        code, out, _ = run_cli(capsys, "equilibrium")
        assert code == 0
        assert out == "p\nq\n"

    def test_signature_flag_extends(self, capsys, tmp_path):
        path = write(tmp_path, "fact.lp", "p\n")
        code, out, _ = run_cli(
            capsys, "models", path, "--signature", "p q"
        )
        assert code == 0
        assert out.splitlines() == ["p | p", "p | p q", "p q | p q"]

    def test_determinism(self, capsys, formula2_file):
        _, first, _ = run_cli(capsys, "to-dnf", formula2_file)
        _, second, _ = run_cli(capsys, "to-dnf", formula2_file)
        assert first == second


class TestEquilibrium:
    def test_disjunction(self, capsys, tmp_path):
        path = write(tmp_path, "dis.lp", "p | q\n")
        code, out, _ = run_cli(capsys, "equilibrium", path)
        assert code == 0
        assert out == "p\nq\n"

    def test_empty_answer_set_renders_symbol(self, capsys, tmp_path):
        path = write(tmp_path, "neg.lp", "~p\n")
        code, out, _ = run_cli(capsys, "equilibrium", path)
        assert code == 0
        assert out == "∅\n"


class TestToProgram:
    def test_countermodel_golden(self, capsys, formula2_file):
        code, out, _ = run_cli(
            capsys, "to-program", "--method=countermodel", formula2_file
        )
        assert code == 0
        assert out == GOLDEN_PROGRAM

    def test_verify_passes(self, capsys, formula2_file):
        for method in ("countermodel", "syntactic"):
            code, out, _ = run_cli(
                capsys, "to-program", f"--method={method}", "--verify",
                formula2_file,
            )
            assert code == 0
            assert out.splitlines()[-1] == "VERIFIED"

    @pytest.mark.parametrize("text, expected", [
        ("(q -> p) | r", "q -> p | r\n~p -> ~q | r\n"),
        ("p | q | r", "p | q | r\n"),
    ])
    def test_syntactic_simplify_distributes_disjunctions(
        self, capsys, tmp_path, text, expected
    ):
        path = write(tmp_path, "or.lp", text + "\n")
        assert run_cli(
            capsys, "to-program", "--method=syntactic", "--simplify", path
        ) == (0, expected, "")

    def test_syntactic_simplify_contains_worked_rule(self, capsys, tmp_path):
        path = write(tmp_path, "sub.lp", "r -> (q -> p)\n")
        code, out, _ = run_cli(
            capsys, "to-program", "--method=syntactic", "--simplify", path
        )
        assert code == 0
        assert out == "q & r -> p\n"

    def test_trace_goes_to_stderr(self, capsys, tmp_path):
        path = write(tmp_path, "sub.lp", "r -> (q -> p)\n")
        code, out, err = run_cli(
            capsys, "to-program", "--method=syntactic", "--simplify",
            "--trace", path,
        )
        assert code == 0
        assert "STEP lemma1:" in err
        assert "STEP" not in out

    @pytest.mark.parametrize("text, flags, golden", [
        (FORMULA2, (), "trace_paper_raw.txt"),
        (FORMULA2, ("--simplify",), "trace_paper_simplified.txt"),
        ("((a|b)->(c|d))->((b|c)->(d|a))\n", ("--simplify",),
         "trace_four_atoms_simplified.txt"),
    ], ids=["paper-raw", "paper-simplified", "four-atoms-simplified"])
    def test_trace_golden(self, capsys, tmp_path, text, flags, golden):
        # Every step, in order, as the CLI prints it: the rule names and
        # both sides' texts are the trace's contract.
        path = write(tmp_path, "in.lp", text)
        code, _, err = run_cli(
            capsys, "to-program", "--method=syntactic", *flags, "--trace", path
        )
        assert code == 0
        assert err == (GOLDEN_DIR / golden).read_text(encoding="utf-8")

    def test_empty_theory(self, capsys, tmp_path):
        path = write(tmp_path, "empty.lp", "% nothing here\n")
        code, out, _ = run_cli(
            capsys, "to-program", "--method=countermodel", path
        )
        assert code == 0
        assert out == ""

    def test_per_formula_mode(self, capsys, tmp_path):
        path = write(tmp_path, "two.lp", "p -> q\nr\n")
        code, out, _ = run_cli(
            capsys, "to-program", "--method=countermodel",
            "--mode=per_formula", "--verify", path,
        )
        assert code == 0
        assert out.splitlines()[-1] == "VERIFIED"

    @pytest.mark.parametrize("mode", ["whole", "per_formula"])
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_countermodel_simplify_changes_nothing(
        self, capsys, formula2_file, mode, fmt
    ):
        argv = ("to-program", "--method", "countermodel", "--mode", mode,
                "--format", fmt, formula2_file)
        plain = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--simplify") == plain

    def test_structured_includes_rules(self, capsys, formula2_file):
        code, out, _ = run_cli(
            capsys, "to-program", "--method=countermodel", "--verify",
            "--format", "structured", formula2_file,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["rules"] == GOLDEN_PROGRAM.splitlines()
        assert doc["verification"] == "VERIFIED"


class TestToDnf:
    def test_formula2_first_clause(self, capsys, formula2_file):
        code, out, _ = run_cli(capsys, "to-dnf", formula2_file)
        assert code == 0
        assert out.startswith("~p & ~q & ~r | ")
        assert out.count(" | ") == 20

    def test_bot(self, capsys, tmp_path):
        path = write(tmp_path, "bot.lp", "bot\n")
        code, out, _ = run_cli(capsys, "to-dnf", path)
        assert code == 0
        assert out == "bot\n"

    def test_single_atom(self, capsys, tmp_path):
        path = write(tmp_path, "p.lp", "p\n")
        code, out, _ = run_cli(capsys, "to-dnf", path)
        assert code == 0
        assert out == "p\n"

    def test_verify(self, capsys, formula2_file):
        code, out, _ = run_cli(capsys, "to-dnf", "--verify", formula2_file)
        assert code == 0
        assert out.splitlines()[-1] == "VERIFIED"

    def test_annotate_names_sources(self, capsys, formula2_file):
        code, out, _ = run_cli(capsys, "to-dnf", "--annotate", formula2_file)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 21
        assert lines[0] == "~p & ~q & ~r  % clause 1: ∅ | ∅"

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_many_models_verified(self, capsys, tmp_path, fmt):
        # 1458 models give a 1458-deep disjunction to print and check.
        path = write(tmp_path, "em.lp", "a | ~a\n")
        code, out, _ = run_cli(
            capsys, "to-dnf", path, "--signature", "a b c d e f g",
            "--verify", "--format", fmt,
        )
        assert code == 0
        if fmt == "structured":
            doc = json.loads(out)
            dnf, verdict = doc["results"]["dnf"], doc["verification"]
        else:
            dnf, verdict = out.splitlines()
        assert verdict == "VERIFIED"
        assert dnf.count(" | ") == 1457


class TestVerifyReusesTheInput:
    @pytest.mark.parametrize("argv", [
        ("to-program", "--method", "countermodel", "--verify"),
        ("to-dnf", "--verify"),
        ("to-dnf", "--verify", "--annotate"),
    ], ids=["to-program", "to-dnf", "to-dnf-annotated"])
    @pytest.mark.parametrize("text", [FORMULA2, SEVEN_ATOMS], ids=["paper", "7-atoms"])
    def test_input_compiles_once(self, capsys, tmp_path, monkeypatch, argv, text):
        # The translation compiles the input; the check reads its table
        # back from the space and compiles only the translated theory.
        path = write(tmp_path, "theory.lp", text)
        compiled = []
        original = semantics._Space.theory
        monkeypatch.setattr(
            semantics._Space, "theory",
            lambda space, t: compiled.append(t) or original(space, t),
        )
        code, out, _ = run_cli(capsys, *argv, path)
        assert (code, out.splitlines()[-1]) == (0, "VERIFIED")
        assert len(compiled) == 2
        assert compiled[0] == parse_theory(text) != compiled[1]


class TestCheckEquiv:
    def test_equivalent(self, capsys, tmp_path, formula2_file):
        translation = write(tmp_path, "t.lp", "q -> p | r\n~p -> ~q | r\n")
        code, out, _ = run_cli(capsys, "check-equiv", formula2_file, translation)
        assert code == 0
        assert out == "EQUIVALENT\n"

    def test_witness(self, capsys, tmp_path):
        em = write(tmp_path, "em.lp", "p | ~p\n")
        top = write(tmp_path, "top.lp", "top\n#signature p\n")
        code, out, _ = run_cli(capsys, "check-equiv", em, top)
        assert code == 1
        assert out == "WITNESS ∅ | p\n"

    def test_identical_files(self, capsys, formula2_file):
        code, out, _ = run_cli(capsys, "check-equiv", formula2_file, formula2_file)
        assert code == 0
        assert out == "EQUIVALENT\n"

    def test_structured_witness(self, capsys, tmp_path):
        em = write(tmp_path, "em.lp", "p | ~p\n")
        top = write(tmp_path, "top.lp", "top\n#signature p\n")
        code, out, _ = run_cli(
            capsys, "check-equiv", em, top, "--format", "structured"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["results"]["equivalent"] is False
        assert doc["results"]["witness"] == {"here": [], "there": ["p"]}


class TestCount:
    @pytest.mark.parametrize("n,expected", [(0, "2"), (1, "6"), (2, "162")])
    def test_values(self, capsys, n, expected):
        code, out, _ = run_cli(capsys, "count", str(n))
        assert code == 0
        assert out == expected + "\n"

    def test_verbose_table(self, capsys):
        code, out, _ = run_cli(capsys, "count", "3", "--verbose")
        assert code == 0
        assert out.splitlines() == [
            "i=0 binomial=1 factor=2",
            "i=1 binomial=3 factor=3",
            "i=2 binomial=3 factor=9",
            "i=3 binomial=1 factor=129",
            "5078214",
        ]

    def test_bound_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "count", "65")
        assert code == 3
        assert "n <= 12" in err

    def test_prints_past_the_int_to_str_digit_limit(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, _ = run_cli(capsys, "count", "9")
        assert code == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        expected = math.prod(
            (2 ** (2**i - 1) + 1) ** math.comb(9, i) for i in range(10)
        )
        assert len(out.strip()) == 5776
        # Decimal compares exactly without converting through int <-> str.
        assert decimal.Decimal(out.strip()) == decimal.Decimal(expected)

    def test_beyond_the_bound_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "count", "13")
        assert code == 3 and out == ""
        assert "n <= 12" in err

    def test_negative_n_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["count", "-1"])
        assert exit_info.value.code == 2
        assert "expected a number of atoms" in capsys.readouterr().err


DEEP_INPUTS = {
    "negations": "~" * 3000 + "a\n",
    "parentheses": "(" * 2000 + "a" + ")" * 2000 + "\n",
    "implications": " -> ".join(["a"] * 1501) + "\n",
}


class TestErrors:
    @pytest.mark.parametrize("shape", sorted(DEEP_INPUTS))
    @pytest.mark.parametrize(
        "command", [["models"], ["to-program", "--method", "syntactic"], ["to-dnf"]]
    )
    def test_deep_nesting_exit_2(self, capsys, tmp_path, command, shape):
        """Chains of ~ and -> exit 2: loading a theory hashes its formulas,
        which recurses.  Parentheses leave no nesting behind, so the file
        reads as the bare atom."""
        path = write(tmp_path, "deep.lp", DEEP_INPUTS[shape])
        code, out, err = run_cli(capsys, *command, path)
        if shape == "parentheses":
            bare = write(tmp_path, "bare.lp", "a\n")
            assert code == 0
            assert (code, out, err) == run_cli(capsys, *command, bare)
            return
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("shape", ["implications", "negations"])
    def test_deep_chain_equivalent_to_itself(self, capsys, tmp_path, shape):
        path = write(tmp_path, "deep.lp", DEEP_INPUTS[shape])
        assert run_cli(capsys, "check-equiv", path, path) == (0, "EQUIVALENT\n", "")

    @pytest.mark.parametrize(
        "text", ["p | q | r", "((a|b)->(c|d))->((b|c)->(d|a))"]
    )
    def test_raw_rule_budget_exit_3(self, capsys, tmp_path, text):
        path = write(tmp_path, "big.lp", text + "\n")
        code, out, err = run_cli(capsys, "to-program", "--method", "syntactic", path)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "budget" in err and "Traceback" not in err

    def test_raw_rule_budget_boundary(self, capsys, formula2_file, monkeypatch):
        command = ("to-program", "--method", "syntactic", formula2_file)
        monkeypatch.setattr(rewriting, "RAW_RULE_BUDGET", 48)  # the example's raw size
        assert run_cli(capsys, *command)[0] == 0
        monkeypatch.setattr(rewriting, "RAW_RULE_BUDGET", 47)
        code, out, err = run_cli(capsys, *command)
        assert (code, out) == (3, "")
        assert err == (
            "error: the raw syntactic translation has 48 rules, "
            "over the budget of 47\n"
        )
        assert run_cli(capsys, *command, "--simplify")[0] == 0

    def test_simplified_rule_budget_exit_3(self, capsys, tmp_path, monkeypatch):
        # Without a running budget this input runs without bound; a low
        # budget keeps the test fast.
        path = write(
            tmp_path, "big.lp", "~(((~a -> ~((~b -> ~d) & d)) -> ~(c | ~a)) -> a)\n"
        )
        monkeypatch.setattr(rewriting, "SIMPLIFY_RULE_BUDGET", 2000)
        code, out, err = run_cli(
            capsys, "to-program", "--method", "syntactic", "--simplify", path
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: the simplified syntactic translation builds more than "
            "2000 rules and body branches\n"
        )

    def test_simplified_rule_budget_boundary(self, capsys, formula2_file, monkeypatch):
        command = ("to-program", "--method", "syntactic", "--simplify", formula2_file)
        monkeypatch.setattr(rewriting, "SIMPLIFY_RULE_BUDGET", 9)  # the example's count
        assert run_cli(capsys, *command)[0] == 0
        monkeypatch.setattr(rewriting, "SIMPLIFY_RULE_BUDGET", 8)
        code, out, err = run_cli(capsys, *command)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "8" in err and "Traceback" not in err
        # The raw translation has its own budget, checked up front.
        assert run_cli(capsys, "to-program", "--method", "syntactic", formula2_file)[0] == 0

    def test_simplified_disjunctions_within_the_budget(self, capsys, tmp_path):
        # Lemma 1 on the encoding of | would pass the budget; distributed,
        # this is 8 rules.
        path = write(tmp_path, "four.lp", "((a|b)->(c|d))->((b|c)->(d|a))\n")
        code, out, err = run_cli(
            capsys, "to-program", "--method", "syntactic", "--simplify", "--verify", path
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 9 and out.endswith("\nVERIFIED\n")

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = write(tmp_path, "bad.lp", "p -> (q\n")
        code, _, err = run_cli(capsys, "models", path)
        assert code == 2
        assert "column" in err and "bad.lp" in err

    def test_form_feed_is_no_line_break(self, capsys, tmp_path):
        path = write(tmp_path, "feed.lp", "a\x0cb\n")
        code, out, err = run_cli(capsys, "models", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: line 1, column 2: unexpected character")

    def test_crlf_file(self, capsys, tmp_path):
        (tmp_path / "crlf.lp").write_bytes(FORMULA2.replace("\n", "\r\n").encode())
        assert run_cli(capsys, "models", str(tmp_path / "crlf.lp")) == run_cli(
            capsys, "models", write(tmp_path, "lf.lp", FORMULA2)
        )

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "models", "nowhere.lp")
        assert code == 2
        assert "nowhere.lp" in err

    def test_cap_exceeded_exit_3(self, capsys, formula2_file):
        code, _, err = run_cli(capsys, "models", formula2_file, "--cap", "2")
        assert code == 3
        assert "cap of 2" in err

    @pytest.mark.parametrize("flags", [[], ["--simplify"]], ids=["raw", "simplified"])
    def test_syntactic_translation_checks_the_cap(self, capsys, formula2_file, flags):
        # The syntactic path enumerates nothing, so the command checks the cap.
        code, out, err = run_cli(
            capsys, "to-program", "--method", "syntactic", *flags, formula2_file, "--cap", "2"
        )
        assert code == 3 and out == ""
        assert "cap of 2" in err

    def test_negative_cap_rejected(self, capsys, formula2_file):
        with pytest.raises(SystemExit) as exit_info:
            main(["models", formula2_file, "--cap", "-1"])
        assert exit_info.value.code == 2
        assert "--cap" in capsys.readouterr().err

    def test_large_cap_needs_acknowledgment(self, capsys, formula2_file):
        code, _, err = run_cli(capsys, "models", formula2_file, "--cap", "25")
        assert code == 2
        assert "--allow-large" in err
        code, out, _ = run_cli(
            capsys, "models", formula2_file, "--cap", "25", "--allow-large"
        )
        assert code == 0
        assert len(out.splitlines()) == 21

    def test_caps_past_the_largest_that_fits_need_acknowledgment(self, capsys, formula2_file):
        # 17 atoms is the largest space measured to fit in memory.
        code, _, err = run_cli(capsys, "models", formula2_file, "--cap", "18")
        assert code == 2
        assert "--cap 18 exceeds 17" in err and "--allow-large" in err
        code, out, _ = run_cli(capsys, "models", formula2_file, "--cap", "17")
        assert code == 0
        assert len(out.splitlines()) == 21

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    def test_closed_output_pipe_ends_quietly(self, tmp_path):
        # count 12 prints 158,754 digits, more than a pipe buffer holds, so
        # htlp is still writing when the reader goes away.
        with open(tmp_path / "stderr", "wb") as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "htlp.cli", "count", "12"],
                stdout=subprocess.PIPE, stderr=err, env=_child_env(),
            )
            assert len(child.stdout.read(10)) == 10
            child.stdout.close()
            assert child.wait(timeout=60) == -signal.SIGPIPE
        assert (tmp_path / "stderr").read_bytes() == b""


class TestCollectorOff:
    """The console entry point runs with the cyclic collector off; no cycles leak.

    The one argument parser a run builds and drops is cyclic garbage of a
    fixed size (about 400 argparse objects); the child measures it by
    building one and subtracts it, so unreachable counts everything else.
    """

    PROBE = """
import gc, sys
import htlp.cli
gc.collect()
htlp.cli.build_arg_parser()
parser = gc.collect()
sys.argv[0] = "htlp"
try:
    htlp.cli.run()
except SystemExit as stop:
    code = stop.code
enabled = gc.isenabled()
sys.stdout.flush()
left = gc.collect() - parser
print(f"\\nprobe: exit={code} enabled={enabled} parser={parser} unreachable={left}",
      file=sys.stderr)
"""

    def _probe(self, tmp_path, *argv):
        example = write(tmp_path, "example.lp", FORMULA2)
        partner = write(tmp_path, "partner.lp", GOLDEN_PROGRAM)
        argv = [{"EXAMPLE": example, "PARTNER": partner}.get(a, a) for a in argv]
        child = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv], capture_output=True,
            text=True, env=_child_env(), timeout=60,
        )
        assert child.returncode == 0, child.stderr
        return child.stdout, child.stderr.rsplit("\nprobe: ", 1)[1].split()

    @pytest.mark.parametrize("argv", [
        ("models", "EXAMPLE"),
        ("countermodels", "EXAMPLE"),
        ("equilibrium", "EXAMPLE"),
        ("to-program", "--method", "syntactic", "--verify", "EXAMPLE"),
        ("to-program", "--method", "syntactic", "--simplify", "--trace", "EXAMPLE"),
        ("to-program", "--method", "countermodel", "--verify", "EXAMPLE"),
        ("to-dnf", "--verify", "--annotate", "EXAMPLE"),
        ("check-equiv", "EXAMPLE", "PARTNER"),
        ("count", "8", "--verbose"),
    ], ids=lambda argv: "-".join(a.strip("-").lower() for a in argv[:2]))
    def test_no_cycles_left(self, tmp_path, argv):
        out, probe = self._probe(tmp_path, *argv)
        assert out
        assert probe[:2] == ["exit=0", "enabled=False"]
        assert probe[3] == "unreachable=0" and probe[2] != "parser=0"

    def test_error_path_leaves_no_cycles(self, tmp_path):
        bad = write(tmp_path, "bad.lp", "p &\n")
        _, probe = self._probe(tmp_path, "to-dnf", bad)
        assert probe[:2] == ["exit=2", "enabled=False"]
        assert probe[3] == "unreachable=0" and probe[2] != "parser=0"

    def test_main_leaves_the_collector_alone(self, capsys, formula2_file):
        import gc

        assert gc.isenabled()
        assert run_cli(capsys, "models", formula2_file)[0] == 0
        assert gc.isenabled()


class TestPublicImports:
    def test_cli_imports_no_private_name(self):
        # The CLI is a client of the library: what it needs is public.
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "htlp"
            ):
                imported += (node.module or "").split(".")
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "htlp":
                        imported += alias.name.split(".")
        assert "semantics" in imported
        assert [name for name in imported if name.startswith("_")] == []


class TestStartup:
    def test_import_loads_no_heavy_modules(self):
        # Each command is a fresh process, so these would be paid on every run.
        probe = (
            "import sys; bare = set(sys.modules); import htlp.cli; "
            "print(' '.join(sorted(set(sys.modules) - bare)))"
        )
        child = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=_child_env(), timeout=60, check=True,
        )
        added = set(child.stdout.split())
        assert "htlp.cli" in added
        assert not added & {"dataclasses", "inspect", "json"}


# --- a differential gate: drawn files and command lines against the reference

_BINARY = {"&": And, "|": Or, "->": Implies, "<->": iff}
_LEAVES = [(name, Atom(name)) for name in "abcd"] + [("top", TOP), ("bot", BOT)]

#: (text, tree) pairs: the text in the file grammar and the tree it denotes,
#: built with the node constructors, not by the parser under test.
formula_texts = st.recursive(
    st.sampled_from(_LEAVES),
    lambda sub: st.builds(
        lambda op, f: (op + f[0], neg(f[1])), st.sampled_from(("~", "not ")), sub
    ) | st.builds(
        lambda op, f, g: (f"({f[0]} {op} {g[0]})", _BINARY[op](f[1], g[1])),
        st.sampled_from(sorted(_BINARY)), sub, sub,
    ),
    max_leaves=5,
)


@st.composite
def theory_files(draw):
    """The text of a file of at most 3 formulas over at most 4 atoms, with an
    optional #signature line, and the theory it denotes."""
    lines = draw(st.lists(formula_texts, max_size=3))
    declared = draw(st.none() | st.sets(st.sampled_from("abcd"), min_size=1))
    texts = [text for text, _ in lines]
    if declared is not None:
        texts.insert(draw(st.integers(0, len(texts))), "#signature " + " ".join(declared))
    formulas = tuple(f for _, f in lines)
    signature = Theory(formulas).signature | Signature(declared or ())
    return "".join(text + "\n" for text in texts), Theory(formulas, signature)


command_lines = (
    st.sampled_from(("models", "countermodels", "equilibrium", "check-equiv")).map(
        lambda c: [c]
    )
    | st.builds(
        lambda method, simplify, verify: ["to-program", "--method", method]
        + ["--simplify"] * simplify + ["--verify"] * verify,
        st.sampled_from(("countermodel", "syntactic")), st.booleans(), st.booleans(),
    )
    | st.builds(lambda verify: ["to-dnf"] + ["--verify"] * verify, st.booleans())
)


def _shown(atoms) -> str:
    return " ".join(sorted(atoms)) or "∅"


def _as_json(pairs) -> list:
    return [{"here": sorted(x), "there": sorted(y)} for x, y in pairs]


def _parsed_back(lines) -> Theory:
    return Theory(tuple(parser_reference.parse(line) for line in lines))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(theory_files(), theory_files(), command_lines, st.booleans())
def test_command_lines_agree_with_the_reference(first, second, command, structured):
    (text, t), (other_text, u) = first, second
    with tempfile.TemporaryDirectory() as folder:
        paths = [os.path.join(folder, name) for name in ("first.lp", "second.lp")]
        for path, body in zip(paths, (text, other_text)):
            Path(path).write_text(body, encoding="utf-8")
        argv = command + paths[: 2 if command[0] == "check-equiv" else 1]
        argv += ["--format", "structured"] if structured else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    # Every drawn file is valid and within the cap, so only a syntactic
    # translation's rule budget may stop a run.
    syntactic = command[:3] == ["to-program", "--method", "syntactic"]
    if code == cli.EXIT_CAP_EXCEEDED and syntactic:
        assert err.startswith("error: ") and out == ""
        return
    assert err == ""
    verify = "--verify" in command
    if structured:
        document = json.loads(out)
        assert set(document) == {"command", "signature", "results", "verification"}
        assert document["command"] == command[0]
        sig = t.signature | u.signature if command[0] == "check-equiv" else t.signature
        assert document["signature"] == list(sig.atoms)
        assert document["verification"] == ("VERIFIED" if verify else None)
        results = document["results"]
    else:
        lines = out.splitlines()
        if verify:
            assert lines.pop() == "VERIFIED"
    if command[0] in ("models", "countermodels"):
        models, countermodels = ref.models(t), ref.countermodels(t)
        if structured:
            assert results == {
                "models": _as_json(models), "countermodels": _as_json(countermodels)
            }
        else:
            listed = models if command[0] == "models" else countermodels
            assert lines == [f"{_shown(x)} | {_shown(y)}" for x, y in listed]
    elif command[0] == "equilibrium":
        answer_sets = ref.equilibrium_models(t)
        if structured:
            assert results == {"equilibrium_models": [sorted(y) for y in answer_sets]}
        else:
            assert lines == [_shown(y) for y in answer_sets]
    elif command[0] == "check-equiv":
        witness = ref.equivalence_witness(t, u)
        assert code == (cli.EXIT_OK if witness is None else cli.EXIT_CHECK_FAILED)
        if structured:
            assert results == {
                "equivalent": witness is None,
                "witness": None if witness is None else _as_json([witness])[0],
            }
        else:
            shown = witness and f"WITNESS {_shown(witness[0])} | {_shown(witness[1])}"
            assert lines == [shown or "EQUIVALENT"]
        return
    elif command[0] == "to-program":
        if structured:
            assert set(results) == {"method", "mode", "rule_count", "rules"}
            assert results["method"] == command[2]
            assert results["mode"] == ("per_formula" if syntactic else "whole")
            assert results["rule_count"] == len(results["rules"])
            lines = results["rules"]
        assert ref.equivalence_witness(t, _parsed_back(lines)) is None
    else:
        if structured:
            assert set(results) == {"dnf", "clauses"}
            assert [c["source"] for c in results["clauses"]] == _as_json(ref.models(t))
            lines = [results["dnf"]]
        assert len(lines) == 1
        assert ref.equivalence_witness(t, _parsed_back(lines)) is None
    assert code == cli.EXIT_OK
