"""Benchmark for htlp: HT semantics, both translations, and the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py ... --record FILE      (also append the result)
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

One run generates the workload's inputs from the seed, times set-up in
fresh interpreters, runs whole passes over the op list in one worker
process (or, for cli-paper, one CLI process per op), checks every output
against the independent oracle and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace is 0 and the per-layer metrics
when it is 1.  The program is imported from `src/` of the checkout this
file sits in; without it the run fails.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from calib import Calibrator  # noqa: E402

SETUP_SAMPLES = 9
INTERPRETER_SAMPLES = 5
CHILD_TIMEOUT_S = 170
CHECKERS = {
    "ht-semantics": checks.check_semantics,
    "cm-translate": checks.check_countermodel,
    "syn-rewrite": checks.check_rewrite,
}


class RunError(Exception):
    """The run cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], cwd: str, stdout_path: str) -> tuple[int, float, int, str]:
    """Run one child to its end: (exit code, wall seconds, max RSS in KB, stderr).

    The child is reaped with wait4 so its own resource usage is read; a
    watchdog kills it after CHILD_TIMEOUT_S.
    """
    err_path = stdout_path + ".err"
    with open(stdout_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out, stderr=err,
                                 stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return child.returncode, wall, usage.ru_maxrss, stderr


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = os.path.join(HERE, "out", f"{workload}-{seed}-{os.getpid()}")
        self.items = gen.GENERATORS[workload](seed)
        self.problems: list[str] = []
        self.calib = Calibrator()

    # -- children

    def _job(self, mode: str) -> str:
        job = {
            "mode": mode, "workload": self.workload, "src": SRC,
            "items": [{k: v for k, v in item.items() if k != "formulas"}
                      for item in self.items],
            "seconds": self.seconds, "trace": self.trace,
            "probe": {"theory": gen.PAPER_EXAMPLE + "\n",
                      "partner": "\n".join(gen.PAPER_PROGRAM) + "\n"},
            "results": os.path.join(self.dir, "results.jsonl"),
            "summary": os.path.join(self.dir, "summary.json"),
        }
        if self.workload == "cli-paper":
            job["items"] = [{"theory": job["probe"]["theory"]},
                            {"theory": job["probe"]["partner"]}]
        path = os.path.join(self.dir, f"job-{mode}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        return path

    def _worker(self, mode: str) -> dict:
        job = self._job(mode)
        out = os.path.join(self.dir, f"worker-{mode}.out")
        code, _, _, stderr = spawn(
            [sys.executable, os.path.join(HERE, "worker.py"), job], self.dir, out)
        if code != 0:
            raise RunError(f"worker ({mode}) exited {code}:\n{stderr[-2000:]}")
        if mode == "setup":
            with open(out, encoding="utf-8") as handle:
                return json.load(handle)
        with open(os.path.join(self.dir, "summary.json"), encoding="utf-8") as handle:
            return json.load(handle)

    def setup_seconds(self) -> float:
        return statistics.median(
            self._worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES))

    def interpreter_seconds(self) -> float:
        out = os.path.join(self.dir, "pass.out")
        return statistics.median(
            spawn([sys.executable, "-c", "pass"], self.dir, out)[1]
            for _ in range(INTERPRETER_SAMPLES))

    # -- the in-process workloads

    def run_worker(self) -> dict:
        summary = self._worker("run")
        check = CHECKERS[self.workload]
        first, attempted = [], 0
        with open(os.path.join(self.dir, "results.jsonl"), encoding="utf-8") as handle:
            for k, line in enumerate(handle):
                record = json.loads(line)
                if k < len(self.items):
                    first.append(record)
                    self._check(f"op {k}", check, self.items[k], record)
                elif record["digest"] != _digest(first[record["op"]]):
                    self.problems.append(f"op {record['op']}: a later run gave another output")
                attempted += 1
        expected = sum(len(p) for p in summary["passes"]) + 2 * len(summary.get("traced_pass", ()))
        if attempted != expected:
            raise RunError(f"worker wrote {attempted} results for {expected} ops")
        summary["timed"] = [t for p in summary["passes"] for t in p]
        summary["rules_per_pass"] = sum(r["rules"] for r in first)
        return summary

    def _check(self, label: str, check, *args) -> None:
        """Run one checker; an output it cannot even read counts as wrong."""
        try:
            problems = check(*args)
        except (KeyError, ValueError, IndexError, TypeError, RecursionError) as error:
            problems = [f"unreadable output: {error!r}"]
        self.problems.extend(f"{label}: {p}" for p in problems)

    # -- cli-paper

    def _write_inputs(self) -> None:
        for name, text in (("example.lp", gen.PAPER_EXAMPLE + "\n"),
                           ("partner.lp", "\n".join(gen.PAPER_PROGRAM) + "\n")):
            with open(os.path.join(self.dir, name), "w", encoding="utf-8") as handle:
                handle.write(text)

    def cli_pass(self, traced: bool, items=None) -> dict:
        """One pass of CLI children; returns times, failures, RSS, rules, spans."""
        result = _cli_result()
        for item in items if items is not None else self.items:
            ref = self.calib.before_op()
            out = os.path.join(self.dir, "cli.out")
            if traced:
                trace_path = os.path.join(self.dir, "cli-trace.json")
                argv = [sys.executable, os.path.join(HERE, "clichild.py"), trace_path]
            else:
                argv = [sys.executable, "-c", "import sys; from htlp.cli import run; run()"]
            code, wall, rss_kb, _ = spawn(argv + item["argv"], self.dir, out)
            with open(out, encoding="utf-8") as handle:
                stdout = handle.read()
            failed = code != 0
            if not failed:
                self._check(item["name"], checks.check_cli, item["name"], stdout)
            result["timed"].append([wall, ref])
            result["rss_kb"] = max(result["rss_kb"], rss_kb)
            if failed:
                result["failed"] += 1
            else:
                result["ok"].append([wall, ref])
                if item["name"].startswith("to-program"):
                    result["rules"] += len(stdout.splitlines()) - 1
            if traced:
                with open(trace_path, encoding="utf-8") as handle:
                    result["children"].append(json.load(handle))
        return result

    # -- metrics

    def end_to_end(self) -> dict:
        os.makedirs(self.dir)
        setup_s = self.setup_seconds()
        if self.workload == "cli-paper":
            self._write_inputs()
            result = self.cli_pass(traced=False)
            pass_wall = sum(t for t, _ in result["timed"])
            for _ in range(max(1, int(self.seconds // pass_wall)) - 1):
                _merge(result, self.cli_pass(traced=False))
            timed, ok, failed, rss_kb = (result["timed"], result["ok"], result["failed"],
                                         result["rss_kb"])
        else:
            summary = self.run_worker()
            timed = ok = summary["timed"]
            failed = 0
            rss_kb = summary["maxrss_kb"]
        if len(ok) < 40:
            raise RunError(f"only {len(ok)} ops completed; p90 needs 40")
        in_refs = [t / ref for t, ref in ok]
        print(f"raw: op_p50_ms={statistics.median(t for t, _ in ok) * 1000:.4g} "
              f"op_p90_ms={_quantile([t for t, _ in ok], 9) * 1000:.4g} "
              f"ops_per_s={len(ok) / sum(t for t, _ in timed):.4g} "
              f"ref_ms={statistics.median(r for _, r in timed) * 1000:.4g}", file=sys.stderr)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_kref": (1000 * len(ok) / sum(t / ref for t, ref in timed), "op/kref"),
            "op_p50_ref": (statistics.median(in_refs), "ref"),
            "op_p90_ref": (_quantile(in_refs, 9), "ref"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        return self._result(len(timed), failed, metrics)

    def per_layer(self) -> dict:
        os.makedirs(self.dir)
        cli_children: list = []
        if self.workload == "cli-paper":
            self._write_inputs()
            plain, traced = _cli_result(), _cli_result()
            for item in self.items:  # paired, as in the worker
                _merge(plain, self.cli_pass(traced=False, items=[item]))
                _merge(traced, self.cli_pass(traced=True, items=[item]))
            cli_children = traced["children"]
            probe = self._worker("probe")
            span_list = probe["spans"]
            overhead = _total(traced["timed"]) / _total(plain["timed"]) - 1
            rules = plain["rules"] + probe["probe_rules"]
            attempted = len(plain["timed"]) + len(traced["timed"])
            failed = plain["failed"] + traced["failed"]
        else:
            summary = self.run_worker()
            span_list = summary["spans"]
            overhead = _total(summary["traced_pass"]) / _total(summary["paired_pass"]) - 1
            rules = summary["rules_per_pass"] + summary["probe_rules"]
            self._write_inputs()
            probe_items = [{"name": name, "argv": argv} for name, argv in gen.CLI_COMMANDS]
            cli = self.cli_pass(traced=True, items=probe_items)
            cli_children = cli["children"]
            attempted = len(summary["passes"][0]) + 2 * len(summary["traced_pass"]) \
                + len(probe_items)
            failed = cli["failed"]
        for child in cli_children:
            span_list = span_list + child["spans"]
        totals = spans.self_times(span_list)
        metrics = layer_metrics(totals)
        metrics["cli.interpreter_s"] = (self.interpreter_seconds(), "s")
        metrics["cli.import_s"] = (statistics.median(c["import_s"] for c in cli_children), "s")
        metrics["cli.main_s"] = (statistics.median(c["main_s"] for c in cli_children), "s")
        metrics["trace.overhead_pct"] = (overhead * 100, "%")
        metrics["rules_out"] = (rules, "rules")
        return self._result(attempted, failed, metrics)

    def _result(self, attempted: int, failed: int, metrics: dict) -> dict:
        for problem in self.problems[:20]:
            print(f"problem: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def _cli_result() -> dict:
    return {"timed": [], "ok": [], "failed": 0, "rss_kb": 0, "rules": 0, "children": []}


def _total(timed: list) -> float:
    return sum(t for t, _ in timed)


def _merge(into: dict, part: dict) -> None:
    for key, value in part.items():
        into[key] = max(into[key], value) if key == "rss_kb" else into[key] + value


def _digest(record: dict) -> str:
    line = json.dumps(record, separators=(",", ":"))
    return hashlib.sha256(line.encode()).hexdigest()


def _sum(totals: dict, names: list[str], key: str = "self_s") -> float:
    return sum(totals.get(name, {}).get(key, 0) for name in names)


def layer_metrics(totals: dict) -> dict:
    """Per-layer busy (self) times and rates from the span totals."""
    parser_s = _sum(totals, ["parser.parse"])
    models_s = _sum(totals, ["semantics.models"])
    equilibrium_s = _sum(totals, ["semantics.equilibrium"])
    equiv_s = _sum(totals, ["semantics.equiv"])
    interps = _sum(totals, ["semantics.models", "semantics.equilibrium", "semantics.equiv"],
                   "interps")
    cm_s = _sum(totals, ["countermodels.build", "countermodels.merge"])
    dnf_s = _sum(totals, ["dnf.build"])
    simplified_in = _sum(totals, ["rewriting.simplify"], "rules_in")
    return {
        "parser.busy_s": (parser_s, "s"),
        "parser.formulas_per_s": (_sum(totals, ["parser.parse"], "formulas") / parser_s, "1/s"),
        "formula.print_s": (_sum(totals, ["formula.print"]), "s"),
        "formula.to_theory_s": (_sum(totals, ["formula.to_theory"]), "s"),
        "semantics.models_s": (models_s, "s"),
        "semantics.equilibrium_s": (equilibrium_s, "s"),
        "semantics.equiv_s": (equiv_s, "s"),
        "semantics.interps_per_s": (interps / (models_s + equilibrium_s + equiv_s), "1/s"),
        "countermodels.build_s": (cm_s, "s"),
        "countermodels.rules_per_s": (
            _sum(totals, ["countermodels.build"], "rules") / cm_s, "1/s"),
        "dnf.build_s": (dnf_s, "s"),
        "dnf.clauses_per_s": (
            _sum(totals, ["dnf.clauses", "dnf.build"], "clauses") / dnf_s, "1/s"),
        "rewriting.eliminate_s": (_sum(totals, ["rewriting.eliminate"]), "s"),
        "rewriting.convert_s": (_sum(totals, ["rewriting.convert", "rewriting.merge"]), "s"),
        "rewriting.simplify_s": (_sum(totals, ["rewriting.simplify"]), "s"),
        "rewriting.rules_raw": (_sum(totals, ["rewriting.raw"], "rules"), "rules"),
        "rewriting.kept_ratio": (
            _sum(totals, ["rewriting.simplify"], "rules_kept") / simplified_in, "ratio"),
        "counting.count_s": (_sum(totals, ["counting.count"]), "s"),
    }


# --- compare mode ----------------------------------------------------------

def _load_set(path: str) -> dict:
    runs: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            for name, metric in record["result"]["metrics"].items():
                runs.setdefault((record["workload"], name), []).append(metric["value"])
    return runs


def compare(base_path: str, new_path: str) -> None:
    """One row per workload and metric: medians, quartiles and a verdict."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = _load_set(base_path), _load_set(new_path)
    print(f"{'workload':13} {'metric':26} {'base q1/median/q3':>30} "
          f"{'new q1/median/q3':>30} {'change':>8}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        a, b = base[key], new[key]
        qa, qb = _quartiles(a), _quartiles(b)
        spec_m = bounds.get(name, {})
        lower = spec_m.get("better", "lower") == "lower"
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        worse_by = change if lower else -change
        bound = spec_m.get("bound")
        spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
        if bound is None:
            verdict = "no bound"
        elif spread > bound:
            better_all = (max(b) < min(a)) if lower else (min(b) > max(a))
            verdict = "within bound" if better_all else "unresolved"
        elif worse_by > bound:
            verdict = "worse"
        else:
            verdict = "within bound"
        print(f"{workload:13} {name:26} {_fmt(qa):>30} {_fmt(qb):>30} "
              f"{change:+8.1%}  {verdict} (spread {spread:.1%}, n={len(a)}/{len(b)})")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(q) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the workload, seed and result here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two files written with --record")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "htlp", "__init__.py")):
        print(f"error: no htlp sources under {SRC}", file=sys.stderr)
        return 2
    # Children run with bytecode already compiled, as installed copies do.
    if not compileall.compile_dir(os.path.join(SRC, "htlp"), quiet=1):
        print("error: htlp does not compile", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.per_layer() if args.trace else run.end_to_end()
    except RunError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
