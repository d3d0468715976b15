"""The eqpart benchmark.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 25 --trace 0

Generates the workload's input files from the seed, then runs its job list
in rounds, closed loop with one client: each job is one ``eqpart`` CLI
process (``python3 -m eqpart.cli`` on the checkout's ``src/``) and the next
starts when it has exited.  Every job's stdout is checked against the
expected answer; a job with a wrong output or a non-zero exit counts as
failed and its time is not recorded.  Rounds repeat until ``--seconds`` have
passed and at least MIN_JOBS jobs have run; only whole rounds run, so every
job weighs the same in every run.  A ``--help`` run before every third job
samples the set-up time across the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
job list in this process through ``eqpart.cli.main`` instead, each job once
untraced and once traced, and reports the per-layer metrics.

The last stdout line is one JSON object:
``{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}``.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import cases  # noqa: E402

# set-up: interpreter start, import and parser build, timed by --help
SETUP_PROBE = ("setup", ["--help"], None)
SETUP_EVERY = 3
MIN_JOBS = 55  # so that at least 10 samples lie beyond the tail percentile
TAIL = 0.8  # the tail percentile: 0.8 * (55 - 1) = 43.2 leaves 11 samples beyond
HARD_STOP_S = 150.0  # no new round starts after this, whatever MIN_JOBS says


def quantile(values, p: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def output_ok(stdout: str, expected: dict) -> bool:
    try:
        return json.loads(stdout) == expected
    except json.JSONDecodeError:
        return False


class Launcher:
    """The spawn.py child that runs each job and measures it with wait4."""

    def __init__(self, workdir: Path):
        self.out, self.err = workdir / "job.stdout", workdir / "job.stderr"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, args: list[str]) -> tuple[dict, str, str]:
        req = {"argv": [sys.executable, "-m", "eqpart.cli", *args], "env": self.env,
               "stdout": str(self.out), "stderr": str(self.err)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job launcher exited")
        return json.loads(line), self.out.read_text(), self.err.read_text()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def in_rounds(items, seconds: float, min_rounds: int, run_one) -> float:
    """Run whole rounds of the list, calling run_one(item, round number),
    until both the time and the round count are reached; returns the batch's
    wall time."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for item in items:
            run_one(item, rounds)
        rounds += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and rounds >= min_rounds) or elapsed >= HARD_STOP_S:
            return elapsed


def end_to_end(jobs, seconds: float, workdir: Path) -> tuple[dict, int, int]:
    # a set-up probe before every SETUP_EVERY jobs, so that set-up time is
    # sampled across the whole run, as the jobs are
    items = []
    for i, job in enumerate(jobs):
        if i % SETUP_EVERY == 0:
            items.append(SETUP_PROBE)
        items.append(job)
    setup, failed = [], []
    ok = defaultdict(list)  # job name -> measurements of passing runs
    launch = Launcher(workdir)
    try:
        def run_one(item, _round):
            name, argv, expected = item
            r, out, err = launch.run(argv)
            if item is SETUP_PROBE:
                if r["exit"] != 0 or not out.startswith("usage: eqpart"):
                    raise RuntimeError(f"eqpart --help failed (exit {r['exit']}): {err.strip()}")
                setup.append(r["wall_s"])
            elif r["exit"] == 0 and output_ok(out, expected):
                ok[name].append(r)
            else:
                failed.append(name)
                print(f"FAILED {name} (exit {r['exit']}): {err.strip()[:300]}", file=sys.stderr)

        batch = in_rounds(items, seconds, -(-MIN_JOBS // len(jobs)), run_one) - sum(setup)
    finally:
        launch.close()
    runs = [r for rs in ok.values() for r in rs]
    if not runs:
        raise RuntimeError("no job produced a correct output")
    walls = [r["wall_s"] for r in runs]
    tail = quantile(walls, TAIL)
    print(f"# {len(runs)} correct jobs of {len(runs) + len(failed)}, {len(setup)} set-up probes; "
          f"job_s.tail is p{round(TAIL * 100)}, "
          f"{sum(1 for x in walls if x > tail)} samples beyond it")
    print("# job                          n   wall_p50_s  cpu_p50_s  rss_max_mb")
    for name, rs in ok.items():
        print(f"# {name:28s} {len(rs):3d} {statistics.median(r['wall_s'] for r in rs):10.4f} "
              f"{statistics.median(r['cpu_s'] for r in rs):10.4f} "
              f"{max(r['rss_kb'] for r in rs) / 1024:10.1f}")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "job_s.tail": (tail, "s"),
        "job_cpu_s.p50": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "jobs_per_s": (len(runs) / batch, "1/s"),
        "rss_mb.max": (max(r["rss_kb"] for r in runs) / 1024, "MB"),
    }
    return metrics, len(runs) + len(failed), len(failed)


def run_in_process(main, argv) -> tuple[object, str, float]:
    """Run the CLI in this process; a job that raises counts as failed."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - report the job as failed, keep running
            code = traceback.format_exc()
    return code, out.getvalue(), time.perf_counter() - start


def per_layer(jobs, seconds: float) -> tuple[dict, int, int]:
    sys.path.insert(0, str(SRC))
    from eqpart import cli

    import tracer

    t = tracer.Tracer()
    plain_s = traced_s = 0.0
    n_traced = attempted = failed = 0

    def run_one(job, round_no):
        nonlocal plain_s, traced_s, n_traced, attempted, failed
        name, argv, expected = job
        # alternate which of the pair runs first, so neither always runs warm
        for traced in ((False, True) if round_no % 2 == 0 else (True, False)):
            attempted += 1
            if traced:
                t.job = n_traced
                t.install()
                try:
                    code, out, wall = t.call("cli", run_in_process, cli.main, argv)
                finally:
                    t.restore()
            else:
                code, out, wall = run_in_process(cli.main, argv)
            if code != 0 or not output_ok(out, expected):
                failed += 1
                print(f"FAILED {name} (traced={traced}): {code}", file=sys.stderr)
            elif traced:
                traced_s += wall
                n_traced += 1
            else:
                plain_s += wall

    in_rounds(jobs, seconds, 1, run_one)
    if n_traced == 0:
        raise RuntimeError("no traced job produced a correct output")
    self_s = t.layer_seconds()
    metrics = {"cli.self_s": (self_s["cli"] / n_traced, "s")}
    for name in tracer.LAYERS:
        metrics[f"{name}_s"] = (self_s[name] / n_traced, "s")
    for key in tracer.COUNTS:
        metrics[key] = (t.counts[key] / n_traced, "count")
    for key in tracer.MAXIMA:
        metrics[key] = (t.maxima[key], "bits")
    entries = t.counts["ratmat.operand_entries"]
    metrics["ratmat.nonint_frac"] = (t.counts["ratmat.nonint_entries"] / max(entries, 1), "ratio")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    total = sum(self_s.values())
    print(f"# {n_traced} traced jobs: {traced_s / n_traced:.4f} s wall per job, of which the "
          f"layers and cli.self_s account for {total / n_traced:.4f} s")
    print("# layer self-time shares of the traced job time:")
    for name, own in self_s.most_common():
        print(f"#   {name:28s} {own / total:7.1%}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eqpart" / "cli.py").is_file():
        print(f"error: no eqpart sources under {SRC}", file=sys.stderr)
        return 2
    workdir = HERE / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        frozen = json.load(fh)
    jobs = []
    for job in cases.build(args.workload, args.seed, workdir):
        argv_, expected = job.render(frozen.get(f"{args.workload}/{job.name}", {}))
        jobs.append((job.name, argv_, expected))

    try:
        if args.trace:
            metrics, attempted, failed = per_layer(jobs, args.seconds)
        else:
            metrics, attempted, failed = end_to_end(jobs, args.seconds, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
