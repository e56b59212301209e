"""One workload in one fresh interpreter: `setup` or `measure`.

    python perfbench/worker.py setup --workload W --seed N --dir D
    python perfbench/worker.py measure --dir D --seconds S --trace 0|1 --budget B [--spans F]

`setup` imports equivar from the checkout's `src/`, writes the workload's
inputs to D, and writes D/jobs.json (the job list) and D/inputs.json (input
sizes).  `measure` runs the job list pass after pass through
`equivar.cli.main`, in this process, until S seconds have gone (at least two
passes), and prints one JSON object with every job's time and outcome, and
the time of a fixed reference work measured around each job.  With
`--trace 1` it alternates untraced and traced passes and adds the per-layer
metrics of the traced ones.  Every job writes with `--out` to a fresh
directory per pass; its output must pass the workload's check once and then
be byte-identical in every later pass.  A job that exits nonzero, raises,
fails its check or outlives its time limit counts as failed; nothing is
raised past the job.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import sys
import traceback
from fractions import Fraction
from statistics import median
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

JOB_LIMIT_S = 60.0


class JobTimeout(BaseException):
    """Raised by SIGALRM when a job outlives its time limit."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def import_equivar():
    """Import equivar from this checkout, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "equivar", "__init__.py")):
        raise SystemExit(f"worker: no equivar package under {SRC}")
    sys.path.insert(0, SRC)
    import equivar
    import equivar.cli

    if not os.path.abspath(equivar.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"worker: imported equivar from {equivar.__file__}, not {SRC}")
    return equivar


def run_cli(main, argv: list[str], limit: float) -> tuple[float, str | None]:
    """Run main(argv) with its output captured; return (seconds, error or None)."""
    sink = io.StringIO()
    error = None
    signal.setitimer(signal.ITIMER_REAL, max(limit, 0.001))
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        elapsed = perf_counter() - t0
        if code != 0:
            error = f"exit code {code}: {sink.getvalue()[-400:]}"
    except JobTimeout:
        elapsed = perf_counter() - t0
        error = f"timed out after {limit:.0f} s"
    except (Exception, SystemExit) as exc:
        elapsed = perf_counter() - t0
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        error += f": {sink.getvalue()[-400:]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, error


def reference_seconds() -> float:
    """Time of a fixed piece of pure-Python work, about 10 ms here.

    It does what equivar spends its time on: Fraction arithmetic and dict
    updates keyed by exponent tuples.  Timed right before and right after
    every job, it tracks how fast the shared machine runs at that moment.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    terms: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 1500):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        terms[(i, i % 7)] = acc
    return perf_counter() - t0


# -- setup -------------------------------------------------------------------


def cmd_setup(args) -> int:
    import_equivar()
    from equivar import cli

    def setup_cli(argv: list[str]) -> None:
        _, error = run_cli(cli.main, argv, JOB_LIMIT_S)
        if error:
            raise SystemExit(f"worker: set-up command {argv[0]} failed: {error}")

    os.makedirs(args.dir, exist_ok=True)
    jobs, sizes = workloads.build(args.workload, args.seed, args.dir, setup_cli)
    with open(os.path.join(args.dir, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "jobs": jobs}, fh, indent=1)
    with open(os.path.join(args.dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(sizes, fh, indent=1, sort_keys=True)
    return 0


# -- measure -----------------------------------------------------------------


class Runner:
    """Runs passes over a job list and keeps every job's record."""

    def __init__(self, main, in_dir: str, jobs: list[dict], deadline: float) -> None:
        self.main = main
        self.in_dir = in_dir
        self.jobs = jobs
        self.deadline = deadline
        self.records: list[dict] = []
        self.first_output: dict[str, tuple[bytes, str | None]] = {}
        self.timed_out = False

    def run_pass(self, index: int, tracer=None) -> None:
        out_dir = os.path.join(self.in_dir, f"pass{index}")
        os.makedirs(out_dir)
        for job in self.jobs:
            argv = [a.replace("{in}", self.in_dir).replace("{out}", out_dir) for a in job["argv"]]
            limit = min(JOB_LIMIT_S, self.deadline - perf_counter())
            gc.collect()
            ref_before = reference_seconds()
            if tracer is None:
                seconds, error = run_cli(self.main, argv, limit)
            else:
                seconds, error = tracer.run_job(job["id"], run_cli, self.main, argv, limit)
            ref_s = (ref_before + reference_seconds()) / 2
            if error is None:
                error = self._check(job, os.path.join(out_dir, job["out"]))
            if error and "timed out" in error:
                self.timed_out = True
            self.records.append({"pass": index, "traced": tracer is not None, "id": job["id"],
                                 "command": job["command"], "seconds": seconds, "ref_s": ref_s,
                                 "error": error})
        if index > 0:
            shutil.rmtree(out_dir)

    def _check(self, job: dict, out_path: str) -> str | None:
        try:
            with open(out_path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return f"no output: {exc}"
        ref = self.first_output.get(job["id"])
        if ref is None:
            try:
                workloads.check_output(job["check"], out_path, self.in_dir)
                problem = None
            except workloads.CheckFailed as exc:
                problem = f"check failed: {exc}"
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"check failed: malformed output ({type(exc).__name__}: {exc})"
            self.first_output[job["id"]] = (data, problem)
            return problem
        if data != ref[0]:
            return "output differs from the first pass"
        return ref[1]

    def pass_wall(self, index: int) -> float:
        return sum(r["seconds"] for r in self.records if r["pass"] == index)


def cmd_measure(args) -> int:
    deadline = perf_counter() + args.budget
    import_equivar()
    from equivar import cli

    start = perf_counter()
    with open(os.path.join(args.dir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    runner = Runner(cli.main, args.dir, jobs, deadline)
    tracer = None
    per_layer = None
    if args.trace:
        tracer = tracing.Tracer()
    untraced, traced, pass_spans = [], [], []
    index = 0
    while True:
        # a traced run alternates untraced and traced passes
        if tracer is not None and index % 2 == 1:
            lo = len(tracer.start)
            tracer.install()
            try:
                runner.run_pass(index, tracer)
            finally:
                tracer.uninstall()
            pass_spans.append((lo, len(tracer.start)))
            traced.append(runner.pass_wall(index))
        else:
            runner.run_pass(index)
            untraced.append(runner.pass_wall(index))
        index += 1
        now = perf_counter()
        if runner.timed_out or now + runner.pass_wall(index - 1) > deadline:
            break
        if tracer is not None and index % 2 == 1:
            continue
        if index >= 2 and now - start >= args.seconds:
            break
    if tracer is not None and pass_spans:
        per_pass = [tracing.pass_metrics(tracer, lo, hi) for lo, hi in pass_spans]
        per_layer = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
        per_layer["trace.overhead_s"] = median(traced) - median(untraced)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    result = {
        "records": runner.records,
        "passes": index,
        "per_layer": per_layer,
        "absent_layers": tracer.absent if tracer is not None else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("measure")
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--budget", type=float, required=True, help="hard limit on the whole process, seconds")
    p.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    return cmd_setup(args) if args.mode == "setup" else cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
