"""equivar benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload noether|large-group|orbit \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The workload runs in fresh, single-threaded
interpreters (`perfbench/worker.py`), one at a time: first the set-up, several
times over, then one process that measures for S seconds.  With `--trace 0`
the last line of standard output is a JSON object with the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics instead.  The lines
before it give every metric by name with its unit, the per-job times, the
input sizes and the machine.  A full record, and with `--trace 1` the spans,
is written under `perfbench/out/`.  See `perfbench/README.md`.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from statistics import median
from time import perf_counter

sys.dont_write_bytecode = True  # keep __pycache__ out of the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("noether", "large-group", "orbit")
# Set-up runs at least SETUP_MIN times and at most SETUP_MAX times, and stops
# repeating once SETUP_SECONDS have gone, so a slow set-up costs three runs.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 7, 3.0
TOTAL_LIMIT_S = 170.0
COMMAND_METRICS = {
    "invariants": "invariants_s",
    "equivariants": "equivariants_s",
    "reduce": "reduce_s",
    "check-related": "check_related_s",
    "integrate-check": "integrate_check_s",
    "relations": "relations_s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EQUIVAR_CAP", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def machine() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version}


class BenchError(Exception):
    """The benchmark could not run the workload at all."""


def run_worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Run the worker to completion; return (wall seconds, its stdout)."""
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} ran past the time limit") from None
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return elapsed, proc.stdout


def same_inputs(a: str, b: str) -> bool:
    cmp = filecmp.dircmp(a, b)
    return not (cmp.left_only or cmp.right_only or cmp.diff_files or cmp.funny_files) and all(
        filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False) for f in cmp.common_files
    )


def end_to_end(records: list[dict]) -> tuple[dict, dict, int]:
    """Per-job medians over the untraced passes, and the metrics built on them.

    `wall_s` sums each job's median time.  `wall_ref` sums each job's median
    of (job time / reference time measured around it): the same pass in
    units of the reference work, so a machine that runs slower for a while
    moves it far less than it moves `wall_s`.
    """
    times: dict[str, list[float]] = {}
    ratios: dict[str, list[float]] = {}
    command: dict[str, str] = {}
    passes = set()
    for r in records:
        if not r["traced"]:
            times.setdefault(r["id"], []).append(r["seconds"])
            ratios.setdefault(r["id"], []).append(r["seconds"] / r["ref_s"])
            command[r["id"]] = r["command"]
            passes.add(r["pass"])
    job_median = {job: median(ts) for job, ts in times.items()}
    metrics = {"wall_s": sum(job_median.values()),
               "wall_ref": sum(median(rs) for rs in ratios.values())}
    for job, t in job_median.items():
        name = COMMAND_METRICS[command[job]]
        metrics[name] = metrics.get(name, 0.0) + t
    return metrics, job_median, len(passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + TOTAL_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "equivar", "__init__.py")):
        print(f"run.py: {ROOT} holds no src/equivar to benchmark", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT, f"{tag}-spans.json")
    try:
        setup_times, setup_dirs = [], []
        while True:
            d = os.path.join(work, f"setup{len(setup_times)}")
            seconds, _ = run_worker(["setup", "--workload", args.workload, "--seed", str(args.seed),
                                     "--dir", d], deadline)
            setup_times.append(seconds)
            setup_dirs.append(d)
            # a traced run reports no set-up time, so it sets up once
            if args.trace or len(setup_times) == SETUP_MAX or (
                    len(setup_times) >= SETUP_MIN and sum(setup_times) >= SETUP_SECONDS):
                break
        inputs_identical = all(same_inputs(setup_dirs[0], d) for d in setup_dirs[1:])
        with open(os.path.join(setup_dirs[0], "inputs.json"), encoding="utf-8") as fh:
            inputs = json.load(fh)
        measure = ["measure", "--dir", setup_dirs[0], "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--budget", str(deadline - perf_counter() - 5.0)]
        if args.trace:
            measure += ["--spans", spans_path]
        _, stdout = run_worker(measure, deadline)
        result = json.loads(stdout.strip().splitlines()[-1])
    except (BenchError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace and result["per_layer"] is None:
        print("run.py: the run ended before a traced pass", file=sys.stderr)
        return 1

    records = result["records"]
    failures = [r for r in records if r["error"]]
    correct = not failures and inputs_identical
    e2e, job_median, passes = end_to_end(records)
    env = machine()

    print(f"# equivar benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")
    for name, size in inputs.items():
        print(f"# input {name}: " + " ".join(f"{k}={v}" for k, v in size.items()))
    for job, t in job_median.items():
        print(f"# job {job}: {t:.6f} s (median of {passes} untraced passes)")
    for r in failures:
        print(f"# FAILED pass {r['pass']} job {r['id']}: {r['error']}")
    if not inputs_identical:
        print("# FAILED: set-ups with the same seed wrote different inputs")
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in _per_layer_units().items()}
        for layer in result["absent_layers"]:
            print(f"# absent layer {layer}: its metrics read 0")
    else:
        metrics = {
            "wall_ref": {"value": e2e["wall_ref"], "unit": "ref"},
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        refs = [r["ref_s"] for r in records if not r["traced"]]
        print(f"wall_s = {e2e['wall_s']:.6f} s (time of one pass, median of {passes} passes)")
        for name in COMMAND_METRICS.values():
            if name in e2e:
                print(f"{name} = {e2e[name]:.6f} s (per-command time of one pass, "
                      f"median of {passes} passes)")
        print(f"reference work: median {median(refs):.6f} s over {len(refs)} timings")
        print("setup_s samples: " + " ".join(f"{t:.6f}" for t in setup_times))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"jobs attempted={len(records)} failed={len(failures)} passes={result['passes']}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": env, "inputs": inputs, "setup_s_samples": setup_times,
        "job_median_s": job_median, "per_command_s": e2e, "jobs": records,
        "absent_layers": result["absent_layers"], "metrics": metrics,
        "spans_file": os.path.relpath(spans_path, ROOT) if args.trace else None,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failures),
                      "metrics": metrics}))
    return 0


def _per_layer_units() -> dict:
    sys.path.insert(0, HERE)
    from tracing import PER_LAYER_UNITS

    return PER_LAYER_UNITS


if __name__ == "__main__":
    sys.exit(main())
