"""splinetree benchmark: one workload, timed for a fixed wall budget, checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grow-wide --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py``): ``grow-wide``, ``grow-tall``,
``cli-pipeline``.  The run builds its inputs from ``--seed`` a few times
(set-up), then repeats the workload's iteration while another one still
fits in ``--seconds`` (at least twice, three times when traced), checking
every operation's output.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
run); with ``--trace 1`` they are per-layer self times and work counts from
spans recorded around the package's public functions (see ``tracer.py``).
Traced runs alternate traced and untraced iterations, so that
``trace.overhead_frac`` compares the two.  The line before the result holds
``{"info": ...}``: environment, tree SHA-256, per-operation samples, errors.

``--size toy`` runs every workload at a size that finishes in seconds; the
benchmark's own tests use it.  Exit status is 0 when every check passed, 1
when one failed, 2 when the sources to measure are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"

# Set-up is repeated and the median reported: the import this many times,
# the input generation at least as often and for at least GENERATE_MIN_S.
SETUP_REPEATS = 3
GENERATE_MIN_S = 0.5
# A run makes at least this many iterations (two for the byte-determinism
# check; a traced run needs two traced iterations and one untraced).
MIN_ITERATIONS = {False: 2, True: 3}

END_TO_END = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("predict_rows_per_s", "rows/s"),
    ("diagnose_s", "s"),
    ("simulate_s", "s"),
    ("test_fidelity_r2", "r2"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
]

# Per-layer metric -> (kind, key).  "self" is a span's self time, "calls" its
# call count, "count" a work counter; all are per iteration.
PER_LAYER = {
    "tree.sweep.eigh_s": ("self", "tree.sweep.eigh"),
    "tree.sweep.eigh_matrices": ("count", "tree.sweep.eigh_matrices"),
    "tree.sweep.eigh_m3": ("count", "tree.sweep.eigh_m3"),
    "tree.best_split.self_s": ("self", "tree.best_split"),
    "tree.bin_grams_s": ("self", "tree.bin_grams"),
    "tree.bin_grams.calls": ("calls", "tree.bin_grams"),
    "tree.bin_grams.rows": ("count", "tree.bin_grams.rows"),
    "tree.root_binning_s": ("self", "tree.root_binning"),
    "basis.design_matrix_s": ("self", "basis.design_matrix"),
    "basis.build_spec_s": ("self", "basis.build_spec"),
    "tree.grow.self_s": ("self", "tree.grow"),
    "gram.fit_node_s": ("self", "gram.fit_node"),
    "gram.fit_node.calls": ("calls", "gram.fit_node"),
    "linalg.eigh_s": ("self", "linalg.eigh"),
    "tree.route_s": ("self", "tree.route"),
    "tree.route.calls": ("calls", "tree.route"),
    "tree.split_mask_s": ("self", "tree.split_mask"),
    "tree.split_mask.calls": ("calls", "tree.split_mask"),
    "diagnostics.split_contribution.self_s": ("self", "diagnostics.split_contribution"),
    "diagnostics.leaf_importance.self_s": ("self", "diagnostics.leaf_importance"),
    "diagnostics.effect_curve_s": ("self", "diagnostics.effect_curve"),
    "tree.predict_s": ("self", "tree.predict"),
    "tree.prune_s": ("self", "tree.prune"),
    "io.write_csv_s": ("self", "io.write_csv"),
    "io.load_csv_s": ("self", "io.load_csv"),
    "io.save_tree_s": ("self", "io.save_tree"),
    "io.load_tree_s": ("self", "io.load_tree"),
    "io.export_diagnostics_s": ("self", "io.export_diagnostics"),
    "cli.self_s": ("self", "cli"),
}

# cli-pipeline runs by hand only; BENCHMARK.json lists the measured set.
WORKLOAD_NAMES = ["grow-wide", "grow-tall", "cli-pipeline"]

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import splinetree\n"
    "print(time.perf_counter() - start, splinetree.__file__)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def import_seconds() -> float:
    """Time ``import splinetree`` in a fresh interpreter (warm file cache)."""
    env = dict(os.environ, PYTHONPATH=str(SOURCES))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, location = done.stdout.split()
    if not Path(location).resolve().is_relative_to(SOURCES):
        raise RuntimeError(f"import probe loaded splinetree from {location}")
    return float(seconds)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def summary(values):
    if not values:
        return {"n": 0}
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


def layer_values(tracer) -> dict:
    out = {}
    for metric, (kind, key) in PER_LAYER.items():
        source = {"self": tracer.self_s, "calls": tracer.calls, "count": tracer.counts}[kind]
        out[metric] = source.get(key, 0)
    return out


def run(args) -> tuple[dict, dict]:
    import workloads
    from tracer import Tracer

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tracer = Tracer() if args.trace else None
    ops = workloads.Ops()
    workload = workloads.WORKLOADS[args.workload](args.size, args.seed, workdir)
    info: dict = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "trace": args.trace, "environment": environment()}
    try:
        # -- set-up: import (fresh interpreters) plus input generation -----
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        generate, simulate_self = [], []
        while len(generate) < SETUP_REPEATS or sum(generate) < GENERATE_MIN_S:
            if tracer:
                tracer.reset()
                tracer.install()
            gc.collect()
            start = time.perf_counter()
            workload.generate()
            generate.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()
                simulate_self.append(tracer.self_s["simdata.simulate"])
        setup_s = statistics.median(imports) + statistics.median(generate)

        # -- closed loop for the wall budget --------------------------------
        traced_times, untraced_times, layers, counts = [], [], [], []
        # Past the minimum, an iteration starts only if a typical one still
        # ends within the budget, so that slow machines do not overrun it.
        start, iteration, durations = time.perf_counter(), 0, []
        while (iteration < MIN_ITERATIONS[bool(tracer)]
               or time.perf_counter() - start + statistics.median(durations) <= args.seconds):
            began = time.perf_counter()
            traced = bool(tracer) and iteration % 2 == 0
            if traced:
                tracer.reset()
                tracer.install()
                ops.tracer = tracer
            fits_before = len(ops.times["fit"])
            try:
                workload.iteration(ops)
            except workloads.OpFailed:
                pass
            finally:
                if traced:
                    tracer.uninstall()
                    ops.tracer = workloads.NullTracer()
            fit = ops.times["fit"][fits_before:]
            (traced_times if traced else untraced_times).extend(fit)
            if traced and fit:
                layers.append(layer_values(tracer))
                counts.append(dict(tracer.calls) | dict(tracer.counts))
                if counts[-1] != counts[0]:
                    ops.fail(f"iteration {iteration}: work counts differ from the "
                             f"first traced iteration of this seed")
                info["fit_self_s"] = {
                    name: round(s, 6) for (top, name), s in sorted(tracer.by_op.items())
                    if top == "bench.fit"
                }
            durations.append(time.perf_counter() - began)
            iteration += 1
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    if tracer:
        metrics = {}
        for metric, (kind, _) in PER_LAYER.items():
            values = [layer[metric] for layer in layers]
            if not values:
                metrics[metric] = None
            elif kind == "self":
                metrics[metric] = statistics.median(values)
            else:
                metrics[metric] = values[0]
        metrics["simdata.simulate_s"] = statistics.median(simulate_self)
        # fastest against fastest: the first iteration also pays warm-up
        metrics["trace.overhead_frac"] = (
            min(traced_times) / min(untraced_times) - 1.0
            if traced_times and untraced_times else None
        )
        units = {m: "s" if kind == "self" else "count" for m, (kind, _) in PER_LAYER.items()}
        units |= {"simdata.simulate_s": "s", "trace.overhead_frac": "frac"}
    else:
        metrics = {"setup_s": setup_s}
        metrics.update(workload.end_to_end(ops.times))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ops_ok_frac"] = 1.0 - ops.failed / max(ops.attempted, 1)
        units = dict(END_TO_END)

    info.update({
        "iterations": iteration,
        "measured_s": elapsed,
        "setup": {"import_s": summary(imports), "generate_s": summary(generate)},
        "ops": {name: summary(values) for name, values in sorted(ops.times.items())},
        "op_samples_s": dict(sorted(ops.times.items())),
        "tree_sha256": workload.digests.get("tree.json") or workload.digests.get("fit"),
        "errors": ops.errors[:20],
    })
    if tracer:
        info["fit_s"] = {"traced": summary(traced_times), "untraced": summary(untraced_times)}
    result = {
        "correct": ops.failed == 0 and all(v is not None for v in metrics.values()),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread unless the caller chose otherwise: on small systems a
    # second thread mostly spins, and makes timings follow other load.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SOURCES / "splinetree" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SOURCES / 'splinetree'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    result, info = run(args)
    print(json.dumps({"info": info}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
