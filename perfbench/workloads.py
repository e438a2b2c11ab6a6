"""The benchmark's three workloads: inputs from a seed, timed operations, checks.

Each workload is closed-loop and single-process: one operation starts when
the previous one has finished.  All of them use the library defaults
(``GrowConfig.threads == 1``; BLAS threads as the environment sets them).

- ``grow-wide``: 15-knot splines on all ten features of f2, so every node
  solves 150x150 ridge systems and the candidate sweep's batched ``eigh``
  dominates the fit.  It is the acceptance-suite C5 fit cut to depth 1 (the
  root sweep) so that one run holds several fits.
- ``grow-tall``: many rows and a narrow design (``linear`` blocks plus two
  categorical columns), so row-proportional work (per-node ``bin_grams``,
  routing, diagnostics over all rows) dominates and ``eigh`` is small.  The
  only workload with categorical sweeps: 6 levels take the exhaustive-subset
  path, 14 levels the ordered scan above ``EXHAUSTIVE_CATEGORY_LIMIT``.
- ``cli-pipeline``: the file workflow users run, ``splinetree.cli.main``
  in-process: simulate, fit, predict, diagnose, export on a CSV.

Every operation's output is checked; a check that fails, an exception or a
non-zero exit code counts the operation as failed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io as _stdio
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import splinetree as st
from splinetree import cli

from tracer import NullTracer

# Per-size parameters.  "toy" runs the same code paths in seconds, for the
# benchmark's own tests.  Fidelity floors were set from seed 1 (calibration
# seed), about 0.01 below the value measured there.
SIZES = {
    "grow-wide": {
        "full": dict(n=50_000, knots=15, depth=1, bins=50, simulate_reps=8,
                     predict_reps=8, diagnose_reps=4, r2_floor=0.945),
        "toy": dict(n=6_000, knots=15, depth=1, bins=12, simulate_reps=1,
                    predict_reps=2, diagnose_reps=1, r2_floor=0.90),
    },
    "grow-tall": {
        "full": dict(n=300_000, depth=4, bins=50, simulate_reps=4,
                     predict_reps=8, diagnose_reps=2, r2_floor=0.925),
        "toy": dict(n=20_000, depth=2, bins=16, simulate_reps=1,
                    predict_reps=2, diagnose_reps=1, r2_floor=0.85),
    },
    "cli-pipeline": {
        "full": dict(n=50_000, knots=3, depth=4, predict_reps=3, diagnose_reps=2,
                     r2_floor=0.97),
        "toy": dict(n=3_000, knots=3, depth=2, predict_reps=1, diagnose_reps=1,
                    r2_floor=0.85),
    },
}

SIGMA = 0.5
LEVEL_SHIFT_6 = 2.0 * np.cos(2.0 * np.arange(6))
LEVEL_SHIFT_14 = np.cos(3.0 * np.arange(14))
PRUNE = (0.99, 0.02)  # r2_threshold, dsse_fraction


class CheckFailed(Exception):
    """An operation returned output that fails its check."""


class OpFailed(Exception):
    """An operation failed; the rest of its iteration is skipped."""


class Ops:
    """Times operations, runs their output checks and counts failures.

    Each call to :meth:`run` is one attempted operation.  Only the operation
    is timed; its check runs afterwards, with tracing paused.
    """

    def __init__(self):
        self.tracer = NullTracer()
        self.times: defaultdict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, name, fn, check=None):
        self.attempted += 1
        gc.collect()
        try:
            with self.tracer.span("bench." + name):
                start = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - start
            if check is not None:
                with self.tracer.paused():
                    problem = check(result)
                if problem:
                    raise CheckFailed(problem)
        except Exception as exc:  # any failure of the program under test is counted
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc
        self.times[name].append(elapsed)
        return result

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)


def sha256(*paths) -> str:
    return hashlib.sha256(b"".join(Path(p).read_bytes() for p in paths)).hexdigest()


def _same_as_first(store: dict, key: str, digest: str) -> str | None:
    first = store.setdefault(key, digest)
    if digest != first:
        return f"{key} bytes differ between iterations of one seed"
    return None


def diagnose(root, spec, data):
    """The diagnostics the CLI writes: importance, every split, every curve."""
    importance = st.leaf_importance(root, spec, data)
    contributions = [
        st.split_contribution(root, node.id, spec, data)
        for node in root.nodes()
        if not node.is_leaf
    ]
    curves = []
    for leaf in root.leaves():
        for block in spec.blocks:
            grid = None
            if block.kind == "linear":
                values = data.columns[block.feature]
                grid = np.linspace(values.min(), values.max(), 100)
            curves.append(st.effect_curve(leaf, spec, block.feature, grid=grid))
    return importance, contributions, curves


def _check_diagnostics(importance, contributions, curves) -> str | None:
    if not all(np.isfinite(v) for v in importance.values.values()):
        return "non-finite leaf importance"
    for contrib in contributions:
        total = sum(contrib.p.values())
        if not contrib.no_interaction and abs(total - 1.0) > 1e-9:
            return f"node {contrib.node_id}: contributions sum to {total!r}"
    if not all(np.all(np.isfinite(c.values)) for c in curves):
        return "non-finite effect curve"
    return None


class LibraryWorkload:
    """Fit, predict, diagnose and persist in-process; subclasses make the data."""

    name = ""

    def __init__(self, size, seed, workdir: Path):
        self.p = SIZES[self.name][size]
        self.seed = seed
        self.workdir = workdir
        self.digests: dict[str, str] = {}
        self.fidelity: list[float] = []
        self.train = self.test = None

    def generate(self):
        self.train, self.test = self.make_inputs()

    def make_inputs(self):
        """The training and held-out datasets, from the seed."""
        raise NotImplementedError

    def _check_simulate(self, inputs) -> str | None:
        for old, new in zip((self.train, self.test), inputs):
            if not (np.array_equal(old.response, new.response)
                    and all(np.array_equal(old.columns[k], new.columns[k])
                            for k in old.columns)):
                return "inputs differ between generations from one seed"
        return None

    def build_spec(self):
        raise NotImplementedError

    def _fit(self):
        spec = self.build_spec()
        config = st.GrowConfig(max_depth=self.p["depth"], num_bins=self.p["bins"])
        grown = st.grow(self.train, spec, config)
        return spec, grown, st.prune(grown, *PRUNE)

    def _check_fit(self, result) -> str | None:
        return "root did not split" if result[1].is_leaf else None

    def _check_predict(self, pred) -> str | None:
        if not np.all(np.isfinite(pred)):
            return "non-finite prediction"
        r2 = st.fidelity(pred, self.test.response).r2
        if not r2 >= self.p["r2_floor"]:
            return f"test fidelity r2 {r2!r} below floor {self.p['r2_floor']}"
        self.fidelity.append(r2)
        return None

    def _check_diagnose(self, result) -> str | None:
        return _check_diagnostics(*result)

    def _persist(self, spec, pruned, pred, diagnostics):
        """Save and reload the tree, write diagnostics and predictions, render DOT."""
        w = self.workdir
        st.save_tree(w / "tree.json", pruned, spec, self.train.features,
                     {"workload": self.name, "seed": self.seed})
        art = st.load_tree(w / "tree.json")
        importance, contributions, curves = diagnostics
        st.export_diagnostics(w / "diagnostics", importance=importance,
                              contributions=contributions, curves=curves)
        st.write_csv(w / "pred.csv", ["prediction"], [pred])
        back = st.load_csv(w / "pred.csv", response="prediction", continuous=[])
        with contextlib.redirect_stdout(_stdio.StringIO()):
            code = cli.main(["export", "--model", str(w / "tree.json"),
                             "--out", str(w / "tree.dot")])
        return art, back, code

    def _check_persist(self, pred, result) -> str | None:
        art, back, code = result
        if code != 0:
            return f"export exited {code}"
        if not np.array_equal(st.predict(art.root, art.spec, self.test), pred):
            return "save_tree -> load_tree -> predict is not bit-identical"
        if not np.array_equal(back.response, pred):
            return "write_csv -> load_csv does not round-trip predictions"
        return _same_as_first(self.digests, "tree.json", sha256(self.workdir / "tree.json"))

    def iteration(self, ops: Ops):
        for _ in range(self.p["simulate_reps"]):
            ops.run("simulate", self.make_inputs, self._check_simulate)
        spec, grown, pruned = ops.run("fit", self._fit, self._check_fit)
        for _ in range(self.p["predict_reps"]):
            pred = ops.run("predict", lambda: st.predict(pruned, spec, self.test),
                           self._check_predict)
        for _ in range(self.p["diagnose_reps"]):
            diagnostics = ops.run("diagnose", lambda: diagnose(grown, spec, self.train),
                                  self._check_diagnose)
        ops.run("persist", lambda: self._persist(spec, pruned, pred, diagnostics),
                lambda result: self._check_persist(pred, result))

    # -- reporting -----------------------------------------------------------

    def end_to_end(self, times):
        return {
            "fit_s": _median(times["fit"]),
            "predict_rows_per_s": _rate(self.test.n, times["predict"]),
            "diagnose_s": _median(times["diagnose"]),
            "simulate_s": _median(times["simulate"]),
            "test_fidelity_r2": _median(self.fidelity),
        }


class GrowWide(LibraryWorkload):
    """The acceptance C5 fit at depth 1, with its C5 checks."""

    name = "grow-wide"

    def make_inputs(self):
        sim = st.simulate("f2", self.p["n"], SIGMA, self.seed)
        return st.to_dataset(sim, rows=sim.train_idx), st.to_dataset(sim, rows=sim.test_idx)

    def build_spec(self):
        return st.build_spec(self.train, num_knots=self.p["knots"])

    def _check_fit(self, result) -> str | None:
        split = result[1].split
        if split is None or split.feature != "x1" or abs(split.threshold) > 0.1:
            return f"root split {split} is not x1 with |t| <= 0.1 (C5)"
        return None

    def _check_diagnose(self, result) -> str | None:
        problem = super()._check_diagnose(result)
        root = next(c for c in result[1] if c.node_id == 0)
        if not problem and not (root.p["x4"] >= 0.60 and root.p["x3"] >= 0.10):
            problem = f"root contributions p4={root.p['x4']!r} p3={root.p['x3']!r} (C5)"
        return problem


class GrowTall(LibraryWorkload):
    """f2 on many rows as ``linear`` blocks, plus two categorical columns."""

    name = "grow-tall"

    def make_inputs(self):
        sim = st.simulate("f2", self.p["n"], SIGMA, self.seed)
        # The categorical columns come from their own stream of the seed.
        # Each level shifts the response by a fixed amount, so every seed
        # poses the same problem and one fidelity floor fits all seeds.
        rng = np.random.default_rng([self.seed, 1])
        n = self.p["n"]
        codes6, codes14 = rng.integers(0, 6, n), rng.integers(0, 14, n)
        shift = LEVEL_SHIFT_6[codes6] + LEVEL_SHIFT_14[codes14]
        cat6 = np.array([f"a{k}" for k in range(6)])[codes6]
        cat14 = np.array([f"b{k:02d}" for k in range(14)])[codes14]
        features = tuple(st.Feature(f"x{k + 1}", "continuous") for k in range(10)) + (
            st.Feature("c6", "categorical"),
            st.Feature("c14", "categorical"),
        )

        def part(rows):
            columns = {f"x{k + 1}": sim.x[rows, k] for k in range(10)}
            columns["c6"], columns["c14"] = cat6[rows], cat14[rows]
            return st.SurrogateDataset(
                features=features, columns=columns,
                response=(sim.f + shift)[rows], original=(sim.y + shift)[rows],
            )

        return part(sim.train_idx), part(sim.test_idx)

    def build_spec(self):
        linear = [f.name for f in self.train.features if f.kind == "continuous"]
        return st.build_spec(self.train, linear=linear)


class CliWorkload:
    """cli-pipeline: ``splinetree.cli.main`` in-process on files in a work dir."""

    name = "cli-pipeline"

    def __init__(self, size, seed, workdir: Path):
        self.p = SIZES[self.name][size]
        self.seed = seed
        self.workdir = workdir
        self.digests: dict[str, str] = {}
        self.fidelity: list[float] = []
        self.sim = None
        self.internal_nodes = None

    def generate(self):
        # the reference the simulated CSV is checked against
        self.sim = st.simulate("f2", self.p["n"], SIGMA, self.seed)

    def _path(self, name) -> str:
        return str(self.workdir / name)

    def _cli(self, *argv):
        out = _stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def _checked(self, key, files):
        """Check the exit code and that output bytes repeat across iterations.

        The first time, the output's content is checked by ``_first_<key>``.
        """
        def check(result):
            code, text = result
            if code != 0:
                return f"exit code {code}: {text.strip()[-300:]}"
            digest = sha256(*files)
            if key not in self.digests:
                self.digests[key] = digest
                return getattr(self, "_first_" + key)()
            return _same_as_first(self.digests, key, digest)
        return check

    def _first_simulate(self):
        data = st.load_csv(self._path("data.csv"), response="f", original="y")
        sim = self.sim
        if not (np.array_equal(data.response, sim.f) and np.array_equal(data.original, sim.y)
                and all(np.array_equal(data.columns[f"x{k + 1}"], sim.x[:, k])
                        for k in range(10))):
            return "simulated CSV does not round-trip the in-memory simulation"
        return None

    def _first_fit(self):
        art = st.load_tree(self._path("tree.json"))
        self.internal_nodes = sum(1 for node in art.root.nodes() if not node.is_leaf)
        return None if self.internal_nodes else "root did not split"

    def _first_predict(self):
        art = st.load_tree(self._path("tree.json"))
        data = st.load_csv(self._path("data.csv"), response="f", original="y")
        written = st.load_csv(self._path("pred.csv"), response="prediction", continuous=[])
        library = st.predict(art.root, art.spec, data)
        if not np.array_equal(written.response, library):
            return "predict CSV differs from library predict on the same rows"
        # held-out rows as `fit` picks them: --test-fraction 1/3 with --seed
        perm = np.random.default_rng(self.seed).permutation(data.n)
        test = np.sort(perm[: int(round(data.n / 3))])
        r2 = st.fidelity(library[test], data.response[test]).r2
        if not r2 >= self.p["r2_floor"]:
            return f"test fidelity r2 {r2!r} below floor {self.p['r2_floor']}"
        self.fidelity.append(r2)
        return None

    def _first_diagnose(self):
        with open(self._path("diagnostics/contributions.csv"), encoding="utf-8") as handle:
            rows = sum(1 for _ in handle) - 1
        if rows != self.internal_nodes * 10:
            return f"contributions.csv has {rows} rows for {self.internal_nodes} splits"
        return None

    def _first_export(self):
        text = Path(self._path("tree.dot")).read_text(encoding="utf-8")
        edges = text.count(" -> ")
        if edges != 2 * self.internal_nodes:
            return f"DOT has {edges} edges for {self.internal_nodes} splits"
        return None

    def iteration(self, ops: Ops):
        p, path = self.p, self._path
        ops.run("simulate", lambda: self._cli(
            "simulate", "--kind", "f2", "--n", str(p["n"]), "--sigma", str(SIGMA),
            "--seed", str(self.seed), "--out", path("data.csv"),
        ), self._checked("simulate", [path("data.csv")]))
        ops.run("fit", lambda: self._cli(
            "fit", "--data", path("data.csv"), "--response", "f", "--original", "y",
            "--knots", str(p["knots"]), "--max-depth", str(p["depth"]),
            "--r2-threshold", "1", "--dsse-fraction", "0", "--seed", str(self.seed),
            "--out", path("tree.json"),
        ), self._checked("fit", [path("tree.json")]))
        for _ in range(p["predict_reps"]):
            ops.run("predict", lambda: self._cli(
                "predict", "--model", path("tree.json"), "--data", path("data.csv"),
                "--out", path("pred.csv"),
            ), self._checked("predict", [path("pred.csv")]))
        diag = [path(f"diagnostics/{t}.csv") for t in ("importance", "contributions", "curves")]
        for _ in range(p["diagnose_reps"]):
            ops.run("diagnose", lambda: self._cli(
                "diagnose", "--model", path("tree.json"), "--data", path("data.csv"),
                "--out-dir", path("diagnostics"),
            ), self._checked("diagnose", diag))
        ops.run("export", lambda: self._cli(
            "export", "--model", path("tree.json"), "--out", path("tree.dot"),
        ), self._checked("export", [path("tree.dot")]))

    def end_to_end(self, times):
        return {
            "fit_s": _median(times["fit"]),
            "predict_rows_per_s": _rate(self.p["n"], times["predict"]),
            "diagnose_s": _median(times["diagnose"]),
            "simulate_s": _median(times["simulate"]),
            "test_fidelity_r2": _median(self.fidelity),
        }


def _median(values):
    return float(np.median(values)) if len(values) else None


def _rate(rows, times):
    return rows / _median(times) if len(times) else None


WORKLOADS = {w.name: w for w in (GrowWide, GrowTall, CliWorkload)}
