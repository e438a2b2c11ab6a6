"""End-to-end command-line workflow on small simulated files."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from splinetree import load_csv, write_csv
from splinetree.cli import _OPTIONS, _config_from_args, build_parser, main
from splinetree.io import RunConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def with_cell(src, dst, row, column, text):
    """Copy a CSV, replacing one cell (0-based data row) with ``text``."""
    lines = src.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[lines[0].split(",").index(column)] = text
    lines[row + 1] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")
    return dst


@pytest.fixture
def sim_csv(tmp_path, capsys):
    path = tmp_path / "data.csv"
    code, _, _ = run(
        capsys, "simulate", "--kind", "f1", "--n", "1200", "--sigma", "0.5",
        "--seed", "7", "--out", str(path),
    )
    assert code == 0
    return path


def tagged_csv(src, dst, tags):
    """The first ``len(tags)`` rows of a simulated CSV, with a three-level
    column ``c`` and the tags in column ``part``."""
    ds = load_csv(src, response="f", original="y")
    n = len(tags)
    names = [f"x{k}" for k in range(1, 11)]
    levels = np.array(["u", "v", "w"])[np.arange(n) % 3]
    write_csv(dst, names + ["c", "f", "y", "part"],
              [ds.columns[name][:n] for name in names]
              + [levels, ds.response[:n], ds.original[:n], np.array(tags)])
    return dst


@pytest.fixture
def fitted_model(tmp_path, sim_csv, capsys):
    model = tmp_path / "tree.json"
    code, out, err = run(
        capsys, "fit", "--data", str(sim_csv), "--response", "f",
        "--original", "y", "--features", ",".join(f"x{k}" for k in range(1, 11)),
        "--knots", "5", "--max-depth", "1", "--num-bins", "8",
        "--min-samples-leaf", "60", "--seed", "3", "--out", str(model),
    )
    assert code == 0, err
    return model


class TestSimulate:
    def test_writes_expected_columns(self, sim_csv):
        header = open(sim_csv).readline().strip().split(",")
        assert header == [f"x{k}" for k in range(1, 11)] + ["f", "y"]
        assert sum(1 for _ in open(sim_csv)) == 1201

    def test_noiseless_sigma_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.csv"
        code, _, _ = run(capsys, "simulate", "--kind", "f1", "--n", "50",
                         "--sigma", "0", "--seed", "1", "--out", str(path))
        assert code == 0
        rows = [line.strip().split(",") for line in open(path)][1:]
        for row in rows:
            assert row[10] == row[11]  # f == y exactly

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "simulate", "--kind", "f2", "--n", "100",
                             "--sigma", "0.5", "--seed", "9", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_sigma_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--kind", "f1", "--n", "10",
                           "--sigma", "-1", "--seed", "0",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2 and "sigma" in err

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_non_finite_sigma_exits_2(self, tmp_path, capsys, sigma):
        out_path = tmp_path / "s.csv"
        code, _, err = run(capsys, "simulate", "--kind", "f1", "--n", "2",
                           f"--sigma={sigma}", "--out", str(out_path))
        assert code == 2
        assert err.splitlines() == [
            f"error: --sigma must be finite and nonnegative, got {float(sigma)!r}"
        ]
        assert not out_path.exists()

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--bogus", "1"])
        assert exc.value.code == 2


class TestFit:
    def test_report_layout(self, tmp_path, sim_csv, capsys):
        model = tmp_path / "t.json"
        code, out, err = run(
            capsys, "fit", "--data", str(sim_csv), "--response", "f",
            "--original", "y", "--knots", "4", "--max-depth", "1",
            "--num-bins", "6", "--min-samples-leaf", "60", "--seed", "3",
            "--out", str(model),
        )
        assert code == 0, err
        assert "Fidelity" in out and "Accuracy" in out
        assert "train" in out and "test" in out
        assert model.exists()

    # one prediction per section serves both the fidelity and the accuracy
    # rows; the report's bytes are pinned to the layout from before that
    REPORT_HEAD = (
        "tree: 3 nodes, 2 leaves, depth 1\n"
        "                               MSE          R2\n"
        "Fidelity     train       0.0837264      0.9906\n"
        "Fidelity      test        0.137219      0.9835\n"
    )

    def test_report_predicts_once(self, tmp_path, sim_csv, capsys, monkeypatch):
        # the train and test rows, fidelity and accuracy alike, are scored
        # from one prediction of the loaded dataset
        from splinetree import tree as tree_mod

        calls = []
        inner = tree_mod.predict

        def counting(*args, **kwargs):
            calls.append(None)
            return inner(*args, **kwargs)

        monkeypatch.setattr(tree_mod, "predict", counting)
        code, out, err = run(
            capsys, "fit", "--data", str(sim_csv), "--response", "f",
            "--original", "y", "--knots", "4", "--max-depth", "1",
            "--num-bins", "6", "--min-samples-leaf", "60", "--seed", "3",
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 0, err
        assert out.startswith(self.REPORT_HEAD) and "Accuracy      test" in out
        assert len(calls) == 1

    def test_diagnose_codes_each_column_once(self, tmp_path, sim_csv, capsys, monkeypatch):
        # the importance and every split's contribution read one coding of
        # the categorical column
        from splinetree import basis

        data = tagged_csv(sim_csv, tmp_path / "tagged.csv", ["train"] * 600)
        model = tmp_path / "t.json"
        code, _, err = run(capsys, "fit", "--data", str(data), "--response", "f",
                           "--features", "x1,x2,c", "--categorical", "c", "--knots", "4",
                           "--max-depth", "2", "--min-samples-leaf", "40", "--r2-threshold", "1",
                           "--dsse-fraction", "0", "--out", str(model))
        assert code == 0, err
        assert len(json.loads(model.read_text())["nodes"]) > 3
        coded = []
        inner = basis.level_codes

        def counting(values, levels):
            coded.append(np.size(values))
            return inner(values, levels)

        monkeypatch.setattr(basis, "level_codes", counting)
        code, _, err = run(capsys, "diagnose", "--model", str(model), "--data", str(data),
                           "--out-dir", str(tmp_path / "diag"))
        assert code == 0, err
        assert coded.count(600) == 1

    def test_fit_codes_each_column_once(self, tmp_path, sim_csv, capsys, monkeypatch):
        # the loaded dataset is coded once; the grow reads its training
        # rows' codes from that coding and the report's predict reads it whole
        from splinetree import basis

        data = tagged_csv(sim_csv, tmp_path / "tagged.csv", ["train", "train", "test"] * 400)
        coded = []
        inner = basis.level_codes

        def counting(values, levels):
            coded.append(np.size(values))
            return inner(values, levels)

        monkeypatch.setattr(basis, "level_codes", counting)
        code, _, err = run(capsys, "fit", "--data", str(data), "--response", "f",
                           "--features", "x1,x2,c", "--categorical", "c", "--knots", "4",
                           "--max-depth", "2", "--min-samples-leaf", "40",
                           "--out", str(tmp_path / "t.json"))
        assert code == 0, err
        assert [n for n in coded if n > 3] == [1200]

    def test_report_bytes_with_original(self, tmp_path, sim_csv, capsys):
        code, out, err = run(
            capsys, "fit", "--data", str(sim_csv), "--response", "f",
            "--original", "y", "--knots", "4", "--max-depth", "1",
            "--num-bins", "6", "--min-samples-leaf", "60", "--seed", "3",
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 0, err
        assert out == self.REPORT_HEAD + (
            "Accuracy     train        0.333567      0.9636\n"
            "Accuracy      test        0.424906      0.9507\n"
        )

    def test_binary_report_bytes(self, tmp_path, sim_csv, capsys):
        ds = load_csv(sim_csv, response="f", original="y")
        p = 1.0 / (1.0 + np.exp(ds.response.mean() - ds.response))
        label = (ds.original > np.median(ds.original)).astype(float)
        names = [f"x{k}" for k in range(1, 11)]
        data = tmp_path / "binary.csv"
        write_csv(data, names + ["p", "label"], [ds.columns[n] for n in names] + [p, label])
        code, out, err = run(
            capsys, "fit", "--data", str(data), "--response", "p",
            "--original", "label", "--transform", "logit", "--knots", "4",
            "--max-depth", "1", "--num-bins", "6", "--min-samples-leaf", "60",
            "--seed", "3", "--out", str(tmp_path / "t.json"),
        )
        assert code == 0, err
        assert out == self.REPORT_HEAD + (
            "                               AUC    log-loss\n"
            "Accuracy     train          0.9873    0.218293\n"
            "Accuracy      test          0.9835    0.228389\n"
        )

    @pytest.mark.parametrize("task_flags", [["--task", "binary"], ["--transform", "logit"]])
    def test_binary_task_on_non_binary_original_exits_3(self, tmp_path, sim_csv, capsys,
                                                         task_flags):
        # the response is a probability, so --transform logit loads it; the
        # original column y is the continuous noisy response
        ds = load_csv(sim_csv, response="f", original="y")
        p = 1.0 / (1.0 + np.exp(-ds.response))
        names = [f"x{k}" for k in range(1, 11)]
        data = tmp_path / "prob.csv"
        write_csv(data, names + ["p", "y"], [ds.columns[n] for n in names] + [p, ds.original])
        model = tmp_path / "t.json"
        code, out, err = run(
            capsys, "fit", "--data", str(data), "--response", "p",
            "--original", "y", *task_flags, "--out", str(model),
        )
        assert code == 3 and out == ""
        assert err.splitlines() == [
            "data error: binary task requires 0/1 labels in original column 'y'"
        ]
        assert not model.exists()

    def test_logit_response_outside_unit_interval_exits_3(self, tmp_path, sim_csv, capsys):
        ds = load_csv(sim_csv, response="f")
        p = 1.0 / (1.0 + np.exp(-ds.response))
        p[4] = 1.5
        names = [f"x{k}" for k in range(1, 11)]
        data = tmp_path / "prob.csv"
        write_csv(data, names + ["p"], [ds.columns[n] for n in names] + [p])
        model = tmp_path / "t.json"
        code, out, err = run(capsys, "fit", "--data", str(data), "--response", "p",
                             "--transform", "logit", "--out", str(model))
        assert code == 3 and out == "" and not model.exists()
        assert err.splitlines() == [
            "data error: response column 'p' has values outside [0, 1] at rows 4 "
            "(0-based data rows)"
        ]

    def test_depth_zero_global_model(self, tmp_path, sim_csv, capsys):
        model = tmp_path / "t.json"
        code, out, _ = run(
            capsys, "fit", "--data", str(sim_csv), "--response", "f",
            "--knots", "4", "--max-depth", "0", "--min-samples-leaf", "60",
            "--seed", "3", "--out", str(model),
        )
        assert code == 0
        assert "1 nodes, 1 leaves, depth 0" in out

    def test_missing_response_column(self, tmp_path, sim_csv, capsys):
        code, _, err = run(
            capsys, "fit", "--data", str(sim_csv), "--response", "nope",
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 3 and "'nope'" in err

    def test_non_finite_feature_exits_3(self, tmp_path, sim_csv, capsys):
        bad = with_cell(sim_csv, tmp_path / "bad.csv", 4, "x3", "nan")
        code, _, err = run(
            capsys, "fit", "--data", str(bad), "--response", "f",
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 3 and "'x3'" in err and "rows 4 " in err

    def test_non_finite_original_exits_3(self, tmp_path, sim_csv, capsys):
        bad = with_cell(sim_csv, tmp_path / "bad.csv", 5, "y", "nan")
        code, out, err = run(
            capsys, "fit", "--data", str(bad), "--response", "f", "--original", "y",
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 3 and "'y'" in err and "rows 5 " in err
        assert "nan" not in out

    def test_repeated_header_exits_3(self, tmp_path, sim_csv, capsys):
        lines = sim_csv.read_text().splitlines()
        lines[0] = lines[0].replace("x2", "x1", 1)
        bad = tmp_path / "twice.csv"
        bad.write_text("\n".join(lines) + "\n")
        model = tmp_path / "t.json"
        code, _, err = run(
            capsys, "fit", "--data", str(bad), "--response", "f",
            "--out", str(model),
        )
        assert code == 3 and "header repeats column 'x1'" in err
        assert not model.exists()

    def test_byte_order_mark_is_not_part_of_a_name(self, tmp_path, sim_csv, capsys):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + sim_csv.read_bytes())
        models = {}
        for label, data in (("plain", sim_csv), ("bom", bom)):
            models[label] = tmp_path / f"{label}.json"
            code, _, err = run(
                capsys, "fit", "--data", str(data), "--response", "f",
                "--knots", "4", "--max-depth", "1", "--num-bins", "6",
                "--min-samples-leaf", "60", "--seed", "3",
                "--out", str(models[label]),
            )
            assert code == 0, err
        schema = json.loads(models["bom"].read_text())["schema"]
        assert schema[0]["name"] == "x1"
        assert models["bom"].read_bytes() == models["plain"].read_bytes()

    def test_config_file_defaults(self, tmp_path, sim_csv, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("max_depth = 0\nknots = 4\nmin_samples_leaf = 60\nseed = 3\n")
        model = tmp_path / "t.json"
        code, out, _ = run(
            capsys, "fit", "--data", str(sim_csv), "--response", "f",
            "--config", str(conf), "--out", str(model),
        )
        assert code == 0
        assert "depth 0" in out
        saved = json.loads(model.read_text())
        assert saved["config"]["max_depth"] == 0
        assert saved["config"]["knots"] == 4

    def test_additive_benchmark_prunes_to_root(self, tmp_path, capsys):
        # fitting the noiseless additive response at depth 2 with the
        # default pruning thresholds collapses the report to one node
        data = tmp_path / "f1.csv"
        code, _, _ = run(capsys, "simulate", "--kind", "f1", "--n", "3000",
                         "--sigma", "0.5", "--seed", "5", "--out", str(data))
        assert code == 0
        model = tmp_path / "t.json"
        code, out, err = run(
            capsys, "fit", "--data", str(data), "--response", "f",
            "--original", "y", "--knots", "8", "--max-depth", "2",
            "--num-bins", "20", "--seed", "5", "--out", str(model),
        )
        assert code == 0, err
        assert "1 nodes, 1 leaves, depth 0" in out

    def test_flags_override_config(self, tmp_path, sim_csv, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("max_depth = 0\nknots = 4\nmin_samples_leaf = 60\nseed = 3\n")
        model = tmp_path / "t.json"
        code, _, _ = run(
            capsys, "fit", "--data", str(sim_csv), "--response", "f",
            "--config", str(conf), "--max-depth", "1", "--out", str(model),
        )
        assert code == 0
        assert json.loads(model.read_text())["config"]["max_depth"] == 1


class TestFitArgumentErrors:
    """Out-of-domain fit options end in one ``error:`` line and exit 2."""

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--lambda", "abc", "--lambda"),
            ("--lambda", "0.1,abc", "--lambda"),
            ("--lambda", "-1", "--lambda"),
            ("--lambda", "0.1,nan", "--lambda"),
            ("--max-depth", "-1", "--max-depth"),
            ("--num-bins", "1", "--num-bins"),
            ("--threads", "0", "--threads"),
            ("--knots", "0", "--knots"),
            ("--min-samples-leaf", "0", "--min-samples-leaf"),
            ("--r2-threshold", "1.5", "--r2-threshold"),
            ("--lambda1", "-0.1", "--lambda1"),
            ("--test-fraction", "1", "--test-fraction"),
        ],
    )
    def test_bad_flag_exits_2_before_reading_data(self, tmp_path, capsys, flag, value,
                                                  named):
        # the data file does not exist: reading it would exit 3 instead
        model = tmp_path / "t.json"
        code, out, err = run(
            capsys, "fit", "--data", str(tmp_path / "absent.csv"), "--response", "f",
            flag, value, "--out", str(model),
        )
        assert code == 2
        assert err.startswith(f"error: {named} must be") and err.count("\n") == 1
        assert out == "" and not model.exists()

    @pytest.mark.parametrize(
        "line, key", [("knots = abc", "knots"), ("max_depth = -2", "max_depth"),
                      ("lambda = 1e-3,x", "lambda"), ("loss = l1", "loss")],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, line, key):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        code, _, err = run(
            capsys, "fit", "--data", str(tmp_path / "absent.csv"), "--response", "f",
            "--config", str(conf), "--out", str(tmp_path / "t.json"),
        )
        assert code == 2
        assert err.startswith(f"error: {key} in {conf} must be")
        assert err.count("\n") == 1

    # an out-of-domain value for each row of the option table, by key
    OUT_OF_DOMAIN = {
        "knots": "1", "num_bins": "1", "max_depth": "-1", "min_samples_leaf": "0",
        "lambda": "0.1,-2", "loss": "l1", "r2_threshold": "1.5", "dsse_fraction": "-0.5",
        "lambda1": "inf", "seed": "-3", "transform": "probit", "test_fraction": "1",
        "threads": "0",
    }

    @pytest.mark.parametrize("by", ["flag", "config"])
    @pytest.mark.parametrize("row", _OPTIONS, ids=[row[1] for row in _OPTIONS])
    def test_each_option_out_of_domain_exits_2(self, tmp_path, capsys, row, by):
        _, key, parse, rule, ok = row
        value = self.OUT_OF_DOMAIN[key]
        assert not ok(parse(value))
        flag = "--" + key.replace("_", "-")
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {value}\n")
        model = tmp_path / "t.json"
        argv = ["fit", "--data", str(tmp_path / "absent.csv"), "--response", "f",
                *([f"{flag}={value}"] if by == "flag" else ["--config", str(conf)]),
                "--out", str(model)]
        source = flag if by == "flag" else f"{key} in {conf}"
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {source} must be {rule}, got {parse(value)!r}\n"
        assert not model.exists()

    @pytest.mark.parametrize("by", ["flag", "config"])
    @pytest.mark.parametrize("row", [row for row in _OPTIONS if row[2] is not str],
                             ids=[row[1] for row in _OPTIONS if row[2] is not str])
    def test_each_option_unparsable_exits_2(self, tmp_path, capsys, row, by):
        # a flag and a config key with the same bad value give the same line
        _, key, parse, _, _ = row
        flag = "--" + key.replace("_", "-")
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = abc\n")
        argv = ["fit", "--data", str(tmp_path / "absent.csv"), "--response", "f",
                *([f"{flag}=abc"] if by == "flag" else ["--config", str(conf)]),
                "--out", str(tmp_path / "t.json")]
        code, out, err = run(capsys, *argv)
        source = flag if by == "flag" else f"{key} in {conf}"
        kind = {int: "an integer", float: "a number"}.get(
            parse, "a number or comma-separated numbers")
        assert code == 2 and out == ""
        assert err == f"error: {source} must be {kind}, got 'abc'\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--response", "f", "--out", "t.json"],
             "the following arguments are required: --data"),
            (["fit", "--data", "d.csv", "--response", "f", "--out", "t.json", "--bogus", "1"],
             "unrecognized arguments: --bogus 1"),
            (["evaluate", "--model", "m.json", "--data", "d.csv", "--task", "multi"],
             "argument --task: invalid choice: 'multi'"),
            (["evaluate", "--model", "m.json", "--data", "d.csv", "--transform", "probit"],
             "argument --transform: invalid choice: 'probit'"),
            (["simulate", "--kind", "f1", "--n", "ten", "--out", "s.csv"],
             "argument --n: invalid int value: 'ten'"),
            (["fit", "--data", "d.csv", "--out", "t.json"],
             "the following arguments are required: --response"),
            (["evaluate", "--model", "m.json", "--data", "d.csv"],
             "the following arguments are required: --response"),
        ],
    )
    def test_parser_errors_are_one_line(self, capsys, argv, message):
        # argparse's own errors, in the format of the option checks
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_fit_help_states_each_option_rule(self, capsys):
        # each flag of the option table is listed with its row's rule
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for _, key, _, rule, _ in _OPTIONS:
            flag = "--" + key.replace("_", "-")
            entry = re.search(rf" {flag} [A-Z0-9_]+ (.*?)(?= --|$)", text)
            assert entry is not None and rule in entry.group(1), flag

    def test_option_table_covers_run_config(self, tmp_path):
        # every RunConfig field but the two column lists has one row, and an
        # option no flag or config key sets keeps RunConfig's default
        names = {f.name for f in fields(RunConfig)} - {"features", "categorical"}
        assert sorted(row[0] for row in _OPTIONS) == sorted(names)
        conf = tmp_path / "run.conf"
        conf.write_text("\n")
        for extra in ([], ["--config", str(conf)]):
            args = build_parser().parse_args(
                ["fit", "--data", "d.csv", "--response", "f", "--out", "t.json", *extra]
            )
            assert _config_from_args(args) == RunConfig()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("knots = 4\nmax_dpeth = 0\n")
        model = tmp_path / "t.json"
        code, out, err = run(
            capsys, "fit", "--data", str(tmp_path / "absent.csv"), "--response", "f",
            "--config", str(conf), "--out", str(model),
        )
        assert code == 2
        assert err == f"error: unknown key 'max_dpeth' in {conf}\n"
        assert out == "" and not model.exists()

    def test_flag_overrides_bad_config_value(self, tmp_path, sim_csv, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("max_depth = -2\n")
        code, _, err = run(
            capsys, "fit", "--data", str(sim_csv), "--response", "f",
            "--config", str(conf), "--max-depth", "0", "--knots", "4",
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 0, err

    def test_min_samples_leaf_below_design_width(self, tmp_path, sim_csv, capsys):
        # the design width is known once the spec is built on the data
        model = tmp_path / "t.json"
        code, out, err = run(
            capsys, "fit", "--data", str(sim_csv), "--response", "f", "--knots", "4",
            "--min-samples-leaf", "5", "--out", str(model),
        )
        assert code == 2
        assert err.startswith("error: min_samples_leaf 5 is below the design width")
        assert err.count("\n") == 1 and out == "" and not model.exists()


class TestFitInputs:
    """Each column that fit reads has one role, each tag is 'train' or
    'test', and at least two rows train; a fit that breaks one of these
    ends with one error line and writes no tree."""

    @staticmethod
    def rejected(capsys, tmp_path, code, *argv):
        model = tmp_path / "t.json"
        got, out, err = run(capsys, "fit", *argv, "--knots", "4", "--out", str(model))
        assert got == code, err
        assert err.count("\n") == 1 and out == "" and not model.exists()
        return err

    def test_tag_other_than_train_or_test_exits_3(self, tmp_path, sim_csv, capsys):
        tags = ["train"] * 300 + ["Train"] * 150 + ["test"] * 100 + ["validation"] * 50
        data = tagged_csv(sim_csv, tmp_path / "tagged.csv", tags)
        err = self.rejected(capsys, tmp_path, 3, "--data", str(data), "--response", "f",
                            "--features", "x1,x2", "--tag-column", "part")
        assert err == (f"data error: {data}: line 302, tag column 'part': "
                       "'Train' is neither 'train' nor 'test'\n")

    def test_tags_choose_the_partitions(self, tmp_path, sim_csv, capsys):
        data = tagged_csv(sim_csv, tmp_path / "tagged.csv", ["train", "test"] * 300)
        model = tmp_path / "t.json"
        code, out, err = run(capsys, "fit", "--data", str(data), "--response", "f",
                             "--features", "x1,x2", "--tag-column", "part", "--knots", "4",
                             "--max-depth", "0", "--out", str(model))
        assert code == 0, err
        assert json.loads(model.read_text())["nodes"][0]["count"] == 300
        assert "Fidelity      test" in out

    @pytest.mark.parametrize("argv, message", [
        (["--features", "x1,x1"], "feature 'x1' is named twice"),
        (["--features", "x1,c", "--categorical", "c", "--categorical", "c"],
         "feature 'c' is named twice"),
        (["--features", "x1,c,c", "--categorical", "c"], "feature 'c' is named twice"),
        (["--features", "x1,f"], "feature 'f' is also the response column"),
        (["--original", "y", "--features", "x1,y"], "feature 'y' is also the original column"),
        (["--features", "x1,part", "--tag-column", "part"],
         "feature 'part' is also the tag column"),
    ], ids=["repeated", "repeated-categorical", "repeated-categorical-feature", "response",
            "original", "tag"])
    def test_column_with_two_roles_exits_3(self, tmp_path, sim_csv, capsys, argv, message):
        data = tagged_csv(sim_csv, tmp_path / "tagged.csv", ["train"] * 400)
        err = self.rejected(capsys, tmp_path, 3, "--data", str(data), "--response", "f", *argv)
        assert err == f"data error: {data}: {message}\n"

    @pytest.mark.parametrize("by", ["flag", "config"])
    def test_categorical_outside_the_features_exits_2(self, tmp_path, capsys, by):
        # checked before any data is read: the data file does not exist
        features = ["--features", "x1,x2"]
        if by == "config":
            conf = tmp_path / "run.conf"
            conf.write_text("features = x1,x2\n")
            features = ["--config", str(conf)]
        err = self.rejected(capsys, tmp_path, 2, "--data", str(tmp_path / "absent.csv"),
                            "--response", "f", *features, "--categorical", "c")
        assert err == "error: categorical column 'c' is not one of the features\n"

    def test_response_may_double_as_original(self, tmp_path, sim_csv, capsys):
        code, out, err = run(capsys, "fit", "--data", str(sim_csv), "--response", "f",
                             "--original", "f", "--features", "x1,x2", "--knots", "4",
                             "--max-depth", "0", "--out", str(tmp_path / "t.json"))
        assert code == 0, err
        assert "Accuracy     train" in out

    def test_no_training_row_exits_3(self, tmp_path, sim_csv, capsys):
        err = self.rejected(capsys, tmp_path, 3, "--data", str(sim_csv), "--response", "f",
                            "--test-fraction", "0.99999")
        assert err == ("data error: the random split leaves 0 training rows; "
                       "a fit needs at least 2\n")

    def test_two_row_file_exits_3(self, tmp_path, sim_csv, capsys):
        # the default split tests one row and trains on the other
        lines = sim_csv.read_text().splitlines()
        data = tmp_path / "two.csv"
        data.write_text("\n".join(lines[:3]) + "\n")
        err = self.rejected(capsys, tmp_path, 3, "--data", str(data), "--response", "f")
        assert err == ("data error: the random split leaves 1 training rows; "
                       "a fit needs at least 2\n")

    def test_one_tagged_training_row_exits_3(self, tmp_path, sim_csv, capsys):
        data = tagged_csv(sim_csv, tmp_path / "tagged.csv", ["train"] + ["test"] * 99)
        err = self.rejected(capsys, tmp_path, 3, "--data", str(data), "--response", "f",
                            "--features", "x1,x2", "--tag-column", "part")
        assert err == ("data error: tag column 'part' marks 1 training rows; "
                       "a fit needs at least 2\n")

    def test_one_row_test_partition_is_left_out_of_the_report(self, tmp_path, sim_csv,
                                                             capsys):
        # round(1200 * 0.0005) = 1 test row, which no metric can score
        code, out, err = run(capsys, "fit", "--data", str(sim_csv), "--response", "f",
                             "--original", "y", "--knots", "4", "--max-depth", "1",
                             "--test-fraction", "0.0005", "--out", str(tmp_path / "t.json"))
        assert code == 0, err
        rows = [line.split()[:2] for line in out.splitlines()[2:]]
        assert rows == [["Fidelity", "train"], ["Accuracy", "train"]]


class TestPredictEvaluate:
    def test_predict_writes_csv(self, tmp_path, sim_csv, fitted_model, capsys):
        out_csv = tmp_path / "pred.csv"
        code, _, _ = run(capsys, "predict", "--model", str(fitted_model),
                         "--data", str(sim_csv), "--out", str(out_csv))
        assert code == 0
        lines = open(out_csv).read().strip().splitlines()
        assert lines[0] == "prediction" and len(lines) == 1201

    def test_predict_non_finite_feature_exits_3(self, tmp_path, sim_csv,
                                                fitted_model, capsys):
        bad = with_cell(sim_csv, tmp_path / "bad.csv", 1, "x1", "-inf")
        out_csv = tmp_path / "pred.csv"
        code, _, err = run(capsys, "predict", "--model", str(fitted_model),
                           "--data", str(bad), "--out", str(out_csv))
        assert code == 3 and "'x1'" in err and "rows 1 " in err
        assert not out_csv.exists()

    def test_evaluate_consistent_with_fit_report(self, tmp_path, sim_csv, capsys):
        # fit with no holdout: evaluate on the same file must reproduce
        # the training row of the report
        model = tmp_path / "t.json"
        code, fit_out, _ = run(
            capsys, "fit", "--data", str(sim_csv), "--response", "f",
            "--original", "y", "--knots", "4", "--max-depth", "0",
            "--min-samples-leaf", "60", "--seed", "3", "--test-fraction", "0",
            "--out", str(model),
        )
        assert code == 0
        code, eval_out, _ = run(
            capsys, "evaluate", "--model", str(model), "--data", str(sim_csv),
            "--response", "f", "--original", "y",
        )
        assert code == 0
        fit_line = next(l for l in fit_out.splitlines() if l.startswith("Fidelity"))
        mse_fit = float(fit_line.split()[2])
        mse_eval = float(eval_out.split("mse=")[1].split()[0])
        assert mse_eval == pytest.approx(mse_fit, rel=2e-6)

    @pytest.mark.parametrize("flag", ["--features", "--categorical"])
    def test_evaluate_rejects_schema_flags(self, sim_csv, fitted_model, capsys, flag):
        # evaluate reads the model's columns, so it has no flag to declare them
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--model", str(fitted_model), "--data", str(sim_csv),
                  "--response", "f", flag, "x1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} x1" in capsys.readouterr().err

    def test_evaluate_one_row_exits_3(self, tmp_path, sim_csv, fitted_model, capsys):
        lines = sim_csv.read_text().splitlines()
        data = tmp_path / "one.csv"
        data.write_text("\n".join(lines[:2]) + "\n")
        code, out, err = run(capsys, "evaluate", "--model", str(fitted_model),
                             "--data", str(data), "--response", "f")
        assert code == 3 and out == ""
        assert err == f"data error: {data}: evaluate needs at least 2 data rows, got 1\n"

    def test_evaluate_binary_task_on_non_binary_original_exits_3(
            self, tmp_path, sim_csv, fitted_model, capsys):
        code, out, err = run(
            capsys, "evaluate", "--model", str(fitted_model), "--data", str(sim_csv),
            "--response", "f", "--original", "y", "--task", "binary",
        )
        assert code == 3 and out == ""
        assert err.splitlines() == [
            "data error: binary task requires 0/1 labels in original column 'y'"
        ]

    def test_idempotent_outputs(self, tmp_path, sim_csv, fitted_model, capsys):
        a, b = tmp_path / "p1.csv", tmp_path / "p2.csv"
        for out_csv in (a, b):
            code, _, _ = run(capsys, "predict", "--model", str(fitted_model),
                             "--data", str(sim_csv), "--out", str(out_csv))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_inputs_not_mutated(self, tmp_path, sim_csv, fitted_model, capsys):
        before = sim_csv.read_bytes()
        run(capsys, "predict", "--model", str(fitted_model),
            "--data", str(sim_csv), "--out", str(tmp_path / "p.csv"))
        run(capsys, "evaluate", "--model", str(fitted_model),
            "--data", str(sim_csv), "--response", "f")
        assert sim_csv.read_bytes() == before


def _drop_sse(doc):
    del doc["nodes"][1]["sse"]


def _drop_levels(doc):
    del doc["design"]["levels"]


def _dangling_child(doc):
    doc["nodes"][0]["left"] = 99


def _short_coefficients(doc):
    doc["nodes"][2]["coefficients"].pop()


def _short_effect_means(doc):
    doc["nodes"][1]["effect_means"].pop()


def _nan_threshold(doc):
    doc["nodes"][0]["split"]["threshold"] = float("nan")  # every row would go right


def _infinite_threshold(doc):
    doc["nodes"][0]["split"]["threshold"] = float("inf")


def _null_effect_means(doc):
    doc["nodes"][2]["effect_means"] = None


def _nan_effect_means(doc):
    doc["nodes"][1]["effect_means"][0] = float("nan")


def _knot(index, value):
    def tamper(doc):
        doc["design"]["knots"]["x1"][index] = value
    return tamper


def _set(*path, value):
    """Set the field that ``path`` reaches in the document to ``value``."""
    def tamper(doc):
        *parents, key = path
        for step in parents:
            doc = doc[step]
        doc[key] = value
    return tamper


def _shift_depths(doc):
    for nd in doc["nodes"]:
        nd["depth"] += 1  # each child stays one below its parent


def _repeat_schema_feature(doc):
    doc["schema"].append(dict(doc["schema"][0]))


def _self_loop(doc):
    # node 1 splits into itself and node 2, so both gain a second parent
    doc["nodes"][1].update(split=doc["nodes"][0]["split"], left=1, right=2)


@pytest.fixture
def split_model(tmp_path, sim_csv, capsys):
    """A saved depth-1 tree with its split kept: nodes 0, 1 and 2."""
    model = tmp_path / "split.json"
    code, _, err = run(
        capsys, "fit", "--data", str(sim_csv), "--response", "f",
        "--knots", "4", "--max-depth", "1", "--num-bins", "8",
        "--min-samples-leaf", "60", "--r2-threshold", "1", "--dsse-fraction", "0",
        "--out", str(model),
    )
    assert code == 0, err
    return model


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_drop_sse, "node 1: missing field 'sse'"),
            (_drop_levels, "design: missing field 'levels'"),
            (_dangling_child, "child id 99 names no node"),
            (_short_coefficients, "coefficients must be"),
            (_short_effect_means, "one entry per block"),
            (_self_loop, "more than one parent"),
            (_nan_threshold, "node 0: split threshold nan is not finite"),
            (_infinite_threshold, "node 0: split threshold inf is not finite"),
            (_null_effect_means, "node 2: effect_means must have one entry per block"),
            (_nan_effect_means, "node 1: effect_means must have one entry per block, each finite"),
            # +inf last and -inf first keep the knots increasing
            (_knot(1, float("nan")), "knots of 'x1' must be finite and strictly increasing"),
            (_knot(-1, float("inf")), "knots of 'x1' must be finite and strictly increasing"),
            (_knot(0, float("-inf")), "knots of 'x1' must be finite and strictly increasing"),
            # no field is coerced to its type: a true threshold is not 1.0
            (_set("nodes", 0, "split", "threshold", value=True),
             "node 0: threshold must be a number, got True"),
            (_set("nodes", 0, "split", "threshold", value="0.5"),
             "node 0: threshold must be a number, got '0.5'"),
            (_set("nodes", 1, "id", value=1.5), "node 1.5: id must be an integer, got 1.5"),
            (_set("nodes", 1, "flags", value="ab"),
             "node 1: flags must be a list of strings, got 'ab'"),
            (_set("nodes", 1, "sse", value="5"), "node 1: sse must be a number, got '5'"),
            (_set("nodes", 2, "lambda", value=True), "node 2: lambda must be a number, got True"),
            (_set("nodes", 2, "r2", value=None), "node 2: r2 must be a number, got None"),
            (_set("nodes", 1, "effective_df", value=False),
             "node 1: effective_df must be a number, got False"),
            (_set("nodes", 0, "dsse", value="0"), "node 0: dsse must be a number, got '0'"),
            # each node statistic within its domain; export would draw R2=inf
            (_set("nodes", 1, "r2", value=float("inf")), "node 1: r2 must lie in [0, 1], got inf"),
            (_set("nodes", 2, "r2", value=-0.25), "node 2: r2 must lie in [0, 1], got -0.25"),
            (_set("nodes", 0, "r2", value=float("nan")),
             "node 0: r2 must lie in [0, 1], got nan"),
            (_set("nodes", 1, "sse", value=float("inf")), "node 1: sse must be finite, got inf"),
            (_set("nodes", 2, "effective_df", value=float("nan")),
             "node 2: effective_df must be finite, got nan"),
            (_set("nodes", 0, "dsse", value=float("-inf")),
             "node 0: dsse must be finite, got -inf"),
            (_set("nodes", 1, "lambda", value=-1e-3),
             "node 1: lambda must be finite and >= 0, got -0.001"),
            (_set("nodes", 2, "lambda", value=float("inf")),
             "node 2: lambda must be finite and >= 0, got inf"),
            (_set("nodes", 2, "count", value=600.0), "node 2: count must be an integer, got 600.0"),
            (_set("nodes", 0, "left", value=True), "node 0: child id True names no node"),
            (_set("design", "total_columns", value=3.0),
             "design: total_columns must be an integer, got 3.0"),
            (_set("design", "blocks", 0, "start", value="1"),
             "design block: start must be an integer, got '1'"),
            (_set("nodes", 1, "depth", value=7), "node 1: depth 7 is not its parent's depth 0 + 1"),
            (_shift_depths, "root node 0: depth 1 is not 0"),
            (_repeat_schema_feature, "schema repeats feature 'x1'"),
        ],
    )
    @pytest.mark.parametrize("command", ["predict", "diagnose"])
    def test_malformed_tree_exits_3(self, tmp_path, sim_csv, split_model, capsys,
                                    tamper, message, command):
        doc = json.loads(split_model.read_text())
        assert [nd["id"] for nd in doc["nodes"]] == [0, 1, 2]
        tamper(doc)
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "out"
        flag = "--out" if command == "predict" else "--out-dir"
        code, _, err = run(capsys, command, "--model", str(model),
                           "--data", str(sim_csv), flag, str(out))
        assert code == 3 and message in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "diagnose"])
    def test_ragged_csv_row_exits_3(self, tmp_path, sim_csv, fitted_model, capsys,
                                    command):
        lines = sim_csv.read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:4])  # data line 6 keeps 4 cells
        bad = tmp_path / "ragged.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        flag = "--out" if command == "predict" else "--out-dir"
        code, _, err = run(capsys, command, "--model", str(fitted_model),
                           "--data", str(bad), flag, str(out))
        assert code == 3 and "line 6 has 4 cells" in err
        assert not out.exists()

    def test_ragged_row_before_categorical_column_exits_3(self, tmp_path, capsys):
        # the row ends before the categorical column; evaluate reads it too
        data = tmp_path / "short.csv"
        data.write_text(
            "x1,f,c1\n"
            + "".join(f"{i / 100},{i % 7 / 3},{'uv'[i % 2]}\n" for i in range(100))
            + "0.2,2.0\n"
        )
        model = tmp_path / "m.json"
        code, _, err = run(
            capsys, "fit", "--data", str(data), "--response", "f",
            "--categorical", "c1", "--knots", "3", "--max-depth", "0",
            "--min-samples-leaf", "10", "--out", str(model),
        )
        assert code == 3 and "line 102 has 2 cells" in err
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines[:-1]) + "\n")
        code, _, err = run(
            capsys, "fit", "--data", str(data), "--response", "f",
            "--categorical", "c1", "--knots", "3", "--max-depth", "0",
            "--min-samples-leaf", "10", "--out", str(model),
        )
        assert code == 0, err
        data.write_text("\n".join(lines) + "\n")
        for command in (["evaluate", "--response", "f"], ["predict", "--out", str(tmp_path / "p.csv")]):
            code, _, err = run(capsys, command[0], "--model", str(model),
                               "--data", str(data), *command[1:])
            assert code == 3 and "line 102 has 2 cells" in err

    @pytest.mark.parametrize("command", ["predict", "diagnose"])
    def test_unwritable_output_exits_3(self, tmp_path, sim_csv, fitted_model, capsys,
                                       command):
        out = tmp_path / "no-such-dir" / "out.csv"
        flag = "--out" if command == "predict" else "--out-dir"
        if command == "diagnose":
            out = tmp_path / "file-not-dir"
            out.write_text("")
        code, _, err = run(capsys, command, "--model", str(fitted_model),
                           "--data", str(sim_csv), flag, str(out))
        assert code == 3 and err.startswith("file error:")
        assert len(err.strip().splitlines()) == 1


class TestDiagnoseExport:
    def test_diagnose_writes_tables(self, tmp_path, sim_csv, fitted_model, capsys):
        out_dir = tmp_path / "diag"
        code, out, _ = run(capsys, "diagnose", "--model", str(fitted_model),
                           "--data", str(sim_csv), "--out-dir", str(out_dir))
        assert code == 0
        for name in ("importance.csv", "contributions.csv", "curves.csv"):
            assert (out_dir / name).exists()

    def test_root_only_diagnose(self, tmp_path, sim_csv, capsys):
        model = tmp_path / "t.json"
        run(capsys, "fit", "--data", str(sim_csv), "--response", "f",
            "--original", "y", "--knots", "4", "--max-depth", "0",
            "--min-samples-leaf", "60", "--seed", "3", "--out", str(model))
        out_dir = tmp_path / "diag"
        code, _, _ = run(capsys, "diagnose", "--model", str(model),
                         "--data", str(sim_csv), "--out-dir", str(out_dir))
        assert code == 0
        importance = open(out_dir / "importance.csv").read().strip().splitlines()
        assert len(importance) == 11  # header + one row per feature
        contributions = open(out_dir / "contributions.csv").read().strip().splitlines()
        assert contributions == ["node_id,feature,c,p"]

    def test_export_dot(self, tmp_path, fitted_model, capsys):
        code, out, _ = run(capsys, "export", "--model", str(fitted_model),
                           "--format", "dot")
        assert code == 0
        assert out.startswith("digraph tree {")
        assert "size=" in out and "R2=" in out

    def test_export_rejects_infinite_r2(self, tmp_path, fitted_model, capsys):
        doc = json.loads(fitted_model.read_text())
        doc["nodes"][0]["r2"] = float("inf")
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc))
        code, out, err = run(capsys, "export", "--model", str(model), "--format", "dot")
        assert code == 3 and not out
        node = doc["nodes"][0]["id"]
        assert err.splitlines() == [f"data error: node {node}: r2 must lie in [0, 1], got inf"]

    def test_missing_model_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "export", "--model", str(tmp_path / "none.json"))
        assert code == 3
        assert "none.json" in err and len(err.strip().splitlines()) == 1
