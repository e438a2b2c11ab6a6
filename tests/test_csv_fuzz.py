"""Fuzzed dataset CSVs against a direct ``csv``-module parse.

Every generated file must either raise ``DataError`` (exit 3 from the
command line) or load as exactly the dataset that a plain ``csv.reader``
parse of the same text describes.  The reference below restates the
reader's rules independently: distinct header names, every column read
present, rows long enough for the columns read, numeric cells that
``float`` accepts and that are finite, and text cells free of NUL
characters.
"""

import csv
import io as stdio
import math
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import splinetree as st
from splinetree import DataError, RunConfig, load_csv
from splinetree.basis import UnseenCategoryWarning
from splinetree.cli import _load_fit_dataset, _load_model_features, main

TEXT_COLUMNS = ("c", "t")
ODD_NAMES = ["", "a ", "\ufeffa", 'a"b', "a,b", "a\nb"]
NUMBER = hst.one_of(
    hst.floats(allow_nan=False, allow_infinity=False).map(repr),
    hst.integers(-10**20, 10**20).map(str),
    hst.sampled_from([" -2.25 ", "1e3", "-0.0", "1_0", "\u0663"]),
)
BAD_NUMBER = hst.sampled_from(["", "nan", "-inf", "1e999", "abc", "1,5", "\x00"])
TEXT = hst.text(alphabet='ab01.,"\n\r\ufeff \t', max_size=6)
BAD_TEXT = hst.sampled_from(["\x00", "lv0\x00", "l\x00v"])


# (response, continuous, categorical, original, tag): explicit features,
# every other column continuous with a tag, and the placeholder response
SCHEMAS = [
    ("y", ["a", "b"], ["c"], None, None),
    ("y", None, ["c"], None, "t"),
    (None, ["a"], ["c"], "b", None),
]
CORRUPTIONS = [None] * 8 + [
    "duplicate header", "missing header", "no rows", "ragged row", "bad cell",
    "not utf-8",
]


@hst.composite
def csv_files(draw):
    """CSV bytes, well formed or with one corruption: a duplicated or a
    missing header name, no data rows, a ragged row, a bad cell or a byte
    that is not UTF-8.  Any of them may start with a byte order mark, and
    unquoted ("raw") files may split odd names and cells differently."""
    corruption = draw(hst.sampled_from(CORRUPTIONS))
    header = draw(hst.permutations(["a", "b", "c", "y", "t"]))
    header += draw(hst.lists(hst.sampled_from(ODD_NAMES), max_size=1))
    if corruption == "duplicate header":
        header.append(draw(hst.sampled_from(header)))
    if corruption == "missing header":
        header.remove(draw(hst.sampled_from(header)))
    rows = [
        [draw(TEXT if name in TEXT_COLUMNS else NUMBER) for name in header]
        for _ in range(0 if corruption == "no rows" else draw(hst.integers(1, 5)))
    ]
    if rows and corruption in ("ragged row", "bad cell"):
        i = draw(hst.integers(0, len(rows) - 1))
        k = draw(hst.integers(0, len(header) - 1))
        if corruption == "ragged row":
            rows[i] = rows[i][:k]
        else:
            rows[i][k] = draw(BAD_TEXT if header[k] in TEXT_COLUMNS else BAD_NUMBER)
    out = stdio.StringIO()
    layout = draw(hst.sampled_from(["minimal", "minimal", "all", "raw"]))
    terminator = draw(hst.sampled_from(["\n", "\r\n"]))
    if layout == "raw":  # unquoted joins: stray quotes and separators get through
        out.write(terminator.join(",".join(r) for r in [header, *rows]) + terminator)
    else:
        quoting = csv.QUOTE_ALL if layout == "all" else csv.QUOTE_MINIMAL
        csv.writer(out, quoting=quoting, lineterminator=terminator).writerows([header, *rows])
    data = out.getvalue().encode("utf-8")
    if draw(hst.booleans()):
        data = b"\xef\xbb\xbf" + data
    if corruption == "not utf-8":
        at = draw(hst.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def reference(data, response, continuous, categorical, original, tag):
    """The dataset a direct ``csv`` parse describes, or None if malformed."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    table = list(csv.reader(stdio.StringIO(text, newline="")))
    if len(table) < 2 or len(set(table[0])) < len(table[0]):
        return None
    header, rows = table[0], table[1:]
    reserved = {response, original, tag} - {None}
    if continuous is None:
        continuous = [n for n in header if n not in set(categorical) | reserved]
    used = [*(n for n in (response, original, tag) if n), *continuous, *categorical]
    if not set(used) <= set(header):
        return None
    at = {name: header.index(name) for name in used}
    if any(len(row) <= max(at.values()) for row in rows):
        return None
    numbers = {}
    for name in [*continuous, *(n for n in (response, original) if n)]:
        try:
            numbers[name] = [float(row[at[name]]) for row in rows]
        except ValueError:
            return None
        if not all(math.isfinite(v) for v in numbers[name]):
            return None
    texts = {name: [row[at[name]] for row in rows] for name in [*categorical, *([tag] if tag else [])]}
    if any("\x00" in v for cells in texts.values() for v in cells):
        return None
    return {
        "features": [(n, "continuous") for n in continuous]
        + [(n, "categorical") for n in categorical],
        "numbers": numbers, "texts": texts, "rows": len(rows),
    }


def assert_matches(ds, want, response, original, tag):
    assert [(f.name, f.kind) for f in ds.features] == want["features"]
    for name, kind in want["features"]:
        if kind == "continuous":
            assert np.array_equal(ds.columns[name], want["numbers"][name])
        else:
            assert ds.columns[name].tolist() == want["texts"][name]
    expected = want["numbers"][response] if response else [0.0] * want["rows"]
    assert np.array_equal(ds.response, expected)
    if original:
        assert np.array_equal(ds.original, want["numbers"][original])
    if tag:
        assert ds.tags.tolist() == want["texts"][tag]


def _written(data):
    handle = tempfile.NamedTemporaryFile(suffix=".csv", delete=False)
    with handle:
        handle.write(data)
    return Path(handle.name)


class TestLoadCsvFuzz:
    @settings(max_examples=400, deadline=None)
    @given(csv_files(), hst.sampled_from(SCHEMAS))
    def test_data_error_or_direct_parse(self, data, schema):
        response, continuous, categorical, original, tag = schema
        want = reference(data, *schema)
        path = _written(data)
        try:
            ds = load_csv(path, response, continuous=continuous, categorical=categorical,
                          original=original, tag=tag)
        except DataError:
            assert want is None
            return
        finally:
            path.unlink()
        assert want is not None
        assert_matches(ds, want, response, original, tag)

    @settings(max_examples=150, deadline=None)
    @given(csv_files())
    def test_cli_readers(self, data):
        # fit reads the declared features; predict, evaluate and diagnose
        # read the model's schema with a placeholder response
        path = _written(data)
        try:
            args = SimpleNamespace(data=str(path), original=None, tag_column=None)
            config = RunConfig(features=("a", "b", "c"), categorical=("c",))
            art = SimpleNamespace(schema=(st.Feature("a", "continuous"),
                                          st.Feature("c", "categorical")))
            for read, schema in (
                (lambda: _load_fit_dataset(args, config, "y"), SCHEMAS[0]),
                (lambda: _load_model_features(art, path), (None, ["a"], ["c"], None, None)),
            ):
                want = reference(data, *schema)
                try:
                    ds = read()
                except DataError:
                    assert want is None
                    continue
                assert want is not None
                assert_matches(ds, want, schema[0], None, None)
        finally:
            path.unlink()


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, 400)
    c = rng.choice(["lv0", "lv1"], 400)
    ds = st.SurrogateDataset(
        features=(st.Feature("a", "continuous"), st.Feature("c", "categorical")),
        columns={"a": a, "c": c}, response=np.sin(3 * a) + (c == "lv0"),
    )
    spec = st.build_spec(ds, num_knots=3)
    root = st.grow(ds, spec, st.GrowConfig(max_depth=1, num_bins=4))
    path = tmp_path_factory.mktemp("model") / "tree.json"
    st.save_tree(path, root, spec, ds.features, {})
    return path


class TestPredictCommandFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=csv_files())
    def test_exit_3_or_predictions_of_the_direct_parse(self, model_path, data, capsys):
        want = reference(data, None, ["a"], ["c"], None, None)
        path = _written(data)
        out = path.with_suffix(".pred.csv")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnseenCategoryWarning)
                code = main(["predict", "--model", str(model_path), "--data", str(path),
                             "--out", str(out)])
                err = capsys.readouterr().err
                if want is None:
                    assert code == 3 and err.count("\n") == 1
                    return
                assert code == 0, err
                art = st.load_tree(model_path)
                expected = st.predict(art.root, art.spec, load_csv(
                    path, None, continuous=["a"], categorical=["c"]))
            got = load_csv(out, "prediction", continuous=[]).response
            assert np.array_equal(got, expected)
        finally:
            path.unlink()
            out.unlink(missing_ok=True)
