"""Serialization: CSV ingestion, tree JSON round trips, DOT, diagnostics."""

import copy
import csv
import functools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from splinetree import (
    DataError,
    Feature,
    GrowConfig,
    SplineTreeError,
    SurrogateDataset,
    build_spec,
    effect_curve,
    effect_eval,
    export_diagnostics,
    export_dot,
    grow,
    leaf_importance,
    load_csv,
    load_tree,
    predict,
    prune,
    read_config,
    route,
    save_tree,
    split_contribution,
    tree_from_json,
    tree_to_json,
    write_csv,
)

from splinetree import basis
from splinetree.basis import UnseenCategoryWarning

from conftest import make_dataset


# ---------------------------------------------------------------------------
# A tiny independent DOT checker (tokenize + parse the emitted subset)
# ---------------------------------------------------------------------------

_DOT_TOKEN = re.compile(
    r'\s*(digraph|->|[{}\[\];=]|"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*)'
)


def assert_valid_dot(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _DOT_TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise AssertionError(f"cannot tokenize DOT at {text[pos:pos+30]!r}")
            break
        tokens.append(match.group(1))
        pos = match.end()

    def expect(value):
        assert tokens and tokens[0] == value, f"expected {value!r}, got {tokens[:3]}"
        tokens.pop(0)

    def ident():
        tok = tokens.pop(0)
        assert re.fullmatch(r'[A-Za-z_][A-Za-z0-9_]*|"(?:[^"\\]|\\.)*"', tok), tok
        return tok

    expect("digraph")
    ident()
    expect("{")
    nodes, edges = set(), []
    while tokens and tokens[0] != "}":
        name = ident()
        if tokens[0] == "->":
            tokens.pop(0)
            target = ident()
            edges.append((name, target))
        elif name not in ("node", "edge", "graph"):  # attribute defaults
            nodes.add(name)
        if tokens[0] == "[":
            tokens.pop(0)
            while tokens[0] != "]":
                ident()
                expect("=")
                ident()
            expect("]")
        expect(";")
    expect("}")
    assert not tokens
    return nodes, edges


@pytest.fixture
def fitted(rng):
    ds = make_dataset(rng, 1200, continuous=2, categorical=1)
    spec = build_spec(ds, num_knots=3)
    root = grow(ds, spec, GrowConfig(max_depth=2, num_bins=8, min_samples_leaf=70))
    return ds, spec, root


class TestLoadCsv:
    def test_smoke_parse(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,y\n1,2.5,0.1\n2,3.5,0.2\n3,4.5,0.3\n")
        ds = load_csv(path, response="y")
        assert ds.n == 3
        assert [f.name for f in ds.features] == ["a", "b"]
        assert_allclose(ds.columns["b"], [2.5, 3.5, 4.5])

    def test_repeated_header_rejected(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("x1,x2,x1,f\n1,2,3,0.1\n4,5,6,0.2\n")
        with pytest.raises(DataError, match="header repeats column 'x1'"):
            load_csv(path, response="f")

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfx1,f\n1.5,0.1\n2.5,0.2\n")
        ds = load_csv(path, response="f")
        assert [f.name for f in ds.features] == ["x1"]
        assert_allclose(ds.columns["x1"], [1.5, 2.5])

    def test_logit_transform(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,p\n0.0,0.5\n1.0,0.8\n")
        ds = load_csv(path, response="p", transform="logit")
        assert ds.response[0] == pytest.approx(0.0, abs=1e-15)
        assert ds.response[1] == pytest.approx(np.log(0.8 / 0.2), rel=1e-12)

    @pytest.mark.parametrize("cell", ["1.5", "-0.2"])
    def test_logit_response_outside_unit_interval_rejected(self, tmp_path, cell):
        # clamping would fit on about +-27.63 in place of the value
        path = tmp_path / "p.csv"
        path.write_text(f"x,p\n0.0,0.5\n1.0,{cell}\n2.0,0.2\n")
        with pytest.raises(DataError, match=r"^response column 'p' has values outside "
                                            r"\[0, 1\] at rows 1 \(0-based data rows\)$"):
            load_csv(path, response="p", transform="logit")
        assert load_csv(path, response="p").response[1] == float(cell)

    def test_logit_response_endpoints_clamped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,p\n0.0,0.0\n1.0,1.0\n")
        ds = load_csv(path, response="p", transform="logit")
        low, high = 1e-12, 1.0 - 1e-12  # the clamp
        assert_allclose(ds.response, [np.log(low / (1 - low)), np.log(high / (1 - high))],
                        rtol=1e-12)

    @pytest.mark.parametrize("transform", ["identity", "logit"])
    def test_non_finite_response_rejected(self, tmp_path, transform):
        path = tmp_path / "nan.csv"
        path.write_text("x,p\n0.0,0.5\n1.0,nan\n2.0,0.2\n3.0,-inf\n")
        with pytest.raises(DataError, match=r"^response column 'p' has non-finite values "
                                            r"at rows 1, 3 "):
            load_csv(path, response="p", transform=transform)

    def test_roundtrip_full_precision(self, tmp_path, rng):
        path = tmp_path / "round.csv"
        x = rng.standard_normal(20)
        y = rng.standard_normal(20) * np.pi
        write_csv(path, ["x", "y"], [x, y])
        ds = load_csv(path, response="y")
        assert (ds.columns["x"] == x).all()
        assert (ds.response == y).all()

    def test_column_writer_matches_per_cell_writer(self, tmp_path, rng):
        def per_cell(path, header, columns):
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                for i in range(len(columns[0]) if columns else 0):
                    writer.writerow([
                        repr(float(col[i])) if np.issubdtype(col.dtype, np.floating)
                        else str(col[i])
                        for col in columns
                    ])

        n = 40
        special = np.array([-0.0, 0.0, 1e-300, 1e300, -1e300, 5e-324, 0.1, np.pi])
        columns = [
            np.resize(special, n),
            rng.standard_normal(n),
            rng.standard_normal(n).astype(np.float32),
            rng.integers(-10**12, 10**12, n),
            rng.integers(0, 200, n).astype(np.uint8),
            rng.choice(["a", "b,c", 'd"e', " f ", ""], n),
            np.array(["x", 1, 2.5, None] * (n // 4), dtype=object),
        ]
        header = [f"c{k}" for k in range(len(columns))]
        write_csv(tmp_path / "new.csv", header, columns)
        per_cell(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_write_csv_memory_does_not_grow_with_rows(self, tmp_path, rng):
        # formatted all at once, the cells of 100k rows of four float
        # columns peak at about 33 MB; a chunk of rows at a time, under 1 MB
        columns = [rng.standard_normal(100_000) for _ in range(4)]
        tracemalloc.start()
        try:
            write_csv(tmp_path / "big.csv", list("abcd"), columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert load_csv(tmp_path / "big.csv", response="d").n == 100_000

    def test_write_csv_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError, match="same length"):
            write_csv(tmp_path / "r.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="missing column 'y'"):
            load_csv(path, response="y")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, response="y")

    def test_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1,0.5\nnot-a-number,0.7\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, response="y")

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("a,b,y\n1,2,0.1\nnan,3,0.2\n3,inf,0.3\n4,-inf,0.4\n")
        with pytest.raises(DataError, match=r"'a' has non-finite values at rows 1 "):
            load_csv(path, response="y", continuous=["a"], categorical=["b"])
        with pytest.raises(DataError, match=r"'b' has non-finite values at rows 2, 3 "):
            load_csv(path, response="y", continuous=["b"], categorical=["a"])

    def test_non_finite_original_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("a,f,y\n1,0.1,nan\n2,0.2,0.3\n3,0.3,inf\n4,0.4,1e999\n")
        with pytest.raises(DataError, match=r"'y' has non-finite values at rows 0, 2, 3 "):
            load_csv(path, response="f", original="y")

    def test_dataset_rejects_non_finite_original(self):
        original = np.zeros(12)
        original[[2, 5]] = [np.inf, np.nan]
        with pytest.raises(DataError, match=r"original .* non-finite values at rows 2, 5 "):
            SurrogateDataset(
                features=(Feature("x", "continuous"),),
                columns={"x": np.linspace(0.0, 1.0, 12)},
                response=np.zeros(12),
                original=original,
            )

    def test_dataset_rejects_non_finite_response(self):
        response = np.zeros(12)
        response[[4, 9]] = [np.nan, -np.inf]
        with pytest.raises(DataError, match=r"^surrogate response has non-finite values "
                                            r"at rows 4, 9 "):
            SurrogateDataset(
                features=(Feature("x", "continuous"),),
                columns={"x": np.linspace(0.0, 1.0, 12)},
                response=response,
            )

    def test_dataset_rejects_non_finite_feature(self):
        x = np.linspace(0.0, 1.0, 12)
        x[[3, 7]] = np.nan
        with pytest.raises(DataError, match=r"'x' has non-finite values at rows 3, 7 "):
            SurrogateDataset(
                features=(Feature("x", "continuous"),),
                columns={"x": x},
                response=np.zeros(12),
            )

    @pytest.mark.parametrize("categorical", [["c1"], []])
    def test_ragged_row_reports_line(self, tmp_path, categorical):
        # the row ends before the categorical column (or a numeric one)
        path = tmp_path / "short.csv"
        path.write_text("x1,f,c1\n0.1,1.0,u\n0.2,2.0\n")
        continuous = None if categorical else ["x1", "c1"]
        with pytest.raises(DataError, match="line 3 has 2 cells; the columns read need 3"):
            load_csv(path, response="f", continuous=continuous, categorical=categorical)

    def test_columns_beyond_those_read_may_be_missing(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x1,f,note\n0.1,1.0,a\n0.2,2.0\n")
        ds = load_csv(path, response="f", continuous=["x1"])
        assert_allclose(ds.response, [1.0, 2.0])

    def test_placeholder_response(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("x1,c1\n0.1,u\n0.2,v\n0.3,u\n")
        ds = load_csv(path, response=None, continuous=["x1"], categorical=["c1"])
        assert np.array_equal(ds.response, np.zeros(3))
        assert [f.name for f in ds.features] == ["x1", "c1"]
        assert list(ds.columns["c1"]) == ["u", "v", "u"]
        ds = load_csv(path, response=None, categorical=["c1"], transform="logit")
        assert np.array_equal(ds.response, np.zeros(3))
        assert_allclose(ds.columns["x1"], [0.1, 0.2, 0.3])

    def test_categorical_nan_text_is_a_level(self, tmp_path):
        path = tmp_path / "nanlevel.csv"
        path.write_text("a,c,y\n1,nan,0.1\n2,u,0.2\n")
        ds = load_csv(path, response="y", categorical=["c"])
        assert list(ds.columns["c"]) == ["nan", "u"]

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x1,c1,f\n1,caf\u00e9,0.1\n".encode("latin-1"))
        with pytest.raises(DataError, match="not UTF-8 text"):
            load_csv(path, response="f", categorical=["c1"])

    def test_field_beyond_csv_limit_rejected(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("x1,f\n1,0.1\n" + "9" * 200_000 + ",0.2\n")
        with pytest.raises(DataError, match="line 3: field larger than field limit"):
            load_csv(path, response="f")

    @pytest.mark.parametrize("cell", ["u\x00", "\x00u"])
    def test_nul_in_text_cell_rejected(self, tmp_path, cell):
        # a trailing NUL would vanish in a numpy string array, merging
        # the cell into the level "u"
        path = tmp_path / "nul.csv"
        path.write_text(f"x1,c1,f\n1,u,0.1\n2,{cell},0.2\n")
        with pytest.raises(DataError, match="line 3, column 'c1': NUL character"):
            load_csv(path, response="f", categorical=["c1"])

    def test_categorical_and_tag(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,c,y,part\n1,u,0.5,train\n2,v,0.7,test\n3,u,0.9,train\n")
        ds = load_csv(path, response="y", categorical=["c"], tag="part")
        assert ds.features[-1].kind == "categorical"
        assert list(ds.tags) == ["train", "test", "train"]

    @pytest.mark.parametrize("schema, message", [
        (dict(continuous=["a", "a"]), "feature 'a' is named twice"),
        (dict(continuous=["a"], categorical=["c", "c"]), "feature 'c' is named twice"),
        (dict(continuous=["a", "c"], categorical=["c"]), "feature 'c' is named twice"),
        (dict(continuous=["a", "y"]), "feature 'y' is also the response column"),
        (dict(continuous=["a", "o"], original="o"), "feature 'o' is also the original column"),
        (dict(categorical=["y"]), "feature 'y' is also the response column"),
        (dict(continuous=["a"], categorical=["part"], tag="part"),
         "feature 'part' is also the tag column"),
    ], ids=["repeated", "repeated-categorical", "both-kinds", "response", "original",
            "categorical-response", "tag"])
    def test_each_column_has_one_role(self, tmp_path, schema, message):
        path = tmp_path / "roles.csv"
        path.write_text("a,c,y,o,part\n1,u,0.5,2,train\n2,v,0.7,3,test\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}$"):
            load_csv(path, response="y", **schema)

    def test_response_may_double_as_original(self, tmp_path):
        path = tmp_path / "same.csv"
        path.write_text("a,y\n1,0.5\n2,0.7\n")
        ds = load_csv(path, response="y", original="y")
        assert [f.name for f in ds.features] == ["a"]
        assert np.array_equal(ds.original, ds.response)

    def test_dataset_rejects_repeated_feature(self):
        # the tree loader's rule: a dataset save_tree can write, load_tree reads
        with pytest.raises(DataError, match="^schema repeats feature 'x'$"):
            SurrogateDataset(
                features=(Feature("x", "continuous"), Feature("x", "categorical")),
                columns={"x": np.linspace(0.0, 1.0, 12)},
                response=np.zeros(12),
            )


class TestTreeJson:
    def test_roundtrip_predictions_exact(self, fitted, tmp_path, rng):
        ds, spec, root = fitted
        path = tmp_path / "tree.json"
        save_tree(path, root, spec, ds.features, {"seed": 0})
        art = load_tree(path)
        fresh = make_dataset(rng, 1000, continuous=2, categorical=1)
        a = predict(root, spec, fresh)
        b = predict(art.root, art.spec, fresh)
        assert (a == b).all()

    def test_root_only_single_node(self, fitted, tmp_path):
        ds, spec, root = fitted
        only = prune(root, 0.0, 0.0)
        doc = tree_to_json(only, spec, ds.features, {})
        assert len(doc["nodes"]) == 1

    def test_tampered_counts_rejected(self, fitted, tmp_path):
        ds, spec, root = fitted
        if root.is_leaf:
            pytest.skip("need a split")
        doc = tree_to_json(root, spec, ds.features, {})
        doc["nodes"][1]["count"] += 1
        with pytest.raises(DataError, match="sum"):
            tree_from_json(doc)

    def test_version_mismatch_rejected(self, fitted):
        ds, spec, root = fitted
        doc = tree_to_json(root, spec, ds.features, {})
        doc["version"] = 999
        with pytest.raises(DataError, match="version"):
            tree_from_json(doc)

    def test_schema_preserved(self, fitted, tmp_path):
        ds, spec, root = fitted
        path = tmp_path / "t.json"
        save_tree(path, root, spec, ds.features, {"knots": 3})
        art = load_tree(path)
        assert art.schema == ds.features
        assert art.config["knots"] == 3
        assert art.spec.total_columns == spec.total_columns

    def test_effect_means_roundtrip(self, fitted, tmp_path):
        ds, spec, root = fitted
        path = tmp_path / "t.json"
        save_tree(path, root, spec, ds.features, {})
        art = load_tree(path)
        for a, b in zip(root.nodes(), art.root.nodes()):
            assert (a.effect_means == b.effect_means).all()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_tree(path)


@functools.lru_cache(maxsize=None)
def _fuzz_base():
    """A depth-2 tree document over mixed features, and data to predict."""
    rng = np.random.default_rng(8)
    ds = make_dataset(rng, 900, continuous=2, categorical=1)
    spec = build_spec(ds, num_knots=3)
    root = grow(ds, spec, GrowConfig(max_depth=2, num_bins=8, min_samples_leaf=60))
    return tree_to_json(root, spec, ds.features, {"seed": 0}), ds


def _key_paths(obj, prefix=()):
    """Paths to every mapping key in a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _key_paths(value, prefix + (i,))


def _deleted_field(doc):
    return hst.sampled_from(sorted(_key_paths(doc), key=repr)).map(
        lambda path: ("delete", path, None)
    )


def _rewired_child(doc):
    n = len(doc["nodes"])
    return hst.tuples(
        hst.integers(0, n - 1),
        hst.sampled_from(["left", "right"]),
        hst.one_of(hst.none(), hst.integers(-2, n + 1)),
    ).map(lambda t: ("rewire", (t[0], t[1]), t[2]))


class TestTreeJsonFuzz:
    def test_base_tree_has_internal_nodes(self):
        doc, _ = _fuzz_base()
        assert sum(nd["split"] is not None for nd in doc["nodes"]) >= 2

    @settings(max_examples=300, deadline=None)
    @given(hst.one_of(_deleted_field(_fuzz_base()[0]), _rewired_child(_fuzz_base()[0])))
    def test_mutated_document_loads_and_predicts_or_raises(self, mutation):
        base, ds = _fuzz_base()
        doc = copy.deepcopy(base)
        action, path, value = mutation
        if action == "delete":
            *parents, key = path
            container = doc
            for step in parents:
                container = container[step]
            del container[key]
        else:
            node, side = path
            doc["nodes"][node][side] = value
        try:
            art = tree_from_json(doc)
        except SplineTreeError:
            return
        assert np.isfinite(predict(art.root, art.spec, ds)).all()


class TestTreeJsonValidation:
    @pytest.fixture
    def doc(self):
        return copy.deepcopy(_fuzz_base()[0])

    def test_detached_cycle_rejected(self, doc):
        # nodes 90 and 91 are each other's child and have one parent each,
        # so the document has a unique root that does not reach them
        leaf = doc["nodes"][-1]
        split = next(nd["split"] for nd in doc["nodes"] if nd["split"] is not None)
        extra = []
        for node_id, children in ((90, (91, 92)), (91, (90, 93)), (92, None), (93, None)):
            nd = copy.deepcopy(leaf) | {"id": node_id, "count": 0}
            if children is not None:
                nd |= {"split": split, "left": children[0], "right": children[1]}
            extra.append(nd)
        doc["nodes"].extend(extra)
        with pytest.raises(DataError, match="does not reach"):
            tree_from_json(doc)

    def test_duplicate_node_id_rejected(self, doc):
        doc["nodes"].append(copy.deepcopy(doc["nodes"][-1]))
        with pytest.raises(DataError, match="appears twice"):
            tree_from_json(doc)

    def test_block_without_knots_rejected(self, doc):
        del doc["design"]["knots"]["x1"]
        with pytest.raises(DataError, match="'x1'"):
            tree_from_json(doc)

    def test_split_on_unknown_feature_rejected(self, doc):
        node = next(nd for nd in doc["nodes"] if nd["split"] is not None)
        node["split"]["feature"] = "nope"
        with pytest.raises(DataError, match="'nope'"):
            tree_from_json(doc)

    def test_duplicate_levels_rejected(self, doc):
        levels = doc["design"]["levels"]["c1"]
        levels[-1] = levels[0]
        with pytest.raises(DataError, match="not distinct"):
            tree_from_json(doc)

    def test_unsorted_levels_predict_alike(self, doc):
        # levels need not be sorted in a document; reordering them (with
        # the one-hot coefficients) leaves every prediction unchanged
        ds = _fuzz_base()[1]
        art = tree_from_json(doc)
        block = art.spec.block_for("c1")
        levels = doc["design"]["levels"]["c1"]
        order = [0, *reversed(range(1, len(levels)))]
        doc["design"]["levels"]["c1"] = [levels[k] for k in order]
        for nd in doc["nodes"]:
            coef = nd["coefficients"][block.start : block.stop]
            nd["coefficients"][block.start : block.stop] = [coef[k - 1] for k in order[1:]]
        moved = tree_from_json(doc)
        assert moved.spec.levels["c1"] != art.spec.levels["c1"]
        assert_allclose(
            predict(moved.root, moved.spec, ds), predict(art.root, art.spec, ds),
            rtol=1e-12, atol=1e-12,
        )

    def test_wrong_value_type_rejected(self, doc):
        doc["nodes"][0]["sse"] = [1.0]
        with pytest.raises(DataError, match=r"node 0: sse must be a number, got \[1.0\]"):
            tree_from_json(doc)

    @staticmethod
    def _categorical_root(doc, categories):
        """The document with its root split on c1, sending ``categories`` left."""
        doc["nodes"][0]["split"] = {"feature": "c1", "categories": categories}
        return doc

    def test_categorical_split_loads(self, doc):
        levels = doc["design"]["levels"]["c1"]
        art = tree_from_json(self._categorical_root(doc, levels[:2]))
        assert art.root.split.categories == tuple(levels[:2])

    @pytest.mark.parametrize("tamper", ["empty", "repeated", "unknown"])
    def test_bad_split_categories_rejected(self, doc, tamper):
        # each would route rows silently: an unknown level sends none of
        # its own left, and nothing is left to send for an empty list
        levels = doc["design"]["levels"]["c1"]
        categories = {"empty": [], "repeated": [levels[0], levels[0]],
                      "unknown": [levels[0], "no such level"]}[tamper]
        with pytest.raises(DataError, match="node 0: split categories .* are not distinct levels"):
            tree_from_json(self._categorical_root(doc, categories))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, doc, value):
        node = next(nd for nd in doc["nodes"]
                    if nd["split"] is not None and "threshold" in nd["split"])
        node["split"]["threshold"] = value
        with pytest.raises(DataError, match="split threshold .* is not finite"):
            tree_from_json(doc)

    @pytest.mark.parametrize("value", [None, float("nan"), float("inf")])
    def test_effect_means_must_be_finite(self, doc, value):
        if value is None:
            doc["nodes"][1]["effect_means"] = None
        else:
            doc["nodes"][1]["effect_means"][0] = value
        with pytest.raises(DataError, match="node 1: effect_means must have one entry per block"):
            tree_from_json(doc)

    def test_non_finite_coefficient_rejected(self, doc):
        doc["nodes"][0]["coefficients"][1] = float("nan")
        with pytest.raises(DataError, match="finite"):
            tree_from_json(doc)


class TestExportDot:
    def test_root_only(self, fitted):
        ds, spec, root = fitted
        only = prune(root, 0.0, 0.0)
        nodes, edges = assert_valid_dot(export_dot(only))
        assert len(nodes) == 1 and not edges

    def test_depth_one_labels(self, fitted, rng):
        ds = make_dataset(rng, 900, continuous=2)
        spec = build_spec(ds, num_knots=3)
        root = grow(ds, spec, GrowConfig(max_depth=1, num_bins=8, min_samples_leaf=60))
        if root.is_leaf:
            pytest.skip("no split found")
        text = export_dot(root)
        nodes, edges = assert_valid_dot(text)
        assert len(nodes) == 3 and len(edges) == 2
        assert "<=" in text and ">" in text
        assert "dsse=" in text and "size=" in text and "R2=" in text

    def test_full_tree_parses(self, fitted):
        ds, spec, root = fitted
        nodes, edges = assert_valid_dot(export_dot(root))
        assert len(nodes) == sum(1 for _ in root.nodes())
        assert len(edges) == len(nodes) - 1


class TestExportDiagnostics:
    def test_empty_tables_header_only(self, tmp_path):
        paths = export_diagnostics(tmp_path)
        assert open(paths["importance"], newline="").read() == "leaf_id,feature,v\r\n"
        assert open(paths["contributions"], newline="").read() == "node_id,feature,c,p\r\n"

    def test_contribution_rows_sum_to_one(self, fitted, tmp_path):
        ds, spec, root = fitted
        if root.is_leaf:
            pytest.skip("need a split")
        contribs = [
            split_contribution(root, n.id, spec, ds)
            for n in root.nodes() if not n.is_leaf
        ]
        paths = export_diagnostics(tmp_path, contributions=contribs)
        rows = open(paths["contributions"]).read().strip().splitlines()[1:]
        by_node = {}
        for row in rows:
            node_id, _, _, p = row.split(",")
            by_node.setdefault(node_id, 0.0)
            by_node[node_id] += float(p)
        for total in by_node.values():
            assert total == pytest.approx(1.0, abs=1e-9) or total == 0.0

    def test_curves_roundtrip_to_effect_eval(self, fitted, tmp_path):
        ds, spec, root = fitted
        leaf = next(root.leaves())
        curves = [effect_curve(leaf, spec, "x1", num_points=20)]
        paths = export_diagnostics(tmp_path, curves=curves)
        rows = open(paths["curves"]).read().strip().splitlines()[1:]
        grid = np.array([float(r.split(",")[2]) for r in rows])
        effects = np.array([float(r.split(",")[3]) for r in rows])
        # the printed grid round-trips exactly, so re-evaluating on it
        # reproduces the printed effects bit for bit
        assert (grid == curves[0].grid).all()
        assert (effect_eval(leaf, spec, "x1", grid) == effects).all()

    def test_importance_ordering(self, fitted, tmp_path):
        ds, spec, root = fitted
        table = leaf_importance(root, spec, ds)
        paths = export_diagnostics(tmp_path, importance=table)
        rows = open(paths["importance"]).read().strip().splitlines()[1:]
        keys = [(int(r.split(",")[0]), r.split(",")[1]) for r in rows]
        assert keys == sorted(keys)


class TestReadConfig:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# comment\nmax_depth = 3\nknots=7\n\nloss = sse # trailing\n")
        conf = read_config(path)
        assert conf == {"max_depth": "3", "knots": "7", "loss": "sse"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("this is not a pair\n")
        with pytest.raises(DataError, match="line 1"):
            read_config(path)


class TestDeterminism:
    def test_identical_bytes(self, fitted, tmp_path):
        ds, spec, root = fitted
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_tree(p1, root, spec, ds.features, {"seed": 1})
        save_tree(p2, root, spec, ds.features, {"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()
        assert export_dot(root) == export_dot(root)


_fresh_codes = basis.level_codes  # the oracle, unwrapped by the spies below


def _coded(monkeypatch):
    """Every array that ``basis.level_codes`` codes from here on, in call order."""
    calls = []
    inner = basis.level_codes

    def counting(values, levels):
        calls.append(values)
        return inner(values, levels)

    monkeypatch.setattr(basis, "level_codes", counting)
    return calls


class TestLevelCodeCache:
    """``SurrogateDataset.level_codes`` against a fresh ``basis.level_codes``."""

    LEVELS = ("lv0", "lv1", "lv2", "lv3")

    @staticmethod
    def assert_fresh(ds, feature, levels):
        got = ds.level_codes(feature, levels)
        assert np.array_equal(got, _fresh_codes(ds.columns[feature], levels))
        return got

    def test_codes_once_in_the_narrowest_signed_type(self, rng, monkeypatch):
        ds = make_dataset(rng, 300, continuous=1, categorical=1)
        calls = _coded(monkeypatch)
        first = self.assert_fresh(ds, "c1", self.LEVELS)
        assert first.dtype == np.int8 and not first.flags.writeable
        assert ds.level_codes("c1", list(self.LEVELS)) is first
        assert [values is ds.columns["c1"] for values in calls] == [True]
        many = tuple(f"lv{k}" for k in range(200))
        assert self.assert_fresh(ds, "c1", many).dtype == np.int16
        # other levels are coded again, then kept in place of the first
        assert ds.level_codes("c1", many) is ds.level_codes("c1", many)

    def test_in_place_edit_is_coded_again(self, rng):
        ds = make_dataset(rng, 300, continuous=1, categorical=1)
        before = self.assert_fresh(ds, "c1", self.LEVELS).copy()
        ds.columns["c1"][[3, 40]] = ["lv2", "unseen"]
        after = self.assert_fresh(ds, "c1", self.LEVELS)
        assert after[40] == -1 and not np.array_equal(after, before)

    @pytest.mark.parametrize("how", ["copy", "U12", "object"])
    def test_replaced_column_is_coded_again(self, rng, monkeypatch, how):
        ds = make_dataset(rng, 300, continuous=1, categorical=1)
        self.assert_fresh(ds, "c1", self.LEVELS)
        col = ds.columns["c1"]
        ds.columns["c1"] = {"copy": col.copy, "U12": lambda: col.astype("U12"),
                            "object": lambda: col.astype(object)}[how]()
        calls = _coded(monkeypatch)
        self.assert_fresh(ds, "c1", self.LEVELS)
        assert calls[0] is ds.columns["c1"]
        # the replacement is kept, and edits to it are seen
        ds.columns["c1"][7] = "unseen-but-long"
        assert self.assert_fresh(ds, "c1", self.LEVELS)[7] == -1

    def test_object_column(self, rng):
        ds = make_dataset(rng, 300, continuous=1, categorical=1)
        ds.columns["c1"] = ds.columns["c1"].astype(object)
        first = self.assert_fresh(ds, "c1", self.LEVELS)
        assert ds.level_codes("c1", self.LEVELS) is first
        ds.columns["c1"][[0, 1]] = [None, 3]
        assert list(self.assert_fresh(ds, "c1", self.LEVELS)[:2]) == [-1, -1]

    def test_integer_column(self, rng):
        values = rng.integers(0, 5, 300)
        ds = SurrogateDataset(features=(Feature("k", "categorical"),),
                              columns={"k": values}, response=np.zeros(300))
        levels = (4, 0, 2, 1, 3)  # a tree document's levels need not be sorted
        first = self.assert_fresh(ds, "k", levels)
        assert ds.level_codes("k", levels) is first
        values[::9] = 7
        assert (self.assert_fresh(ds, "k", levels)[::9] == -1).all()

    def test_float_column_with_nan_is_never_reused(self, rng, monkeypatch):
        values = rng.choice([0.5, 1.5, 2.5, np.nan], 300)
        values[0] = np.nan
        ds = SurrogateDataset(features=(Feature("r", "categorical"),),
                              columns={"r": values}, response=np.zeros(300))
        levels = (0.5, 1.5, 2.5)
        calls = _coded(monkeypatch)
        self.assert_fresh(ds, "r", levels)
        values[np.isnan(values)] = 1.5  # a NaN is never equal to its copy
        assert (self.assert_fresh(ds, "r", levels) >= 0).all()
        assert sum(c is values for c in calls) == 2
        values[5] = np.nan
        assert self.assert_fresh(ds, "r", levels)[5] == -1

    def test_edited_dataset_answers_as_a_fresh_copy(self, rng):
        ds = make_dataset(rng, 1500, continuous=2, categorical=2, levels=5)
        spec = build_spec(ds, num_knots=3)
        root = grow(ds, spec, GrowConfig(max_depth=3, num_bins=8, min_samples_leaf=80))
        internal = [node for node in root.nodes() if not node.is_leaf]
        assert any(node.split.categories is not None for node in internal)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnseenCategoryWarning)
            predict(root, spec, ds)  # codes every categorical column
            for name in ("c1", "c2"):
                col = ds.columns[name]
                col[rng.choice(ds.n, 200, replace=False)] = rng.choice(
                    ["lv0", "lv4", "unseen"], 200)
            fresh = SurrogateDataset(
                features=ds.features,
                columns={name: col.copy() for name, col in ds.columns.items()},
                response=ds.response.copy(),
            )
            assert np.array_equal(predict(root, spec, ds), predict(root, spec, fresh))
            got, want = route(root, spec, ds), route(root, spec, fresh)
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[k], want[k]) for k in got)
            for node in internal:
                a = split_contribution(root, node.id, spec, ds)
                b = split_contribution(root, node.id, spec, fresh)
                assert (a.c, a.p, a.no_interaction) == (b.c, b.p, b.no_interaction)
            a, b = leaf_importance(root, spec, ds), leaf_importance(root, spec, fresh)
            assert (a.values, a.flagged) == (b.values, b.flagged)

    def test_each_predict_warns_once(self, fitted):
        ds, spec, root = fitted
        ds.columns["c1"][::11] = "zz"
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                predict(root, spec, ds)
            assert [w.category for w in caught] == [UnseenCategoryWarning]
            assert "['zz']" in str(caught[0].message)
