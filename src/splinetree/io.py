"""Dataset ingestion, run configuration, and serialization.

File surfaces: the dataset CSV (header + typed columns), the versioned
tree JSON (schema + design + node list, from which predictions are exactly
reproducible), GraphViz DOT rendering, and the three diagnostics CSVs.
All floating-point output uses the shortest decimal string that round-trips
to the same binary value, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import basis
from .errors import DataError
from .gram import NodeModel
from .tree import GrowConfig, SplitCandidate, TreeNode

TREE_FORMAT = "splinetree-tree"
TREE_FORMAT_VERSION = 1

_LOGIT_CLAMP = 1e-12
_WRITE_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class Feature:
    name: str
    kind: str  # "continuous" | "categorical"


@dataclass
class SurrogateDataset:
    """Feature columns plus the surrogate response used as the fit target.

    ``original`` optionally carries the upstream problem's own response for
    accuracy metrics; ``tags`` optionally carries a train/test marker per
    row.  Feature names must be distinct, as in a tree's schema.  Continuous
    feature columns, the response and ``original`` must be finite.

    :meth:`level_codes` codes a categorical column against a design's levels
    on its first request and keeps the codes, with a private copy of the
    column they were made from, for the fit, routing, prediction and the
    diagnostics to share.  The copy is how an in-place edit is seen: the
    codes are reused only while the column is the same array with the same
    values, and each lookup compares the two, so a call looks each column
    up once (``basis.dataset_codes``) and hands the codes on.  The cost is
    one copy of each coded column, plus its codes at one or two bytes a
    row.  Nothing is coded when a dataset is built; a :meth:`subset`
    carries the codes made so far, gathered by row.
    """

    features: tuple[Feature, ...]
    columns: dict[str, np.ndarray]
    response: np.ndarray
    original: np.ndarray | None = None
    tags: np.ndarray | None = None
    # feature -> (column, copy of its values, levels, codes) of the last coding
    _codes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.response.shape[0]
        seen = set()
        for feat in self.features:
            if feat.name in seen:
                raise DataError(f"schema repeats feature {feat.name!r}")
            seen.add(feat.name)
            if feat.name not in self.columns:
                raise DataError(f"missing column {feat.name!r}")
            col = self.columns[feat.name]
            if col.shape[0] != n:
                raise DataError(f"column {feat.name!r} length differs from response")
            if feat.kind == basis.CONTINUOUS:
                _require_finite(col, f"continuous column {feat.name!r}")
        for aux in (self.original, self.tags):
            if aux is not None and aux.shape[0] != n:
                raise DataError("auxiliary column length differs from response")
        if self.original is not None:
            _require_finite(self.original, "original response column")
        _require_finite(self.response, "surrogate response")

    @property
    def n(self) -> int:
        return self.response.shape[0]

    def level_codes(self, feature: str, levels) -> np.ndarray:
        """``basis.level_codes(self.columns[feature], levels)``, made once.

        The codes are kept in the narrowest signed integer type and reused
        while the column is the same array with the same values as when they
        were made, so an in-place edit or a replaced column is coded again.
        Each reuse compares the column with the copy (a column holding NaN
        never compares equal, so it is coded every time).  The codes are
        shared, so they are read-only.
        """
        col = self.columns[feature]
        levels = tuple(levels)
        kept = self._codes.get(feature)
        if (kept is not None and kept[0] is col and kept[2] == levels
                and np.array_equal(kept[1], col)):
            return kept[3]
        dtype = np.min_scalar_type(-max(len(levels), 1))  # holds -1 .. len - 1
        codes = basis.level_codes(col, levels).astype(dtype)
        codes.flags.writeable = False
        self._codes[feature] = (col, col.copy(), levels, codes)
        return codes

    def subset(self, rows) -> "SurrogateDataset":
        """The given rows, carrying the level codes made so far, gathered by row."""
        rows = np.asarray(rows)
        part = SurrogateDataset(
            features=self.features,
            columns={name: col[rows] for name, col in self.columns.items()},
            response=self.response[rows],
            original=None if self.original is None else self.original[rows],
            tags=None if self.tags is None else self.tags[rows],
        )
        for feature, (_, _, levels, _) in list(self._codes.items()):
            codes = self.level_codes(feature, levels)[rows]  # recoded if edited
            codes.flags.writeable = False
            col = part.columns[feature]
            part._codes[feature] = (col, col.copy(), levels, codes)
        return part


def _require_finite(values, column: str, unit: bool = False) -> None:
    """Raise ``DataError`` naming the column and its first non-finite rows,
    or with ``unit``, its first rows outside [0, 1]."""
    ok = (values >= 0) & (values <= 1) if unit else np.isfinite(values)
    if ok.all():
        return
    bad = np.flatnonzero(~ok)
    shown = ", ".join(str(i) for i in bad[:5])
    more = f" and {bad.size - 5} more" if bad.size > 5 else ""
    what = "values outside [0, 1]" if unit else "non-finite values"
    raise DataError(f"{column} has {what} at rows {shown}{more} (0-based data rows)")


@dataclass(frozen=True)
class RunConfig:
    """Full parameter set for one fit run; flat and file/flag mappable.

    Its defaults are ``splinetree fit``'s; the grow fields take theirs from
    :class:`~splinetree.tree.GrowConfig`.
    """

    features: tuple[str, ...] | None = None  # None = every non-reserved column
    categorical: tuple[str, ...] = ()
    knots: int = 15
    num_bins: int = GrowConfig.num_bins
    max_depth: int = GrowConfig.max_depth
    min_samples_leaf: int | None = GrowConfig.min_samples_leaf
    lam: float | tuple = GrowConfig.lam
    loss: str = GrowConfig.loss
    r2_threshold: float = 0.99
    dsse_fraction: float = 0.02
    lambda1: float | None = None
    seed: int = 0
    transform: str = "identity"  # applied to the response column on load
    test_fraction: float = 1 / 3
    threads: int = GrowConfig.threads

    def grow_config(self) -> GrowConfig:
        return GrowConfig(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            lam=self.lam,
            num_bins=self.num_bins,
            loss=self.loss,
            threads=self.threads,
        )


def logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, _LOGIT_CLAMP, 1.0 - _LOGIT_CLAMP)
    return np.log(p / (1.0 - p))


def load_csv(
    path,
    response: str | None,
    *,
    continuous: Sequence[str] | None = None,
    categorical: Sequence[str] = (),
    original: str | None = None,
    tag: str | None = None,
    transform: str = "identity",
) -> SurrogateDataset:
    """Parse a dataset CSV against a declared schema.

    When ``continuous`` is None, every column other than the response,
    original, tag, and declared categoricals is treated as continuous.
    With ``response=None`` no response column is read and the dataset gets
    an all-zero placeholder response (for prediction and diagnostics).
    A header that names a column twice is rejected, and so is a feature
    named twice or that is also the response, original or tag column; a
    UTF-8 byte order mark before the header is dropped.  A file that is
    not UTF-8 text or that the ``csv`` module cannot split is rejected, and
    so is a NUL character in a categorical or tag cell.  A row too short for the
    columns read is rejected with its file line number; unparseable
    numeric cells are collected and reported with theirs.
    The response must be finite; ``transform="logit"`` also requires it in
    [0, 1] and maps it through log(p/(1-p)), clamping 0 and 1.
    """
    if transform not in ("identity", "logit"):
        raise DataError(f"unknown response transform {transform!r}")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            table = list(reader)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not table:
        raise DataError(f"{path}: empty file")
    header, rows = table[0], table[1:]
    if not rows:
        raise DataError(f"{path}: no data rows")
    if len(set(header)) < len(header):
        repeated = next(name for k, name in enumerate(header) if name in header[:k])
        raise DataError(f"{path}: header repeats column {repeated!r}")

    index = {name: k for k, name in enumerate(header)}
    reserved = {response, original, tag} - {None}
    declared = set(categorical) | reserved
    if continuous is None:
        continuous = [name for name in header if name not in declared]
    # each column read has one role; only the response may double as the original
    roles = {name: f"also the {role} column"
             for name, role in ((tag, "tag"), (original, "original"), (response, "response"))
             if name}
    for name in [*continuous, *categorical]:
        if name in roles:
            raise DataError(f"{path}: feature {name!r} is {roles[name]}")
        roles[name] = "named twice"
    used = [*(n for n in (response, original, tag) if n), *continuous, *categorical]
    for name in used:
        if name not in index:
            raise DataError(f"{path}: missing column {name!r}")
    width = max((index[name] for name in used), default=-1) + 1
    for line, row in enumerate(rows, start=2):  # the header is line 1
        if len(row) < width:
            raise DataError(
                f"{path}: line {line} has {len(row)} cells; "
                f"the columns read need {width}"
            )

    numeric_cols = [*continuous, *(n for n in (response, original) if n)]
    parsed: dict[str, np.ndarray] = {}
    bad: list[tuple[int, str, str]] = []
    for name in numeric_cols:
        k = index[name]
        out = np.empty(len(rows))
        for i, row in enumerate(rows):
            try:
                out[i] = float(row[k])
            except ValueError:
                bad.append((i + 2, name, row[k]))  # +2: header is line 1
        parsed[name] = out
    if bad:
        detail = "; ".join(f"line {ln}, column {col!r}: {cell!r}" for ln, col, cell in bad[:10])
        more = "" if len(bad) <= 10 else f" (and {len(bad) - 10} more)"
        raise DataError(f"{path}: unparseable numeric cells: {detail}{more}")

    features = tuple(
        [Feature(name, basis.CONTINUOUS) for name in continuous]
        + [Feature(name, basis.CATEGORICAL) for name in categorical]
    )
    columns: dict[str, np.ndarray] = {name: parsed[name] for name in continuous}
    for name in categorical:
        columns[name] = _text_column(path, rows, index, name)
    if original:
        _require_finite(parsed[original], f"original response column {original!r}")
    if response is None:
        resp = np.zeros(len(rows))
    else:
        resp = parsed[response]
        _require_finite(resp, f"response column {response!r}")
        if transform == "logit":
            _require_finite(resp, f"response column {response!r}", unit=True)
            resp = logit(resp)
    return SurrogateDataset(
        features=features,
        columns=columns,
        response=resp,
        original=parsed.get(original) if original else None,
        tags=_text_column(path, rows, index, tag) if tag else None,
    )


def _text_column(path, rows, index, name) -> np.ndarray:
    """One column's cells as a string array.

    A NUL character is rejected: numpy's string arrays drop trailing NULs,
    which would silently merge ``"a\\x00"`` into the level ``"a"``.
    """
    k = index[name]
    cells = [row[k] for row in rows]
    if "\x00" in "".join(cells):
        line, cell = next((i + 2, c) for i, c in enumerate(cells) if "\x00" in c)
        raise DataError(f"{path}: line {line}, column {name!r}: NUL character in {cell!r}")
    return np.array(cells)


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write aligned columns as CSV with round-trip float formatting.

    Floats are written by the shortest round-trip ``repr``, anything else
    by ``str`` of its elements.  Cells are formatted and written
    ``_WRITE_CHUNK_ROWS`` rows at a time, so the strings held at once do
    not grow with the table.
    """
    if len({len(col) for col in columns}) > 1:
        raise ValueError("columns must all have the same length")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for lo in range(0, len(columns[0]) if columns else 0, _WRITE_CHUNK_ROWS):
            parts = [col[lo : lo + _WRITE_CHUNK_ROWS] for col in columns]
            writer.writerows(zip(*(
                map(repr, part.astype(np.float64).tolist())
                if np.issubdtype(part.dtype, np.floating)
                else map(str, part)
                for part in parts
            )))


# ---------------------------------------------------------------------------
# Tree JSON
# ---------------------------------------------------------------------------


@dataclass
class TreeArtifact:
    """A loaded tree bundle: structure, design, schema, and run metadata."""

    root: TreeNode
    spec: basis.DesignSpec
    schema: tuple[Feature, ...]
    config: dict


def _split_to_json(split: SplitCandidate | None):
    if split is None:
        return None
    if split.threshold is not None:
        return {"feature": split.feature, "threshold": split.threshold}
    return {"feature": split.feature, "categories": list(split.categories)}


def _split_from_json(doc, where, spec, kinds):
    """A node's split, or None.  A split must route every row as it says:
    a finite threshold, or a nonempty list of distinct levels of its feature."""
    if doc is None:
        return None
    feature = _field(doc, "feature", where)
    if "threshold" in doc:
        threshold = _field(doc, "threshold", where, float)
        kind, split = basis.CONTINUOUS, SplitCandidate(feature, threshold=threshold)
    else:
        categories = tuple(_field(doc, "categories", where))
        kind, split = basis.CATEGORICAL, SplitCandidate(feature, categories=categories)
    if kinds.get(feature) != kind or (kind == basis.CATEGORICAL and feature not in spec.levels):
        raise DataError(f"{where}: no {kind} feature {feature!r} to split on")
    if kind == basis.CONTINUOUS and not np.isfinite(split.threshold):
        raise DataError(f"{where}: split threshold {split.threshold!r} is not finite")
    if kind == basis.CATEGORICAL and not (
        len(set(categories)) == len(categories) > 0
        and set(categories) <= set(spec.levels[feature])
    ):
        raise DataError(f"{where}: split categories {list(categories)!r} are not distinct "
                        f"levels of {feature!r}, at least one")
    return split


_JSON_KINDS = {int: "an integer", float: "a number"}


def _field(doc, key, where, kind=None):
    """``doc[key]``, with a DataError naming the place when it is absent.

    With ``kind`` int the value must be a JSON integer, and with float a
    JSON number, returned as a float; a boolean or a string is neither.
    """
    if not isinstance(doc, Mapping):
        raise DataError(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise DataError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is None:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise DataError(f"{where}: {key} must be {_JSON_KINDS[kind]}, got {value!r}")
    return kind(value)


def _statistic(doc, key, where, low=-np.inf, high=np.inf) -> float:
    """``_field(doc, key, where, float)``, which must be finite and lie in
    [low, high]; a DataError names the place and the value otherwise."""
    value = _field(doc, key, where, float)
    if not (np.isfinite(value) and low <= value <= high):
        if high < np.inf:
            domain = f"lie in [{low:g}, {high:g}]"
        else:
            domain = "be finite" + ("" if low == -np.inf else f" and >= {low:g}")
        raise DataError(f"{where}: {key} must {domain}, got {value!r}")
    return value


def tree_to_json(root: TreeNode, spec: basis.DesignSpec, schema, config: Mapping) -> dict:
    nodes = []
    for node in root.nodes():
        nodes.append(
            {
                "id": node.id,
                "depth": node.depth,
                "count": node.count,
                "split": _split_to_json(node.split),
                "left": None if node.left is None else node.left.id,
                "right": None if node.right is None else node.right.id,
                "dsse": node.dsse,
                "sse": node.model.sse,
                "r2": node.model.r2,
                "effective_df": node.model.effective_df,
                "lambda": node.model.lam,
                "coefficients": node.model.coefficients.tolist(),
                "effect_means": None
                if node.effect_means is None
                else node.effect_means.tolist(),
                "flags": list(node.flags),
            }
        )
    return {
        "format": TREE_FORMAT,
        "version": TREE_FORMAT_VERSION,
        "schema": [{"name": f.name, "kind": f.kind} for f in schema],
        "design": {
            "total_columns": spec.total_columns,
            "blocks": [
                {"feature": b.feature, "kind": b.kind, "start": b.start, "stop": b.stop}
                for b in spec.blocks
            ],
            "knots": {name: kv.knots.tolist() for name, kv in spec.knots.items()},
            "levels": {name: list(levels) for name, levels in spec.levels.items()},
            "excluded": list(spec.excluded),
        },
        "config": dict(config),
        "nodes": nodes,
    }


def save_tree(path, root: TreeNode, spec: basis.DesignSpec, schema, config: Mapping) -> None:
    doc = tree_to_json(root, spec, schema, config)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


def tree_from_json(doc: Mapping) -> TreeArtifact:
    """Rebuild a tree bundle from its JSON document.

    Every malformed document raises DataError: a missing field or a value of
    the wrong JSON type (nothing is coerced: ids, depths, counts, children,
    block bounds and ``total_columns`` must be integers, the split
    threshold and the node statistics numbers, and ``flags`` a list of
    strings), a node statistic out of its domain (``sse``, ``dsse`` or
    ``effective_df`` not finite, ``r2`` outside [0, 1], ``lambda`` not
    finite and nonnegative), a schema that repeats a feature, a design
    whose blocks lack their knots or levels or do not match the schema, a
    coefficient vector that is not finite and ``total_columns`` long,
    effect means not one finite number per block, a split on a feature the
    schema or design does not support, a split threshold that is not
    finite, split categories that are empty, repeat a level or name one the
    feature does not have, node links that do not form one tree (a
    dangling child id, a node with two parents, or a node the root does
    not reach), and depths that do not count from 0 at the root.
    """
    if not isinstance(doc, Mapping) or doc.get("format") != TREE_FORMAT:
        raise DataError(f"not a {TREE_FORMAT} document")
    if doc.get("version") != TREE_FORMAT_VERSION:
        raise DataError(
            f"unsupported format version {doc.get('version')!r}; "
            f"this build reads version {TREE_FORMAT_VERSION}"
        )
    try:
        return _tree_from_json(doc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed tree document: {exc}") from exc


def _spec_from_json(design, schema) -> basis.DesignSpec:
    blocks = tuple(
        basis.BasisBlock(
            _field(b, "feature", "design block"),
            _field(b, "kind", "design block"),
            _field(b, "start", "design block", int),
            _field(b, "stop", "design block", int),
        )
        for b in _field(design, "blocks", "design")
    )
    spec = basis.DesignSpec(
        blocks=blocks,
        knots={
            name: basis.KnotVector(name, np.asarray(values, dtype=np.float64))
            for name, values in dict(_field(design, "knots", "design")).items()
        },
        levels={
            name: tuple(levels)
            for name, levels in dict(_field(design, "levels", "design")).items()
        },
        total_columns=_field(design, "total_columns", "design", int),
        excluded=tuple(design.get("excluded", ())),
    )
    kinds = {f.name: f.kind for f in schema}
    for block in spec.blocks:
        if block.kind == "spline":
            knots = spec.knots.get(block.feature)
            kind, width = basis.CONTINUOUS, None if knots is None else len(knots)
        elif block.kind == "linear":
            kind, width = basis.CONTINUOUS, 1
        elif block.kind == "onehot":
            levels = spec.levels.get(block.feature)
            kind, width = basis.CATEGORICAL, None if levels is None else len(levels) - 1
        else:
            raise DataError(f"design block {block.feature!r}: unknown kind {block.kind!r}")
        if kinds.get(block.feature) != kind:
            raise DataError(f"design block {block.feature!r} is not a {kind} schema feature")
        if width != block.width:
            raise DataError(
                f"design block {block.feature!r}: {block.width} columns, "
                f"but its knots or levels give {width}"
            )
    return spec


def _node_from_json(nd, spec, kinds) -> TreeNode:
    where = f"node {nd.get('id')!r}" if isinstance(nd, Mapping) else "node"
    coefficients = np.asarray(_field(nd, "coefficients", where), dtype=np.float64)
    if coefficients.shape != (spec.total_columns,) or not np.isfinite(coefficients).all():
        raise DataError(
            f"{where}: coefficients must be {spec.total_columns} finite numbers"
        )
    # the centered effects of diagnose subtract them
    effect_means = np.asarray(_field(nd, "effect_means", where), dtype=np.float64)
    if effect_means.shape != (len(spec.blocks),) or not np.isfinite(effect_means).all():
        raise DataError(f"{where}: effect_means must have one entry per block, each finite")
    split = _split_from_json(_field(nd, "split", where), where, spec, kinds)
    model = NodeModel(
        coefficients=coefficients,
        sse=_statistic(nd, "sse", where),
        r2=_statistic(nd, "r2", where, 0.0, 1.0),
        effective_df=_statistic(nd, "effective_df", where),
        lam=_statistic(nd, "lambda", where, 0.0),
        count=_field(nd, "count", where, int),
    )
    flags = nd.get("flags", [])
    if not isinstance(flags, list) or not all(isinstance(f, str) for f in flags):
        raise DataError(f"{where}: flags must be a list of strings, got {flags!r}")
    return TreeNode(
        id=_field(nd, "id", where, int),
        depth=_field(nd, "depth", where, int),
        count=model.count,
        model=model,
        split=split,
        dsse=_statistic(nd, "dsse", where),
        effect_means=effect_means,
        flags=tuple(flags),
    )


def _tree_from_json(doc) -> TreeArtifact:
    schema = tuple(
        Feature(_field(f, "name", "schema entry"), _field(f, "kind", "schema entry"))
        for f in _field(doc, "schema", "document")
    )
    kinds = {}
    for f in schema:
        if f.name in kinds:
            raise DataError(f"schema repeats feature {f.name!r}")
        kinds[f.name] = f.kind
    spec = _spec_from_json(_field(doc, "design", "document"), schema)
    config = dict(_field(doc, "config", "document"))

    docs = _field(doc, "nodes", "document")
    nodes: dict[int, TreeNode] = {}
    for nd in docs:
        node = _node_from_json(nd, spec, kinds)
        if node.id in nodes:
            raise DataError(f"node id {node.id} appears twice")
        nodes[node.id] = node
    children: set[int] = set()
    for nd, node in zip(docs, nodes.values()):
        where = f"node {node.id}"
        left, right = _field(nd, "left", where), _field(nd, "right", where)
        if (left is None) != (right is None) or (node.split is None) != (left is None):
            raise DataError(f"{where}: split and children are inconsistent")
        if left is None:
            continue
        for child in (left, right):
            if isinstance(child, bool) or not isinstance(child, int) or child not in nodes:
                raise DataError(f"{where}: child id {child!r} names no node")
            if child in children:
                raise DataError(f"node {child} has more than one parent")
            children.add(child)
        node.left, node.right = nodes[left], nodes[right]
        if node.left.count + node.right.count != node.count:
            raise DataError(
                f"{where}: child counts {node.left.count}+{node.right.count} "
                f"do not sum to {node.count}"
            )
    roots = set(nodes) - children
    if len(roots) != 1:
        raise DataError("tree document does not have a unique root")
    root = nodes[roots.pop()]
    # one root and one parent per other node leaves only a cycle detached
    # from the root; the walk from the root then misses its nodes
    if sum(1 for _ in root.nodes()) != len(nodes):
        raise DataError("tree document has nodes the root does not reach")
    if root.depth != 0:
        raise DataError(f"root node {root.id}: depth {root.depth} is not 0")
    for node in root.nodes():
        for child in (node.left, node.right) if node.split is not None else ():
            if child.depth != node.depth + 1:
                raise DataError(f"node {child.id}: depth {child.depth} is not "
                                f"its parent's depth {node.depth} + 1")
    return TreeArtifact(root=root, spec=spec, schema=schema, config=config)


def load_tree(path) -> TreeArtifact:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})") from exc
    return tree_from_json(doc)


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _rule_text(split: SplitCandidate, negate: bool = False) -> str:
    if split.threshold is not None:
        op = ">" if negate else "<="
        return f"{split.feature} {op} {split.threshold:.6g}"
    cats = ", ".join(str(c) for c in split.categories)
    return f"{split.feature} {'not in' if negate else 'in'} {{{cats}}}"


def export_dot(root: TreeNode) -> str:
    """GraphViz rendering: per-node size/split/dsse/R2, edge routing labels."""
    lines = ["digraph tree {", "  node [shape=box];"]
    for node in root.nodes():
        parts = [f"N{node.id}", f"size={node.count}"]
        if node.split is not None:
            parts.append(_rule_text(node.split))
            parts.append(f"dsse={node.dsse:.6g}")
        parts.append(f"R2={node.model.r2:.4f}")
        label = "\\n".join(_dot_escape(part) for part in parts)
        lines.append(f'  n{node.id} [label="{label}"];')
    for node in root.nodes():
        if node.split is None:
            continue
        yes = _dot_escape(_rule_text(node.split))
        no = _dot_escape(_rule_text(node.split, negate=True))
        lines.append(f'  n{node.id} -> n{node.left.id} [label="{yes}"];')
        lines.append(f'  n{node.id} -> n{node.right.id} [label="{no}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Diagnostics CSVs
# ---------------------------------------------------------------------------


def export_diagnostics(out_dir, importance=None, contributions=None, curves=None) -> dict:
    """Write importance.csv / contributions.csv / curves.csv into a directory.

    Rows are ordered by node id, then feature name, then grid position.
    Each table is built as its columns and written by :func:`write_csv`.
    Returns the mapping of table name to file path.
    """
    os.makedirs(out_dir, exist_ok=True)
    values = {} if importance is None else importance.values
    keys = sorted(values)
    contributions = sorted(contributions or [], key=lambda s: s.node_id)
    features = [sorted(contrib.c) for contrib in contributions]
    curves = sorted(curves or [], key=lambda c: (c.node_id, c.feature))
    sizes = [curve.values.size for curve in curves]
    # a grid holds floats or levels: an object column keeps the Python
    # values, whose str is repr for a float
    grid = np.empty(sum(sizes), dtype=object)
    for curve, stop in zip(curves, np.cumsum(sizes)):
        grid[stop - curve.values.size : stop] = curve.grid
    tables = {
        "importance": (["leaf_id", "feature", "v"], [
            np.array([key[0] for key in keys], dtype=np.int64),
            np.array([key[1] for key in keys], dtype=str),
            np.fromiter((values[key] for key in keys), np.float64),
        ]),
        "contributions": (["node_id", "feature", "c", "p"], [
            np.repeat(np.array([s.node_id for s in contributions], dtype=np.int64),
                      [len(names) for names in features]),
            np.array([name for names in features for name in names], dtype=str),
            np.fromiter((s.c[name] for s, names in zip(contributions, features)
                         for name in names), np.float64),
            np.fromiter((s.p[name] for s, names in zip(contributions, features)
                         for name in names), np.float64),
        ]),
        "curves": (["leaf_id", "feature", "grid", "effect"], [
            np.repeat(np.array([curve.node_id for curve in curves], dtype=np.int64), sizes),
            np.repeat(np.array([curve.feature for curve in curves], dtype=str), sizes),
            grid,
            np.concatenate([np.asarray(curve.values, np.float64) for curve in curves] or [[]]),
        ]),
    }
    paths = {}
    for name, (header, columns) in tables.items():
        paths[name] = os.path.join(out_dir, f"{name}.csv")
        write_csv(paths[name], header, columns)
    return paths


# ---------------------------------------------------------------------------
# Flat key=value config files
# ---------------------------------------------------------------------------


def read_config(path) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for ln, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}: line {ln}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
