"""Command-line workflow: simulate, fit, predict, evaluate, diagnose, export.

Exit codes: 0 success, 2 argument error, 3 data or file error (a file
that cannot be read or written), 4 numerical failure.
All randomness flows from explicit --seed flags; identical invocations
produce identical output bytes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import basis, diagnostics, io, simdata, tree
from .errors import DataError, NumericalError, SplineTreeError


class _Parser(argparse.ArgumentParser):
    """Argument errors as one ``error:`` line and exit 2, as the fit checks give."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _add_data_arguments(parser):
    parser.add_argument("--data", required=True, help="dataset CSV")
    parser.add_argument("--response", required=True, help="surrogate response column")
    parser.add_argument("--original", help="original response column for accuracy metrics")
    parser.add_argument("--task", choices=["continuous", "binary"],
                        help="accuracy metric family (default: binary iff transform is logit)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splinetree",
        description="Fit and inspect model-based trees on surrogate responses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a benchmark dataset CSV")
    p.add_argument("--kind", choices=["f1", "f2"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="grow, prune, and save a tree")
    _add_data_arguments(p)
    p.add_argument("--categorical", action="append", default=[],
                   help="categorical column (repeatable)")
    p.add_argument("--features", help="comma-separated model features (default: all)")
    p.add_argument("--out", required=True, help="output tree JSON")
    p.add_argument("--config", help="flat key=value defaults file")
    p.add_argument("--tag-column",
                   help="column with train/test markers instead of a random split")
    # _config_from_args parses and checks these flags, as it does the config keys
    for field, key, _, rule, _ in _OPTIONS:
        about = _DESCRIPTIONS.get(key)
        p.add_argument("--" + key.replace("_", "-"), dest=field,
                       help=f"{about} ({rule})" if about else rule)

    p = sub.add_parser("predict", help="write predictions for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="fidelity/accuracy metrics on a dataset")
    p.add_argument("--model", required=True)
    _add_data_arguments(p)
    p.add_argument("--transform", choices=["identity", "logit"],
                   help="response transform applied on load: 'identity' or 'logit'")

    p = sub.add_parser("diagnose", help="write importance/contribution/curve CSVs")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("export", help="render the tree structure")
    p.add_argument("--model", required=True)
    p.add_argument("--format", choices=["dot"], default="dot")
    p.add_argument("--out", help="output file (default: stdout)")
    return parser


def _cmd_simulate(args) -> int:
    if args.n < 1:
        print("error: --n must be positive", file=sys.stderr)
        return 2
    if not 0 <= args.sigma < np.inf:
        print(f"error: --sigma must be finite and nonnegative, got {args.sigma!r}",
              file=sys.stderr)
        return 2
    sim = simdata.simulate(args.kind, args.n, args.sigma, args.seed)
    header = [f"x{k}" for k in range(1, 11)] + ["f", "y"]
    columns = [sim.x[:, k] for k in range(10)] + [sim.f, sim.y]
    io.write_csv(args.out, header, columns)
    return 0


class _UsageError(Exception):
    """A fit option with a value outside its domain (exit 2)."""


def _parse_lambda(text):
    parts = [float(v) for v in text.split(",") if v.strip()]
    if not parts:
        raise ValueError("no values")
    return parts[0] if len(parts) == 1 else tuple(parts)


_KINDS = {int: "an integer", float: "a number",
          _parse_lambda: "a number or comma-separated numbers"}

# One row per RunConfig field that a fit flag or config key sets: the field
# (also the flag's argparse dest), the key (the flag is "--" plus the key
# with dashes), the parser and the rule the parsed value must meet.
# build_parser declares each flag from its row, with the rule as its help.
_OPTIONS = (
    ("knots", "knots", int, "at least 2", lambda v: v >= 2),
    ("num_bins", "num_bins", int, "at least 2", lambda v: v >= 2),
    ("max_depth", "max_depth", int, "nonnegative", lambda v: v >= 0),
    ("min_samples_leaf", "min_samples_leaf", int, "positive", lambda v: v >= 1),
    ("lam", "lambda", _parse_lambda, "finite and nonnegative",
     lambda v: all(0 <= x < np.inf for x in np.atleast_1d(v))),
    ("loss", "loss", str, "'gcv' or 'sse'", lambda v: v in ("gcv", "sse")),
    ("r2_threshold", "r2_threshold", float, "in [0, 1]", lambda v: 0 <= v <= 1),
    ("dsse_fraction", "dsse_fraction", float, "in [0, 1]", lambda v: 0 <= v <= 1),
    ("lambda1", "lambda1", float, "finite and nonnegative", lambda v: 0 <= v < np.inf),
    ("seed", "seed", int, "nonnegative", lambda v: v >= 0),
    ("transform", "transform", str, "'identity' or 'logit'",
     lambda v: v in ("identity", "logit")),
    ("test_fraction", "test_fraction", float, "in [0, 1)", lambda v: 0 <= v < 1),
    ("threads", "threads", int, "at least 1", lambda v: v >= 1),
)


# what a fit flag's help says before its rule, where the rule is not enough
_DESCRIPTIONS = {
    "lambda": "ridge weight, or comma-separated grid selected by GCV",
    "lambda1": "optional L1 refit weight for leaf models",
    "transform": "response transform applied on load",
}


def _config_from_args(args) -> io.RunConfig:
    """The fit's run configuration from flags over ``--config`` values.

    Options a flag or config key leaves unset keep ``io.RunConfig``'s
    defaults.  Raises ``_UsageError`` naming the first config key that names
    no option, or else the flag or config key of the first value, in table
    order, that does not parse or lies outside its domain, or else the first
    categorical column that the features, when given, do not list.
    """
    given = io.read_config(args.config) if args.config else {}
    known = {row[1] for row in _OPTIONS} | {"features", "categorical"}
    unknown = [key for key in given if key not in known]
    if unknown:
        raise _UsageError(f"unknown key {unknown[0]!r} in {args.config}")
    values = {}
    for field, key, parse, rule, ok in _OPTIONS:
        if getattr(args, field) is not None:
            source, raw = "--" + key.replace("_", "-"), getattr(args, field)
        elif key in given:
            source, raw = f"{key} in {args.config}", given[key]
        else:
            continue
        try:
            values[field] = parse(raw)
        except ValueError:
            raise _UsageError(f"{source} must be {_KINDS[parse]}, got {raw!r}") from None
        if not ok(values[field]):
            raise _UsageError(f"{source} must be {rule}, got {values[field]!r}")
    features = given.get("features") if args.features is None else args.features
    if features is not None:
        values["features"] = tuple(v.strip() for v in features.split(",") if v.strip())
    values["categorical"] = tuple(args.categorical) or tuple(
        v.strip() for v in given.get("categorical", "").split(",") if v.strip()
    )
    if "features" in values:
        stray = [name for name in values["categorical"] if name not in values["features"]]
        if stray:
            raise _UsageError(f"categorical column {stray[0]!r} is not one of the features")
    return io.RunConfig(**values)


def _load_fit_dataset(args, config: io.RunConfig, response: str):
    continuous = None
    if config.features is not None:
        # a repeated categorical would be lost from the continuous list below
        for k, name in enumerate(config.features):
            if name in config.features[:k]:
                raise DataError(f"{args.data}: feature {name!r} is named twice")
        continuous = [f for f in config.features if f not in config.categorical]
    return io.load_csv(
        args.data,
        response=response,
        continuous=continuous,
        categorical=config.categorical,
        original=args.original,
        tag=args.tag_column,
        transform=config.transform,
    )


def _check_labels(dataset, task, original):
    """Reject a binary task on an original column that is not 0/1.

    Runs right after loading, so a bad column ends the command before any
    fit, prediction or output file.
    """
    if task == "binary" and dataset.original is not None:
        if not np.isin(dataset.original, (0.0, 1.0)).all():
            raise DataError(
                f"binary task requires 0/1 labels in original column {original!r}"
            )


def _train_test_rows(dataset, config: io.RunConfig, args):
    """The training and test rows: by the tag column, or a seeded random split.

    Every tag must be 'train' or 'test', and at least two rows must train.
    """
    if dataset.tags is not None:
        other = np.flatnonzero((dataset.tags != "train") & (dataset.tags != "test"))
        if other.size:
            raise DataError(
                f"{args.data}: line {other[0] + 2}, tag column {args.tag_column!r}: "
                f"{str(dataset.tags[other[0]])!r} is neither 'train' nor 'test'"
            )
        train = np.flatnonzero(dataset.tags == "train")
        test = np.flatnonzero(dataset.tags == "test")
        source = f"tag column {args.tag_column!r} marks"
    else:
        perm = np.random.default_rng(config.seed).permutation(dataset.n)
        n_test = int(round(dataset.n * config.test_fraction))
        train, test = np.sort(perm[n_test:]), np.sort(perm[:n_test])
        source = "the random split leaves"
    if train.size < 2:
        raise DataError(f"{source} {train.size} training rows; a fit needs at least 2")
    return train, test


def _print_report(root, spec, dataset, train_rows, test_rows, task):
    """Print the tree's size and its metrics on the train and test rows.

    The whole dataset is predicted once and each partition scored from its
    slice: a record's prediction does not depend on the others predicted
    with it.  A test partition of fewer than two rows, which no metric can
    score, is left out.
    """
    n_nodes = sum(1 for _ in root.nodes())
    n_leaves = sum(1 for _ in root.leaves())
    depth = max(node.depth for node in root.nodes())
    print(f"tree: {n_nodes} nodes, {n_leaves} leaves, depth {depth}")
    sections = [("train", train_rows)]
    if len(test_rows) >= 2:
        sections.append(("test", test_rows))

    pred = tree.predict(root, spec, dataset)
    metrics = [
        (label, diagnostics.fidelity(pred[rows], dataset.response[rows]),
         None if dataset.original is None
         else diagnostics.accuracy(pred[rows], dataset.original[rows], task=task))
        for label, rows in sections
    ]
    binary = task == "binary"
    print(f"{'':22s}{'MSE':>12s}{'R2':>12s}")
    for label, fid, _ in metrics:
        print(f"{'Fidelity':10s}{label:>8s}    {fid.mse:>12.6g}{fid.r2:>12.4f}")
    if dataset.original is not None:
        if binary:
            print(f"{'':22s}{'AUC':>12s}{'log-loss':>12s}")
        for label, _, acc in metrics:
            if binary:
                print(f"{'Accuracy':10s}{label:>8s}    {acc['auc']:>12.4f}{acc['log_loss']:>12.6g}")
            else:
                print(f"{'Accuracy':10s}{label:>8s}    {acc['mse']:>12.6g}{acc['r2']:>12.4f}")


def _cmd_fit(args) -> int:
    try:
        config = _config_from_args(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dataset = _load_fit_dataset(args, config, args.response)
    task = args.task or ("binary" if config.transform == "logit" else "continuous")
    _check_labels(dataset, task, args.original)
    train_rows, test_rows = _train_test_rows(dataset, config, args)
    spec = basis.build_spec(dataset.subset(train_rows), num_knots=config.knots)
    if config.min_samples_leaf is not None and config.min_samples_leaf < spec.total_columns:
        print(
            f"error: min_samples_leaf {config.min_samples_leaf} is below the "
            f"design width {spec.total_columns}",
            file=sys.stderr,
        )
        return 2
    # each categorical column is coded once, on the loaded dataset, which the
    # report predicts; the training rows carry those codes into the grow
    basis.dataset_codes(dataset, spec)
    train = dataset.subset(train_rows)
    grown = tree.grow(train, spec, config.grow_config())
    pruned = tree.prune(grown, config.r2_threshold, config.dsse_fraction)
    if config.lambda1 is not None:
        pruned = tree.refit_l1(pruned, train, spec, config.lambda1)
    # json writes the tuple fields as lists
    saved_config = vars(config) | {"response": args.response}
    io.save_tree(args.out, pruned, spec, dataset.features, saved_config)
    _print_report(pruned, spec, dataset, train_rows, test_rows, task)
    return 0


def _load_model_features(art, path, response=None, **kwargs) -> io.SurrogateDataset:
    """Load the model's feature columns; without ``response``, a placeholder."""
    return io.load_csv(
        path,
        response=response,
        continuous=[f.name for f in art.schema if f.kind == basis.CONTINUOUS],
        categorical=[f.name for f in art.schema if f.kind == basis.CATEGORICAL],
        **kwargs,
    )


def _cmd_predict(args) -> int:
    art = io.load_tree(args.model)
    dataset = _load_model_features(art, args.data)
    pred = tree.predict(art.root, art.spec, dataset)
    io.write_csv(args.out, ["prediction"], [pred])
    return 0


def _cmd_evaluate(args) -> int:
    art = io.load_tree(args.model)
    transform = args.transform or art.config.get("transform", "identity")
    dataset = _load_model_features(
        art, args.data, args.response, original=args.original, transform=transform
    )
    if dataset.n < 2:
        raise DataError(f"{args.data}: evaluate needs at least 2 data rows, got {dataset.n}")
    task = args.task or ("binary" if transform == "logit" else "continuous")
    _check_labels(dataset, task, args.original)
    pred = tree.predict(art.root, art.spec, dataset)
    fid = diagnostics.fidelity(pred, dataset.response)
    print(f"fidelity: mse={fid.mse!r} r2={fid.r2!r}")
    if dataset.original is not None:
        acc = diagnostics.accuracy(pred, dataset.original, task=task)
        parts = " ".join(f"{k}={v!r}" for k, v in acc.items())
        print(f"accuracy: {parts}")
    return 0


def _cmd_diagnose(args) -> int:
    art = io.load_tree(args.model)
    dataset = _load_model_features(art, args.data)
    importance = diagnostics.leaf_importance(art.root, art.spec, dataset)
    contributions = [
        diagnostics.split_contribution(art.root, node.id, art.spec, dataset)
        for node in art.root.nodes()
        if not node.is_leaf
    ]
    # a linear block has no knot span: its grid spans the data, built once
    columns = dataset.columns
    grids = {block.feature: np.linspace(columns[block.feature].min(),
                                        columns[block.feature].max(), 100)
             for block in art.spec.blocks if block.kind == "linear"}
    curves = [
        diagnostics.effect_curve(leaf, art.spec, block.feature, grid=grids.get(block.feature))
        for leaf in art.root.leaves()
        for block in art.spec.blocks
    ]
    paths = io.export_diagnostics(
        args.out_dir, importance=importance, contributions=contributions, curves=curves
    )
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


def _cmd_export(args) -> int:
    art = io.load_tree(args.model)
    text = io.export_dot(art.root)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "diagnose": _cmd_diagnose,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except SplineTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
