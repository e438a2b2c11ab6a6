"""File-based workflow: CSV in, tree JSON and diagnostics CSVs out.

The same flow is available from the command line:

    splinetree simulate --kind f2 --n 20000 --sigma 0.5 --seed 7 --out data.csv
    splinetree fit --data data.csv --response f --original y \
        --knots 12 --max-depth 3 --seed 7 --out tree.json
    splinetree evaluate --model tree.json --data data.csv --response f --original y
    splinetree diagnose --model tree.json --data data.csv --out-dir diagnostics/
    splinetree export --model tree.json --format dot
"""

import tempfile
from pathlib import Path

import numpy as np

import splinetree as st

# The working directory and everything written to it are removed at the end.
scratch = tempfile.TemporaryDirectory(prefix="splinetree_demo_")
workdir = Path(scratch.name)
print("working in", workdir)

# Write a dataset CSV with the standard column layout (x1..x10, f, y).
sim = st.simulate("f2", n=8_000, sigma=0.5, seed=7)
data_path = workdir / "data.csv"
st.write_csv(
    data_path,
    [f"x{k}" for k in range(1, 11)] + ["f", "y"],
    [sim.x[:, k] for k in range(10)] + [sim.f, sim.y],
)

# Load it back, declaring the schema: f is the surrogate response to fit,
# y is the original response kept aside for accuracy metrics.
dataset = st.load_csv(
    data_path,
    response="f",
    continuous=[f"x{k}" for k in range(1, 11)],
    original="y",
)
print(f"loaded {dataset.n} rows, {len(dataset.features)} features")

# Train/test split, fit, prune.
rng = np.random.default_rng(7)
perm = rng.permutation(dataset.n)
train = dataset.subset(np.sort(perm[: 2 * dataset.n // 3]))
test = dataset.subset(np.sort(perm[2 * dataset.n // 3 :]))
spec = st.build_spec(train, num_knots=10)
root = st.grow(train, spec, st.GrowConfig(max_depth=2, num_bins=30))
root = st.prune(root, 0.99, 0.02)

# Persist the model; the JSON carries the design (knots, levels, blocks)
# so the loaded tree predicts bit-for-bit identically.
model_path = workdir / "tree.json"
st.save_tree(model_path, root, spec, dataset.features, {"seed": 7, "knots": 10})
art = st.load_tree(model_path)
same = (st.predict(art.root, art.spec, test) == st.predict(root, spec, test)).all()
print(f"saved {model_path.name}; reloaded predictions identical: {same}")

pred = st.predict(art.root, art.spec, test)
fid = st.fidelity(pred, test.response)
print(f"test fidelity: mse={fid.mse:.4f} r2={fid.r2:.4f}")

# Diagnostics tables: importance.csv, contributions.csv, curves.csv.
importance = st.leaf_importance(art.root, art.spec, train)
contributions = [
    st.split_contribution(art.root, node.id, art.spec, train)
    for node in art.root.nodes()
    if not node.is_leaf
]
curves = [
    st.effect_curve(leaf, art.spec, block.feature)
    for leaf in art.root.leaves()
    for block in art.spec.blocks
]
paths = st.export_diagnostics(
    workdir / "diagnostics", importance=importance,
    contributions=contributions, curves=curves,
)
for name, path in sorted(paths.items()):
    n_rows = sum(1 for _ in open(path)) - 1
    print(f"wrote {path} ({n_rows} rows)")

scratch.cleanup()
