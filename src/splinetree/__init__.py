"""Model-based regression trees with spline main-effects node models.

Workflow: wrap feature columns and a surrogate response (an upstream
model's predictions) in a :class:`SurrogateDataset`, derive the shared
spline/one-hot design with :func:`build_spec`, grow and prune a tree, then
interrogate it with effect curves, leaf importance, and split
contributions.
"""

from .basis import (
    BasisBlock,
    DesignSpec,
    KnotVector,
    build_spec,
    design_matrix,
    quantile_knots,
)
from .diagnostics import (
    EffectCurve,
    Fidelity,
    ImportanceTable,
    SplitContribution,
    accuracy,
    auc_score,
    effect_curve,
    effect_eval,
    fidelity,
    leaf_importance,
    log_loss,
    split_contribution,
)
from .errors import ConstantFeatureError, DataError, NumericalError, SplineTreeError
from .gram import (
    GramStats,
    NodeModel,
    fit_node,
    gcv_loss,
    gram_accumulate,
    gram_subtract,
)
from .io import (
    Feature,
    RunConfig,
    SurrogateDataset,
    TreeArtifact,
    export_diagnostics,
    export_dot,
    load_csv,
    load_tree,
    read_config,
    save_tree,
    tree_from_json,
    tree_to_json,
    write_csv,
)
from .simdata import Simulation, f1, f2, simulate, to_dataset
from .tree import (
    BestSplit,
    GrowConfig,
    SplitCandidate,
    SplitInstrumentation,
    TreeNode,
    best_split,
    bin_grams,
    candidate_edges,
    grow,
    predict,
    prune,
    refit_l1,
    route,
)

__version__ = "0.1.0"
