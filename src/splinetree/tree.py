"""Model-based tree growth, pruning, prediction, and L1 refitting.

The grower fits a ridge main-effects model at every node and searches for
the best binary split by sweeping candidate thresholds with cumulative
per-bin gram statistics: each (node, feature) pair costs at most one pass
over the node's raw rows to bin-aggregate, after which every candidate
partition is scored from the small aggregated systems.  Candidate
thresholds are global quantile edges of the root training data, reused at
every node, so bin membership per record is computed once.  Each feature
the search may cut is one record fixed at the root (:class:`_SplitFeature`,
from :func:`_prepare_binning`): its name, its place in schema order, each
record's bin and its thresholds or levels.  The same record goes from the
root binning through every node's bins (:class:`FeatureBins`) to the
winning split, which it alone turns from left bins into a rule
(:meth:`_SplitFeature.candidate`); its bin ids then split the node's rows.

The unit of the search is one feature: bin it from the node's rows, then
sweep it.  Histogram subtraction (as in LightGBM; Ke et al. 2017) saves
most of the passes of a split whose children are both searched: only the
smaller child is binned from its rows, and the larger child's bins are the
parent's minus the smaller child's, bin by bin.  Counts subtract exactly,
so the feasible and distinct cuts are those of direct binning; the other
statistics differ from it by round-off, so once the larger child's sweep
has picked its winner, that one feature is re-binned from the child's rows
(:attr:`FeatureBins.rebin`) and the children are built from the direct
bins.  The retained statistics, models and trees are therefore those of
direct binning, and only the ranking sees derived bins.  A parent keeps its
bins for this only while the bins kept by the grow stay within the size of
the design matrix.

:func:`best_split` runs one unit per feature: get its bins (given, or
built by a callable in the worker that runs the unit), sweep them, and sum
the best candidate's left side from them.  Whether a node holds every
feature's bins or one feature's per worker is decided by :func:`grow`
alone: a node that may keep its bins stores what its units build, and one
that cannot (its children cannot both be searched, or there is no room, as
at every node of a design whose per-node bins outweigh the design matrix)
stores nothing, so each feature's bins are dropped once swept.  The left
child of a keeping parent bins the smaller child and derives the larger
one feature by feature, inside the same units.

Split scoring solves all candidates of a (node, feature) pair as one
batch through :func:`splinetree.gram.ridge_batch`, the solver that also
fits every node model; with every ridge weight positive and a short grid
it Cholesky-factors each candidate instead of eigendecomposing it (see
that function for when each route runs).  The winning candidate is then
re-fitted through :func:`splinetree.gram.fit_node`, a batch of one on the
eigendecomposition route, so the retained models and gains do not depend
on the route that ranked them.

Every loss and lambda grid scores its candidates by one path: bound
every candidate, then score exactly only those that can still win.  Each
side is first solved for its SSEs without asking for the df.  Where the
loss needs the df and the Cholesky route skipped it (a GCV loss or a
grid), a side of n rows and m columns has 1 <= df <= m, so its SSEs bound
its loss from both sides; where the solve gives the loss anyway (plain SSE
at one lambda, the eigendecomposition route) both bounds are that loss
(:func:`_child_loss_bounds`).  One threshold per node, shared by its
features and their worker threads, holds the smallest upper bound and
exact loss seen so far; a candidate whose lower bound exceeds it is left
unscored with gain -inf, as its exact loss exceeds the node's best
(:func:`_split_gains`).  The winner, its gain and the tree are those of
scoring every candidate.

Statistics stay in one format, :class:`splinetree.gram.GramStats`, from
:func:`bin_grams` to the solver: a feature's bins are one stacked
GramStats, X'X (bins, m, m), X'y (bins, m), y'y and counts (bins,), and
so is every batch of candidate sides that
:func:`splinetree.gram.ridge_batch` solves.  The algebra on them is
:mod:`splinetree.gram`'s: every whole minus part (a derived bin, a
candidate's right side, a winner's right child) is
:func:`splinetree.gram.complement`, and a winner's left side is
:func:`splinetree.gram.bin_sum` of its bins.

One loop sweeps every feature (:func:`_sweep_feature`).  A feature kind
only yields batches of stacked left sides and the bins each candidate
sends left: a continuous feature's cuts come as one batch, a categorical
feature's level subsets in chunks of bounded size.  Every batch is scored
by :func:`_split_gains`; the first highest finite gain wins, and
:func:`best_split` builds the split of the overall winner only.

The search's scratch memory lives in one workspace per :func:`grow`: the
node's gathered rows, one bin's gathered rows (each bin is gathered right
before its products, so no bin-ordered copy of the node is made), the
continuous sweep's cumulated per-bin X'X, the left sides (a view of the
cumulated X'X when the feasible cuts are contiguous), the right sides, the
categorical subset products and the sides of the candidates scored
exactly.  Each buffer keeps the largest size asked for, so after the first
nodes no (candidates, m, m) or row-sized array is allocated; the solver
factors each candidate in one m x m work matrix, or standardizes them in
cache-sized chunks on the eigendecomposition route (see
:func:`splinetree.gram.ridge_batch`).  With
``threads > 1`` the units, their binning included, are spread over worker
threads, each with a workspace of its own.  The operations and their order
are those of fresh allocation, so the trees are byte-identical to it.  BLAS
runs on one thread inside :func:`grow` (see :mod:`splinetree._blas`), so the
bytes do not depend on the BLAS thread setting either.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from queue import SimpleQueue
from typing import Callable, Iterable, Iterator

import numpy as np

from . import basis
from ._blas import one_blas_thread
from .errors import DataError
from .gram import (
    GramStats,
    NodeModel,
    bin_sum,
    complement,
    fit_lasso,
    fit_node,
    gcv_loss,
    gram_accumulate,
    gram_subtract,
    ridge_batch,
    select_lambda,
)

# Above this cardinality, categorical split search falls back from
# exhaustive subset enumeration to the ordered-by-node-mean scan.
EXHAUSTIVE_CATEGORY_LIMIT = 12


@dataclass(frozen=True)
class SplitCandidate:
    """A binary split rule.

    Continuous: go left iff ``x <= threshold``.  Categorical: go left iff
    the value is in ``categories`` (a proper, nonempty subset canonicalized
    to contain the first level); unseen values also route left.
    """

    feature: str
    threshold: float | None = None
    categories: tuple | None = None


@dataclass
class TreeNode:
    id: int
    depth: int
    count: int
    model: NodeModel
    split: SplitCandidate | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    dsse: float = 0.0
    effect_means: np.ndarray | None = None
    flags: tuple[str, ...] = ()

    @property
    def r2(self) -> float:
        return self.model.r2

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    def nodes(self) -> Iterator["TreeNode"]:
        """All nodes in breadth-first (id) order."""
        queue = deque([self])
        while queue:
            node = queue.popleft()
            yield node
            if node.left is not None:
                queue.append(node.left)
            if node.right is not None:
                queue.append(node.right)

    def leaves(self) -> Iterator["TreeNode"]:
        return (node for node in self.nodes() if node.is_leaf)


@dataclass(frozen=True)
class GrowConfig:
    """Stopping rules and fitting parameters for tree growth.

    ``lam`` is the ridge weight; a sequence is treated as a small grid
    selected per fit by GCV (a node fit reuses one eigendecomposition
    across the grid; the split sweep factors each candidate once per
    value of a positive grid of up to twelve values, and takes one
    eigendecomposition for a longer one).  ``loss`` selects the
    split-search metric: "gcv" compares degrees-of-freedom-penalized SSE,
    "sse" plain SSE, each taken at the grid value GCV selects for the
    candidate.  The defaults are also ``splinetree fit``'s.
    Every ridge weight must be finite and nonnegative, the grid nonempty
    and ``min_gain`` nonnegative (not NaN); ``max_depth``, ``num_bins``,
    ``threads`` and a given ``min_samples_leaf`` must be integers (Python
    or NumPy).  The constructor raises ``ValueError`` otherwise, as the CLI
    rejects such values.
    """

    max_depth: int = 5
    min_samples_leaf: int | None = None
    lam: float | tuple = 1e-3
    num_bins: int = 50
    loss: str = "gcv"
    min_gain: float = 0.0
    threads: int = 1

    def __post_init__(self):
        for name in ("max_depth", "num_bins", "threads", "min_samples_leaf"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral)
                    or (value is None and name == "min_samples_leaf")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.num_bins < 2:
            raise ValueError("num_bins must be >= 2")
        if not self.lam_values:
            raise ValueError("lam must not be an empty grid")
        if not all(0.0 <= lam < np.inf for lam in self.lam_values):
            raise ValueError("lam must be finite and >= 0")
        if not self.min_gain >= 0:  # NaN fails too
            raise ValueError("min_gain must be >= 0")
        if self.loss not in ("gcv", "sse"):
            raise ValueError("loss must be 'gcv' or 'sse'")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    @property
    def lam_values(self) -> tuple[float, ...]:
        if np.isscalar(self.lam):
            return (float(self.lam),)
        return tuple(float(v) for v in self.lam)


@dataclass
class SplitSearchEvent:
    """One bin-aggregation pass recorded during split search."""

    node_id: int
    feature: str
    rows_accumulated: int
    num_bins: int


class SplitInstrumentation:
    """Tallies raw-row gram passes and the bins kept for subtraction.

    ``events`` holds one entry per :func:`bin_grams` pass that :func:`grow`
    makes, used to verify that no (node, feature) pair is binned twice: a
    node binned from its rows records one pass per feature, in schema order
    whichever threads binned them, and the larger child of a parent that
    kept its bins records at most one, the re-binning of its winning
    feature.  ``kept_bytes`` holds the bytes of per-bin statistics that
    :func:`grow` keeps beyond the node being searched, after each change.
    """

    def __init__(self):
        self.events: list[SplitSearchEvent] = []
        self.kept_bytes: list[int] = []


class _Workspace:
    """Scratch arrays of the split search, reused from call to call.

    ``grow`` makes one and drops it when it returns; each named array keeps
    the largest size asked for so far, so once the first nodes are binned
    and swept, later passes allocate no row- or candidate-sized memory.
    A workspace serves one thread at a time: a threaded search gives each
    worker one of :meth:`workers`.  It holds scratch only: the bins that
    :func:`bin_grams` returns are always fresh arrays, never its buffers.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}
        self._workers: list[_Workspace] = []

    def array(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialized C-contiguous array over the named buffer."""
        size = math.prod(shape)
        buf = self._arrays.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            self._arrays.pop(name, None)  # free the old buffer first
            buf = self._arrays[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def take(self, name: str, a: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """``np.take(a, indices, axis=0)`` into the named buffer.

        The indices must be valid: ``mode="clip"`` gathers straight into the
        buffer, where the checking default would gather into a copy first.
        """
        out = self.array(name, (indices.size,) + a.shape[1:], a.dtype)
        return np.take(a, indices, axis=0, out=out, mode="clip")

    def workers(self, count: int) -> list["_Workspace"]:
        """``count`` workspaces for a threaded search, kept for reuse."""
        while len(self._workers) < count:
            self._workers.append(_Workspace())
        return self._workers[:count]


def _map_features(fn, items, ws: _Workspace, threads: int) -> list:
    """``[fn(item, workspace) for item in items]``, in the items' order.

    With ``threads > 1`` the items run on a pool of that many threads, at
    most one per item, each of which works in a workspace of its own
    (:meth:`_Workspace.workers`).
    """
    threads = min(threads, len(items))
    if threads < 2:
        return [fn(item, ws) for item in items]
    idle = SimpleQueue()
    for worker in ws.workers(threads):
        idle.put(worker)

    def run(item):
        worker = idle.get()
        try:
            return fn(item, worker)
        finally:
            idle.put(worker)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, items))


def candidate_edges(values, num_bins: int) -> np.ndarray:
    """Global candidate thresholds for one continuous feature.

    Deduplicated midpoint quantile edges of the root training values at
    levels ``1/B .. (B-1)/B``.  Edges that would send every row to one side
    are dropped, and edges inducing the same partition collapse to the
    largest of the run.  A constant feature yields an empty list.
    """
    if num_bins < 2:
        raise ValueError("num_bins must be >= 2")
    x = np.asarray(values, dtype=np.float64)
    levels = np.arange(1, num_bins) / num_bins
    xs = np.sort(x)
    # the quantiles of the sorted copy are those of x, found faster
    edges = np.unique(np.quantile(xs, levels, method="midpoint"))
    left_counts = np.searchsorted(xs, edges, side="right")
    keep = (left_counts > 0) & (left_counts < x.size)
    if edges.size > 1:
        # same left count as the next edge => same partition; keep the run's last
        keep[:-1] &= left_counts[:-1] != left_counts[1:]
    return edges[keep]


def bin_values(values, edges) -> np.ndarray:
    """Bin index per value given candidate edges (len(edges) + 1 bins).

    Threshold ``edges[j]`` sends bins ``0..j`` left, matching the routing
    rule ``x <= edges[j]``.
    """
    return np.searchsorted(edges, np.asarray(values, dtype=np.float64), side="left")


def bin_grams(
    rows,
    responses,
    bin_ids,
    num_bins: int,
    *,
    workspace: _Workspace | None = None,
) -> GramStats:
    """Per-bin gram statistics over the full design, in one pass.

    Returns the bins as one stacked :class:`splinetree.gram.GramStats`:
    X'X (num_bins, m, m), X'y (num_bins, m), y'y and counts (num_bins,),
    all fresh arrays.  Rows are grouped by bin id and aggregated group by
    group; the total number of rows fed to the accumulator equals the
    number of input rows (disjoint cover), the property
    :class:`SplitInstrumentation` records.  Empty bins hold exact zeros.  :func:`grow` calls this at most
    once per (node, feature): for every feature of a node binned from its
    rows, and for the winning feature only of a node whose bins were derived
    by subtraction (see :attr:`FeatureBins.rebin`).

    Bin ids are cast to the narrowest unsigned type that holds
    ``num_bins - 1``, so the stable sort that groups them is a radix sort
    for up to 65536 bins; the bin boundaries come from the bin counts.
    Right before each bin's products, its rows are gathered with
    ``np.take`` into a bin-sized buffer (of ``workspace``, when one is
    given), so no bin-ordered copy of the rows is made and each bin is
    still in cache when its products run.  The products are written in
    place into the bin's row of the stacked arrays.

    Raises
    ------
    ValueError
        If a bin id is not an integer in ``[0, num_bins)``, or the responses
        or bin ids do not match the rows in number.
    """
    x = np.asarray(rows, dtype=np.float64)
    y = np.asarray(responses, dtype=np.float64)
    b = _compact_bin_ids(bin_ids, num_bins)
    if not len(y) == len(b) == x.shape[0]:
        raise ValueError(
            f"{x.shape[0]} rows need as many responses and bin ids, "
            f"got {len(y)} and {len(b)}"
        )
    ws = _Workspace() if workspace is None else workspace
    order = np.argsort(b, kind="stable")
    counts = np.bincount(b, minlength=num_bins)
    edges_idx = np.zeros(num_bins + 1, dtype=np.intp)
    np.cumsum(counts, out=edges_idx[1:])
    m = x.shape[1]
    xtx, xty, yty = np.empty((num_bins, m, m)), np.empty((num_bins, m)), np.empty(num_bins)
    for k in range(num_bins):
        lo, hi = edges_idx[k], edges_idx[k + 1]
        if lo == hi:
            xtx[k], xty[k], yty[k] = 0.0, 0.0, 0.0
            continue
        xk = ws.take("bin_rows", x, order[lo:hi])
        yk = ws.take("bin_responses", y, order[lo:hi])
        np.matmul(xk.T, xk, out=xtx[k])
        np.matmul(xk.T, yk, out=xty[k])
        yty[k] = yk @ yk
    return GramStats(xtx=xtx, xty=xty, yty=yty, count=counts)


def _compact_bin_ids(bin_ids, num_bins: int) -> np.ndarray:
    """Bin ids in the narrowest unsigned type holding ``num_bins - 1``.

    Out-of-range ids would wrap into a wrong bin once narrowed, so they are
    rejected instead.
    """
    b = np.asarray(bin_ids)
    if b.size:
        if b.dtype.kind not in "iu":
            raise ValueError(f"bin ids must be integers, got dtype {b.dtype}")
        lo, hi = b.min(), b.max()
        if lo < 0 or hi >= num_bins:
            raise ValueError(
                f"bin ids must lie in [0, {num_bins}), got [{lo}, {hi}]"
            )
    return b.astype(np.min_scalar_type(max(num_bins - 1, 0)), copy=False)


@dataclass(frozen=True, eq=False)
class _SplitFeature:
    """One feature the split search may cut, fixed at the root.

    ``index`` is its position among the split features, in schema order,
    and the first tie-break key; ``bin_ids`` holds each training record's
    bin.  A continuous feature has its candidate thresholds ``edges``
    (threshold j sends bins 0..j left); a categorical one has ``edges``
    None and one bin per level of ``levels``, the full training level list.
    """

    name: str
    index: int
    bin_ids: np.ndarray
    edges: np.ndarray | None = None
    levels: tuple | None = None

    @property
    def num_bins(self) -> int:
        return len(self.levels) if self.edges is None else self.edges.size + 1

    def candidate(self, left_bins) -> SplitCandidate:
        """The split that sends the bins ``left_bins`` left."""
        if self.edges is None:
            levels = tuple(self.levels[k] for k in left_bins)
            return SplitCandidate(self.name, categories=levels)
        return SplitCandidate(self.name, threshold=float(self.edges[left_bins[-1]]))


@dataclass
class FeatureBins:
    """Node-restricted per-bin statistics for one split feature.

    :attr:`stats` is the stack :func:`bin_grams` returns, one row set per
    bin of :attr:`feature`, which :func:`splinetree.gram.complement`
    subtracts bin by bin and :func:`splinetree.gram.bin_sum` sums a side
    from.  Bins derived by subtraction (:func:`_derive`) carry ``rebin``,
    which bins the feature directly from the node's rows in the workspace
    it is given; :func:`best_split` calls it for the winning feature only,
    so the children's statistics are never built from derived bins.
    """

    feature: _SplitFeature
    stats: GramStats  # stacked, one row set per bin
    rebin: Callable[["_Workspace"], "FeatureBins"] | None = None


def _derive(whole: FeatureBins, sub: FeatureBins, rebin) -> FeatureBins:
    """The bins of ``whole`` minus those of ``sub``, carrying ``rebin``.

    They are :func:`splinetree.gram.complement` of the two stacks: counts
    subtract exactly, and a bin left with no rows gets all-zero statistics,
    as direct binning gives it, so round-off cannot set an empty category
    apart from another.
    """
    return replace(whole, stats=complement(whole.stats, sub.stats), rebin=rebin)


@dataclass(frozen=True)
class BestSplit:
    """A node's winning split: its rule, its children's statistics and
    models, and the split feature with the bins it sends left, which
    partition the node's training rows as the rule does."""

    candidate: SplitCandidate
    left_model: NodeModel
    right_model: NodeModel
    gain: float
    left_gram: GramStats
    right_gram: GramStats
    feature: _SplitFeature
    left_bins: tuple[int, ...]


@dataclass(frozen=True)
class _FeatureBest:
    """Per-feature sweep winner, scored by the batched path.

    It carries its ``left`` side, summed from the bins it was swept from,
    which are then dropped, and their ``rebin`` (None unless derived);
    :func:`best_split` builds the split of the overall winner only.
    """

    gain: float
    feature: _SplitFeature
    left_bin_indices: tuple[int, ...]
    left: GramStats
    rebin: Callable[["_Workspace"], FeatureBins] | None


# Relative slack on the loss bound below which a candidate is scored
# exactly: it covers the rounding of the bounds and of the exact losses,
# down to a Cholesky df a few ulps below 1.
_BOUND_SLACK = 1e-9


class _LossBound:
    """The smallest known upper bound on a node's best child loss.

    :func:`best_split` makes one per node; every feature's sweep lowers it
    (see :func:`_split_gains`).  Worker threads share it under a lock: the order
    of their updates changes how many candidates are scored, never which
    one wins.
    """

    def __init__(self):
        self.value = np.inf
        self._lock = threading.Lock()

    def lower(self, value) -> float:
        """Lower the bound to ``value`` when that is smaller; return the bound."""
        with self._lock:
            self.value = min(self.value, float(value))
            return self.value


def _node_split_loss(model: NodeModel, loss: str) -> float:
    """Per-node loss used in split comparison, in SSE units.

    For "gcv" this is count * gcv_loss = sse / (1 - df/n)**2, so losses of
    sibling nodes stay additive and comparable with the parent's.
    """
    if loss == "sse":
        return model.sse
    return model.count * gcv_loss(model.sse, model.count, model.effective_df)


def _batch_child_losses(sides: GramStats, lam_values, loss):
    """Losses of stacked candidate child systems, in SSE units.

    Solves every candidate with gram.ridge_batch, by Cholesky where that
    route applies.  With one lambda, returns each candidate's loss at it.
    With a grid, each candidate's lambda is chosen by gram.select_lambda,
    fit_node's rule, and the loss at that lambda is returned, so candidates
    are ranked on the model their refit would keep.  A candidate saturated
    (effective df >= count) at every lambda it could be scored at comes
    back infinite; plain SSE at a single lambda ignores the df.
    """
    want_edf = loss == "gcv" or len(lam_values) > 1
    return _child_loss_bounds(sides, lam_values, loss, want_edf)[0]


def _child_loss_bounds(sides: GramStats, lam_values, loss, want_edf=False):
    """Bounds on the losses :func:`_batch_child_losses` returns.

    Solves every candidate for its SSE at each lambda, and for its df only
    ``want_edf``.  Where the loss needs no df (plain SSE at one lambda) or
    the df came back (``want_edf``, the eigendecomposition route or a
    failed Cholesky factorization), both bounds are the exact loss.
    Elsewhere the bounds come from the SSEs alone, with no inverse factor
    and no trace.  A side of n rows and m design columns has 1 <= df <= m,
    so its GCV loss SSE / (1 - df/n)^2 lies between SSE / (1 - 1/n)^2 and,
    when m < n, SSE / (1 - m/n)^2; over a grid the loss is the smallest of
    these, so both bounds take the grid's smallest SSE.  An SSE loss over a
    grid is the SSE at the lambda GCV selects, so it lies between the
    grid's smallest and largest SSE.  The upper bound is infinite where
    m >= n, as the df may then saturate.  Returns the lower and upper
    bounds (c,).
    """
    _, sse, edf = ridge_batch(sides, lam_values, cholesky=True, want_edf=want_edf)
    counts = sides.count
    if loss == "sse" and len(lam_values) == 1:
        return sse[0], sse[0]
    index, gcv = select_lambda(sse, edf, counts)
    n, m = counts.astype(np.float64), sides.dim
    smallest = sse.min(axis=0)
    if loss == "gcv":
        exact = counts * gcv
        lower = np.divide(smallest, (1.0 - 1.0 / n) ** 2,
                          out=np.full_like(smallest, np.inf), where=n > 1)
        largest = np.divide(smallest, (1.0 - m / n) ** 2,
                            out=np.full_like(smallest, np.inf), where=n > m)
    else:
        exact = np.where(np.isfinite(gcv), sse[index, np.arange(counts.size)], np.inf)
        lower, largest = smallest, sse.max(axis=0)
    known = ~np.isnan(edf).any(axis=0)
    return np.where(known, exact, lower), np.where(known, exact, np.where(n > m, largest, np.inf))


def _split_gains(node: GramStats, left: GramStats, parent_loss, config, ws, bound):
    """Gain of each candidate: a stack of left sides and their complements in the node.

    The right sides are :func:`splinetree.gram.complement` of the left
    ones in the node, their X'X in the workspace's "right" buffer.

    Every loss and lambda grid takes one path.  Both sides of every
    candidate are first bounded by :func:`_child_loss_bounds`, exactly
    where the solve gives the loss anyway.  The node's ``bound`` (a
    :class:`_LossBound`) is lowered to the smallest upper bound; only the
    candidates whose lower bound is within ``_BOUND_SLACK`` of it are
    gathered from the stacks and scored exactly by
    :func:`_batch_child_losses`, and the bound is then lowered to the
    smallest exact loss.  Every other candidate's exact loss exceeds the
    node's best and its gain is -inf, so the winner, its gain and the tree
    are those of scoring every candidate.
    """
    right = complement(node, left, out=ws.array("right", left.xtx.shape))
    lam_values, loss = config.lam_values, config.loss
    lower_l, upper_l = _child_loss_bounds(left, lam_values, loss)
    lower_r, upper_r = _child_loss_bounds(right, lam_values, loss)
    threshold = bound.lower(np.min(upper_l + upper_r))
    scored = np.flatnonzero(lower_l + lower_r <= threshold * (1.0 + _BOUND_SLACK))
    gains = np.full(left.count.size, -np.inf)
    if scored.size:
        def exact(side, name):
            return _batch_child_losses(GramStats(
                xtx=ws.take(name, side.xtx, scored), xty=side.xty[scored],
                yty=side.yty[scored], count=side.count[scored],
            ), lam_values, loss)

        losses = exact(left, "scored_left") + exact(right, "scored_right")
        gains[scored] = parent_loss - losses
        bound.lower(np.min(losses))
    return gains


def _cut_batches(fb, node_count, min_leaf, ws):
    """The feasible distinct cuts of a continuous feature, as one batch.

    Cut j sends bins 0..j left.  Yields the stacked left sides and, per
    cut, its left bins; the left sides' X'X are cumulated in the
    workspace.
    """
    bins, edges = fb.stats, fb.feature.edges
    # into a buffer: the bins stay as they are, for subtraction and the winner.
    # Bin by bin, as cumsum adds, but one contiguous (m, m) add at a time
    cum_xtx = ws.array("stacked", bins.xtx.shape)
    cum_xtx[0] = bins.xtx[0]
    for k in range(1, len(cum_xtx)):
        np.add(cum_xtx[k - 1], bins.xtx[k], out=cum_xtx[k])
    cum_cnt = np.cumsum(bins.count)
    cnt_l = cum_cnt[: edges.size]
    feasible = (cnt_l >= min_leaf) & (node_count - cnt_l >= min_leaf)
    # empty bins duplicate the previous partition; keep only distinct cuts
    distinct = np.ones(edges.size, dtype=bool)
    distinct[1:] = bins.count[1 : edges.size] > 0
    sel = np.nonzero(feasible & distinct)[0]
    if sel.size == 0:
        return
    if sel[-1] - sel[0] + 1 == sel.size:  # contiguous cuts: a view suffices
        xtx_l = cum_xtx[sel[0] : sel[-1] + 1]
    else:
        xtx_l = ws.take("left", cum_xtx, sel)
    yield GramStats(
        xtx=xtx_l, xty=np.cumsum(bins.xty, axis=0)[sel], yty=np.cumsum(bins.yty)[sel],
        count=cum_cnt[sel],
    ), [range(j + 1) for j in sel]


def _canonical_subsets(n_levels: int):
    """All proper nonempty left subsets containing level 0, in canonical
    (lexicographic tuple) order."""
    subsets = []
    for mask in range(2 ** (n_levels - 1) - 1):
        left = (0,) + tuple(
            i + 1 for i in range(n_levels - 1) if mask >> i & 1
        )
        subsets.append(left)
    subsets.sort()
    return subsets


def _subset_batches(fb, node_count, min_leaf, ws):
    """The feasible left level subsets of a categorical feature, in chunks.

    Up to ``EXHAUSTIVE_CATEGORY_LIMIT`` levels every canonical subset is a
    candidate; above it, the prefixes of the nonempty levels ordered by
    node-mean response.  Yields, per chunk of about 32 MiB of X'X, the
    stacked left sides (their X'X in the workspace) and each one's subset.
    """
    bins = fb.stats
    c = fb.feature.num_bins
    counts = bins.count
    if c <= EXHAUSTIVE_CATEGORY_LIMIT:
        subsets = _canonical_subsets(c)
    else:
        # order nonempty levels by node-mean response, scan the c-1 cuts,
        # and canonicalize each prefix to the side containing level 0
        nonempty = np.flatnonzero(counts).tolist()
        means = (bins.xty[nonempty, 0] / counts[nonempty]).tolist()
        ordered = [k for _, k in sorted(zip(means, nonempty))]
        subsets = []
        for cut in range(1, len(ordered)):
            prefix = set(ordered[:cut])
            if 0 not in prefix:
                prefix = set(range(c)) - prefix
            if 0 < len(prefix) < c:
                subsets.append(tuple(sorted(prefix)))
        subsets = sorted(set(subsets))

    membership = np.zeros((len(subsets), c))
    for i, subset in enumerate(subsets):
        membership[i, list(subset)] = 1.0
    cnt_l = (membership @ counts).astype(np.int64)
    sel = np.nonzero((cnt_l >= min_leaf) & (node_count - cnt_l >= min_leaf))[0]
    m = bins.dim
    flat = bins.xtx.reshape(c, m * m)
    chunk = max(1, (1 << 22) // max(m**2, 1))
    for lo in range(0, sel.size, chunk):
        part = sel[lo : lo + chunk]
        S = membership[part]
        # np.tensordot(S, xtx, axes=1) is this product, less the fresh array
        xtx_l = ws.array("left", (part.size, m, m))
        np.dot(S, flat, out=xtx_l.reshape(part.size, m * m))
        yield GramStats(
            xtx=xtx_l, xty=S @ bins.xty, yty=S @ bins.yty, count=cnt_l[part],
        ), [subsets[i] for i in part]


def _sweep_feature(fb, node_gram, parent_loss, config, min_leaf, ws, bound):
    """A feature's best candidate: the first with the highest finite gain, or None.

    Continuous cuts come as one batch (:func:`_cut_batches`), categorical
    subsets in chunks (:func:`_subset_batches`); each batch of left sides
    is scored by :func:`_split_gains`.  The best's left side is summed from
    ``fb``'s bins (:func:`splinetree.gram.bin_sum`).
    """
    batches = _subset_batches if fb.feature.edges is None else _cut_batches
    best_gain, best_left = -np.inf, None
    for left, left_bins in batches(fb, node_gram.count, min_leaf, ws):
        gains = _split_gains(node_gram, left, parent_loss, config, ws, bound)
        i = int(np.argmax(gains))
        if np.isfinite(gains[i]) and gains[i] > best_gain:
            best_gain, best_left = float(gains[i]), tuple(left_bins[i])
    if best_left is None:
        return None
    return _FeatureBest(gain=best_gain, feature=fb.feature, left_bin_indices=best_left,
                        left=bin_sum(fb.stats, best_left), rebin=fb.rebin)


def best_split(
    node_gram: GramStats,
    node_model: NodeModel,
    feature_bins: Iterable[FeatureBins | Callable[[_Workspace], FeatureBins]],
    config: GrowConfig,
    min_samples_leaf: int,
    *,
    workspace: _Workspace | None = None,
) -> BestSplit | None:
    """Best feasible split of a node, or None.

    Takes, per feature, its bins or a callable that builds them in the
    workspace it is given.  One unit per feature gets the bins (calling the
    callable in the worker that runs the unit), sweeps the candidate
    partitions from cumulative bin statistics, and sums its best's left
    side from the bins (:func:`splinetree.gram.bin_sum`); nothing else of
    the bins is kept, so bins built by a callable and stored nowhere else
    are dropped once swept.  Ties break to the lower feature index, then the lower
    threshold, then the canonically smaller left category subset.  One
    :class:`_LossBound` serves every feature, so only candidates that can
    still win are scored exactly (:func:`_split_gains`); a feature whose
    candidates were all skipped cannot win and reports no best.  The
    winner's children are re-fitted through fit_node and the returned gain
    is recomputed from those fits.  When the winner's bins were derived by
    subtraction, their :attr:`FeatureBins.rebin` bins that feature from the
    node's rows, and its left side is summed from the direct bins instead;
    the right side is the node's minus the left
    (:func:`splinetree.gram.gram_subtract`).  The split carries the winning
    feature and the bins it sends left, from which :func:`grow` splits the
    node's rows.

    The sweep's scratch arrays live in ``workspace`` (fresh when not given;
    ``grow`` passes one that lives as long as the grow).  With
    ``config.threads > 1`` the units are spread over that many worker
    threads, each in a workspace of its own; the best is taken over the
    features in schema order, so the result does not depend on which
    worker took which feature.
    """
    ws = _Workspace() if workspace is None else workspace
    parent_loss = _node_split_loss(node_model, config.loss)
    bound = _LossBound()

    def search(entry, worker):
        fb = entry if isinstance(entry, FeatureBins) else entry(worker)
        return _sweep_feature(fb, node_gram, parent_loss, config, min_samples_leaf, worker, bound)

    best = None
    for res in _map_features(search, list(feature_bins), ws, config.threads):
        if res is None:
            continue
        if best is None or res.gain > best.gain or (
            res.gain == best.gain and res.feature.index < best.feature.index
        ):
            best = res
    if best is None:
        return None

    left_gram = best.left
    if best.rebin is not None:  # the children come from direct bins
        left_gram = bin_sum(best.rebin(ws).stats, best.left_bin_indices)
    right_gram = gram_subtract(node_gram, left_gram)
    left_model = fit_node(left_gram, config.lam)
    right_model = fit_node(right_gram, config.lam)
    gain = parent_loss - (
        _node_split_loss(left_model, config.loss)
        + _node_split_loss(right_model, config.loss)
    )
    return BestSplit(
        candidate=best.feature.candidate(best.left_bin_indices),
        left_model=left_model,
        right_model=right_model,
        gain=gain,
        left_gram=left_gram,
        right_gram=right_gram,
        feature=best.feature,
        left_bins=best.left_bin_indices,
    )


def _prepare_binning(dataset, spec, config) -> list[_SplitFeature]:
    """The split features in schema order, binned once at the root.

    A continuous feature takes its :func:`candidate_edges`, a categorical
    one its design levels, and its bins are the dataset's level codes
    (``dataset.level_codes``, which the design matrix then reuses).
    Features the design excludes, constant ones and those with fewer than
    two levels cannot be cut and are left out.  A categorical value outside
    the design's levels raises ``DataError`` naming the column and the
    first such value in row order.
    """
    features = []
    for feat in dataset.features:
        if feat.name in spec.excluded:
            continue
        values = dataset.columns[feat.name]
        if feat.kind == basis.CONTINUOUS:
            edges = candidate_edges(values, config.num_bins)
            if edges.size:
                ids = _compact_bin_ids(bin_values(values, edges), edges.size + 1)
                features.append(_SplitFeature(feat.name, len(features), ids, edges=edges))
            continue
        levels = spec.levels.get(feat.name)
        if levels is None or len(levels) < 2:
            continue
        codes = dataset.level_codes(feat.name, levels)
        unknown = np.flatnonzero(codes < 0)
        if unknown.size:
            first = values[unknown[0] : unknown[0] + 1].tolist()[0]  # a Python value
            raise DataError(
                f"categorical column {feat.name!r} holds {first!r}, "
                "which is not one of the design's levels"
            )
        ids = _compact_bin_ids(codes, len(levels))
        features.append(_SplitFeature(feat.name, len(features), ids, levels=levels))
    return features


def _kept_bins_budget(X) -> int:
    """Bytes of per-bin statistics a grow may keep: its design matrix's."""
    return X.nbytes


@dataclass
class _KeptBins:
    """Bins a split parent keeps so that only its smaller child is binned.

    ``children`` holds the (id, rows) of the left and right child.  When
    the left child comes up in :func:`grow`, its units (:meth:`left_unit`)
    bin the smaller child from its rows and derive the larger one's bins
    from ``bins``, the parent's; ``bins`` then holds the right child's until
    it comes up, and ``children`` is cleared.
    """

    bins: list
    children: tuple | None

    def left_unit(self, source) -> Callable[[int, "_Workspace"], FeatureBins]:
        """The left child's unit, ``(index, worker) -> its bins of that feature``.

        It bins the feature of the smaller child from its rows (a
        :class:`_NodeRows` that ``source(id, rows)`` makes), derives the
        larger child's by :func:`_derive`, and stores the right child's in
        ``bins``.  The larger child's ``rebin`` makes its rows' source only
        when called.
        """
        parent, self.bins = self.bins, [None] * len(self.bins)
        children, self.children = self.children, None
        small = 0 if children[0][1].size <= children[1][1].size else 1
        smaller, larger = source(*children[small]), children[1 - small]

        def unit(index, worker):
            sub = smaller.bin(index, worker)
            both = [sub, _derive(parent[index], sub, lambda ws: source(*larger).bin(index, ws))]
            left, self.bins[index] = both if small == 0 else both[::-1]
            return left

        return unit


class _NodeRows:
    """A node's rows, from which its features are binned one at a time.

    The rows are gathered into the workspace ``ws`` when it is made (the
    root's are the design matrix itself, in order).  Each :meth:`bin` keeps
    the :class:`SplitSearchEvent` of its :func:`bin_grams` pass apart, and
    :meth:`record` hands the events to the instrumentation in schema order,
    so they do not depend on which worker thread binned which feature.
    """

    def __init__(self, features, X, y, rows, node_id, instrumentation, ws):
        if rows.size < X.shape[0]:
            X, y = ws.take("node_rows", X, rows), ws.take("node_responses", y, rows)
        self.features, self.X, self.y, self.rows = features, X, y, rows
        self.node_id, self.instrumentation = node_id, instrumentation
        self._events: dict[int, SplitSearchEvent] = {}

    def bin(self, index: int, ws: _Workspace) -> FeatureBins:
        """The bins of the split feature at ``index``."""
        feature = self.features[index]
        stats = bin_grams(
            self.X, self.y, ws.take("bin_ids", feature.bin_ids, self.rows), feature.num_bins,
            workspace=ws,
        )
        if self.instrumentation is not None:
            self._events[index] = SplitSearchEvent(
                self.node_id, feature.name, self.X.shape[0], feature.num_bins
            )
        return FeatureBins(feature, stats)

    def record(self) -> None:
        """Record the passes made so far, in schema order."""
        for index in sorted(self._events):
            self.instrumentation.events.append(self._events.pop(index))


def _stored(unit, bins, index, worker) -> FeatureBins:
    """``unit(index, worker)``, stored in ``bins`` unless that is None."""
    fb = unit(index, worker)
    if bins is not None:
        bins[index] = fb
    return fb


def _effect_means(X_node, spec, coefficients) -> np.ndarray:
    out = np.empty(len(spec.blocks))
    for i, block in enumerate(spec.blocks):
        out[i] = float(np.mean(X_node[:, block.columns] @ coefficients[block.columns]))
    return out


def split_mask(dataset, spec, candidate: SplitCandidate, rows=None, *, codes=None) -> np.ndarray:
    """Boolean routing mask (True = left) for the given records.

    The one routing rule for raw values: :func:`route`, :func:`predict`
    and the diagnostics walk a tree by it.  A categorical rule reads the
    dataset's level codes of the column: ``codes``, as
    :func:`splinetree.basis.dataset_codes` gives them for a walk, else
    ``dataset.level_codes``.
    """
    if candidate.threshold is not None:
        col = dataset.columns[candidate.feature]
        return (col if rows is None else col[rows]) <= candidate.threshold
    # one entry per level code, the last for code -1: unseen values go left
    levels = spec.levels[candidate.feature]
    goes_left = np.zeros(len(levels) + 1, dtype=bool)
    goes_left[basis.level_codes(candidate.categories, levels)] = True
    goes_left[-1] = True
    if codes is None:
        codes = dataset.level_codes(candidate.feature, levels)
    return goes_left[codes if rows is None else codes[rows]]


@one_blas_thread()
def grow(
    dataset,
    spec: basis.DesignSpec,
    config: GrowConfig,
    *,
    instrumentation: SplitInstrumentation | None = None,
) -> TreeNode:
    """Grow a tree on the dataset's surrogate response.

    Nodes are created breadth-first and numbered from 0 in creation order
    (root, then its children left-to-right, level by level).  Growth stops
    at ``max_depth``, when no candidate is feasible, or when the best gain
    does not exceed ``min_gain``.

    The same inputs grow the same tree, bit for bit, for any
    ``config.threads``.  BLAS runs on one thread for the whole grow
    (:func:`splinetree._blas.one_blas_thread`), so where numpy's and
    scipy's bundled OpenBLAS are found the tree does not depend on the BLAS
    thread setting either; another BLAS run on another thread count may
    round the sweep and the node fits differently.  The split search's
    scratch arrays live in one workspace that is dropped on return.

    A split parent whose children will both be searched keeps its bins,
    while the bins kept stay within the design matrix's size, so that
    only the smaller child is binned from its rows and the larger one's
    bins are the parent's minus the smaller's (see the module docstring).
    Every searched node hands :func:`best_split` one callable per feature,
    which bins it from a :class:`_NodeRows` (or, at the left child of a
    keeping parent, bins the smaller child and derives the larger one:
    :meth:`_KeptBins.left_unit`); the right child of such a parent hands
    over the bins made with its sibling's.  A node that may keep its bins
    stores what its callables build; one that cannot stores nothing, so it
    holds one feature's bins per worker.  With ``config.threads > 1``,
    binning as well as sweeping runs on that many threads; each node's
    passes are recorded in schema order.  A split node's rows go to its
    children by the winning feature's root bins, the partition its rule
    gives them (:func:`split_mask` routes raw values).
    """
    if dataset.n == 0:
        raise DataError("dataset is empty")
    m = spec.total_columns
    if m > dataset.n:
        raise DataError(f"design width {m} exceeds row count {dataset.n}")
    min_leaf = config.min_samples_leaf
    if min_leaf is None:
        min_leaf = max(2 * m, 30)
    elif min_leaf < m:
        raise ValueError(
            f"min_samples_leaf {min_leaf} is below the design width {m}"
        )

    features = _prepare_binning(dataset, spec, config)
    X = basis.design_matrix(dataset, spec)
    y = np.asarray(dataset.response, dtype=np.float64)

    ws = _Workspace()
    sources: list[_NodeRows] = []  # made for the search under way, recorded after it

    def source(node_id, rows) -> _NodeRows:
        sources.append(_NodeRows(features, X, y, rows, node_id, instrumentation, ws))
        return sources[-1]

    def searched(depth, count) -> bool:
        return depth < config.max_depth and count >= 2 * min_leaf

    # Bins kept for subtraction, in bytes: each keeping parent's until its
    # left child comes up, then its right child's.  While a pair is
    # derived, the parent's and the right child's briefly coexist, so a
    # parent keeps only if there is room for twice its bins, a node's bins
    # being its per-bin X'X and X'y over every split feature.
    node_bytes = sum(feature.num_bins for feature in features) * (m * m + m) * 8
    budget, kept = _kept_bins_budget(X), 0

    def keep(nbytes):
        nonlocal kept
        kept += nbytes
        if instrumentation is not None:
            instrumentation.kept_bytes.append(kept)

    rows = np.arange(dataset.n)
    root_gram = gram_accumulate(X, y)
    root_model = fit_node(root_gram, config.lam)
    root = TreeNode(
        id=0, depth=0, count=dataset.n, model=root_model,
        effect_means=_effect_means(X, spec, root_model.coefficients),
    )
    next_id = 1
    queue: deque = deque([(root, rows, root_gram, None)])
    while queue:
        node, node_rows, node_gram, pair = queue.popleft()
        if not searched(node.depth, node.count):
            continue
        bins = [None] * len(features)  # what the node's units build, if it may keep it
        if pair is None:
            unit = source(node.id, node_rows).bin
            # it could keep its bins once split only if both of its children
            # can be searched and there is room for them
            if not (searched(node.depth + 1, node.count // 2)
                    and kept + 2 * node_bytes <= budget):
                bins = None
        elif pair.children is not None:  # the left child of a keeping parent
            unit = pair.left_unit(source)
            keep(node_bytes)  # the parent's and the right child's coexisted,
            keep(-node_bytes)  # then the parent's were dropped
        else:  # the right child: its bins were made with its sibling's
            bins, pair.bins, unit = pair.bins, None, None
            keep(-node_bytes)
        found = best_split(
            node_gram, node.model,
            bins if unit is None else [partial(_stored, unit, bins, f.index) for f in features],
            config, min_leaf, workspace=ws,
        )
        for made in sources:
            made.record()
        sources.clear()
        if found is None or found.gain <= config.min_gain:
            bins = None
            continue
        # the winning bins are the rule's partition: bin_values puts x in a
        # bin <= j exactly when x <= edges[j], and a level's bin is its code
        goes_left = np.isin(np.arange(found.feature.num_bins), found.left_bins)
        mask = goes_left[found.feature.bin_ids[node_rows]]
        left_rows, right_rows = node_rows[mask], node_rows[~mask]
        pair = None
        if (bins is not None and searched(node.depth + 1, min(left_rows.size, right_rows.size))
                and kept + 2 * node_bytes <= budget):
            pair = _KeptBins(bins, ((next_id, left_rows), (next_id + 1, right_rows)))
            keep(node_bytes)
        bins = None  # a node that keeps nothing drops its bins here
        node.split = found.candidate
        node.dsse = found.gain
        left = TreeNode(
            id=next_id, depth=node.depth + 1, count=left_rows.size,
            model=found.left_model,
            effect_means=_effect_means(
                ws.take("node_rows", X, left_rows), spec, found.left_model.coefficients
            ),
        )
        right = TreeNode(
            id=next_id + 1, depth=node.depth + 1, count=right_rows.size,
            model=found.right_model,
            effect_means=_effect_means(
                ws.take("node_rows", X, right_rows), spec, found.right_model.coefficients
            ),
        )
        next_id += 2
        node.left, node.right = left, right
        queue.append((left, left_rows, found.left_gram, pair))
        queue.append((right, right_rows, found.right_gram, pair))
    return root


def prune(root: TreeNode, r2_threshold: float, dsse_fraction: float) -> TreeNode:
    """Collapse well-fitted or low-gain subtrees; returns a new tree.

    An internal node becomes a leaf when its model's R^2 reaches
    ``r2_threshold`` or its split's loss reduction is below
    ``dsse_fraction`` times the root node's (pre-split) SSE.  Node ids are
    preserved; the input tree is left untouched.
    """
    if not (0.0 <= r2_threshold <= 1.0 and 0.0 <= dsse_fraction <= 1.0):
        raise ValueError("prune thresholds must lie in [0, 1]")
    floor = dsse_fraction * root.model.sse

    def rebuild(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return replace(node)
        if node.model.r2 >= r2_threshold or node.dsse < floor:
            return replace(node, split=None, left=None, right=None, dsse=0.0)
        return replace(node, left=rebuild(node.left), right=rebuild(node.right))

    return rebuild(root)


def route(root: TreeNode, spec, dataset, *, codes=None) -> dict[int, np.ndarray]:
    """Row indices reaching each node, keyed by node id.

    ``codes`` maps categorical features to the dataset's level codes, as
    :func:`splinetree.basis.dataset_codes` gives them; by default the walk
    looks up each categorical split column's codes once.
    """
    out = {}
    if codes is None:
        codes = basis.dataset_codes(
            dataset, spec, (node.split.feature for node in root.nodes() if not node.is_leaf)
        )

    def walk(node, idx):
        out[node.id] = idx
        if node.is_leaf:
            return
        mask = split_mask(dataset, spec, node.split, rows=idx, codes=codes.get(node.split.feature))
        walk(node.left, idx[np.flatnonzero(mask)])
        walk(node.right, idx[np.flatnonzero(~mask)])

    walk(root, np.arange(dataset.n))
    return out


def leaf_numbers(leaves: list[TreeNode], members: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Each of ``n`` records' position in ``leaves``, from :func:`route`'s rows."""
    out = np.empty(n, dtype=np.intp)
    for k, leaf in enumerate(leaves):
        out[members[leaf.id]] = k
    return out


def predict(root: TreeNode, spec, dataset) -> np.ndarray:
    """Predictions for every record: route to a leaf, evaluate its model.

    One walk of :func:`route` gives each record its leaf.  The prediction
    is that leaf's intercept plus each block's effect, added in block
    order, from the raw feature values by :func:`splinetree.basis.block_effect`;
    no design matrix is built and no BLAS runs, so the bytes do not depend
    on the BLAS thread setting.  A dataset that lacks a design feature
    raises ``DataError``.
    """
    basis.require_features(dataset, spec)
    leaves = list(root.leaves())
    codes = basis.dataset_codes(dataset, spec)
    leaf = leaf_numbers(leaves, route(root, spec, dataset, codes=codes), dataset.n)
    coefficients = np.stack([node.model.coefficients for node in leaves])
    out = coefficients[leaf, 0]
    for block in spec.blocks:
        out += basis.block_effect(
            dataset.columns[block.feature], spec, block, coefficients[:, block.columns], leaf,
            codes=codes.get(block.feature),
        )
    return out


@one_blas_thread()
def refit_l1(root: TreeNode, dataset, spec, lambda1: float) -> TreeNode:
    """Replace leaf coefficients with lasso fits; structure is unchanged.

    Each leaf is refitted from its gram statistics, accumulated once from
    its rows, by :func:`splinetree.gram.fit_lasso`, warm-started at the
    current leaf coefficients.  Non-converged leaves keep their model and
    effect means and are flagged ``l1_nonconverged``.  ``lambda1`` must be
    finite and nonnegative (``ValueError``).  The tree is modified in place
    and returned.  Like :func:`grow`, it
    runs BLAS on one thread, so the coefficients do not depend on the BLAS
    thread setting.
    """
    if not 0.0 <= lambda1 < np.inf:
        raise ValueError("lambda1 must be finite and nonnegative")
    X = basis.design_matrix(dataset, spec)
    y = np.asarray(dataset.response, dtype=np.float64)
    members = route(root, spec, dataset)
    for leaf in root.leaves():
        idx = members[leaf.id]
        if idx.size == 0:
            continue
        Xl = X[idx]
        start = leaf.model.coefficients[1:]
        model, converged = fit_lasso(gram_accumulate(Xl, y[idx]), lambda1, start)
        if not converged:
            leaf.flags = leaf.flags + ("l1_nonconverged",)
            continue
        leaf.model = model
        leaf.effect_means = _effect_means(Xl, spec, model.coefficients)
    return root
