"""Gram-statistic accumulation and penalized least-squares solving.

Every node model in the tree, ridge or the optional L1 refit of the
leaves (``tree.refit_l1``), is fitted from the sufficient statistics
(X'X, X'y, y'y, n) of its member rows, never from the raw rows
themselves.
The statistics are additive, so child-node systems during split search are
obtained by summing per-bin statistics and subtracting from the parent.
:class:`GramStats` is the one format of the statistics, for one row set or
for c of them stacked on a leading axis (the bins of a feature, or the
candidate sides of a split sweep).  The algebra on them is written once
each: :func:`bin_sum` adds named bins of a stack in order, and
:func:`complement` takes whole minus part, zeroing a complement of no rows
and clamping round-off below zero.  :func:`gram_subtract`, the tree's
derived bins and the split sweep's right sides all take the complement.

One batched ridge solver, :func:`ridge_batch`, serves both the node fits
and the split sweep: each step works over a leading candidate axis, and
:func:`fit_node` is a batch of one.  It penalizes the non-intercept
coefficients as if each column were standardized to zero mean / unit
variance, with moments recovered from the intercept row of X'X, and
returns coefficients on the original scale.  The intercept is never
penalized, and eigenvalues below ``NULL_SPACE_RTOL`` times the largest one
are treated as null directions (pseudo-inverse behaviour), which keeps
lambda = 0 fits well defined for deliberately collinear spline bases.  A
lambda grid is resolved by GCV with one rule, :func:`select_lambda`.

The reference route, the eigendecomposition, solves from the standardized
block, whose arithmetic is written once, in :func:`_moments` and
:func:`_standardized_block`; :func:`ridge_batch` applies it once per
cache-sized chunk of systems, never forming the whole stack of blocks, and
the L1 refit's coordinate descent (:func:`fit_lasso`) solves from it too.
The map back to the original scale is :func:`_back_map`.  The split
sweep's Cholesky route forms no standardized block: it factors each
system's own uncentered X'X, bordered by the intercept, whose Schur
complement does the centering (:func:`_cholesky_solves`).  It calls
scipy's LAPACK (:func:`dpotrf`, :func:`dpotrs`, :func:`dtrtri`) through
ctypes, bound on the first fit, so importing this module loads no scipy
and the factorizations release the GIL.  The two routes
solve the same problem and agree to rounding, not to the bit.  Every
:class:`NodeModel` comes from the reference route and is assembled by
:func:`_node_model`.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._blas import lapack
from .errors import NumericalError

# Relative eigenvalue cutoff below which a direction counts as null space.
NULL_SPACE_RTOL = 1e-10

# Relative variance cutoff below which a design column counts as constant.
_CONSTANT_COLUMN_RTOL = 1e-12

# Longest lambda grid the Cholesky route solves.  It pays one
# factorization per candidate and grid value, against one
# eigendecomposition per candidate for the whole grid; since the sweep
# bounds its candidates it takes no triangular inverse for most of them.
# GCV grows of f2 (20k rows, 50 bins, grid geomspace(1e-3, 5, k), one BLAS
# thread, three alternating pairs on a 2-core Xeon; Cholesky vs eigh
# medians, identical trees): at 81 columns and depth 3, 2.12 vs 2.69 s at
# k = 8, 3.06 vs 2.80 at 12, 4.57 vs 3.30 at 13 and 5.72 vs 3.96 at 16; at
# 151 columns and depth 2, 3.88 vs 5.88, 5.65 vs 6.39, 6.02 vs 6.25 (two
# pairs of three) and 7.15 vs 6.23.  The break-even lies between 8 and 12
# values at 81 columns and between 13 and 16 at 151, so 12 stays.
_CHOLESKY_GRID_LIMIT = 12

# The eigendecomposition route standardizes its systems a chunk of about
# this many bytes at a time: one 150-column block, or a few dozen 29-column
# ones, so the chunk stays in cache and small blocks share each numpy call.
_STANDARDIZE_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class GramStats:
    """Sufficient statistics for least-squares fits, of one row set or a stack.

    One row set has X'X (m, m), X'y (m,), a float y'y and an int count.  A
    stack of c row sets (the bins of a feature, or candidate sides of a
    split) has the same statistics on a leading axis: X'X (c, m, m), X'y
    (c, m), and y'y and counts as (c,) arrays.

    Attributes
    ----------
    xtx : ndarray, shape (m, m) or (c, m, m)
        Accumulated outer products ``sum_i x_i x_i'`` (symmetric PSD).
    xty : ndarray, shape (m,) or (c, m)
        Accumulated ``sum_i x_i y_i``.
    yty : float or ndarray, shape (c,)
        Accumulated ``sum_i y_i**2``.
    count : int or ndarray, shape (c,)
        Number of rows aggregated.  ``count == 0`` implies all-zero entries,
        as :func:`gram_accumulate` and :func:`complement` give them.
    """

    xtx: np.ndarray
    xty: np.ndarray
    yty: float | np.ndarray
    count: int | np.ndarray

    @property
    def dim(self) -> int:
        return self.xty.shape[-1]

    def __post_init__(self):
        shapes = (self.xtx.shape, self.xty.shape, np.shape(self.yty), np.shape(self.count))
        lead = self.xty.shape[:-1]
        if shapes != (self.xty.shape + self.xty.shape[-1:], self.xty.shape, lead, lead):
            raise ValueError(f"shapes of xtx, xty, yty and count {shapes} do not match")
        if np.any(np.less(self.count, 0)):
            raise ValueError("count must be nonnegative")


@dataclass(frozen=True)
class NodeModel:
    """A fitted model for one tree node.

    ``coefficients`` are on the original (unstandardized) design scale with
    the intercept in position 0.  ``effective_df`` is the trace of the ridge
    hat matrix, ``1 + sum_i d_i / (d_i + lam)`` over non-null eigenvalues;
    a leaf of the L1 refit has lasso coefficients, ``lam`` 0 and
    ``effective_df`` 1 + its nonzero coefficients.
    """

    coefficients: np.ndarray
    sse: float
    r2: float
    effective_df: float
    lam: float
    count: int


def zero_gram(dim: int) -> GramStats:
    """All-zero statistics of the given design width."""
    return GramStats(
        xtx=np.zeros((dim, dim)), xty=np.zeros(dim), yty=0.0, count=0
    )


def gram_accumulate(rows, responses) -> GramStats:
    """Aggregate design rows and responses into sufficient statistics.

    Parameters
    ----------
    rows : array-like, shape (n, m)
        Design rows (intercept column included by the caller).
    responses : array-like, shape (n,)

    Raises
    ------
    ValueError
        If the number of rows and responses differ.
    """
    x = np.asarray(rows, dtype=np.float64)
    y = np.asarray(responses, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(0, 0) if x.size == 0 else x.reshape(1, -1)
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"got {x.shape[0]} rows but {y.shape[0]} responses"
        )
    if x.shape[0] == 0:
        return zero_gram(x.shape[1])
    return GramStats(
        xtx=x.T @ x,
        xty=x.T @ y,
        yty=float(y @ y),
        count=x.shape[0],
    )


def gram_subtract(parent: GramStats, part: GramStats) -> GramStats:
    """Statistics of the complement: parent minus a contained part.

    :func:`complement` on a batch of one, after checks on the raw
    difference: diagonal entries driven slightly negative by round-off
    (within ``-1e-9 * max diag``) are clamped to zero, anything more
    negative indicates the part was not contained in the parent, and a
    complement of no rows is all zeros.

    Raises
    ------
    ValueError
        If the two statistics have different dimensions.
    NumericalError
        If the part has more rows than the parent, or the difference has a
        significantly negative diagonal.
    """
    if parent.dim != part.dim:
        raise ValueError(f"dimension mismatch: {parent.dim} vs {part.dim}")
    if part.count > parent.count:
        raise NumericalError(
            f"count underflow: part has {part.count} rows, parent {parent.count}"
        )
    diag = np.diagonal(parent.xtx) - np.diagonal(part.xtx)
    band = 1e-9 * max(float(np.max(parent.xtx.diagonal(), initial=0.0)), 1.0)
    if np.any(diag < -band):
        raise NumericalError("subtraction produced a significantly negative diagonal")
    diff = complement(parent, part)
    return GramStats(xtx=diff.xtx, xty=diff.xty, yty=float(diff.yty), count=int(diff.count))


def complement(whole: GramStats, part: GramStats, out=None) -> GramStats:
    """The statistics of whole minus part.

    The one place whole minus part is written.  ``part`` is one row set or
    a stack of c; ``whole`` is laid out alike, or is one row set taken from
    each of the c.  X'X is written into ``out`` when it is given.  Counts
    subtract exactly.  A complement of no rows is set to exact zeros, as
    accumulating no rows gives, and diagonal entries and y'y driven below
    zero by round-off are clamped to zero.
    """
    xtx = np.subtract(whole.xtx, part.xtx, out=out)
    xty = np.subtract(whole.xty, part.xty)
    count = np.subtract(whole.count, part.count)
    empty = count == 0
    xtx[empty], xty[empty] = 0.0, 0.0
    yty = np.where(empty, 0.0, np.maximum(np.subtract(whole.yty, part.yty), 0.0))
    diag = np.einsum("...ii->...i", xtx)
    np.maximum(diag, 0.0, out=diag)
    return GramStats(xtx=xtx, xty=xty, yty=yty, count=count)


def bin_sum(bins: GramStats, indices) -> GramStats:
    """The statistics of the named bins of a stack, as one row set.

    The one sum of bins: added in the order of ``indices``, as merging the
    bins one by one would.
    """
    idx = list(indices)
    # a run of bins, as every continuous winner is, is summed as a view, not a copy
    if idx == list(range(idx[0], idx[0] + len(idx))):
        idx = slice(idx[0], idx[0] + len(idx))
    return GramStats(
        xtx=np.add.reduce(bins.xtx[idx], axis=0),
        xty=np.add.reduce(bins.xty[idx], axis=0),
        # add.reduce sums a vector pairwise; cumsum adds in bin order
        yty=float(np.cumsum(bins.yty[idx])[-1]),
        count=int(bins.count[idx].sum()),
    )


def column_scale(var, ex2):
    """The constant-column rule: which columns are constant, and their scales.

    A column whose variance ``var`` is at most ``_CONSTANT_COLUMN_RTOL``
    times ``max(E[x^2], 1)`` counts as constant.  It keeps scale 1, so it
    centers to the zero column, which the solvers treat as null space;
    every other column is scaled by its standard deviation.  Returns the
    boolean mask of constant columns and the scales.
    """
    degenerate = var <= _CONSTANT_COLUMN_RTOL * np.maximum(ex2, 1.0)
    return degenerate, np.sqrt(np.where(degenerate, 1.0, var))


def ridge_batch(stats: GramStats, lam_values, *, cholesky=False, want_edf=True):
    """Ridge fits of stacked gram statistics, for every lambda in a grid.

    ``stats`` is a stack of c systems, X'X (c, m, m), X'y (c, m), y'y and
    counts (c,), column 0 the intercept.  Each is solved for every lambda
    with its standardized coefficients penalized, the coefficients returned
    on the original scale, and its SSE taken from the statistics.  Returns
    the coefficients (k, c, m), SSEs (k, c) and effective df (k, c) for the
    k grid values; pass them to :func:`select_lambda` to resolve a grid.

    Two routes solve the same problem.  With ``cholesky``, every lambda
    positive and at most ``_CHOLESKY_GRID_LIMIT`` of them, each system is
    Cholesky-factored once per lambda on its own uncentered X'X bordered by
    the intercept (:func:`_cholesky_solves`), no standardized block formed;
    ``want_edf=False`` lets it skip the df (left NaN).  Every other system,
    and every one whose factorization fails, is standardized
    (:func:`_moments`, :func:`_standardized_block`) a chunk of about
    ``_STANDARDIZE_CHUNK_BYTES`` at a time, never the whole (c, p, p)
    stack, and solved by the reference, the eigendecomposition
    (:func:`_eigh_solves`): one factorization serves the whole grid,
    eigenvalues below ``NULL_SPACE_RTOL`` times the largest are null
    directions (pseudo-inverse at lambda = 0) and the df sums
    d / (d + lambda) over the others.

    The two routes count the df of a nearly collinear direction
    differently: an eigenvalue w above zero but below ``NULL_SPACE_RTOL``
    times the largest is null space to the eigendecomposition, which adds
    0, while the bordered trace identity counts it as the standardized one
    did, w / (w + lambda), since both take the trace of the same inverse.
    The SSEs agree; the GCV of such a system differs by that much df
    (about 1e-7 relative on two columns 1e-5 apart).  It is left so:
    counting w in the reference would change the stored ``effective_df``
    of such nodes, and dropping it from the Cholesky route needs the
    spectrum that route exists to avoid.  Node models always come from the
    reference route (:func:`fit_node`), so only the split sweep's ranking
    sees it.

    Raises
    ------
    ValueError
        If a lambda is negative, infinite or NaN, or a system has no rows.
    NumericalError
        If an eigendecomposition does not converge.
    """
    if not all(0.0 <= lam < np.inf for lam in lam_values):  # NaN fails too
        raise ValueError("lambda must be finite and nonnegative")
    n, mean, scale, b, constant = _moments(stats)
    count, p = b.shape
    coefficients = np.empty((len(lam_values), count, p + 1))
    edfs = np.full((len(lam_values), count), np.nan)
    rest = np.arange(count)
    if cholesky and min(lam_values) > 0.0 and len(lam_values) <= _CHOLESKY_GRID_LIMIT:
        rest = _cholesky_solves(
            stats, scale, constant & (mean != 0.0), lam_values,
            coefficients, edfs if want_edf else None,
        )
    if rest.size:
        gammas = np.empty((len(lam_values), rest.size, p))
        size = max(1, min(rest.size, _STANDARDIZE_CHUNK_BYTES // (8 * max(p, 1) ** 2)))
        blocks, outer = np.empty((size, p, p)), np.empty((size, p, p))
        for lo in range(0, rest.size, size):
            part = rest[lo : lo + size]
            block = _standardized_block(
                stats.xtx[part], n[part], mean[part], scale[part],
                out=blocks[: part.size], outer=outer[: part.size],
            )
            gammas[:, lo : lo + size], edfs[:, part] = _eigh_solves(block, b[part], lam_values)
        ybar = stats.xty[rest, 0] / stats.count[rest]
        coefficients[:, rest] = _back_map(ybar, gammas, mean[rest], scale[rest])
    return coefficients, _sse(stats, coefficients), edfs


def select_lambda(sse, edf, counts):
    """GCV choice over a lambda grid, one per candidate.

    ``sse`` and ``edf`` are (k, c) as :func:`ridge_batch` returns them.
    Each candidate takes the first grid value with the strictly smallest
    GCV, sse / (n (1 - df/n)^2); values that saturate the model
    (df >= n) are never chosen.  Returns the chosen grid index (c,) and
    its GCV (c,), which is infinite where every value saturates.
    """
    n = np.asarray(counts, dtype=np.float64)
    ok = edf < n
    gcv = np.where(ok, gcv_loss(sse, n, np.where(ok, edf, 0.0)), np.inf)
    index = np.argmin(gcv, axis=0)
    return index, gcv[index, np.arange(gcv.shape[1])]


def fit_node(gram: GramStats, lam) -> NodeModel:
    """Ridge-fit one node: :func:`ridge_batch` on a batch of one.

    The fit always takes the eigendecomposition route, so a stored model
    does not depend on which route scored its split.  ``lam`` may be a
    scalar or a sequence of candidate values; a sequence is scored by GCV
    reusing the single eigendecomposition and resolved by
    :func:`select_lambda`.

    Raises
    ------
    ValueError
        If a lambda is negative, infinite or NaN, the node has no rows, the
        grid is empty or every value in it saturates the model.
    """
    lam_values = (float(lam),) if np.isscalar(lam) else tuple(float(v) for v in lam)
    if not lam_values:
        raise ValueError("empty lambda grid")
    stack = _batch_of_one(gram)
    coefficients, sse, edf = ridge_batch(stack, lam_values)
    k = 0
    if not np.isscalar(lam):
        index, gcv = select_lambda(sse, edf, stack.count)
        if not gcv[0] < np.inf:
            raise ValueError(
                f"every lambda in the grid gives a saturated model ({gram.count} rows)"
            )
        k = int(index[0])
    return _node_model(gram, coefficients[k, 0], float(edf[k, 0]), lam_values[k])


def fit_lasso(gram: GramStats, lambda1, start, tol=1e-7):
    """Lasso-fit one node: (1/2n)||y - b0 - Z g||^2 + lambda1 |g|_1.

    Cyclic coordinate descent on the standardized design of the node's
    statistics, the ridge fits' standardization (:func:`_moments`,
    :func:`_standardized_block`), so every update uses X'X and X'y alone:
    glmnet's covariance updates (Friedman, Hastie & Tibshirani 2010).  The
    intercept is unpenalized and columns constant within the node stay at
    zero.  The warm start ``start`` holds the non-intercept coefficients on
    the original scale.  Descent stops when a pass moves no coefficient by
    ``tol`` or more, or after 1000 passes per design column, and maps g
    back to the original scale as the ridge fits do.  With ``lambda1 = 0``
    the problem is plain least squares, solved by :func:`fit_node`.

    The model is assembled as every node model is (:func:`_node_model`),
    its SSE and R^2 taken from the statistics, with effective df 1 + the
    number of nonzero coefficients and lambda 0.  Returns
    ``(model, converged)``.
    """
    if lambda1 == 0.0:
        coefficients, converged = fit_node(gram, 0.0).coefficients, True
    else:
        stack = _batch_of_one(gram)
        counts, mean, scale, b, constant = _moments(stack)
        A = _standardized_block(stack.xtx, counts, mean, scale)[0]
        c, diag, n = b[0], np.diagonal(A).copy(), gram.count
        active = np.nonzero(~constant[0] & (diag > 0))[0]
        gamma = np.where(constant[0], 0.0, start * scale[0])
        u = A @ gamma
        converged = False
        for _ in range(1000 * gram.dim):
            delta = 0.0
            for j in active:
                old = gamma[j]
                rho = (c[j] - u[j] + diag[j] * old) / n
                if rho > lambda1:  # soft thresholding
                    rho = rho - lambda1
                elif rho < -lambda1:
                    rho = rho + lambda1
                else:
                    rho = 0.0
                new = rho / (diag[j] / n)
                if new != old:
                    u += A[:, j] * (new - old)
                    gamma[j] = new
                    delta = max(delta, abs(new - old))
            if delta < tol:
                converged = True
                break
        ybar = gram.xty[:1] / gram.count
        coefficients = _back_map(ybar, gamma[None, None], mean, scale)[0, 0]
    edf = 1.0 + int(np.count_nonzero(coefficients[1:]))
    return _node_model(gram, coefficients, edf, 0.0), converged


def _batch_of_one(gram: GramStats) -> GramStats:
    """One row set's statistics as a stack of one."""
    return GramStats(
        xtx=gram.xtx[None], xty=gram.xty[None],
        yty=np.array([gram.yty]), count=np.array([gram.count]),
    )


def _node_model(gram: GramStats, coefficients, effective_df, lam) -> NodeModel:
    """The model of one row set's coefficients, scored on its statistics.

    The one assembly of a :class:`NodeModel`: the SSE is :func:`_sse` of
    the statistics and R^2 compares it with their total sum of squares.
    """
    n = gram.count
    ybar = gram.xty[0] / n
    tss = max(gram.yty - n * ybar**2, 0.0)
    sse = float(_sse(_batch_of_one(gram), coefficients[None])[0])
    r2 = 1.0 if tss <= 0.0 else min(max(1.0 - sse / tss, 0.0), 1.0)
    return NodeModel(
        coefficients=coefficients, sse=sse, r2=r2,
        effective_df=effective_df, lam=lam, count=n,
    )


def _sse(stats: GramStats, beta):
    """SSE of coefficients (..., c, m) against c stacked statistics."""
    row = beta[..., None, :]
    value = (
        stats.yty
        - 2.0 * np.matmul(row, stats.xty[:, :, None])[..., 0, 0]
        + np.matmul(np.matmul(row, stats.xtx), beta[..., None])[..., 0, 0]
    )
    return np.maximum(value, 0.0)


def _moments(stats: GramStats):
    """Row counts, column means and scales, and ``Z'y`` of stacked statistics.

    Column means and variances are recovered from the intercept row of
    each ``xtx``; :func:`column_scale` decides which columns are constant
    within their node.  Returns ``n`` (c, 1) as floats, ``mean`` and
    ``scale`` (c, p), ``b`` (c, p) = ``Z'y`` and the constant-column mask
    (c, p), with p = m - 1.
    """
    if np.any(stats.count <= 0):
        raise ValueError("cannot standardize statistics of no rows")
    n = stats.count.astype(np.float64)[:, None]
    mean = stats.xtx[:, 0, 1:] / n
    ex2 = np.diagonal(stats.xtx, axis1=1, axis2=2)[:, 1:] / n
    constant, scale = column_scale(np.maximum(ex2 - mean**2, 0.0), ex2)
    b = (stats.xty[:, 1:] - mean * stats.xty[:, :1]) / scale
    return n, mean, scale, b, constant


def _standardized_block(xtx, n, mean, scale, out=None, outer=None):
    """The ``Z'Z`` of standardized columns: (X'X - n mean mean') / (scale scale').

    The one place the block's centering and scaling arithmetic is written,
    for stacked statistics ``xtx`` (c, m, m) with ``n`` (c, 1) and
    ``mean``, ``scale`` (c, p) from :func:`_moments`.  Every step is
    elementwise, so a candidate's block has the same bits whether it is
    standardized alone, in a chunk or in the whole stack.  ``out``
    receives the (c, p, p) block and ``outer`` is scratch of the same
    shape; both are allocated when not given.
    """
    c, p = mean.shape
    out = np.empty((c, p, p)) if out is None else out
    outer = np.empty((c, p, p)) if outer is None else outer
    # einsum takes each outer product with one multiply per element, as a
    # broadcast multiply would, but writes the block faster
    np.einsum("ci,cj->cij", mean, mean, out=out)
    np.multiply(n[:, :, None], out, out=out)
    np.subtract(xtx[:, 1:, 1:], out, out=out)
    np.einsum("ci,cj->cij", scale, scale, out=outer)
    return np.divide(out, outer, out=out)


def _back_map(ybar, gammas, mean, scale):
    """Coefficients (k, c, m) on the original scale of gammas (k, c, p).

    Each standardized coefficient is divided by its column's scale, and the
    intercept makes the fit pass through the column means and the response
    means ``ybar`` (c,) of the c systems.
    """
    coefficients = np.empty(gammas.shape[:2] + (gammas.shape[2] + 1,))
    coefficients[:, :, 1:] = gammas / scale
    coefficients[:, :, 0] = ybar - np.matmul(
        coefficients[:, :, None, 1:], mean[:, :, None]
    )[:, :, 0, 0]
    return coefficients


def _eigh_solves(block, b, lam_values):
    """Ridge solutions of stacked standardized systems by eigendecomposition.

    Each block is symmetrized and factored once for the whole grid, its
    spectrum taken in descending order.  Eigenvalues below
    ``NULL_SPACE_RTOL`` times the largest (all of them, if the largest is
    not positive) are null directions: the pseudo-inverse leaves them out
    at lambda = 0 and the effective df counts d / (d + lambda) over the
    others.  Returns gammas (k, c, p) and edfs (k, c).
    """
    sym = 0.5 * (block + np.swapaxes(block, 1, 2))
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        d = np.diagonal(sym, axis1=1, axis2=2)
        raise NumericalError(
            "eigendecomposition did not converge "
            f"(dim={sym.shape[-1]}, diag range [{d.min():.3e}, {d.max():.3e}], "
            f"frobenius={np.linalg.norm(sym):.3e})"
        ) from exc
    # eigh returns ascending eigenvalues with eigenvectors in columns; the
    # rows of ``rotation`` are the eigenvectors in descending order
    spectrum = w[:, ::-1]
    columns = v[:, :, ::-1]
    rotation = np.swapaxes(columns, 1, 2)
    top = np.max(spectrum, axis=1, initial=0.0)
    null = (spectrum < NULL_SPACE_RTOL * top[:, None]) | (top <= 0.0)[:, None]
    d = np.maximum(spectrum, 0.0)
    proj = np.matmul(rotation, b[:, :, None])
    lams = np.asarray(lam_values, dtype=np.float64)[:, None, None]  # (k, 1, 1)
    # at lambda = 0 a null direction divides by zero; both masks drop it
    with np.errstate(divide="ignore", invalid="ignore"):
        recip = np.where(null & (lams == 0.0), 0.0, 1.0 / (d + lams))
        shrink = np.where(null, 0.0, d / (d + lams))
    gammas = np.matmul(columns, recip[..., None] * proj)[..., 0]
    return gammas, 1.0 + np.sum(shrink, axis=-1)


def _cholesky_solves(stats: GramStats, scale, offset, lam_values, coefficients, edfs):
    """Ridge solutions of stacked systems by Cholesky, on their uncentered grams.

    Every lambda is positive.  For each system and lambda, X'X with
    lambda scale_j^2 added to each non-intercept diagonal entry is copied
    into an m x m work matrix that LAPACK factors in place as L L'
    (:func:`dpotrf`), and the triangular solves on X'y (:func:`dpotrs`)
    write the coefficients, on the original scale, into their row of
    ``coefficients`` (k, c, m) in place.  Bordering by the unpenalized
    intercept centers the system: the intercept's Schur complement is
    (C + lambda D^2) beta_1 = X'y - mean sum(y), with C the centered block
    and D the column scales, which is the standardized system
    (D^-1 C D^-1 + lambda I) gamma = b multiplied by D, with
    beta_1 = D^-1 gamma.  When ``edfs`` (k, c) is given, the effective df
    is written into it from the GCV trace identity (Golub, Heath & Wahba
    1979): the hat matrix's trace is
    m - lambda sum_j scale_j^2 ((X'X + lambda D^2)^-1)_jj over the
    non-intercept columns, each diagonal entry the squared norm of column j
    of L^-1 (:func:`dtrtri`).

    The LAPACK routines are scipy's, called through ctypes (see
    :mod:`splinetree._blas`), which releases the GIL for each call.  Their
    arguments are made once per call of this function and shared by all
    its factorizations, never kept between calls: worker threads may run
    it at once.

    A column constant within the node centers to the zero column, so it
    gets coefficient 0 and adds 1 - lambda / lambda = 0 to the df, as its
    null direction does in the spectral sum.  A zero column (a hat function
    outside the node) does so as it stands.  One constant away from zero,
    flagged in ``offset`` (c, p), would lose lambda in the rounding of
    n c^2 on the diagonal, so its row and column of X'X and its X'y entry
    are zeroed first, which is what centering does to them.  Returns the
    positions of the systems whose factorization failed for some lambda;
    their entries are unset.
    """
    m = stats.dim
    if (coefficients.shape != (len(lam_values), len(stats.xtx), m)
            or coefficients.dtype != np.float64 or not coefficients.flags.c_contiguous):
        raise ValueError("coefficients must be a C-ordered float64 array (k, c, m)")
    args = _LapackArgs(m)
    # the bordered gram is symmetric, so its transpose is the same matrix
    # in the Fortran order LAPACK factors in place
    work, chol = args.work, args.work.T
    diagonal = np.einsum("ii->i", work)[1:]  # a view: the penalized entries
    # LAPACK reads and writes only the lower triangle of ``chol``.  The df
    # sums whole columns of L^-1, so for it only that triangle is copied in
    # and the strict upper one stays zero, as scipy's wrapper leaves it
    # (clean=1): the norms sum the same terms in the same order
    triangle = None if edfs is None else np.triu(np.ones((m, m), dtype=bool))
    pinned = offset.any(axis=1).tolist()
    weights = scale * scale
    # shifts[i, k] = lambda_k scale_i^2, each entry one product as lam * weight
    shifts = weights[:, None, :] * np.asarray(lam_values, dtype=np.float64)[None, :, None]
    # where dpotrs writes the solution of system i at lambda k
    base, step_k, step_i = coefficients.ctypes.data, *coefficients.strides[:2]
    failed = []
    for i, (xtx, xty, weight) in enumerate(zip(stats.xtx, stats.xty, weights)):
        columns = np.flatnonzero(offset[i]) + 1 if pinned[i] else None
        if columns is not None:
            xty = xty.copy()
            xty[columns] = 0.0
        for k, lam in enumerate(lam_values):
            if triangle is None:
                np.copyto(work, xtx)
            else:
                np.copyto(work, xtx, where=triangle)
            if columns is not None:
                work[columns], work[:, columns] = 0.0, 0.0
            np.add(diagonal, shifts[i, k], out=diagonal)
            if dpotrf(chol, args) != 0:
                failed.append(i)
                break
            coefficients[k, i] = xty
            dpotrs(chol, args, base + k * step_k + i * step_i)
            if edfs is not None:
                dtrtri(chol, args)
                # einsum, not a BLAS dot: numpy's BLAS thread pool would
                # contend with scipy's LAPACK pool between these calls
                norms = np.einsum("ij,ij->j", chol, chol)
                edfs[k, i] = m - lam * np.einsum("j,j->", norms[1:], weight)
    return np.array(failed, dtype=np.intp)


class _LapackArgs:
    """An m x m work matrix and the ctypes arguments of LAPACK calls on it.

    LAPACK takes every argument by pointer.  These point at ``work``,
    C-ordered and zeroed at first, which LAPACK reads as its
    Fortran-ordered transpose and factors in its lower triangle; at
    ``info``; and at the right-hand side, whose address ``rhs`` is set
    before each solve.  Each routine is bound to them once
    (:func:`splinetree._blas.lapack` binds the routines on first use).
    The object keeps every buffer they point at.  Calls that share it must
    not run at once.
    """

    def __init__(self, m: int):
        potrf, potrs, trtri = lapack()
        self.work = np.zeros((m, m))
        self.info, self.rhs = ctypes.c_int(0), ctypes.c_void_p()
        self._scalars = (ctypes.c_int(m), ctypes.c_int(1), ctypes.c_char(b"L"),
                         ctypes.c_char(b"N"))
        order, one, lower, nonunit = (ctypes.c_void_p(ctypes.addressof(x))
                                      for x in self._scalars)
        a = ctypes.c_void_p(self.work.ctypes.data)
        info = ctypes.c_void_p(ctypes.addressof(self.info))
        self.potrf = partial(potrf, lower, order, a, order, info)
        self.potrs = partial(potrs, lower, order, one, a, order, self.rhs, order, info)
        self.trtri = partial(trtri, lower, nonunit, order, a, order, info)


def dpotrf(a, args: _LapackArgs) -> int:
    """Factor the Fortran-ordered ``a`` in place as L L', in its lower triangle.

    LAPACK's ``dpotrf`` through ``args``, which point at ``a``.  Returns
    its ``info``: 0, or the order of the first leading minor that is not
    positive definite.  The strict upper triangle is left as it was.
    """
    args.potrf()
    return args.info.value


def dpotrs(a, args: _LapackArgs, rhs: int) -> None:
    """Solve L L' x = b with the factor in ``a``, writing x over b.

    LAPACK's ``dpotrs`` through ``args``, which point at ``a``; ``rhs`` is
    the address of b, m contiguous doubles.
    """
    args.rhs.value = rhs
    args.potrs()


def dtrtri(a, args: _LapackArgs) -> int:
    """Invert the lower triangular factor in ``a`` in place.

    LAPACK's ``dtrtri`` through ``args``, which point at ``a``; returns its
    ``info``.  The strict upper triangle is left as it was.
    """
    args.trtri()
    return args.info.value


def gcv_loss(sse, count, effective_df):
    """Generalized cross-validation loss sse / (n * (1 - df/n)**2).

    Works elementwise on arrays.

    Raises
    ------
    ValueError
        If ``effective_df >= count`` (saturated model).
    """
    if np.any(np.greater_equal(effective_df, count)):
        raise ValueError(
            f"effective df {effective_df} >= count {count}: saturated model"
        )
    return sse / (count * (1.0 - effective_df / count) ** 2)
