"""Gram-statistic accumulation and penalized least-squares solving.

Every node model in the tree is fitted from the sufficient statistics
(X'X, X'y, y'y, n) of its member rows, never from the raw rows themselves.
The statistics are additive, so child-node systems during split search are
obtained by summing per-bin statistics and subtracting from the parent.

Ridge fits standardize the non-intercept columns to zero mean / unit
variance using moments recovered from the intercept row of X'X, penalize
in the standardized space, and map coefficients back to the original
scale.  The intercept is never penalized, and eigenvalues below
``NULL_SPACE_RTOL`` times the largest one are treated as null directions
(pseudo-inverse behaviour), which keeps lambda = 0 fits well defined for
deliberately collinear spline bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# Relative eigenvalue cutoff below which a direction counts as null space.
NULL_SPACE_RTOL = 1e-10

# Relative variance cutoff below which a design column counts as constant.
_CONSTANT_COLUMN_RTOL = 1e-12


@dataclass(frozen=True)
class GramStats:
    """Sufficient statistics for a least-squares fit.

    Attributes
    ----------
    xtx : ndarray, shape (m, m)
        Accumulated outer products ``sum_i x_i x_i'`` (symmetric PSD).
    xty : ndarray, shape (m,)
        Accumulated ``sum_i x_i y_i``.
    yty : float
        Accumulated ``sum_i y_i**2``.
    count : int
        Number of rows aggregated.  ``count == 0`` implies all-zero entries.
    """

    xtx: np.ndarray
    xty: np.ndarray
    yty: float
    count: int

    @property
    def dim(self) -> int:
        return self.xty.shape[0]

    def __post_init__(self):
        if self.xtx.shape != (self.xty.shape[0], self.xty.shape[0]):
            raise ValueError(
                f"xtx shape {self.xtx.shape} does not match xty length {self.xty.shape[0]}"
            )
        if self.count < 0:
            raise ValueError("count must be nonnegative")


@dataclass(frozen=True)
class EigenFactor:
    """Spectral factorization A = rotation' @ diag(spectrum) @ rotation.

    ``rotation`` is orthogonal and ``spectrum`` is sorted descending.
    """

    rotation: np.ndarray
    spectrum: np.ndarray

    @property
    def null_mask(self) -> np.ndarray:
        """Boolean mask of eigenvalues treated as null space."""
        top = self.spectrum[0] if self.spectrum.size else 0.0
        if top <= 0.0:
            return np.ones_like(self.spectrum, dtype=bool)
        return self.spectrum < NULL_SPACE_RTOL * top

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(~self.null_mask))


@dataclass(frozen=True)
class NodeModel:
    """A fitted ridge model for one tree node.

    ``coefficients`` are on the original (unstandardized) design scale with
    the intercept in position 0.  ``effective_df`` is the trace of the ridge
    hat matrix, ``1 + sum_i d_i / (d_i + lam)`` over non-null eigenvalues.
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


def gram_merge(a: GramStats, b: GramStats) -> GramStats:
    """Elementwise sum of two statistics; counts add."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return GramStats(
        xtx=a.xtx + b.xtx,
        xty=a.xty + b.xty,
        yty=a.yty + b.yty,
        count=a.count + b.count,
    )


def gram_subtract(parent: GramStats, part: GramStats) -> GramStats:
    """Statistics of the complement: parent minus a contained part.

    Diagonal entries driven slightly negative by round-off (within
    ``-1e-9 * max diag``) are clamped to zero; anything more negative
    indicates the part was not contained in the parent.
    """
    if parent.dim != part.dim:
        raise ValueError(f"dimension mismatch: {parent.dim} vs {part.dim}")
    if part.count > parent.count:
        raise ValueError(
            f"count underflow: part has {part.count} rows, parent {parent.count}"
        )
    xtx = parent.xtx - part.xtx
    diag = np.diagonal(xtx)
    band = 1e-9 * max(float(np.max(parent.xtx.diagonal(), initial=0.0)), 1.0)
    if np.any(diag < -band):
        raise ValueError("subtraction produced a significantly negative diagonal")
    if np.any(diag < 0.0):
        xtx = xtx.copy()
        np.fill_diagonal(xtx, np.maximum(diag, 0.0))
    return GramStats(
        xtx=xtx,
        xty=parent.xty - part.xty,
        yty=max(parent.yty - part.yty, 0.0),
        count=parent.count - part.count,
    )


def sym_eig(a: np.ndarray) -> EigenFactor:
    """Factor a symmetric matrix as rotation' @ diag(spectrum) @ rotation.

    The input is symmetrized before factoring; the spectrum is returned in
    descending order.

    Raises
    ------
    NumericalError
        If the eigensolver fails to converge (with condition diagnostics).
    """
    a = np.asarray(a, dtype=np.float64)
    sym = 0.5 * (a + a.T)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        d = np.diagonal(sym)
        raise NumericalError(
            "eigendecomposition did not converge "
            f"(dim={sym.shape[0]}, diag range [{d.min():.3e}, {d.max():.3e}], "
            f"frobenius={np.linalg.norm(sym):.3e})"
        ) from exc
    # eigh returns ascending eigenvalues with eigenvectors in columns;
    # store rows of the rotation so A = rotation' @ diag(spectrum) @ rotation.
    return EigenFactor(rotation=v[:, ::-1].T, spectrum=w[::-1])


def standardized_block(gram: GramStats):
    """Centered and scaled non-intercept block of a gram matrix.

    Column means and variances are recovered from the intercept row of
    ``xtx`` (column 0 must be the all-ones intercept).  Columns that are
    constant within the node keep scale 1 and center to the zero column,
    which the eigensolver then treats as null space.

    Returns
    -------
    block : ndarray, shape (m-1, m-1)
        ``Z'Z`` of the standardized columns (not divided by n).
    mean : ndarray, shape (m-1,)
    scale : ndarray, shape (m-1,)
    """
    n = gram.count
    if n <= 0:
        raise ValueError("cannot standardize an empty GramStats")
    mean = gram.xtx[0, 1:] / n
    ex2 = np.diagonal(gram.xtx)[1:] / n
    var = np.maximum(ex2 - mean**2, 0.0)
    degenerate = var <= _CONSTANT_COLUMN_RTOL * np.maximum(ex2, 1.0)
    scale = np.sqrt(np.where(degenerate, 1.0, var))
    centered = gram.xtx[1:, 1:] - n * np.outer(mean, mean)
    block = centered / np.outer(scale, scale)
    return block, mean, scale


def ridge_solve(gram: GramStats, factor: EigenFactor, lam: float) -> NodeModel:
    """Fit a ridge model from statistics using a precomputed factorization.

    ``factor`` must be the eigendecomposition of ``standardized_block(gram)``;
    it can be reused across different ``lam`` values.  The intercept is left
    unpenalized, so the infinite-shrinkage limit recovers the node mean.

    Raises
    ------
    ValueError
        If ``lam`` is negative or dimensions disagree.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if factor.spectrum.shape[0] != gram.dim - 1:
        raise ValueError("factor does not match the non-intercept block")
    n = gram.count
    _, mean, scale = standardized_block(gram)
    b = (gram.xty[1:] - mean * gram.xty[0]) / scale

    d = np.maximum(factor.spectrum, 0.0)
    null = factor.null_mask
    if lam == 0.0:
        recip = np.where(null, 0.0, np.divide(1.0, d, out=np.ones_like(d), where=d > 0))
    else:
        recip = 1.0 / (d + lam)
    gamma = factor.rotation.T @ (recip * (factor.rotation @ b))

    coef = np.empty(gram.dim)
    coef[1:] = gamma / scale
    ybar = gram.xty[0] / n
    coef[0] = ybar - coef[1:] @ mean

    sse = sse_from_gram(gram, coef)
    tss = max(gram.yty - n * ybar**2, 0.0)
    r2 = 1.0 if tss <= 0.0 else min(max(1.0 - sse / tss, 0.0), 1.0)
    shrink = np.divide(d, d + lam, out=np.zeros_like(d), where=(d + lam) > 0)
    edf = 1.0 + float(np.sum(np.where(null, 0.0, shrink)))
    return NodeModel(
        coefficients=coef, sse=sse, r2=r2, effective_df=edf, lam=lam, count=n
    )


def fit_node(gram: GramStats, lam) -> NodeModel:
    """Standardize, factor once, and ridge-fit.

    ``lam`` may be a scalar or a sequence of candidate values; a sequence is
    scored by GCV reusing the single eigendecomposition and the first value
    with the strictly smallest GCV is returned.  Values that saturate the
    model (effective df >= count) are skipped.

    Raises
    ------
    ValueError
        If the grid is empty or every value in it saturates the model.
    """
    block, _, _ = standardized_block(gram)
    factor = sym_eig(block)
    if np.isscalar(lam):
        return ridge_solve(gram, factor, float(lam))
    models = [ridge_solve(gram, factor, float(value)) for value in lam]
    if not models:
        raise ValueError("empty lambda grid")
    best = None
    for model in models:
        if model.effective_df >= model.count:
            continue
        score = gcv_loss(model.sse, model.count, model.effective_df)
        if best is None or score < best[0]:
            best = (score, model)
    if best is None:
        raise ValueError(
            f"every lambda in the grid gives a saturated model ({gram.count} rows)"
        )
    return best[1]


def sse_from_gram(gram: GramStats, coefficients) -> float:
    """Residual sum of squares of given coefficients, from statistics alone.

    Computed as ``y'y - 2 b'X'y + b'X'Xb`` and clamped at zero against
    round-off.
    """
    beta = np.asarray(coefficients, dtype=np.float64)
    if beta.shape != (gram.dim,):
        raise ValueError(
            f"coefficient length {beta.shape} does not match design width {gram.dim}"
        )
    value = gram.yty - 2.0 * (beta @ gram.xty) + beta @ gram.xtx @ beta
    return max(float(value), 0.0)


def gcv_loss(sse: float, count: int, effective_df: float) -> float:
    """Generalized cross-validation loss sse / (n * (1 - df/n)**2).

    Raises
    ------
    ValueError
        If ``effective_df >= count`` (saturated model).
    """
    if effective_df >= count:
        raise ValueError(
            f"effective df {effective_df} >= count {count}: saturated model"
        )
    return sse / (count * (1.0 - effective_df / count) ** 2)
