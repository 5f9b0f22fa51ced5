"""Regression fits shared by the pipeline: OLS, additive splines, logistic.

All three fits take a plain (n, p) float matrix and a length-n target, carry
an explicit intercept, and are deterministic.  OLS is solved by SVD
(``numpy.linalg.lstsq``), which returns the minimum-norm solution when the
design is rank deficient.  The additive model expands each column in a
natural cubic spline basis, whose truncated cubes take the power on positive
bases only, and solves a ridge problem with the intercept left unpenalized,
so it extrapolates linearly outside the training range.  A fitted spline
model is one coefficient vector, laid out as a linear model's, over planned
terms (kind and knots) that every fit on the same rows and columns shares.
Its predictions sum the basis blocks term by term (:func:`_additive_values`),
so a caller evaluating many models on the same rows can build one basis per
column and planned term.
The logistic fit is a damped Newton iteration with step halving; it stops
once the Newton decrement reaches the log-likelihood's rounding floor, a
test that rescaling a column does not change.
Its start at zero (:func:`_logistic_start`) depends on the rows alone, so
ICP slices one start for every subset's Newton loop (:func:`_newton`).
OLS and the additive model are the one-target case of :func:`ols_columns`
and :func:`_spline_solve`, which fit several targets on the same
regressors with one solve.  Both solve with :func:`_ridge_solve`, OLS
being its unpenalized case, on the tall design; the matching-pairs fit
applies it to an R factor of that design (a few dozen rows), which with
the tall cut-off gives the same minimiser and minimum-norm answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateResponseError, InsufficientDataError, ValidationError

_SPLINE_KNOTS = 5
_SPLINE_LAMBDA = 1e-3
_LOGISTIC_MAX_ITER = 100
_MAX_HALVINGS = 20
_EPS = float(np.finfo(float).eps)
_PROB_CLIP = 1e-12
# the widest span of a spline column: beyond it (x - knot) ** 3 overflows
_CUBE_SPREAD = float(np.cbrt(np.finfo(float).max))


def _check_design(X, y=None):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-D, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValidationError("X contains non-finite entries")
    if y is None:
        return X
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise ValidationError(
            f"length mismatch: X has {X.shape[0]} rows, y has {y.shape[0]}"
        )
    if not np.all(np.isfinite(y)):
        raise ValidationError("y contains non-finite entries")
    return X, y


@dataclass(frozen=True)
class LinearModel:
    """Affine predictor y_hat = coef[0] + X @ coef[1:]."""

    coef: tuple[float, ...]

    @property
    def n_features(self) -> int:
        return len(self.coef) - 1


@dataclass(frozen=True)
class SplineTerm:
    """The plan of one feature's term in an additive spline model.

    ``kind`` is one of ``constant`` (feature was constant in training, no
    coefficients), ``linear`` (single slope coefficient) or ``spline``
    (natural cubic basis on ``knots``: one linear coefficient followed by
    one curvature coefficient per interior basis function).  It holds no
    coefficients, so every fit on the same rows and columns shares it.
    """

    kind: str
    knots: tuple[float, ...]


@dataclass(frozen=True)
class AdditiveSplineModel:
    """Sum of per-feature spline terms plus a global intercept.

    ``coef`` is laid out as a :class:`LinearModel`'s: the intercept first,
    then each term's coefficients in term order (:func:`_term_coefs`).
    """

    coef: tuple[float, ...]
    terms: tuple[SplineTerm, ...]
    lam: float

    @property
    def n_features(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class LogisticModel:
    """Logistic predictor P(y=1|x) = sigmoid(coef[0] + x @ coef[1:]).

    ``converged`` is True when the fit is at the optimum to working
    precision: the Newton decrement at ``coef`` is at the rounding floor of
    the log-likelihood.  It is False when the iteration hit its cap or a
    step short of that floor could not move the coefficients; the
    coefficients are still usable for prediction then.
    """

    coef: tuple[float, ...]
    converged: bool
    n_iter: int
    loss_path: tuple[float, ...]

    @property
    def n_features(self) -> int:
        return len(self.coef) - 1


@dataclass(frozen=True)
class ColumnsFit:
    """Fits of several targets on the same regressors, solved together.

    The design (an intercept column, then the regressors or their spline
    basis) depends on the regressors alone, so one least-squares solve with
    every target as a right-hand side fits them all.  Column j of ``coef``
    is target j's fit; the matching-pairs fits number targets by feature
    column, with NaN for the regressors' own.  ``terms`` is None for OLS and
    holds the planned spline terms for the additive model.  :meth:`model`
    slices one column for either kind, so every target's spline model holds
    this same ``terms`` tuple.
    """

    coef: np.ndarray
    terms: tuple[SplineTerm, ...] | None = None
    lam: float = 0.0

    def model(self, j: int):
        """Target j's fit as a standalone linear or additive spline model."""
        coef = tuple(self.coef[:, j].tolist())
        if self.terms is None:
            return LinearModel(coef=coef)
        return AdditiveSplineModel(coef=coef, terms=self.terms, lam=self.lam)


def _check_rows(fit: str, n: int, p: int = 0) -> None:
    """Refuse a fit on fewer than two rows, or on fewer than p + 1 for p features."""
    if n < 2:
        raise InsufficientDataError(f"{fit} needs n >= 2 rows, got {n}")
    if n < p + 1:
        raise InsufficientDataError(
            f"{fit} needs n >= p + 1 rows for p = {p} features, got n = {n}"
        )


def ols_columns(X: np.ndarray, Y: np.ndarray) -> tuple[ColumnsFit, np.ndarray]:
    """Least-squares fits of every column of Y on X, with an intercept.

    One tall SVD solve (``numpy.linalg.lstsq``) serves all columns; returns
    the fits and the design, so ``design @ fit.coef`` are the fitted values.
    The kernel behind :func:`fit_ols`; X (n, p) and Y (n, t) must be finite
    float arrays, which is what :func:`fit_ols` checks before calling it.
    Row requirements and minimum-norm semantics are those of
    :func:`fit_ols`.
    """
    n, p = X.shape
    _check_rows("fit_ols", n, p)
    design = np.column_stack([np.ones(n), X])
    return ColumnsFit(coef=_ridge_solve(design, Y, 0.0, n)), design


def fit_ols(X, y) -> LinearModel:
    """Least-squares fit of y on X with an intercept.

    Requires n >= 2 and n >= p + 1 (counting the intercept column).  On a
    rank-deficient design the minimum-norm coefficient vector is returned,
    so collinear encodings (complete one-hot groups, constant columns) fit
    without error and predictions stay well defined.
    """
    X, y = _check_design(X, y)
    return ols_columns(X, y[:, None])[0].model(0)


def _natural_spline_basis(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Natural cubic basis for one feature: [x, N_1(x), ..., N_{K-2}(x)].

    The curvature functions are differences of scaled truncated cubes, which
    makes the fit linear beyond the boundary knots.  Each truncated cube
    takes the power on positive bases only (numpy's is slow on zeros), and
    is byte-equal to ``np.clip(x - k, 0.0, None) ** 3``, -0.0 included.
    """
    def cube(k: float) -> np.ndarray:
        c = x - k
        above = c > 0.0
        c = np.where(above, c, 1.0)
        c **= 3
        c *= above
        return c

    last = knots[-1]
    cube_last = cube(last)

    def scaled(k: float) -> np.ndarray:
        return (cube(k) - cube_last) / (last - k)

    anchor = scaled(knots[-2])
    cols = [x]
    for k in knots[:-2]:
        cols.append(scaled(k) - anchor)
    return np.column_stack(cols)


def _plan_term(x: np.ndarray, n_knots: int) -> SplineTerm:
    lo, hi = x.min(), x.max()  # one or two distinct values, told without sorting
    if lo == hi:
        return SplineTerm(kind="constant", knots=())
    if np.all((x == lo) | (x == hi)):
        return SplineTerm(kind="linear", knots=())
    levels = [(i + 1) / (n_knots + 1) for i in range(n_knots)]
    knots = np.unique(np.quantile(x, levels))
    if knots.size < 3:
        return SplineTerm(kind="linear", knots=())
    if hi / 2 - lo / 2 > _CUBE_SPREAD / 2:  # halved: the span itself cannot overflow
        raise ValidationError(f"column range [{lo:.3g}, {hi:.3g}] is too wide for cubic splines")
    return SplineTerm(kind="spline", knots=tuple(float(k) for k in knots))


def _term_columns(term: SplineTerm, x: np.ndarray) -> np.ndarray:
    if term.kind == "constant":
        return np.empty((x.shape[0], 0))
    if term.kind == "linear":
        return x[:, None]
    return _natural_spline_basis(x, np.asarray(term.knots))


def _spline_plan(x: np.ndarray, n_knots: int = _SPLINE_KNOTS) -> tuple[SplineTerm, np.ndarray]:
    """Plan step of an additive spline fit for one column: its term and basis block.

    Both depend on that column's rows alone, so a caller fitting many
    conditioning sets on the same rows can plan each column once.
    """
    term = _plan_term(x, n_knots)
    return term, _term_columns(term, x)


def _spline_solve(
    planned: Sequence[tuple[SplineTerm, np.ndarray]], Y: np.ndarray, lam: float = _SPLINE_LAMBDA
) -> tuple[ColumnsFit, np.ndarray]:
    """Solve step: every column of Y in one ridge solve; returns the fits and the basis."""
    n = Y.shape[0]
    basis = np.hstack([np.ones((n, 1))] + [block for _, block in planned])
    terms = tuple(term for term, _ in planned)
    return ColumnsFit(coef=_ridge_solve(basis, Y, lam, n), terms=terms, lam=lam), basis


def _ridge_solve(design: np.ndarray, targets: np.ndarray, lam: float, n: int) -> np.ndarray:
    """Ridge coefficients of every column of ``targets`` on ``design``.

    Column 0 of the design is the intercept and is left unpenalized; every
    other coefficient carries the penalty ``lam``, whose rows make the
    system full rank whenever the intercept column is non-zero; ``lam = 0``
    is the minimum-norm least-squares fit.  ``design`` and ``targets`` may
    be the tall ones of ``n`` rows, or the matching columns of an R factor
    of [design | targets]: both have the same singular values, and the
    cut-off on them is the tall system's eps * max(rows, columns).
    """
    q = design.shape[1]
    if lam > 0.0:
        penalty = np.sqrt(lam) * np.eye(q)
        penalty[0, 0] = 0.0
        design = np.vstack([design, penalty])
        targets = np.vstack([targets, np.zeros((q, targets.shape[1]))])
        n += q
    return np.linalg.lstsq(design, targets, rcond=_EPS * max(n, q))[0]


def fit_spline_additive(
    X, y, n_knots: int = _SPLINE_KNOTS, lam: float = _SPLINE_LAMBDA
) -> AdditiveSplineModel:
    """Additive natural-cubic-spline fit with a ridge penalty on coefficients.

    Knots sit at the i/(n_knots+1) quantiles of each column.  Columns with
    two distinct values enter linearly, constant columns contribute only to
    the intercept, and columns whose quantiles collapse to fewer than three
    distinct knots fall back to a linear term.  The intercept is never
    penalized, so the fit is equivariant under shifts of y.
    """
    X, y = _check_design(X, y)
    if not lam >= 0.0:
        raise ValidationError(f"lam must be non-negative, got {lam!r}")
    if n_knots < 1:
        raise ValidationError(f"n_knots must be positive, got {n_knots!r}")
    _check_rows("fit_spline_additive", X.shape[0])
    planned = [_spline_plan(X[:, j], n_knots) for j in range(X.shape[1])]
    return _spline_solve(planned, y[:, None], lam)[0].model(0)


def _sigmoid(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # e = exp(-|z|) <= 1 never overflows; the numerator is 1 where z >= 0, else e
    if e is None:
        e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def _log_likelihood(z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Bernoulli log-likelihood of logits z, and exp(-|z|) for :func:`_sigmoid`.

    log(1 + e^z) is written as max(z, 0) + log1p(e^-|z|), which is stable
    for every z and shares its one exponential with the sigmoid.
    """
    e = np.exp(-np.abs(z))
    return float(np.sum(y * z - (np.maximum(z, 0.0) + np.log1p(e)))), e


def _logistic_design(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Checked [1 | X] and y of a logistic fit: finite, y in {0, 1}, both classes present."""
    X, y = _check_design(X, y)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValidationError("fit_logistic requires y in {0, 1}")
    if not (y.any() and not y.all()):
        raise DegenerateResponseError("fit_logistic requires both classes present")
    return np.column_stack([np.ones(X.shape[0]), X]), y


def _logistic_start(design: np.ndarray, y: np.ndarray):
    """Log-likelihood, probabilities, gradient and Hessian of a logistic fit at w = 0.

    A fit on some of the design's columns starts from their entries and block.
    """
    z = np.zeros(design.shape[0])
    ll, e = _log_likelihood(z, y)
    p = _sigmoid(z, e)
    return ll, p, design.T @ (y - p), design.T @ (design * (p * (1.0 - p))[:, None])


def _newton(design: np.ndarray, y: np.ndarray, start) -> tuple[LogisticModel, np.ndarray]:
    """:func:`fit_logistic`'s Newton loop from ``start``; the model and its probabilities."""
    ll, p, grad, hess = start
    w = np.zeros(design.shape[1])
    losses = [-ll]
    for it in range(_LOGISTIC_MAX_ITER + 1):
        if it:
            hess = design.T @ (design * (p * (1.0 - p))[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step, _, _, _ = np.linalg.lstsq(hess, grad, rcond=None)
        converged = bool(grad @ step / 2.0 <= _EPS * max(1.0, abs(ll)))
        if converged or it == _LOGISTIC_MAX_ITER:
            break
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            w_new = w + scale * step
            z_new = design @ w_new
            ll_new, e_new = _log_likelihood(z_new, y)
            if ll_new >= ll:
                break
            scale *= 0.5
        else:
            w_new = w  # every trial point lowered the log-likelihood
        if np.array_equal(w_new, w):
            break
        w, ll = w_new, ll_new
        losses.append(-ll)
        # the next step starts from this sigmoid and gradient
        p = _sigmoid(z_new, e_new)
        grad = design.T @ (y - p)
    return LogisticModel(
        coef=tuple(float(c) for c in w),
        converged=converged,
        n_iter=it,
        loss_path=tuple(losses),
    ), p


def fit_logistic(X, y) -> LogisticModel:
    """Logistic regression by damped Newton iteration.

    Before each step the fit stops, converged, once the Newton decrement
    (half of grad @ step) is at the log-likelihood's rounding floor, machine
    epsilon times max(1, |log-likelihood|).  The decrement is affine-invariant,
    so rescaling a column does not change when the fit stops.  Otherwise the
    step is halved (at most 20 times) until the log-likelihood does not
    decrease, so the loss path is non-increasing.  The fit stops unconverged
    once a step cannot move the coefficients (every trial point lowers the
    log-likelihood, or the accepted one equals the current point bit for bit)
    or after 100 steps.  (Quasi-)separated data typically converge after a few
    dozen steps, with large coefficients.  ``n_iter`` counts the steps taken.
    Both classes must be present.
    """
    design, y = _logistic_design(X, y)
    return _newton(design, y, _logistic_start(design, y))[0]


def _term_coefs(model: AdditiveSplineModel):
    """Each term of a spline model with its slice of ``coef``, which starts after the intercept."""
    offset = 1
    for term in model.terms:
        width = {"constant": 0, "linear": 1}.get(term.kind, len(term.knots) - 1)
        yield term, model.coef[offset : offset + width]
        offset += width


def _additive_values(model: AdditiveSplineModel, bases, n: int) -> np.ndarray:
    """A spline model on n rows from its terms' basis blocks: the intercept, then term by term."""
    out = np.full(n, model.coef[0])
    for (_, coef), cols in zip(_term_coefs(model), bases):
        if cols.shape[1]:
            out = out + cols @ np.asarray(coef)
    return out


def predict(model, X) -> np.ndarray:
    """Evaluate a fitted model on new rows.

    Linear and spline models return real-valued predictions; logistic models
    return probabilities clipped to [1e-12, 1 - 1e-12] so downstream logs
    stay finite.  The column count of ``X`` must match the fit.
    """
    X = _check_design(X)
    if X.shape[1] != model.n_features:
        raise ValidationError(
            f"model was fit on {model.n_features} features, got {X.shape[1]}"
        )
    if isinstance(model, LinearModel):
        coef = np.asarray(model.coef)
        return coef[0] + X @ coef[1:]
    if isinstance(model, AdditiveSplineModel):
        bases = (_term_columns(term, X[:, j]) for j, term in enumerate(model.terms))
        return _additive_values(model, bases, X.shape[0])
    if isinstance(model, LogisticModel):
        coef = np.asarray(model.coef)
        probs = _sigmoid(coef[0] + X @ coef[1:])
        return np.clip(probs, _PROB_CLIP, 1.0 - _PROB_CLIP)
    raise ValidationError(f"unknown model type: {type(model).__name__}")


def model_to_dict(model) -> dict:
    """JSON-ready description of a fitted linear or spline model."""
    if isinstance(model, LinearModel):
        return {"type": "linear", "coef": list(model.coef)}
    if isinstance(model, AdditiveSplineModel):
        return {
            "type": "spline",
            "intercept": model.coef[0],
            "lam": model.lam,
            "terms": [
                {"kind": t.kind, "knots": list(t.knots), "coef": list(coef)}
                for t, coef in _term_coefs(model)
            ],
        }
    raise ValidationError(f"unknown model type: {type(model).__name__}")
