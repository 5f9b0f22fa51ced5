"""Regression fits shared by the pipeline: OLS, additive splines, logistic.

All three fits take a plain (n, p) float matrix and a length-n target, carry
an explicit intercept, and are deterministic.  OLS is solved by SVD
(``numpy.linalg.lstsq``), which returns the minimum-norm solution when the
design is rank deficient.  The additive model expands each column in a
natural cubic spline basis and solves a ridge problem with the intercept
left unpenalized, so it extrapolates linearly outside the training range.
The logistic fit is a damped Newton iteration with step halving; it stops
at a small gradient, or once a step can no longer move the coefficients.
OLS and the additive model are the one-target case of :func:`ols_columns`
and :func:`spline_columns`, which fit several targets on the same
regressors with one solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateResponseError, InsufficientDataError, ValidationError

_SPLINE_KNOTS = 5
_SPLINE_LAMBDA = 1e-3
_LOGISTIC_MAX_ITER = 100
_LOGISTIC_TOL = 1e-8
_MAX_HALVINGS = 20
_EPS = float(np.finfo(float).eps)
_PROB_CLIP = 1e-12


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
    """One feature's contribution to an additive spline model.

    ``kind`` is one of ``constant`` (feature was constant in training, no
    coefficients), ``linear`` (single slope coefficient) or ``spline``
    (natural cubic basis: one linear coefficient followed by one curvature
    coefficient per interior basis function).
    """

    kind: str
    knots: tuple[float, ...]
    coef: tuple[float, ...]


@dataclass(frozen=True)
class AdditiveSplineModel:
    """Sum of per-feature spline terms plus a global intercept."""

    intercept: float
    terms: tuple[SplineTerm, ...]
    lam: float

    @property
    def n_features(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class LogisticModel:
    """Logistic predictor P(y=1|x) = sigmoid(coef[0] + x @ coef[1:]).

    ``converged`` is True when the fit is at the optimum to working
    precision: the gradient norm fell below 1e-8, or the last Newton step
    could not move the coefficients while its Newton decrement was at the
    rounding floor of the log-likelihood.  It is False when the iteration
    hit its cap, the signature of (quasi-)separated data, or stalled short
    of that floor; the coefficients are still usable for prediction then.
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
    belongs to target j.  ``terms`` is None for OLS and holds the planned
    spline terms (kind and knots, no coefficients) for the additive model.
    """

    coef: np.ndarray
    terms: tuple[SplineTerm, ...] | None = None
    lam: float = 0.0

    def model(self, j: int):
        """Target j's fit as a standalone linear or additive spline model."""
        coef = self.coef[:, j].tolist()
        if self.terms is None:
            return LinearModel(coef=tuple(coef))
        terms = []
        offset = 1
        for term in self.terms:
            width = _term_width(term)
            terms.append(
                SplineTerm(
                    kind=term.kind,
                    knots=term.knots,
                    coef=tuple(coef[offset : offset + width]),
                )
            )
            offset += width
        return AdditiveSplineModel(intercept=coef[0], terms=tuple(terms), lam=self.lam)


def ols_columns(X: np.ndarray, Y: np.ndarray) -> tuple[ColumnsFit, np.ndarray]:
    """Least-squares fits of every column of Y on X, with an intercept.

    One SVD solve (``numpy.linalg.lstsq``, default ``rcond``) serves all
    columns; returns the fits and the design, so ``design @ fit.coef`` are
    the fitted values.  The kernel behind :func:`fit_ols`, the residual
    screen and the matching-pairs fits; X (n, p) and Y (n, t) must be
    finite float arrays, which is what :func:`fit_ols` checks before
    calling it.  Row requirements and minimum-norm semantics are those of
    :func:`fit_ols`.
    """
    n, p = X.shape
    if n < 2:
        raise InsufficientDataError(f"fit_ols needs n >= 2 rows, got {n}")
    if n < p + 1:
        raise InsufficientDataError(
            f"fit_ols needs n >= p + 1 rows for p = {p} features, got n = {n}"
        )
    design = np.column_stack([np.ones(n), X])
    coef, _, _, _ = np.linalg.lstsq(design, Y, rcond=None)
    return ColumnsFit(coef=coef), design


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
    makes the fit linear beyond the boundary knots.
    """
    last = knots[-1]
    second_last = knots[-2]
    cube_last = np.clip(x - last, 0.0, None) ** 3

    def scaled(k: float) -> np.ndarray:
        return (np.clip(x - k, 0.0, None) ** 3 - cube_last) / (last - k)

    anchor = scaled(second_last)
    cols = [x]
    for k in knots[:-2]:
        cols.append(scaled(k) - anchor)
    return np.column_stack(cols)


def _plan_term(x: np.ndarray, n_knots: int) -> SplineTerm:
    distinct = np.unique(x)
    if distinct.size <= 1:
        return SplineTerm(kind="constant", knots=(), coef=())
    if distinct.size == 2:
        return SplineTerm(kind="linear", knots=(), coef=())
    levels = [(i + 1) / (n_knots + 1) for i in range(n_knots)]
    knots = np.unique(np.quantile(x, levels))
    if knots.size < 3:
        return SplineTerm(kind="linear", knots=(), coef=())
    return SplineTerm(kind="spline", knots=tuple(float(k) for k in knots), coef=())


def _term_columns(term: SplineTerm, x: np.ndarray) -> np.ndarray:
    if term.kind == "constant":
        return np.empty((x.shape[0], 0))
    if term.kind == "linear":
        return x[:, None]
    return _natural_spline_basis(x, np.asarray(term.knots))


def _term_width(term: SplineTerm) -> int:
    if term.kind == "constant":
        return 0
    if term.kind == "linear":
        return 1
    return len(term.knots) - 1


def _spline_plan(x: np.ndarray, n_knots: int = _SPLINE_KNOTS) -> tuple[SplineTerm, np.ndarray]:
    """Plan step of :func:`spline_columns` for one column: its term and basis block.

    Both depend on that column's rows alone, so a caller fitting many
    conditioning sets on the same rows can plan each column once.
    """
    term = _plan_term(x, n_knots)
    return term, _term_columns(term, x)


def _spline_solve(
    planned: Sequence[tuple[SplineTerm, np.ndarray]], Y: np.ndarray, lam: float = _SPLINE_LAMBDA
) -> tuple[ColumnsFit, np.ndarray]:
    """Solve step of :func:`spline_columns`: one ridge solve on planned columns."""
    n = Y.shape[0]
    if n < 2:
        raise InsufficientDataError(f"fit_spline_additive needs n >= 2 rows, got {n}")
    basis = np.hstack([np.ones((n, 1))] + [block for _, block in planned])
    q = basis.shape[1]

    # Augmented system: ridge on every basis coefficient except the intercept.
    penalty = np.sqrt(lam) * np.eye(q)
    penalty[0, 0] = 0.0
    augmented = np.vstack([basis, penalty])
    target = np.vstack([Y, np.zeros((q, Y.shape[1]))])
    coef, _, _, _ = np.linalg.lstsq(augmented, target, rcond=None)
    terms = tuple(term for term, _ in planned)
    return ColumnsFit(coef=coef, terms=terms, lam=lam), basis


def spline_columns(
    X: np.ndarray, Y: np.ndarray, n_knots: int = _SPLINE_KNOTS, lam: float = _SPLINE_LAMBDA
) -> tuple[ColumnsFit, np.ndarray]:
    """Additive spline fits of every column of Y on X, in one ridge solve.

    The basis (knots, term kinds) is planned from X alone, so all columns
    share one augmented system; returns the fits and the basis on the rows
    of X, so ``basis @ fit.coef`` are the fitted values.  The kernel behind
    :func:`fit_spline_additive`, whose docstring gives the model; X and Y
    must be finite float arrays of shapes (n, p) and (n, t).
    """
    if not lam >= 0.0:
        raise ValidationError(f"lam must be non-negative, got {lam!r}")
    if n_knots < 1:
        raise ValidationError(f"n_knots must be positive, got {n_knots!r}")
    planned = [_spline_plan(X[:, j], n_knots) for j in range(X.shape[1])]
    return _spline_solve(planned, Y, lam)


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
    return spline_columns(X, y[:, None], n_knots=n_knots, lam=lam)[0].model(0)


def _sigmoid(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # e = exp(-|z|) never overflows; both branches are finite for every z
    if e is None:
        e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _log_likelihood(z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Bernoulli log-likelihood of logits z, and exp(-|z|) for :func:`_sigmoid`.

    log(1 + e^z) is written as max(z, 0) + log1p(e^-|z|), which is stable
    for every z and shares its one exponential with the sigmoid.
    """
    e = np.exp(-np.abs(z))
    return float(np.sum(y * z - (np.maximum(z, 0.0) + np.log1p(e)))), e


def fit_logistic(X, y) -> LogisticModel:
    """Logistic regression by damped Newton iteration.

    Each Newton step is halved (at most 20 times) until the log-likelihood
    does not decrease, so the recorded loss path is non-increasing.  Stops
    when the gradient norm falls below 1e-8, or when a step can no longer
    move the coefficients: every trial point lowers the log-likelihood, or
    the accepted one equals the current point bit for bit (every later step
    would repeat it).  A fit stopped that way is converged when the step's
    Newton decrement, half of grad @ step, is at the rounding floor of the
    log-likelihood (at most machine epsilon times max(1, |log-likelihood|)).
    On (quasi-)separated data the iteration runs to its cap of 100 steps and
    the model is flagged as not converged.  ``n_iter`` counts the Newton
    steps taken, including a last one that could not move the coefficients.
    Both classes must be present.
    """
    X, y = _check_design(X, y)
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise ValidationError("fit_logistic requires y in {0, 1}")
    if classes.size < 2:
        raise DegenerateResponseError("fit_logistic requires both classes present")

    n = X.shape[0]
    design = np.column_stack([np.ones(n), X])
    q = design.shape[1]
    w = np.zeros(q)
    z = design @ w
    ll, e = _log_likelihood(z, y)
    losses = [-ll]
    it = 0
    p = _sigmoid(z, e)
    grad = design.T @ (y - p)
    converged = bool(np.linalg.norm(grad) < _LOGISTIC_TOL)
    while not converged and it < _LOGISTIC_MAX_ITER:
        it += 1
        weights = p * (1.0 - p)
        hess = design.T @ (design * weights[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step, _, _, _ = np.linalg.lstsq(hess, grad, rcond=None)
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
            converged = bool(grad @ step / 2.0 <= _EPS * max(1.0, abs(ll)))
            break
        w, z, ll, e = w_new, z_new, ll_new, e_new
        losses.append(-ll)
        # the next step starts from this sigmoid and gradient
        p = _sigmoid(z, e)
        grad = design.T @ (y - p)
        converged = bool(np.linalg.norm(grad) < _LOGISTIC_TOL)
    return LogisticModel(
        coef=tuple(float(c) for c in w),
        converged=converged,
        n_iter=it,
        loss_path=tuple(losses),
    )


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
        out = np.full(X.shape[0], model.intercept)
        for j, term in enumerate(model.terms):
            cols = _term_columns(term, X[:, j])
            if cols.shape[1]:
                out = out + cols @ np.asarray(term.coef)
        return out
    if isinstance(model, LogisticModel):
        coef = np.asarray(model.coef)
        probs = _sigmoid(coef[0] + X @ coef[1:])
        return np.clip(probs, _PROB_CLIP, 1.0 - _PROB_CLIP)
    raise ValidationError(f"unknown model type: {type(model).__name__}")


def model_to_dict(model) -> dict:
    """JSON-ready description of any fitted model."""
    if isinstance(model, LinearModel):
        return {"type": "linear", "coef": list(model.coef)}
    if isinstance(model, AdditiveSplineModel):
        return {
            "type": "spline",
            "intercept": model.intercept,
            "lam": model.lam,
            "terms": [
                {"kind": t.kind, "knots": list(t.knots), "coef": list(t.coef)}
                for t in model.terms
            ],
        }
    if isinstance(model, LogisticModel):
        return {
            "type": "logistic",
            "coef": list(model.coef),
            "converged": model.converged,
            "n_iter": model.n_iter,
        }
    raise ValidationError(f"unknown model type: {type(model).__name__}")


def model_from_dict(payload: dict):
    """Inverse of :func:`model_to_dict`."""
    kind = payload.get("type")
    if kind == "linear":
        return LinearModel(coef=tuple(payload["coef"]))
    if kind == "spline":
        return AdditiveSplineModel(
            intercept=payload["intercept"],
            lam=payload["lam"],
            terms=tuple(
                SplineTerm(kind=t["kind"], knots=tuple(t["knots"]), coef=tuple(t["coef"]))
                for t in payload["terms"]
            ),
        )
    if kind == "logistic":
        return LogisticModel(
            coef=tuple(payload["coef"]),
            converged=payload["converged"],
            n_iter=payload["n_iter"],
            loss_path=(),
        )
    raise ValidationError(f"unknown model payload type: {kind!r}")
