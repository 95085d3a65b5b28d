"""Alternating ridge fits of the CP factors.

Each factor row has a closed-form update: accumulate the ridge normal
equations from the observed cells that touch the row (outer products of
the hadamard of the other two factors' rows), solve the small r x r
system, then project onto the nonnegative norm-capped feasible set.
A sweep updates all home rows, then all appliance rows, then all season
rows, rebuilding the sufficient statistics from the current factors
before each block family.

The tensor is small and dense, so the normal equations are matrix
products of the matricized 0/1 observation mask W_(1) (M x N*T) and the
matricized masked readings XW_(1) with the factors, not scatters over the
observed cells (Kolda & Bader, Tensor Decompositions and Applications,
SIAM Review 2009).  With Z = khatri_rao(A, S), whose row j*T + k is
a_j o s_k, home row i gets lambda I + (W_(1) @ rows(z z^T))[i] and the
rhs (XW_(1) @ Z)[i].  After the home update, one contraction over homes,
V = rows(h h^T)^T @ W_(1) and U = H^T @ XW_(1), serves the other two
families: appliance rows contract V and U over months with rows(s s^T)
and S, season rows contract them over appliances with rows(a a^T) and A.

Only the columns of W_(1) that hold an observation enter these products
(tensor_core.masked_readings): a monthly simulation sees no month after
the current one, so most (appliance, month) columns are empty.  Z keeps
the matching rows, V and U are scattered back into zero arrays, and the
objective's residual covers the same columns.  Dropping all-zero columns
drops only exact zeros, so only the summation order changes.

Past the condition guard, rank 1 and rank 2 families are solved in
closed form (a division; the adjugate over the determinant), which on a
1000-row stack is several times faster than the batched LAPACK solve.
Rank 3 and above keep LAPACK: a vectorized elimination was slower than
it on the small stacks those ranks meet here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .tensor_core import (EnergyTensor, LatentFactors, ModelConfig, ObservationSet,
                          masked_loss, masked_readings, support_rows)

log = logging.getLogger(__name__)

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class SufficientStats:
    """Per-row ridge normal equations for all three factor families.

    Precisions are stacked r x r matrices (lambda*I plus accumulated
    outer products, hence symmetric positive definite); rhs vectors are
    the matching weighted sums.
    """

    home_precision: np.ndarray   # (M, r, r)
    home_rhs: np.ndarray         # (M, r)
    app_precision: np.ndarray    # (N, r, r)
    app_rhs: np.ndarray          # (N, r)
    season_precision: np.ndarray  # (T, r, r)
    season_rhs: np.ndarray       # (T, r)


@dataclass(frozen=True)
class FitReport:
    sweeps_run: int
    objective_trace: tuple
    converged: bool


def resolve_caps(tensor: EnergyTensor, config: ModelConfig) -> tuple:
    """Row-norm caps (P, Q, R): configured values, or derived from data."""
    if config.norm_caps is not None:
        return config.norm_caps
    peak = float(tensor.readings.max()) if tensor.readings.size else 1.0
    cap = 10.0 * max(peak, 1.0) ** (1.0 / 3.0)
    return (cap, cap, cap)


def init_factors(tensor: EnergyTensor, config: ModelConfig, caps: tuple) -> LatentFactors:
    """Seeded random factors, each row uniform on (0, 1]^r rescaled to norm cap/2."""
    rng = np.random.default_rng(config.seed)
    mats = []
    dims = (tensor.num_homes, tensor.num_appliances, tensor.num_months)
    for n, cap in zip(dims, caps):
        m = 1.0 - rng.random((n, config.rank))
        m *= (cap / 2.0) / np.linalg.norm(m, axis=1, keepdims=True)
        mats.append(m)
    return LatentFactors(H=mats[0], A=mats[1], S=mats[2], rank=config.rank)


def _outer_rows(mat):
    """Row-wise outer products, flattened: (n, r) -> (n, r*r)."""
    r = mat.shape[1]
    return (mat[:, :, None] * mat[:, None, :]).reshape(mat.shape[0], r * r)


def _with_ridge(flat, lam, r):
    """(n, r*r) accumulated outer products -> (n, r, r) precisions lam*I + G."""
    return flat.reshape(-1, r, r) + lam * np.eye(r)


def _home_family(W, XW, Z, lam):
    """lam*I + W_(1) @ rows(z z^T) and XW_(1) @ Z over the observed columns,
    with Z the matching rows of khatri_rao(A, S)."""
    return _with_ridge(W @ _outer_rows(Z), lam, Z.shape[1]), XW @ Z


def _home_contractions(W, XW, cols, H, N, T):
    """(V, U) = (rows(h h^T)^T @ W_(1), H^T @ XW_(1)), scattered from the
    observed columns into zero (r*r, N, T) and (r, N, T) arrays.

    Both depend on H alone, so the appliance and season updates of one
    sweep share them.
    """
    M, r = H.shape
    Ht = np.ascontiguousarray(H.T)
    V = np.zeros((r * r, N * T))
    U = np.zeros((r, N * T))
    # rows(h h^T)^T built from H^T: a third of the cost of _outer_rows(H).T
    V[:, cols] = (Ht[:, None, :] * Ht[None, :, :]).reshape(r * r, M) @ W
    U[:, cols] = Ht @ XW
    return V.reshape(r * r, N, T), U.reshape(r, N, T)


def _app_family(V, U, S, lam):
    """Contract V and U over months with rows(s s^T) and S."""
    return (_with_ridge(np.einsum("qjk,kq->jq", V, _outer_rows(S)), lam, S.shape[1]),
            np.einsum("pjk,kp->jp", U, S))


def _season_family(V, U, A, lam):
    """Contract V and U over appliances with rows(a a^T) and A."""
    return (_with_ridge(np.einsum("qjk,jq->kq", V, _outer_rows(A)), lam, A.shape[1]),
            np.einsum("pjk,jp->kp", U, A))


def accumulate_stats(tensor: EnergyTensor, omega: ObservationSet,
                     factors: LatentFactors, config: ModelConfig) -> SufficientStats:
    """Build all three families of normal equations from the same factors."""
    omega.check_bounds(tensor)
    H, A, S = factors.H, factors.A, factors.S
    W, XW, cols = masked_readings(tensor, omega)
    hp, hr = _home_family(W, XW, support_rows(A, S, cols), config.lambda1)
    V, U = _home_contractions(W, XW, cols, H, len(A), len(S))
    ap, ar = _app_family(V, U, S, config.lambda2)
    sp, sr = _season_family(V, U, A, config.lambda3)
    return SufficientStats(home_precision=hp, home_rhs=hr,
                           app_precision=ap, app_rhs=ar,
                           season_precision=sp, season_rhs=sr)


def solve_block(precision, rhs, prior_term=None, lambda_for_prior: float = 0.0):
    """Solve one row subproblem: precision^-1 (rhs + lambda_for_prior * prior)."""
    precision = np.asarray(precision, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    cond = np.linalg.cond(precision)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NumericalError(f"precision matrix condition {cond:.3e} exceeds "
                             f"{CONDITION_LIMIT:.0e}")
    b = rhs if prior_term is None else rhs + lambda_for_prior * np.asarray(prior_term, dtype=float)
    try:
        return np.linalg.solve(precision, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc


def _solve_family(precision, rhs, lam: float):
    """Solve a stack of lambda*I + G systems, G PSD, behind the condition guard.

    Every eigenvalue of lambda*I + G lies in [lambda, trace - (r-1)*lambda],
    so when that ratio is within CONDITION_LIMIT the SVD behind
    np.linalg.cond is skipped; otherwise the exact condition decides.
    Past the guard, r = 1 and r = 2 are solved in closed form (a division,
    the adjugate over the determinant) and larger r by LAPACK.
    """
    r = precision.shape[-1]
    bound = np.inf
    if lam > 0:
        traces = np.einsum("nii->n", precision)  # np.trace is 3x slower here
        bound = (traces.max(initial=0.0) - (r - 1) * lam) / lam
    if not (np.isfinite(bound) and bound <= CONDITION_LIMIT):
        conds = np.linalg.cond(precision)
        worst = float(np.max(conds)) if conds.size else 1.0
        if not np.isfinite(worst) or worst > CONDITION_LIMIT:
            raise NumericalError(f"precision matrix condition {worst:.3e} exceeds "
                                 f"{CONDITION_LIMIT:.0e}")
    if r == 1:
        return rhs / precision[:, :, 0]
    if r == 2:
        a, b = precision[:, 0, 0], precision[:, 0, 1]
        c, d = precision[:, 1, 0], precision[:, 1, 1]
        u, v = rhs[:, 0], rhs[:, 1]
        x = np.empty_like(rhs)
        x[:, 0] = d * u - b * v
        x[:, 1] = a * v - c * u
        x /= (a * d - b * c)[:, None]
        return x
    try:
        return np.linalg.solve(precision, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc


def project(v, cap: float):
    """Clamp negatives to zero, then rescale onto the norm-cap ball."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    out = np.maximum(np.asarray(v, dtype=float), 0.0)
    norm = np.linalg.norm(out)
    if norm > cap:
        out = out * (cap / norm)
    return out


def _project_rows(mat, cap):
    out = np.maximum(mat, 0.0)
    norms = np.linalg.norm(out, axis=1)
    scale = np.where(norms > cap, cap / np.where(norms > 0, norms, 1.0), 1.0)
    return out * scale[:, None]


DEAD_COLUMN_RTOL = 1e-5


def _dead_columns(mat) -> np.ndarray:
    """Columns so small relative to the largest that their component is
    numerically gone (and about to make the next precision singular)."""
    norms = np.linalg.norm(mat, axis=0)
    peak = norms.max()
    if peak == 0.0:
        return np.ones(mat.shape[1], dtype=bool)
    return norms <= DEAD_COLUMN_RTOL * peak


def _revive_columns(mat, fresh_mat) -> bool:
    """Reseed dead columns in place; True when anything changed.

    A component with a (near-)zero column in any factor matrix is a
    fixed point of the updates: its rank-1 designs vanish, every solve
    returns zero for it, and no amount of new readings can move it.  It
    also drives the precision condition number through the guard.
    Reseeding from the fit's deterministic fresh init breaks the trap.
    """
    dead = _dead_columns(mat)
    if not dead.any():
        return False
    mat[:, dead] = fresh_mat[:, dead]
    return True


def _revive_dead_components(factors: LatentFactors, fresh: LatentFactors) -> LatentFactors:
    """Warm-start variant of the column revival, returning new factors."""
    H, A, S = factors.H.copy(), factors.A.copy(), factors.S.copy()
    changed = False
    for mat, fresh_mat in ((H, fresh.H), (A, fresh.A), (S, fresh.S)):
        changed |= _revive_columns(mat, fresh_mat)
    if not changed:
        return factors
    return LatentFactors(H=H, A=A, S=S, rank=factors.rank)


def fit(tensor: EnergyTensor, omega: ObservationSet, config: ModelConfig,
        season_prior: np.ndarray | None = None,
        warm_start: LatentFactors | None = None):
    """Coordinate-descent fit; returns (factors, stats, report).

    Sweeps stop when the relative objective change drops below
    ``config.tol`` or after ``config.max_sweeps``; stopping at the cap
    logs one INFO line.  The returned stats are rebuilt from the final
    factors.
    """
    omega.check_observed(tensor)
    caps = resolve_caps(tensor, config)
    P, Q, R = caps
    if season_prior is not None:
        season_prior = np.asarray(season_prior, dtype=float)
        if season_prior.shape != (tensor.num_months, config.rank):
            raise ValueError("season_prior must be (months, rank)")
    fresh = init_factors(tensor, config, caps)
    revivals_allowed = len(omega) > 0
    if warm_start is not None:
        if warm_start.rank != config.rank:
            raise ValueError("warm_start rank does not match config.rank")
        factors = _revive_dead_components(warm_start, fresh) if revivals_allowed \
            else warm_start
    else:
        factors = fresh

    W, XW, cols = masked_readings(tensor, omega)
    H, A, S = factors.H, factors.A, factors.S
    N, T = len(A), len(S)
    Z = support_rows(A, S, cols)

    trace = []
    converged = False
    sweeps = 0
    for sweep in range(config.max_sweeps):
        sweeps = sweep + 1
        revived = False
        hp, hr = _home_family(W, XW, Z, config.lambda1)
        H = _project_rows(_solve_family(hp, hr, config.lambda1), P)
        if revivals_allowed:
            revived |= _revive_columns(H, fresh.H)
        V, U = _home_contractions(W, XW, cols, H, N, T)
        ap, ar = _app_family(V, U, S, config.lambda2)
        A = _project_rows(_solve_family(ap, ar, config.lambda2), Q)
        if revivals_allowed:
            revived |= _revive_columns(A, fresh.A)
        sp, sr = _season_family(V, U, A, config.lambda3)
        if season_prior is not None:
            sr = sr + config.lambda3 * season_prior
        S = _project_rows(_solve_family(sp, sr, config.lambda3), R)
        if revivals_allowed:
            revived |= _revive_columns(S, fresh.S)

        # the objective's rows of khatri_rao(A, S) are the next sweep's
        Z = support_rows(A, S, cols)
        obj = masked_loss(W, XW, Z, H, A, S, config, season_prior)
        trace.append(obj)
        if sweep >= 1 and not revived:
            prev = trace[-2]
            if abs(prev - obj) <= config.tol * max(abs(prev), 1e-12):
                converged = True
                break

    if not converged:
        change = (abs(trace[-2] - trace[-1]) / max(abs(trace[-2]), 1e-12)
                  if len(trace) > 1 else float("nan"))
        log.info("fit stopped after max_sweeps=%d sweeps without reaching tol=%g; "
                 "last relative objective change %.3e", sweeps, config.tol, change)

    final = LatentFactors(H=H, A=A, S=S, rank=config.rank)
    stats = accumulate_stats(tensor, omega, final, config)
    return final, stats, FitReport(sweeps_run=sweeps, objective_trace=tuple(trace),
                                   converged=converged)

