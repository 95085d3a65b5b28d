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
the matching rows, V and U are written into the observed columns of
buffers that stay zero elsewhere for the whole fit (through one flat
index per buffer, built at the fit's start), and the objective's
residual covers the same columns.  Dropping all-zero columns drops only
exact zeros, so only the summation order changes.

The sweep runs on a member axis: factors are (n, B, R) stacks of B fits
that share the observations, zero-padded to the largest rank R.  The
products with W_(1) and XW_(1) above take every member's columns at
once, and each family is one solve and projection over the (n*B, R, R)
stack.  The padding's ridge diagonal is lambda (1 where lambda is 0) and
its rhs is zero, so padded columns solve to exact zeros; revival never
reseeds them, and each member's dead-column test reads its own columns.
Each member has its own warm start (or a cold start from its seed) and
its own season prior (a zero prior where it has none, which adds exact
zeros).  The objective is one pass over the stack: a (B, C, M) residual,
in the layout of the C-contiguous (C, M) arrays whose .T views are
W_(1) and XW_(1) (tensor_core.masked_readings), so that masking it and
subtracting the readings run contiguous, reduced per member by one
r @ r^T.  It feeds only the convergence test and the objective trace; no
factor reads it.  Each member keeps its own convergence test against the
shared tol.  The stack keeps one shape for the whole fit: a member that
converges (or reaches the shared max_sweeps) takes its
result at that sweep, what its own fit would give, and its rows sweep
on, unrecorded, until every member has one.  fit is the one-member case
(every reshape a view, the same products as a lone fit).  A
query-by-committee month is one fit_committee call: the month's
warm-started model is member 0, the cold committee members follow.  Dead
columns are reseeded at a fit's start, and after a family update only
where the guard's trace bound cannot vouch for it (_revive_columns).

The condition guard's trace bound is checked once per fit, at its start,
where it can be shown to hold for the whole fit (_fit_trace_bounds).
Every row of family f keeps its norm within rho_f for the whole fit: a
solved row is projected within cap_f, a start row is as given, and a
reseed swaps some of a row's columns for a fresh init's, so rho_f^2 =
max(cap_f^2, largest start row norm^2) + largest fresh-init row norm^2.
As |a o s|^2 <= |a|^2 |s|^2, a family's precision trace is at most
R*lambda + n_max * rho_o1^2 * rho_o2^2, n_max being the most observed
cells of any of its rows (o1, o2 the other two families).  A
family with 1 + n_max * rho_o1^2 * rho_o2^2 / lambda within
CONDITION_LIMIT / 2 skips the per-update check for the whole fit, and so
never revives mid-fit.  The others (lambda = 0, or lambda tiny against
the readings) take the check once per update, and its verdict serves
both the guard and the revival rule.

Past the condition guard, rank 1 and rank 2 families are solved in
closed form (a division; the adjugate over the determinant), which on a
1000-row stack is several times faster than the batched LAPACK solve.
Rank 3 and above keep LAPACK: a vectorized elimination was slower than
it on the small stacks those ranks meet here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NumericalError
from .tensor_core import (EnergyTensor, LatentFactors, ModelConfig, ObservationSet,
                          masked_losses, masked_readings, support_rows)

log = logging.getLogger(__name__)

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class SufficientStats:
    """Per-row ridge precisions of the home and appliance factors, the two
    that shape a pair's confidence ellipsoid.

    Each is a stack of r x r matrices, lambda*I plus the accumulated outer
    products, hence symmetric positive definite.
    """

    home_precision: np.ndarray   # (M, r, r)
    app_precision: np.ndarray    # (N, r, r)


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


def _stack(mats, R: int) -> np.ndarray:
    """(n, B, R) stack of B member factor matrices, zero-padded to R columns."""
    out = np.zeros((len(mats[0]), len(mats), R))
    for b, m in enumerate(mats):
        out[:, b, :m.shape[1]] = m
    return out


def _outer_rows(mat):
    """Row-wise outer products per member, flattened: (n, B, R) -> (n, B*R*R)."""
    n, B, R = mat.shape
    return (mat[..., :, None] * mat[..., None, :]).reshape(n, B * R * R)


def _flat(mat):
    """(n, B, R) -> (n, B*R), a view."""
    return mat.reshape(mat.shape[0], mat.shape[1] * mat.shape[2])


def _ridges(lams, active):
    """Ridge blocks lambda*I of the home, appliance and season families,
    each flattened like _outer_rows: (3, B*R*R).  A member's padding
    columns get lambda too (1 where lambda is 0), so they solve to exact
    zeros."""
    lams = np.asarray(lams, dtype=float)[:, None, None]
    diag = np.where(active, lams, np.where(lams > 0, lams, 1.0))
    return (diag[..., None] * np.eye(active.shape[1])).reshape(3, -1)


def _precision(contract, X, F, ridge):
    """ridge + contract(X, rows(f f^T)) as (n*B, R, R) precisions, one per
    (row, member), for a (rows, B, R) stack F of the other factors' rows."""
    out = contract(X, _outer_rows(F))
    out += ridge
    return out.reshape(-1, F.shape[2], F.shape[2])


def _rhs(contract, X, F):
    """contract(X, F) as (n*B, R) right-hand sides."""
    return contract(X, _flat(F)).reshape(-1, F.shape[2])


# a (K, N, T) home contraction contracted over months with a (T, K) F,
# or over appliances with an (N, K) F
_over_months = partial(np.einsum, "qjk,kq->jq")
_over_appliances = partial(np.einsum, "qjk,jq->kq")


def _column_index(cols, K: int, NT: int) -> np.ndarray:
    """Flat indices of the observed columns ``cols`` in each of the K rows
    of a (K, N*T) buffer, row by row: _over_homes' scatter target."""
    return (np.arange(K)[:, None] * NT + cols).ravel()


def _over_homes(X, Ft, flat, buffer):
    """Ft @ X for a (K, M) Ft and X = W_(1) or XW_(1), written into the
    observed columns of a zero (K, N, T) ``buffer`` at its flat indices
    ``flat`` (_column_index) and returned as it; the rest stays zero, so
    one buffer and one index serve every sweep of a fit."""
    buffer.reshape(-1)[flat] = (Ft @ X).ravel()
    return buffer


def _outer_rows_t(Ht):
    """rows(h h^T)^T per member, (B*R*R, M), from the contiguous (B, R, M)
    transpose Ht of an (M, B, R) stack H: a third of the cost of
    _outer_rows(H).T."""
    return (Ht[:, :, None, :] * Ht[:, None, :, :]).reshape(-1, Ht.shape[2])


def accumulate_stats(tensor: EnergyTensor, omega: ObservationSet,
                     factors: LatentFactors, config: ModelConfig) -> SufficientStats:
    """The home and appliance precisions of ``factors``, by the sweep's
    own products."""
    H, A, S = (m[:, None, :] for m in (factors.H, factors.A, factors.S))
    r = factors.rank
    ridges = _ridges((config.lambda1, config.lambda2, config.lambda3),
                     np.ones((1, r), dtype=bool))
    W, _, cols = masked_readings(tensor, omega)
    V = _over_homes(W, _outer_rows_t(np.ascontiguousarray(H.transpose(1, 2, 0))),
                    _column_index(cols, r * r, len(A) * len(S)),
                    np.zeros((r * r, len(A), len(S))))
    return SufficientStats(
        home_precision=_precision(np.matmul, W, support_rows(A, S, cols), ridges[0]),
        app_precision=_precision(_over_months, V, S, ridges[1]))


def _beyond_trace_bound(precision, lam: float) -> bool:
    """Whether the trace bound cannot vouch for a stack of lambda*I + G,
    G PSD.  Every eigenvalue lies in [lambda, trace - (r-1)*lambda], so
    where that ratio stays within CONDITION_LIMIT over the stack, so does
    every condition.  Padding a member from r to R adds (R-r)*lambda to
    its trace and to what is subtracted: its bound is unchanged.  With
    lambda = 0 the bound never vouches.

    A fit calls it only for the families whose fit-start bound
    (_fit_trace_bounds) exceeds CONDITION_LIMIT / 2, once per update; for
    the others it would be False on every stack of the fit."""
    if lam <= 0:
        return True
    traces = np.einsum("nii->n", precision)  # np.trace is 3x slower here
    bound = (traces.max(initial=0.0) - (precision.shape[-1] - 1) * lam) / lam
    return not bound <= CONDITION_LIMIT


def _max_row_norm2(mat) -> float:
    """The largest squared row norm in an (n, B, R) stack (0 when empty)."""
    return float(np.einsum("nbr,nbr->nb", mat, mat).max(initial=0.0))


def _fit_trace_bounds(W, split, stacks, fresh, caps, lams) -> list:
    """Per family (H, A, S), a bound, taken at a fit's start, on the ratio
    (trace - (R-1)*lambda) / lambda that _beyond_trace_bound reads on any
    of that family's precision stacks in the fit: 1 + n_max * rho_o1^2 *
    rho_o2^2 / lambda, as the module docstring derives it; inf where
    lambda is 0.  ``W`` and ``split`` = divmod(cols, T) are the fit's
    observed columns, ``stacks`` its (n, B, R) start stacks and ``fresh``
    its fresh inits.
    """
    j, k = split
    per_col = W.sum(axis=0)
    n_max = [W.sum(axis=1).max(initial=0.0),
             np.bincount(j, per_col, len(stacks[1])).max(initial=0.0),
             np.bincount(k, per_col, len(stacks[2])).max(initial=0.0)]
    rho2 = [max(cap * cap, _max_row_norm2(m)) + _max_row_norm2(f)
            for m, f, cap in zip(stacks, fresh, caps)]
    return [1.0 + n * rho2[(f + 1) % 3] * rho2[(f + 2) % 3] / lam if lam > 0 else np.inf
            for f, (n, lam) in enumerate(zip(n_max, lams))]


def _solve_family(precision, rhs, lam: float, ranks=None, beyond=None):
    """Solve a stack of lambda*I + G systems, G PSD, behind the condition guard.

    Where the trace bound vouches for the stack the SVD behind
    np.linalg.cond is skipped; otherwise the exact condition decides.
    ``beyond`` is the caller's verdict of _beyond_trace_bound(precision,
    lam), or None to take it here.
    Past the guard, r = 1 and r = 2 are solved in closed form (a division,
    the adjugate over the determinant) and larger r by LAPACK.

    ``ranks`` gives the member ranks of a padded (rows * B, R, R) stack
    (by default one member of rank R).  A member's exact condition is
    taken over its own r x r block: the padding's eigenvalue lambda is at
    most the block's smallest, so the padded matrix's condition can exceed
    the member's.
    """
    r = precision.shape[-1]
    if beyond is None:
        beyond = _beyond_trace_bound(precision, lam)
    if beyond:
        ranks = ranks or [r]
        blocks = precision.reshape(-1, len(ranks), r, r)
        conds = np.concatenate([np.linalg.cond(blocks[:, b, :k, :k])
                                for b, k in enumerate(ranks)])
        worst = float(np.max(conds)) if conds.size else 1.0
        if not np.isfinite(worst) or worst > CONDITION_LIMIT:
            raise NumericalError(f"precision matrix condition {worst:.3e} exceeds "
                                 f"{CONDITION_LIMIT:.0e}")
    if r == 1:
        return rhs / precision[:, :, 0]
    if r == 2:
        # rows (a, b, c, d) of [[a, b], [c, d]]: x = (d u - b v, a v - c u) / (a d - b c)
        p = precision.reshape(-1, 4)
        x = p[:, 3::-3] * rhs
        x -= p[:, 1:3] * rhs[:, ::-1]
        x /= (p[:, 0] * p[:, 3] - p[:, 1] * p[:, 2])[:, None]
        return x
    try:
        return np.linalg.solve(precision, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc


def _project_rows(mat, cap):
    """Clamp negatives to zero, then rescale each row onto the norm-cap ball."""
    out = np.maximum(mat, 0.0)
    # einsum row norms: under half the time of np.linalg.norm(axis=1)
    norms = np.sqrt(np.einsum("ij,ij->i", out, out))
    # cap / cap is exactly 1: rows within the cap are left as they are
    out *= (cap / np.maximum(norms, cap))[:, None]
    return out


DEAD_COLUMN_RTOL = 1e-5


def _dead_columns(mat, active) -> np.ndarray:
    """(B, R) mask of the columns of an (n, B, R) stack so small relative
    to their member's largest that their component is numerically gone;
    all of a member's columns when its largest is 0.  Padding columns are
    zero, so they never raise a member's peak, and ``active`` keeps them
    from counting as dead."""
    flat = _flat(mat)
    norms = np.sqrt(np.einsum("ij,ij->j", flat, flat)).reshape(active.shape)
    return active & (norms <= DEAD_COLUMN_RTOL * norms.max(axis=1, keepdims=True))


def _revive_columns(mat, fresh_mat, active) -> list:
    """Reseed the dead columns of an (n, B, R) stack in place from the
    fit's deterministic fresh init; returns the positions of the members
    that had one.

    A component with a (near-)zero column in any factor matrix is a
    fixed point of the updates: its rank-1 designs vanish, every solve
    returns zero for it, and no amount of new readings can move it.

    The rule: a fit revives its three factor stacks once, at its start,
    where a warm start may carry a dead column (for a cold start, a
    no-op).  After a family update it revives only where the trace bound
    could not vouch for that family's solve (lambda = 0, or lambda tiny
    against the readings): there a dead column's eigenvalue lambda can
    fail the condition guard.  Elsewhere none is made, since a mid-fit
    reseed makes the result hang on float summation order.  A family
    whose fit-start bound (_fit_trace_bounds) is within CONDITION_LIMIT / 2
    is vouched for at every update, so it never revives mid-fit; that
    bound counts a reseeded column's fresh row norm in rho_f.
    """
    dead = _dead_columns(mat, active)
    flat_dead = dead.ravel()
    if not flat_dead.any():
        return []
    _flat(mat)[:, flat_dead] = _flat(fresh_mat)[:, flat_dead]
    return np.flatnonzero(dead.any(axis=1)).tolist()


def _member_report(trace, converged: bool, config: ModelConfig) -> FitReport:
    """The member's FitReport; stopping at the cap logs one INFO line."""
    if not converged:
        change = (abs(trace[-2] - trace[-1]) / max(abs(trace[-2]), 1e-12)
                  if len(trace) > 1 else float("nan"))
        log.info("rank-%d fit stopped after max_sweeps=%d sweeps without reaching "
                 "tol=%g; last relative objective change %.3e",
                 config.rank, len(trace), config.tol, change)
    return FitReport(sweeps_run=len(trace), objective_trace=tuple(trace),
                     converged=converged)


def _checked_priors(tensor, configs, warm_starts, season_priors) -> np.ndarray:
    """The members' season priors as one zero-padded (T, B, R) stack, after
    checking each prior's shape and each warm start's rank.  A missing
    prior is a zero prior on the same path: its member's rows stay 0."""
    stack = np.zeros((tensor.num_months, len(configs), max(c.rank for c in configs)))
    for b, (cfg, warm, given) in enumerate(zip(configs, warm_starts, season_priors,
                                               strict=True)):
        if warm is not None and warm.rank != cfg.rank:
            raise ValueError("warm_start rank does not match config.rank")
        if given is not None:
            given = np.asarray(given, dtype=float)
            if given.shape != (tensor.num_months, cfg.rank):
                raise ValueError("season_prior must be (months, rank)")
            stack[:, b, :cfg.rank] = given
    return stack


def fit_committee(tensor: EnergyTensor, omega: ObservationSet, configs,
                  warm_starts=None, season_priors=None) -> list:
    """Fit every config in one stacked call; [(factors, report)] in order.

    The members share the observations, lambdas, norm caps, ``max_sweeps``
    and ``tol``, and may differ in rank and seed.  ``warm_starts``
    and ``season_priors`` hold one entry per member (None: a cold start
    from the member's seed, or no prior); None for either list means
    None for every member.  A missing prior is a zero prior on the same
    path (lambda * 0 added to the season rhs, 0 subtracted in the
    objective), bit-identical to ``np.zeros((T, rank))``.  Each member's
    factors, objective trace and report are those of its own :func:`fit`
    up to summation order (ranks below the largest are solved padded, so
    by LAPACK rather than in closed form).  A mid-fit revival can amplify
    that difference; by the rule in :func:`_revive_columns` one happens
    only where the trace bound cannot vouch for a family's solve.
    A member that has its result keeps sweeping on the stack until the
    last one does, so its later sweeps still pass the condition guard;
    with lambda > 0 its trace bound stays far below CONDITION_LIMIT.
    The sufficient stats are not built.
    """
    configs = list(configs)
    if warm_starts is None:
        warm_starts = [None] * len(configs)
    if season_priors is None:
        season_priors = [None] * len(configs)
    prior = _checked_priors(tensor, configs, warm_starts, season_priors)
    W, XW, cols = masked_readings(tensor, omega)
    base = configs[0]
    for name in ("lambda1", "lambda2", "lambda3", "norm_caps", "max_sweeps", "tol"):
        if len({getattr(c, name) for c in configs}) != 1:
            raise ValueError(f"committee members must share {name}")
    lams = (base.lambda1, base.lambda2, base.lambda3)
    caps = resolve_caps(tensor, base)
    ranks = [c.rank for c in configs]
    R = max(ranks)
    active = np.arange(R) < np.array(ranks)[:, None]
    inits = [init_factors(tensor, c, caps) for c in configs]
    fresh = [_stack([getattr(f, name) for f in inits], R) for name in "HAS"]
    starts = [f if w is None else w for w, f in zip(warm_starts, inits)]
    H, A, S = (_stack([getattr(f, name) for f in starts], R) for name in "HAS")
    for mat, fresh_mat in zip((H, A, S), fresh):
        _revive_columns(mat, fresh_mat, active)
    prior_rhs = (lams[2] * prior).reshape(-1, R)   # the season rhs's prior term
    # support_rows(A, S, cols) is A[j] * S[k]: its index split, once per fit
    j, k = np.divmod(cols, len(S))
    # the families whose every solve the trace bound vouches for: they skip
    # the per-update check (and so never revive mid-fit); the /2 is a
    # margin for rounding
    vouched = [bound <= CONDITION_LIMIT / 2 for bound in
               _fit_trace_bounds(W, (j, k), (H, A, S), fresh, caps, lams)]

    ridges = _ridges(lams, active)
    sizes = (len(configs) * R * R, len(configs) * R)   # the rows of V and of U
    V, U = (np.zeros((K, len(A), len(S))) for K in sizes)
    flat_v, flat_u = (_column_index(cols, K, len(A) * len(S)) for K in sizes)
    Z = A[j] * S[k]
    traces = [[] for _ in configs]
    results = [None] * len(configs)

    def update(family, precision, rhs):
        """Family 0, 1 or 2 (H, A, S) solved and projected as an (n, B, R) stack."""
        lam = lams[family]
        beyond = not vouched[family] and _beyond_trace_bound(precision, lam)
        mat = _project_rows(_solve_family(precision, rhs, lam, ranks, beyond),
                            caps[family]).reshape(-1, len(configs), R)
        if beyond:  # see _revive_columns
            revived.update(_revive_columns(mat, fresh[family], active))
        return mat

    for sweep in range(base.max_sweeps):
        revived = set()
        H = update(0, _precision(np.matmul, W, Z, ridges[0]), _rhs(np.matmul, XW, Z))
        Ht = np.ascontiguousarray(H.transpose(1, 2, 0))   # also U's H^T
        V = _over_homes(W, _outer_rows_t(Ht), flat_v, V)
        U = _over_homes(XW, Ht.reshape(-1, len(H)), flat_u, U)
        A = update(1, _precision(_over_months, V, S, ridges[1]), _rhs(_over_months, U, S))
        sp, sr = _precision(_over_appliances, V, A, ridges[2]), _rhs(_over_appliances, U, A)
        # in place: a new array would change sr's layout, and with it the
        # summation order of the solve and projection that follow
        sr += prior_rhs
        S = update(2, sp, sr)

        # the objective's rows of khatri_rao(A, S) are the next sweep's
        Z = A[j] * S[k]
        # H as a view of Ht, so the residual product reads Ht contiguous
        losses = masked_losses(W, XW, Z, Ht.transpose(2, 0, 1), A, S, base, prior)
        for b, (r, trace) in enumerate(zip(ranks, traces)):
            if results[b] is not None:
                continue
            trace.append(float(losses[b]))
            converged = (sweep >= 1 and b not in revived
                         and abs(trace[-2] - trace[-1]) <= base.tol * max(abs(trace[-2]), 1e-12))
            if converged or sweep == base.max_sweeps - 1:
                factors = LatentFactors(H=H[:, b, :r], A=A[:, b, :r], S=S[:, b, :r], rank=r)
                results[b] = (factors, _member_report(trace, converged, configs[b]))
        if all(results):
            break
    return results


def fit(tensor: EnergyTensor, omega: ObservationSet, config: ModelConfig,
        season_prior: np.ndarray | None = None,
        warm_start: LatentFactors | None = None):
    """Coordinate-descent fit; returns (factors, stats, report).

    Sweeps stop when the relative objective change drops below
    ``config.tol`` or after ``config.max_sweeps``; stopping at the cap
    logs one INFO line.  The returned stats are rebuilt from the final
    factors.  The fit is :func:`fit_committee` with one member.
    """
    (final, report), = fit_committee(tensor, omega, [config], [warm_start],
                                     [season_prior])
    return final, accumulate_stats(tensor, omega, final, config), report
