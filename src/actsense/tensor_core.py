"""Energy tensor data model, CP factors and the masked objective.

The tensor is dense: ``readings`` has shape (homes, appliances, months)
and a parallel boolean ``mask`` marks which cells exist as ground truth.
One appliance slice is the per-home monthly bill (the "aggregate"); it
is always available and by convention sits at index 0 when built by the
ingestion path.  Which cells the model is allowed to see at a given
point of a simulation is a second boolean mask of the same shape, held
by :class:`ObservationSet`.  Cell (i, j, k) of the CP model is
sum_d H[i, d] A[j, d] S[k, d], computed a matrix at a time through
:func:`khatri_rao` by :meth:`LatentFactors.reconstruct` and the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


def _frozen_array(a, dtype=float):
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _rebuilt(obj):
    """``__reduce__`` through the constructor, so that an unpickled copy
    (a value that crossed a process pool) is checked and frozen again."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


@dataclass(frozen=True)
class EnergyTensor:
    """Dense homes x appliances x months kWh readings with availability mask."""

    readings: np.ndarray = field(compare=False)
    mask: np.ndarray = field(compare=False)
    appliance_names: tuple
    aggregate_index: int = 0

    def __post_init__(self):
        readings = _frozen_array(self.readings)
        mask = _frozen_array(self.mask, dtype=bool)
        if readings.ndim != 3:
            raise ValueError(f"readings must be 3-D, got shape {readings.shape}")
        if mask.shape != readings.shape:
            raise ValueError("mask shape must match readings shape")
        if len(self.appliance_names) != readings.shape[1]:
            raise ValueError("appliance_names length must match appliance axis")
        if not 0 <= self.aggregate_index < readings.shape[1]:
            raise ValueError("aggregate_index out of range")
        if not np.all(np.isfinite(readings)):
            raise ValueError("readings must be finite")
        if np.any(readings < 0):
            raise ValueError("readings must be nonnegative kWh")
        if not mask[:, self.aggregate_index, :].all():
            raise ValueError("aggregate slice must be fully observed (monthly bills)")
        object.__setattr__(self, "readings", readings)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "appliance_names", tuple(self.appliance_names))

    __reduce__ = _rebuilt

    @property
    def num_homes(self) -> int:
        return self.readings.shape[0]

    @property
    def num_appliances(self) -> int:
        return self.readings.shape[1]

    @property
    def num_months(self) -> int:
        return self.readings.shape[2]

    def breakdown_indices(self) -> tuple:
        """Appliance indices excluding the aggregate pseudo-appliance."""
        return tuple(j for j in range(self.num_appliances) if j != self.aggregate_index)


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """The observed cells Ω as one frozen (homes, appliances, months)
    boolean ``mask``, copied on construction.

    ``np.nonzero(mask)`` lists the cells in ascending (home, appliance,
    month) order.
    """

    mask: np.ndarray

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        if mask.ndim != 3:
            raise ValueError(f"observation mask must be 3-D, got shape {mask.shape}")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    __reduce__ = _rebuilt

    @classmethod
    def empty(cls, shape) -> "ObservationSet":
        return cls(np.zeros(shape, dtype=bool))

    def union(self, triples) -> "ObservationSet":
        """A new set that also holds the (home, appliance, month) ``triples``.

        A cell already held is a no-op.  A malformed triple or an index
        outside the mask raises ValueError before anything is written.
        """
        cells = np.array(list(triples) or np.empty((0, 3)), dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != 3:
            raise ValueError("observations must be (home, appliance, month) triples")
        if (cells < 0).any() or (cells >= self.mask.shape).any():
            raise ValueError("observation set references an out-of-range cell")
        mask = self.mask.copy()
        mask[tuple(cells.T)] = True
        return ObservationSet(mask)

    def check_observed(self, tensor: EnergyTensor) -> None:
        if self.mask.shape != tensor.mask.shape:
            raise ValueError(f"observation mask shape {self.mask.shape} differs from "
                             f"the tensor's {tensor.mask.shape}")
        if (self.mask & ~tensor.mask).any():
            raise ValueError("observation set references a cell with no ground truth")

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


@dataclass(frozen=True)
class LatentFactors:
    """CP factor matrices: home (M x r), appliance (N x r), season (T x r)."""

    H: np.ndarray = field(compare=False)
    A: np.ndarray = field(compare=False)
    S: np.ndarray = field(compare=False)
    rank: int = 1

    def __post_init__(self):
        H, A, S = (_frozen_array(m) for m in (self.H, self.A, self.S))
        for name, m in (("H", H), ("A", A), ("S", S)):
            if m.ndim != 2 or m.shape[1] != self.rank:
                raise ValueError(f"{name} must be 2-D with {self.rank} columns")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "S", S)

    __reduce__ = _rebuilt

    def reconstruct(self) -> np.ndarray:
        """Full predicted tensor, shape (M, N, T)."""
        M, N, T = self.H.shape[0], self.A.shape[0], self.S.shape[0]
        return (self.H @ khatri_rao(self.A, self.S).T).reshape(M, N, T)

    def validate(self, caps, atol: float = 1e-9) -> None:
        """Check nonnegativity and row-norm caps (P, Q, R); raise otherwise."""
        for name, m, cap in (("H", self.H, caps[0]), ("A", self.A, caps[1]),
                             ("S", self.S, caps[2])):
            if np.any(m < -atol):
                raise ValueError(f"{name} has negative entries")
            norms = np.linalg.norm(m, axis=1)
            if np.any(norms > cap + atol):
                raise ValueError(f"{name} row norm exceeds cap {cap}")


@dataclass(frozen=True)
class ModelConfig:
    """Rank, ridge weights, feasibility caps and stopping rule for a fit.

    ``norm_caps`` of None means caps are derived from the data at fit
    time: all three equal 10 * cbrt(max observed reading), loose enough
    that a product of three capped rows can span the data range.
    """

    rank: int = 2
    lambda1: float = 5000.0
    lambda2: float = 5000.0
    lambda3: float = 5000.0
    norm_caps: tuple | None = None
    max_sweeps: int = 100
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("regularization coefficients must be >= 0")
        if self.norm_caps is not None:
            caps = tuple(float(c) for c in self.norm_caps)
            if len(caps) != 3 or min(caps) <= 0:
                raise ValueError("norm_caps must be three positive reals")
            object.__setattr__(self, "norm_caps", caps)
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


def derived_seed(*parts) -> int:
    """A seed drawn from the integers ``parts``: equal parts, equal seed."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def khatri_rao(U, V) -> np.ndarray:
    """Column-wise Kronecker product: row a * len(V) + b is U[a] * V[b]."""
    if U.shape[1] != V.shape[1]:
        raise ValueError(f"khatri_rao factors differ in columns: "
                         f"{U.shape[1]} and {V.shape[1]}")
    return (U[:, None, :] * V[None, :, :]).reshape(-1, U.shape[1])


def masked_objective(tensor: EnergyTensor, omega: ObservationSet,
                     factors: LatentFactors, config: ModelConfig,
                     season_prior: np.ndarray | None = None) -> float:
    """Squared-error loss over observed cells plus squared-norm ridge terms.

    The season regularizer penalizes distance from ``season_prior`` (rows
    aligned with the season factor matrix).  A missing prior is a zero
    prior on the same path, which gives plain norms.
    """
    prior = np.zeros_like(factors.S) if season_prior is None else \
        np.asarray(season_prior, dtype=float)
    if prior.shape != factors.S.shape:
        raise ValueError("season_prior shape must match the season factor matrix")
    W, XW, cols = masked_readings(tensor, omega)
    H, A, S, P = (m[:, None, :] for m in (factors.H, factors.A, factors.S, prior))
    return float(masked_losses(W, XW, support_rows(A, S, cols), H, A, S, config, P)[0])


def masked_readings(tensor: EnergyTensor, omega: ObservationSet):
    """(W, XW, cols): the observed columns of the matricized 0/1 mask.

    ``cols`` are the columns j*T + k of the (M, N*T) matricized
    ``omega.mask`` that hold at least one observed cell; ``W`` (as float)
    and ``XW`` = readings * W keep only those columns, shape
    (M, len(cols)).  Every other column is all zero and adds nothing to
    any contraction with the mask.  A mask whose shape differs from the
    tensor's, or that holds a cell with no ground truth, raises
    ValueError.

    Layout: ``W`` and ``XW`` are the ``.T`` views of C-contiguous
    (len(cols), M) arrays, built so here rather than left to numpy's
    fancy-indexing layout.  The objective's residual is built in that
    (C, M) layout, so its products with them run contiguous, and the
    BLAS products with ``W``/``XW`` see the same strides on every numpy
    (their bits depend on the operand's order).
    """
    omega.check_observed(tensor)
    M = tensor.num_homes
    mask_t = omega.mask.reshape(M, -1).T
    cols = np.flatnonzero(mask_t.any(axis=1))
    Wt = np.ascontiguousarray(mask_t[cols], dtype=float)
    XWt = np.ascontiguousarray(tensor.readings.reshape(M, -1).T[cols])
    XWt *= Wt
    return Wt.T, XWt.T, cols


def support_rows(A, S, cols) -> np.ndarray:
    """Rows ``cols`` of khatri_rao(A, S): row c is A[c // T] * S[c % T]."""
    j, k = np.divmod(cols, S.shape[0])
    return A[j] * S[k]


def masked_losses(W, XW, Z, H, A, S, config: ModelConfig,
                  season_prior: np.ndarray) -> np.ndarray:
    """The objective of :func:`masked_objective` for each member of the
    (n, B, r) factor stacks ``H, A, S``, shape (B,), from the observed
    columns ``W, XW`` of :func:`masked_readings` and
    ``Z = support_rows(A, S, cols)``.  The members share the lambdas of
    ``config``; zero padding columns add nothing.  A missing prior is a
    zero prior on the same path: zeros in that member's ``season_prior``.

    The residual is (B, C, M), in the layout of ``W.T`` and ``XW.T``
    (C-contiguous, see :func:`masked_readings`), so masking it and
    subtracting the readings are contiguous passes; each member's sum of
    squares is one r @ r^T over its flattened residual.  The product reads
    ``H.transpose(1, 2, 0)``, which is contiguous when ``H`` is the
    ``transpose(2, 0, 1)`` view of a C-contiguous (B, r, n) stack."""
    resid = np.matmul(Z.transpose(1, 0, 2), H.transpose(1, 2, 0))  # (B, C, M)
    resid *= W.T
    resid -= XW.T
    flat = resid.reshape(len(resid), 1, -1)
    # each ridge term lambda |F|^2 as |sqrt(lambda) F|^2, all three in one reduction
    ridged = np.concatenate([H * config.lambda1 ** 0.5, A * config.lambda2 ** 0.5,
                             (S - season_prior) * config.lambda3 ** 0.5])
    return (np.matmul(flat, flat.transpose(0, 2, 1)).reshape(-1)
            + np.einsum("nbr,nbr->b", ridged, ridged))
