"""Energy tensor data model, CP factors and the masked objective.

The tensor is dense: ``readings`` has shape (homes, appliances, months)
and a parallel boolean ``mask`` marks which cells exist as ground truth.
One appliance slice is the per-home monthly bill (the "aggregate"); it
is always available and by convention sits at index 0 when built by the
ingestion path.  Which cells the model is allowed to see at a given
point of a simulation is tracked separately by :class:`ObservationSet`,
the authoritative index set.  Cell (i, j, k) of the CP model is
sum_d H[i, d] A[j, d] S[k, d], computed a matrix at a time through
:func:`khatri_rao` by :meth:`LatentFactors.reconstruct` and the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _frozen_array(a, dtype=float):
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


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


def _as_cells(triples) -> np.ndarray:
    """(3, n) int64 array of (home, appliance, month) triples, one per column."""
    if isinstance(triples, ObservationSet):
        return triples._idx.T
    if not isinstance(triples, np.ndarray):
        triples = list(triples)
    cells = np.asarray(triples, dtype=np.int64)
    if cells.size == 0:
        return np.zeros((3, 0), dtype=np.int64)
    if cells.ndim != 2 or cells.shape[1] != 3:
        raise ValueError("observations must be (home, appliance, month) triples")
    return cells.T


def _unique_cells(cells: np.ndarray) -> np.ndarray:
    """Sorted, duplicate-free columns of a (3, n) cell array, C-contiguous.

    Cells are ranked by their linear index in the smallest box holding
    them all, which orders them lexicographically.  A box of more than
    2**63 cells raises ValueError.
    """
    if cells.shape[1] == 0:
        return np.zeros((3, 0), dtype=np.int64)
    lo = cells.min(axis=1, keepdims=True)
    offset = cells - lo
    dims = tuple(offset.max(axis=1) + 1)
    # a sort and a neighbour test: np.unique took about 20 times as long
    # on 76k int64 values with numpy 2.4
    linear = np.sort(np.ravel_multi_index(offset, dims))
    linear = linear[np.concatenate(([True], linear[1:] != linear[:-1]))]
    out = np.stack(np.unravel_index(linear, dims))
    out += lo
    return out


class ObservationSet:
    """Set of (home, appliance, month) triples the model may see.

    Held as one sorted, duplicate-free (n, 3) int64 index array, so
    iteration and :meth:`arrays` follow ascending triple order.  The
    array is column-major: each of its columns is contiguous.
    """

    __slots__ = ("_idx",)

    def __init__(self, entries=()):
        cells = _unique_cells(_as_cells(entries))
        cells.setflags(write=False)
        self._idx = cells.T

    @classmethod
    def from_triples(cls, triples) -> "ObservationSet":
        return cls(triples)

    @classmethod
    def empty(cls) -> "ObservationSet":
        return cls()

    @property
    def entries(self) -> frozenset:
        return frozenset(self)

    def union(self, triples) -> "ObservationSet":
        cells = np.concatenate([self._idx.T, _as_cells(triples)], axis=1)
        return ObservationSet(cells.T)

    def arrays(self):
        """Index arrays (homes, appliances, months) in sorted triple order."""
        idx = self._idx
        return idx[:, 0], idx[:, 1], idx[:, 2]

    def dense_mask(self, shape) -> np.ndarray:
        """Float 0/1 array of ``shape`` with ones at the observed cells."""
        mask = np.zeros(shape)
        mask[self.arrays()] = 1.0
        return mask

    def check_bounds(self, tensor: EnergyTensor) -> None:
        if len(self._idx) == 0:
            return
        if self._idx.min() < 0 or (self._idx.max(axis=0) >= tensor.readings.shape).any():
            raise ValueError("observation set references an out-of-range cell")

    def check_observed(self, tensor: EnergyTensor) -> None:
        self.check_bounds(tensor)
        ii, jj, kk = self.arrays()
        if len(ii) and not tensor.mask[ii, jj, kk].all():
            raise ValueError("observation set references a cell with no ground truth")

    def __len__(self) -> int:
        return len(self._idx)

    def __contains__(self, triple) -> bool:
        try:
            cell = _as_cells([triple])
        except (TypeError, ValueError, OverflowError):
            return False
        return bool((self._idx.T == cell).all(axis=0).any())

    def __iter__(self):
        return map(tuple, self._idx.tolist())

    def issubset(self, other: "ObservationSet") -> bool:
        return len(self.union(other)) == len(other)

    def __eq__(self, other):
        if not isinstance(other, ObservationSet):
            return NotImplemented
        return np.array_equal(self._idx, other._idx)

    def __hash__(self):
        return hash(self._idx.tobytes())

    def __repr__(self):
        return f"ObservationSet({len(self)} cells)"


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


def khatri_rao(U, V) -> np.ndarray:
    """Column-wise Kronecker product: row a * len(V) + b is U[a] * V[b]."""
    return (U[:, None, :] * V[None, :, :]).reshape(-1, U.shape[1])


def masked_objective(tensor: EnergyTensor, omega: ObservationSet,
                     factors: LatentFactors, config: ModelConfig,
                     season_prior: np.ndarray | None = None) -> float:
    """Squared-error loss over observed cells plus squared-norm ridge terms.

    The season regularizer penalizes distance from ``season_prior`` when
    given (rows aligned with the season factor matrix), plain norms
    otherwise.
    """
    omega.check_observed(tensor)
    if season_prior is not None:
        season_prior = np.asarray(season_prior, dtype=float)
        if season_prior.shape != factors.S.shape:
            raise ValueError("season_prior shape must match the season factor matrix")
    W, XW, cols = masked_readings(tensor, omega)
    return masked_loss(W, XW, support_rows(factors.A, factors.S, cols),
                       factors.H, factors.A, factors.S, config, season_prior)


def masked_readings(tensor: EnergyTensor, omega: ObservationSet):
    """(W, XW, cols): the observed columns of the matricized 0/1 mask.

    ``cols`` are the columns j*T + k of the (M, N*T) matricized mask that
    hold at least one observed cell; ``W`` and ``XW`` = readings * W keep
    only those columns, shape (M, len(cols)).  Every other column is all
    zero and adds nothing to any contraction with the mask.
    """
    M = tensor.num_homes
    W = omega.dense_mask(tensor.readings.shape).reshape(M, -1)
    cols = np.flatnonzero(W.any(axis=0))
    W = W[:, cols]
    return W, tensor.readings.reshape(M, -1)[:, cols] * W, cols


def support_rows(A, S, cols) -> np.ndarray:
    """Rows ``cols`` of khatri_rao(A, S): row c is A[c // T] * S[c % T]."""
    j, k = np.divmod(cols, S.shape[0])
    return A[j] * S[k]


def masked_loss(W, XW, Z, H, A, S, config: ModelConfig,
                season_prior: np.ndarray | None = None) -> float:
    """The objective of :func:`masked_objective` for factor matrices
    ``H, A, S``, from the observed columns ``W, XW`` of
    :func:`masked_readings` and ``Z = support_rows(A, S, cols)``."""
    resid = H @ Z.T
    resid *= W
    resid -= XW
    resid = resid.ravel()
    s_term = S if season_prior is None else S - season_prior
    return (float(np.einsum("i,i->", resid, resid))
            + config.lambda1 * float(np.sum(H ** 2))
            + config.lambda2 * float(np.sum(A ** 2))
            + config.lambda3 * float(np.sum(s_term ** 2)))
