import pickle
from dataclasses import fields

import numpy as np
import pytest

from actsense import (EnergyTensor, LatentFactors, ModelConfig, ObservationSet,
                      accumulate_stats, fit, masked_objective, resolve_caps)
from actsense.als_engine import init_factors
from actsense.tensor_core import khatri_rao, masked_readings


def cell(h, a, s):
    """The one cell of the CP model with home row h, appliance row a and
    season row s, through LatentFactors.reconstruct."""
    h, a, s = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (h, a, s))
    return float(LatentFactors(H=h, A=a, S=s, rank=h.shape[1]).reconstruct()[0, 0, 0])


class TestTripleProduct:
    """A reconstructed cell is sum_d h_d * a_d * s_d."""

    def test_single_coordinate_basis(self):
        assert cell([1, 0], [1, 0], [1, 0]) == 1.0

    def test_zero_factor_annihilates(self):
        assert cell([0, 0], [3, 4], [5, 6]) == 0.0

    def test_hand_expansion(self):
        assert cell([1, 2], [3, 4], [5, 6]) == 63.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LatentFactors(H=np.ones((1, 2)), A=np.ones((1, 3)), S=np.ones((1, 2)),
                          rank=2)

    def test_grouping_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            r = rng.integers(1, 6)
            h, a, s = rng.random((3, r)) * 10
            p = cell(h, a, s)
            assert abs(p - float(np.dot(h * a, s))) <= 1e-10
            assert abs(p - float(np.dot(h * s, a))) <= 1e-10
            assert abs(p - float(np.dot(a * s, h))) <= 1e-10


class TestHadamard:
    """Row a * len(V) + b of khatri_rao(U, V) is the Hadamard product U[a] * V[b]."""

    def test_identity_vector(self):
        np.testing.assert_array_equal(khatri_rao(np.array([[1.0, 1.0]]),
                                                 np.array([[5.0, 7.0]])), [[5.0, 7.0]])

    def test_disjoint_supports(self):
        np.testing.assert_array_equal(khatri_rao(np.array([[0.0, 3.0]]),
                                                 np.array([[4.0, 0.0]])), [[0.0, 0.0]])

    def test_direct_multiplication(self):
        U = np.array([[2.0, 3.0], [1.0, -1.0]])
        V = np.array([[4.0, 5.0], [0.5, 2.0], [1.0, 0.0]])
        want = [u * v for u in U for v in V]
        np.testing.assert_array_equal(khatri_rao(U, V), want)

    @pytest.mark.parametrize("u_cols, v_cols", [(1, 2), (2, 1), (2, 3)])
    def test_column_mismatch(self, u_cols, v_cols):
        # one single-column factor would broadcast without the check
        with pytest.raises(ValueError, match="columns"):
            khatri_rao(np.ones((1, u_cols)), np.ones((1, v_cols)))


class TestPredict:
    def test_zero_factors(self):
        f = LatentFactors(H=np.zeros((2, 2)), A=np.zeros((3, 2)),
                          S=np.zeros((4, 2)), rank=2)
        np.testing.assert_array_equal(f.reconstruct(), np.zeros((2, 3, 4)))

    def test_rank_one_scalar(self):
        f = LatentFactors(H=np.array([[2.0]]), A=np.array([[3.0]]),
                          S=np.array([[4.0]]), rank=1)
        np.testing.assert_array_equal(f.reconstruct(), [[[24.0]]])

    def test_matches_triple_product(self):
        rng = np.random.default_rng(11)
        f = LatentFactors(H=rng.random((5, 3)), A=rng.random((4, 3)),
                          S=rng.random((6, 3)), rank=3)
        full = f.reconstruct()
        for _ in range(100):
            i, j, k = rng.integers(0, 5), rng.integers(0, 4), rng.integers(0, 6)
            expected = float(np.dot(f.H[i] * f.A[j], f.S[k]))
            assert full[i, j, k] == pytest.approx(expected, abs=1e-12)


def _tensor_1home(value=24.0):
    readings = np.full((1, 1, 1), value)
    return EnergyTensor(readings=readings, mask=np.ones((1, 1, 1), dtype=bool),
                        appliance_names=("aggregate",), aggregate_index=0)


class TestMaskedObjective:
    def test_empty_omega_zero_factors_zero_lambda(self):
        tensor = _tensor_1home()
        f = LatentFactors(H=np.zeros((1, 2)), A=np.zeros((1, 2)),
                          S=np.zeros((1, 2)), rank=2)
        cfg = ModelConfig(rank=2, lambda1=0.0, lambda2=0.0, lambda3=0.0)
        assert masked_objective(tensor, ObservationSet.empty((1, 1, 1)), f, cfg) == 0.0

    def test_single_home_regularizer(self):
        tensor = _tensor_1home()
        f = LatentFactors(H=np.array([[3.0, 4.0]]), A=np.zeros((1, 2)),
                          S=np.zeros((1, 2)), rank=2)
        cfg = ModelConfig(rank=2, lambda1=1.0, lambda2=0.0, lambda3=0.0)
        assert masked_objective(tensor, ObservationSet.empty((1, 1, 1)), f, cfg) == 25.0

    def test_exact_fit_residual(self):
        tensor = _tensor_1home(24.0)
        f = LatentFactors(H=np.array([[2.0]]), A=np.array([[3.0]]),
                          S=np.array([[4.0]]), rank=1)
        cfg = ModelConfig(rank=1, lambda1=0.0, lambda2=0.0, lambda3=0.0)
        omega = ObservationSet(np.ones((1, 1, 1), dtype=bool))
        assert masked_objective(tensor, omega, f, cfg) == 0.0

    def test_unobserved_cell_rejected(self):
        readings = np.ones((1, 2, 1))
        mask = np.ones((1, 2, 1), dtype=bool)
        mask[0, 1, 0] = False
        tensor = EnergyTensor(readings=readings, mask=mask,
                              appliance_names=("aggregate", "hvac"))
        f = LatentFactors(H=np.ones((1, 1)), A=np.ones((2, 1)),
                          S=np.ones((1, 1)), rank=1)
        with pytest.raises(ValueError):
            masked_objective(tensor, ObservationSet(~mask),
                             f, ModelConfig(rank=1))

    def test_nonnegative(self, tiny_tensor, tiny_omega):
        rng = np.random.default_rng(3)
        cfg = ModelConfig(rank=2, lambda1=0.3, lambda2=0.7, lambda3=1.1)
        for _ in range(50):
            f = LatentFactors(H=rng.random((2, 2)), A=rng.random((3, 2)),
                              S=rng.random((3, 2)), rank=2)
            prior = rng.random((3, 2))
            assert masked_objective(tiny_tensor, tiny_omega, f, cfg) >= 0.0
            assert masked_objective(tiny_tensor, tiny_omega, f, cfg,
                                    season_prior=prior) >= 0.0

    def test_season_prior_recovers_plain_form_when_zero(self, tiny_tensor, tiny_omega):
        rng = np.random.default_rng(4)
        f = LatentFactors(H=rng.random((2, 2)), A=rng.random((3, 2)),
                          S=rng.random((3, 2)), rank=2)
        cfg = ModelConfig(rank=2, lambda1=0.5, lambda2=0.5, lambda3=2.0)
        plain = masked_objective(tiny_tensor, tiny_omega, f, cfg)
        with_zero = masked_objective(tiny_tensor, tiny_omega, f, cfg,
                                     season_prior=np.zeros((3, 2)))
        assert plain == pytest.approx(with_zero, rel=1e-12)


class TestMaskedReadings:
    @pytest.mark.parametrize("coverage", [0.0, 0.3, 1.0])
    def test_layout_contract(self, coverage):
        # W and XW are the .T views of C-contiguous (C, M) arrays, whatever
        # layout numpy's fancy indexing would give, and hold the plain gathers
        rng = np.random.default_rng(7)
        M, N, T = 6, 4, 5
        readings = rng.uniform(0.0, 50.0, size=(M, N, T))
        tensor = EnergyTensor(readings=readings, mask=np.ones((M, N, T), dtype=bool),
                              appliance_names=tuple(f"a{j}" for j in range(N)))
        mask = rng.random((M, N, T)) < coverage
        W, XW, cols = masked_readings(tensor, ObservationSet(mask))
        flat = mask.reshape(M, -1)
        assert np.array_equal(cols, np.flatnonzero(flat.any(axis=0)))
        assert W.shape == XW.shape == (M, len(cols))
        assert W.dtype == XW.dtype == np.float64
        assert W.T.flags.c_contiguous and XW.T.flags.c_contiguous
        assert np.array_equal(W, flat[:, cols].astype(float))
        assert np.array_equal(XW, readings.reshape(M, -1)[:, cols] * flat[:, cols])


class TestEnergyTensor:
    def test_negative_readings_rejected(self):
        with pytest.raises(ValueError):
            EnergyTensor(readings=-np.ones((1, 1, 1)),
                         mask=np.ones((1, 1, 1), dtype=bool),
                         appliance_names=("aggregate",))

    def test_nonfinite_rejected(self):
        readings = np.ones((1, 1, 1))
        readings[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            EnergyTensor(readings=readings, mask=np.ones((1, 1, 1), dtype=bool),
                         appliance_names=("aggregate",))

    def test_aggregate_mask_enforced(self):
        mask = np.ones((1, 2, 1), dtype=bool)
        mask[0, 0, 0] = False
        with pytest.raises(ValueError):
            EnergyTensor(readings=np.ones((1, 2, 1)), mask=mask,
                         appliance_names=("aggregate", "hvac"))

    def test_breakdown_indices(self, tiny_tensor):
        assert tiny_tensor.breakdown_indices() == (1, 2)

    def test_readings_frozen(self, tiny_tensor):
        with pytest.raises(ValueError):
            tiny_tensor.readings[0, 0, 0] = 5.0


def cells_of(omega):
    """The observed cells of ``omega`` as a set of int triples."""
    return set(zip(*(a.tolist() for a in np.nonzero(omega.mask))))


class TestObservationSet:
    def test_union_grows(self):
        a = ObservationSet.empty((2, 1, 1)).union([(0, 0, 0)])
        b = a.union([(1, 0, 0)])
        assert not (a.mask & ~b.mask).any() and len(a) == 1 and len(b) == 2

    def test_arrays_sorted(self):
        o = ObservationSet.empty((2, 2, 3)).union([(1, 0, 0), (0, 1, 0), (0, 0, 2)])
        ii, jj, kk = np.nonzero(o.mask)
        assert list(zip(ii, jj, kk)) == [(0, 0, 2), (0, 1, 0), (1, 0, 0)]

    def test_bounds_check(self, tiny_tensor):
        with pytest.raises(ValueError):
            ObservationSet.empty(tiny_tensor.readings.shape).union([(5, 0, 0)])

    def test_mask_is_a_frozen_copy(self):
        given = np.zeros((2, 3, 3), dtype=bool)
        o = ObservationSet(given)
        given[0, 0, 0] = True
        assert len(o) == 0 and given.flags.writeable
        with pytest.raises(ValueError):
            o.mask[0, 0, 0] = True

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_frozenset_oracle(self, seed):
        # cells drawn from [0, 6)^3: overlapping and duplicated
        rng = np.random.default_rng(seed)

        def draw(n):
            return [tuple(row) for row in rng.integers(0, 6, size=(n, 3)).tolist()]

        empty = ObservationSet.empty((6, 6, 6))
        first = draw(40)
        second = draw(40) + first[:5] + first[:5]
        a, b = empty.union(first), empty.union(second)
        oa, ob = frozenset(first), frozenset(second)
        u = a.union(second)
        ou = oa | ob
        assert (len(a), len(b), len(u)) == (len(oa), len(ob), len(ou))
        assert cells_of(u) == ou and cells_of(a) == oa and cells_of(b) == ob
        ii, jj, kk = np.nonzero(u.mask)
        assert list(zip(ii.tolist(), jj.tolist(), kk.tolist())) == sorted(ou)
        assert np.array_equal(u.mask, empty.union(sorted(ou, reverse=True)).mask)

    def test_empty_set(self, tiny_tensor):
        e = ObservationSet.empty(tiny_tensor.readings.shape)
        assert len(e) == 0 and not e.mask.any()
        assert e.mask.shape == tiny_tensor.readings.shape
        assert np.array_equal(e.union([]).mask, e.mask)
        e.check_observed(tiny_tensor)
        one = e.union([(1, 2, 0)])
        assert cells_of(one) == {(1, 2, 0)} and len(e) == 0

    @pytest.mark.parametrize("cell", [(2, 0, 0), (0, 3, 0), (0, 0, 3), (0, -1, 0)])
    def test_out_of_range_cells(self, cell, tiny_tensor):
        o = ObservationSet.empty(tiny_tensor.readings.shape).union([(1, 1, 1)])
        with pytest.raises(ValueError):
            o.union([(0, 0, 0), cell])
        assert cells_of(o) == {(1, 1, 1)}

    @pytest.mark.parametrize("bad", [[(1, 2)], [(1, 2, 3, 4)], [(1, 2, 3), (4, 5)]])
    def test_malformed_triples_rejected(self, bad):
        o = ObservationSet.empty((6, 6, 6)).union([(1, 1, 1)])
        with pytest.raises(ValueError):
            o.union(bad)
        assert cells_of(o) == {(1, 1, 1)}

    def test_wrong_shape_mask_rejected(self, tiny_tensor):
        # the tiny tensor's size in another shape
        omega = ObservationSet(np.ones((3, 2, 3), dtype=bool))
        cfg = ModelConfig(rank=2)
        f = init_factors(tiny_tensor, cfg, resolve_caps(tiny_tensor, cfg))
        with pytest.raises(ValueError):
            fit(tiny_tensor, omega, cfg)
        with pytest.raises(ValueError):
            accumulate_stats(tiny_tensor, omega, f, cfg)
        with pytest.raises(ValueError):
            masked_objective(tiny_tensor, omega, f, cfg)


def test_pickled_copies_stay_frozen(tiny_tensor):
    # run_all's workers receive the tensor and return states this way
    values = [tiny_tensor, ObservationSet.empty(tiny_tensor.readings.shape).union([(1, 2, 0)]),
              LatentFactors(H=np.ones((2, 2)), A=np.eye(2), S=np.ones((3, 2)), rank=2)]
    for value in values:
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value)
        for f in fields(value):
            a, b = getattr(value, f.name), getattr(copy, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b) and b.dtype == a.dtype
                assert not b.flags.writeable, f"{type(value).__name__}.{f.name}"
            else:
                assert a == b


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(rank=0)
        with pytest.raises(ValueError):
            ModelConfig(lambda1=-1.0)
        with pytest.raises(ValueError):
            ModelConfig(norm_caps=(1.0, -2.0, 3.0))
        with pytest.raises(ValueError):
            ModelConfig(norm_caps=(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            ModelConfig(tol=0.0)
