import numpy as np
import pytest

from actsense import (EnergyTensor, LatentFactors, ModelConfig, ObservationSet,
                      masked_objective)
from actsense.tensor_core import khatri_rao


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
        assert masked_objective(tensor, ObservationSet.empty(), f, cfg) == 0.0

    def test_single_home_regularizer(self):
        tensor = _tensor_1home()
        f = LatentFactors(H=np.array([[3.0, 4.0]]), A=np.zeros((1, 2)),
                          S=np.zeros((1, 2)), rank=2)
        cfg = ModelConfig(rank=2, lambda1=1.0, lambda2=0.0, lambda3=0.0)
        assert masked_objective(tensor, ObservationSet.empty(), f, cfg) == 25.0

    def test_exact_fit_residual(self):
        tensor = _tensor_1home(24.0)
        f = LatentFactors(H=np.array([[2.0]]), A=np.array([[3.0]]),
                          S=np.array([[4.0]]), rank=1)
        cfg = ModelConfig(rank=1, lambda1=0.0, lambda2=0.0, lambda3=0.0)
        omega = ObservationSet.from_triples([(0, 0, 0)])
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
            masked_objective(tensor, ObservationSet.from_triples([(0, 1, 0)]),
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


class TestObservationSet:
    def test_union_grows(self):
        a = ObservationSet.from_triples([(0, 0, 0)])
        b = a.union([(1, 0, 0)])
        assert a.issubset(b) and len(b) == 2

    def test_arrays_sorted(self):
        o = ObservationSet.from_triples([(1, 0, 0), (0, 1, 0), (0, 0, 2)])
        ii, jj, kk = o.arrays()
        assert list(zip(ii, jj, kk)) == [(0, 0, 2), (0, 1, 0), (1, 0, 0)]

    def test_bounds_check(self, tiny_tensor):
        with pytest.raises(ValueError):
            ObservationSet.from_triples([(5, 0, 0)]).check_bounds(tiny_tensor)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_frozenset_oracle(self, seed, tiny_tensor):
        # cells drawn from [-2, 6)^3: overlapping, duplicated and out-of-range
        rng = np.random.default_rng(seed)

        def draw(n):
            return [tuple(row) for row in rng.integers(-2, 6, size=(n, 3)).tolist()]

        first = draw(40)
        second = draw(40) + first[:5] + first[:5]
        a, b = ObservationSet.from_triples(first), ObservationSet.from_triples(second)
        oa, ob = frozenset(first), frozenset(second)
        u = a.union(second)
        ou = oa | ob
        assert (len(a), len(b), len(u)) == (len(oa), len(ob), len(ou))
        assert list(u) == sorted(ou) and list(a) == sorted(oa)
        assert all(type(v) is int for cell in u for v in cell)
        assert u.entries == ou
        ii, jj, kk = u.arrays()
        assert list(zip(ii.tolist(), jj.tolist(), kk.tolist())) == sorted(ou)
        for cell in draw(60):
            assert (cell in u) == (cell in ou)
            assert (cell in a) == (cell in oa)
        assert a.issubset(u) and b.issubset(u)
        assert ObservationSet.from_triples(first[:7]).issubset(a)
        assert a.issubset(b) == (oa <= ob) and u.issubset(a) == (ou <= oa)
        assert (a == b) == (oa == ob)
        assert u == a.union(b) == ObservationSet.from_triples(sorted(ou, reverse=True))
        assert hash(u) == hash(a.union(b))
        assert u != ObservationSet.from_triples(sorted(ou)[1:])
        # every draw holds a cell with a negative index
        with pytest.raises(ValueError):
            u.check_bounds(tiny_tensor)

    def test_empty_set(self, tiny_tensor):
        e = ObservationSet.empty()
        assert len(e) == 0 and list(e) == [] and e.entries == frozenset()
        assert all(len(x) == 0 for x in e.arrays())
        assert (0, 0, 0) not in e
        assert e.issubset(e) and e == ObservationSet.from_triples([]) == e.union([])
        e.check_observed(tiny_tensor)
        one = e.union([(1, 2, 0)])
        assert list(one) == [(1, 2, 0)] and e.issubset(one) and not one.issubset(e)
        assert not e.dense_mask((2, 3, 3)).any()

    @pytest.mark.parametrize("cell", [(2, 0, 0), (0, 3, 0), (0, 0, 3), (0, -1, 0)])
    def test_out_of_range_cells(self, cell, tiny_tensor):
        o = ObservationSet.from_triples([(1, 1, 1), cell])
        assert cell in o and len(o) == 2
        with pytest.raises(ValueError):
            o.check_bounds(tiny_tensor)
        with pytest.raises(ValueError):
            o.check_observed(tiny_tensor)

    @pytest.mark.parametrize("bad", [[(1, 2)], [(1, 2, 3, 4)], [(1, 2, 3), (4, 5)]])
    def test_malformed_triples_rejected(self, bad):
        with pytest.raises(ValueError):
            ObservationSet.from_triples(bad)


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
