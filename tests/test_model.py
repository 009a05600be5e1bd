import numpy as np
import pytest

import wdrc
from wdrc import (
    Empirical,
    Gaussian,
    UniformBox,
    build_power_system,
    empirical_moments,
    gelbrich_distance,
    perturb_within_gelbrich_ball,
    ring_chords_laplacian,
    synthetic_power_grid,
    zoh_discretize,
)
from wdrc.model import distribution_from_json, distribution_to_json

from helpers import taylor_expm


class TestPowerSystemBuilder:
    def test_single_generator_blocks(self):
        system, _ = build_power_system(1, [1.0], [1.0], [[0.0]], 1)
        assert np.array_equal(system.A, [[0.0, 1.0], [0.0, -1.0]])
        assert np.array_equal(system.B, [[0.0], [1.0]])

    def test_three_generator_ring(self):
        lap = ring_chords_laplacian(3, chords=())
        assert np.abs(lap.sum(axis=1)).max() == 0.0
        system, _ = build_power_system(3, np.ones(3), np.ones(3), lap, 2)
        assert system.A.shape == (6, 6)
        # block structure: top-right identity, bottom blocks -Minv L and -Minv D
        assert np.array_equal(system.A[:3, 3:], np.eye(3))
        assert np.allclose(system.A[3:, :3], -lap)
        assert np.allclose(system.A[3:, 3:], -np.eye(3))

    def test_output_selects_first_observed_generators(self):
        system, _ = build_power_system(10, np.ones(10), np.ones(10),
                                       ring_chords_laplacian(10), 6)
        C = system.C
        assert C.shape == (12, 20)
        assert np.array_equal(C[:6, :6], np.eye(6))
        assert np.array_equal(C[6:, 10:16], np.eye(6))
        assert C[:, 6:10].sum() == 0 and C[:, 16:].sum() == 0

    def test_rejects_bad_inputs(self):
        lap = ring_chords_laplacian(3)
        with pytest.raises(ValueError):
            build_power_system(3, [1.0, -1.0, 1.0], np.ones(3), lap, 1)
        with pytest.raises(ValueError):
            build_power_system(3, np.ones(3), [0.0, 1.0, 1.0], lap, 1)
        bad = lap.copy()
        bad[0, 1] += 1e-6
        with pytest.raises(ValueError):
            build_power_system(3, np.ones(3), np.ones(3), bad, 1)
        with pytest.raises(ValueError):
            build_power_system(3, np.ones(3), np.ones(3), lap + 1e-6, 1)

    def test_synthetic_grid_dimensions(self):
        system, weights = synthetic_power_grid()
        assert (system.n_x, system.n_u, system.n_y) == (20, 10, 12)
        assert weights.Q.shape == (20, 20) and weights.R.shape == (10, 10)


class TestZohDiscretize:
    def test_zero_dynamics(self):
        A_d, B_d = zoh_discretize(np.zeros((2, 2)), np.eye(2), 0.1)
        assert np.allclose(A_d, np.eye(2))
        assert np.allclose(B_d, 0.1 * np.eye(2))

    def test_scalar_closed_form(self):
        a, dt = -0.7, 0.3
        A_d, B_d = zoh_discretize([[a]], [[2.0]], dt)
        assert abs(A_d[0, 0] - np.exp(a * dt)) < 1e-14
        assert abs(B_d[0, 0] - (np.exp(a * dt) - 1.0) / a * 2.0) < 1e-14

    def test_against_series_oracle(self):
        A_c = np.array([[0.0, 1.0], [0.0, -1.0]])
        B_c = np.array([[0.0], [1.0]])
        dt = 0.1
        A_d, B_d = zoh_discretize(A_c, B_c, dt)
        aug = np.zeros((3, 3))
        aug[:2, :2] = A_c
        aug[:2, 2:] = B_c
        e = taylor_expm(aug * dt)
        assert np.abs(A_d - e[:2, :2]).max() < 1e-10
        assert np.abs(B_d - e[:2, 2:]).max() < 1e-10

    def test_semigroup_property(self):
        rng = np.random.default_rng(5)
        A_c = rng.standard_normal((4, 4))
        B_c = rng.standard_normal((4, 2))
        A1, B1 = zoh_discretize(A_c, B_c, 0.07)
        A2, B2 = zoh_discretize(A_c, B_c, 0.14)
        assert np.abs(A1 @ A1 - A2).max() < 1e-10
        assert np.abs(A1 @ B1 + B1 - B2).max() < 1e-10

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            zoh_discretize(np.eye(2), np.eye(2), 0.0)


class TestEmpiricalMoments:
    def test_identical_samples(self):
        m = empirical_moments([[1.0, -2.0]] * 4)
        assert np.allclose(m.w_hat, [1.0, -2.0])
        assert np.abs(m.sigma_hat).max() == 0.0

    def test_scalar_pair(self):
        m = empirical_moments([[-1.0], [1.0]])
        assert m.w_hat[0] == 0.0
        assert m.sigma_hat[0, 0] == 1.0  # divide-by-N second moment

    def test_random_covariance_psd(self):
        rng = np.random.default_rng(0)
        m = empirical_moments(rng.standard_normal((5, 7)))
        assert np.linalg.eigvalsh(m.sigma_hat).min() >= -1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_moments(np.zeros((0, 3)))

    def test_jitter(self):
        m = empirical_moments([[0.0, 0.0]] * 3, jitter=1e-6)
        assert np.allclose(m.sigma_hat, 1e-6 * np.eye(2))


class TestSampling:
    def test_degenerate_gaussian(self):
        model = Gaussian(mean=np.zeros(3), cov=np.zeros((3, 3)))
        rng = np.random.default_rng(1)
        assert np.abs(model.sample(rng)).max() == 0.0
        assert np.array_equal(model.sample(rng, 5), np.zeros((5, 3)))
        # the zero covariance still draws its normals, so the stream moves as for any cov
        other = np.random.default_rng(1)
        Gaussian(mean=np.ones(3), cov=np.eye(3)).sample(other)
        Gaussian(mean=np.ones(3), cov=np.eye(3)).sample(other, 5)
        assert np.array_equal(rng.standard_normal(4), other.standard_normal(4))

    def test_uniform_box_support(self):
        model = UniformBox(lo=-0.15 * np.ones(4), hi=0.15 * np.ones(4))
        draws = model.sample(np.random.default_rng(2), 100_000)
        assert draws.shape == (100_000, 4)
        assert draws.min() >= -0.15 and draws.max() <= 0.15
        assert abs(draws.mean()) < 3 * 0.15 / np.sqrt(12 * 4e5)

    def test_seed_determinism(self):
        model = Gaussian(mean=np.ones(3), cov=0.3 * np.eye(3))
        a = model.sample(np.random.default_rng(33), 10)
        b = model.sample(np.random.default_rng(33), 10)
        assert np.array_equal(a, b)

    def test_gaussian_root_computed_once(self, monkeypatch):
        cov = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, 0.4]])
        model = Gaussian(mean=[1.0, -2.0, 0.5], cov=cov)
        root = wdrc.model.psd_sqrt(model.cov)
        calls = []

        def counting(a):
            calls.append(a)
            return root

        monkeypatch.setattr(wdrc.model, "psd_sqrt", counting)
        draws = model.sample(np.random.default_rng(5), 7)
        one = model.sample(np.random.default_rng(6))
        assert calls == []
        z = np.random.default_rng(5).standard_normal((7, 3))
        assert np.array_equal(draws, model.mean + z @ root.T)
        z = np.random.default_rng(6).standard_normal(3)
        assert np.array_equal(one, model.mean + z @ root.T)

    def test_empirical_draws_from_support(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0]])
        model = Empirical(samples=pts)
        draws = model.sample(np.random.default_rng(4), 50)
        for d in draws:
            assert any(np.array_equal(d, p) for p in pts)

    def test_uniform_moments(self):
        model = UniformBox(lo=[-1.0], hi=[3.0])
        mean, cov = model.moments()
        assert mean[0] == 1.0
        assert abs(cov[0, 0] - 16.0 / 12.0) < 1e-15


class TestGelbrichBall:
    def test_zero_radius_returns_nominal(self):
        nominal = wdrc.NominalMoments(w_hat=[0.5, -1.0], sigma_hat=np.diag([1.0, 2.0]))
        model = perturb_within_gelbrich_ball(nominal, 0.0, np.random.default_rng(0))
        assert np.array_equal(model.mean, nominal.w_hat)
        assert np.array_equal(model.cov, nominal.sigma_hat)

    def test_pure_mean_shift_attains_radius(self):
        nominal = wdrc.NominalMoments(w_hat=np.zeros(3), sigma_hat=np.eye(3))
        shifted = Gaussian(mean=np.array([0.2, 0.0, 0.0]), cov=np.eye(3))
        d = gelbrich_distance((nominal.w_hat, nominal.sigma_hat), shifted.moments())
        assert abs(d - 0.2) < 1e-12

    def test_thousand_perturbations_stay_inside(self):
        rng = np.random.default_rng(7)
        nominal = wdrc.NominalMoments(w_hat=rng.standard_normal(3),
                                      sigma_hat=np.diag([0.5, 1.0, 2.0]))
        for _ in range(1000):
            model = perturb_within_gelbrich_ball(nominal, 0.1, rng)
            d = gelbrich_distance((nominal.w_hat, nominal.sigma_hat), model.moments())
            assert d <= 0.1 + 1e-12

    def test_negative_radius_rejected(self):
        nominal = wdrc.NominalMoments(w_hat=[0.0], sigma_hat=[[1.0]])
        with pytest.raises(ValueError):
            perturb_within_gelbrich_ball(nominal, -0.1, np.random.default_rng(0))


class TestJsonInterfaces:
    def test_distribution_round_trip(self):
        models = [
            Gaussian(mean=[0.0, 1.0], cov=np.eye(2)),
            UniformBox(lo=[-1.0], hi=[1.0]),
            Empirical(samples=[[1.0, 2.0], [3.0, 4.0]]),
        ]
        for model in models:
            back = distribution_from_json(distribution_to_json(model))
            assert type(back) is type(model)

    def test_tagged_errors(self):
        with pytest.raises(ValueError):
            distribution_from_json({"type": "cauchy"})
        with pytest.raises(ValueError):
            distribution_from_json({"mean": [0.0]})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="A must have finite entries"):
            wdrc.LinearSystem(A=[[bad]], B=[[1.0]], C=[[1.0]], M=[[1.0]], m0=[0.0], M0=[[1.0]])
        with pytest.raises(ValueError, match="w_hat must have finite entries"):
            wdrc.NominalMoments(w_hat=[bad], sigma_hat=[[1.0]])
        with pytest.raises(ValueError, match="mean must have finite entries"):
            Gaussian(mean=[bad], cov=[[1.0]])
        with pytest.raises(ValueError, match="samples must have finite entries"):
            Empirical(samples=[[0.0], [bad]])

    def test_immutability(self):
        system, _ = synthetic_power_grid()
        with pytest.raises(ValueError):
            system.A[0, 0] = 5.0
