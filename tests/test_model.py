import numpy as np
import pytest

from offsetmpc import model as mdl
from offsetmpc import numerics, ocp


def small_model():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    C = np.eye(2)
    H = np.array([[1.0, 0.0]])
    return mdl.LinearModel(A, B, C, H, 1.0)


def test_construction_rejects_bad_dims():
    with pytest.raises(mdl.DimensionMismatch):
        mdl.LinearModel(np.eye(3), np.ones((2, 1)), np.eye(3), np.eye(3)[:2], 1.0)
    with pytest.raises(mdl.DimensionMismatch):
        mdl.LinearModel(np.eye(2), np.ones((2, 1)), np.eye(3), np.eye(2)[:1], 1.0)


def test_construction_rejects_uncontrollable_pair():
    A = np.diag([0.5, 0.7])
    B = np.array([[1.0], [0.0]])  # second mode unreachable
    with pytest.raises(ValueError):
        mdl.LinearModel(A, B, np.eye(2), np.eye(2)[:1], 1.0)


def test_committed_model_shapes(committed):
    m, dist, gains, _ = committed
    assert m.A.shape == (3, 3) and m.B.shape == (3, 2)
    assert m.C.shape == (3, 3) and m.H.shape == (2, 3)
    assert dist.B_d.shape == (3, 2) and dist.C_d.shape == (3, 2)
    assert np.allclose(m.C, np.eye(3))
    assert np.allclose(dist.C_d, 0.0)


def test_augmented_observability_committed(committed):
    m, dist, _, _ = committed
    res = mdl.check_augmented_observability(m, dist)
    assert res["holds"] is True
    assert res["rank"] == 5


def test_augmented_observability_fails_without_disturbance_coupling(committed):
    m, _, _, _ = committed
    dead = mdl.DisturbanceModel(np.zeros((3, 2)), np.zeros((3, 2)))
    res = mdl.check_augmented_observability(m, dead)
    assert res["holds"] is False
    assert res["rank"] == 3


def test_gains_spectral_radius_committed(committed):
    m, dist, gains, _ = committed
    assert gains.spectral_radius == pytest.approx(0.2, abs=1e-9)
    E = mdl.estimator_error_matrix(m, dist, gains)
    assert E.shape == (5, 5)
    ev = np.linalg.eigvals(E)
    assert np.abs(ev).max() <= 0.2 + 1e-9


def test_zero_gains_rejected(committed):
    m, dist, _, _ = committed
    # without correction the disturbance states are pure integrators
    with pytest.raises(mdl.UnstableEstimator):
        mdl.EstimatorGains(np.zeros((3, 3)), np.zeros((2, 3)), m, dist)


def test_lemma1_nonsingularity_committed(committed):
    m, dist, gains, _ = committed
    assert mdl.check_lemma1_nonsingularity(m, dist, gains) is True


def test_lemma1_requires_stable_gains(committed):
    m, dist, _, _ = committed
    from types import SimpleNamespace
    shim = SimpleNamespace(L_x=np.zeros((3, 3)), L_d=np.zeros((2, 3)),
                           spectral_radius=1.0)
    with pytest.raises(mdl.UnstableEstimator):
        mdl.check_lemma1_nonsingularity(m, dist, shim)


def test_offset_free_condition_committed(committed):
    m, dist, gains, cfg = committed
    pred = ocp.build_prediction(m, dist, cfg)
    k_un = pred.law.K[:cfg.n_u, :cfg.n_x]
    res = mdl.check_offset_free_condition(m, gains, k_un)
    assert res["holds"] is True
    assert res["residual"] < 1e-8


def test_offset_free_condition_fails_for_level_output(committed):
    """Tracking (c, h) instead of (c, T) breaks the zero-offset row."""
    m, dist, gains, cfg = committed
    H_bad = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    m_bad = mdl.LinearModel(m.A, m.B, m.C, H_bad, m.dt)
    gains_bad = mdl.EstimatorGains(gains.L_x, gains.L_d, m_bad, dist)
    pred = ocp.build_prediction(m_bad, dist, cfg)
    k_un = pred.law.K[:cfg.n_u, :cfg.n_x]
    res = mdl.check_offset_free_condition(m_bad, gains_bad, k_un)
    assert res["holds"] is False
    assert res["residual"] > 1e-3


def test_steady_io_matrix_invertible(committed):
    m, dist, gains, _ = committed
    M = mdl.steady_io_matrix(m, dist, gains)
    assert M.shape == (5, 5)
    assert numerics.matrix_rank(M) == 5

