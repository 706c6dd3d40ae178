from types import SimpleNamespace

import numpy as np
import pytest

from offsetmpc import estimator as est_mod
from offsetmpc import numerics
from offsetmpc.model import steady_io_matrix


@pytest.fixture
def estimator(committed):
    m, dist, gains, _ = committed
    return est_mod.DisturbanceEstimator(m, dist, gains)


def as_vec(e):
    return np.concatenate([e.x_hat, e.d_hat])


def make_est(x, d):
    return est_mod.AugmentedEstimate(np.asarray(x, float), np.asarray(d, float))


# the zero estimate: the estimator at the operating point
ZERO = make_est(np.zeros(3), np.zeros(2))


def nominal(estimator, est, u, y_p):
    """The nominal update: the learned update with d_learned = 0."""
    return estimator.learned_step(est, u, y_p, np.zeros(2))


def test_update_is_linear_in_all_arguments(estimator):
    """One step is a linear map of (x_hat, d_hat, u, y_p): superposition
    plus zero-maps-to-zero pins the whole affine structure."""
    rng = np.random.default_rng(21)
    z = nominal(estimator, make_est(np.zeros(3), np.zeros(2)),
                np.zeros(2), np.zeros(3))
    assert np.allclose(as_vec(z), 0.0)
    for _ in range(25):
        xa, xb = rng.normal(size=3), rng.normal(size=3)
        da, db = rng.normal(size=2), rng.normal(size=2)
        ua, ub = rng.normal(size=2), rng.normal(size=2)
        ya, yb = rng.normal(size=3), rng.normal(size=3)
        a, b = rng.normal(), rng.normal()
        lhs = nominal(estimator, make_est(a * xa + b * xb, a * da + b * db),
                      a * ua + b * ub, a * ya + b * yb)
        ra = nominal(estimator, make_est(xa, da), ua, ya)
        rb = nominal(estimator, make_est(xb, db), ub, yb)
        assert np.allclose(as_vec(lhs), a * as_vec(ra) + b * as_vec(rb),
                           atol=1e-10)


def test_steady_state_from_io_is_fixed_point(estimator):
    rng = np.random.default_rng(17)
    for _ in range(10):
        y = rng.normal(scale=0.5, size=3)
        u = rng.normal(scale=0.5, size=2)
        e_inf = estimator.steady_state_from_io(y, u)
        e_next = nominal(estimator, e_inf, u, y)
        assert np.allclose(as_vec(e_next), as_vec(e_inf), atol=1e-9)


def test_convergence_under_constant_io(estimator):
    """With constant (u, y) the estimate contracts to the steady solution
    at the design rate."""
    y = np.array([0.02, -0.4, 0.05])
    u = np.array([1.0, -0.01])
    e_inf = as_vec(estimator.steady_state_from_io(y, u))
    e = ZERO
    errs = []
    for _ in range(40):
        e = nominal(estimator, e, u, y)
        errs.append(np.linalg.norm(as_vec(e) - e_inf))
    assert errs[-1] < 1e-12
    # asymptotic ratio matches the 0.2 pole placement
    for k in range(10, 25):
        if errs[k] > 1e-13:
            assert errs[k + 1] / errs[k] < 0.25


def test_learned_split_preserves_total(estimator):
    """Relabeling part of the disturbance as learned must not change the
    combined estimate the loop acts on."""
    y = np.array([0.01, 0.3, -0.02])
    u = np.array([0.5, 0.005])
    d_l = np.array([0.008, -0.2])

    e_nom = ZERO
    e_lrn = ZERO
    for _ in range(60):
        e_nom = nominal(estimator, e_nom, u, y)
        e_lrn = estimator.learned_step(e_lrn, u, y, d_l)
    assert np.allclose(e_nom.x_hat, e_lrn.x_hat, atol=1e-10)
    assert np.allclose(e_nom.d_hat, d_l + e_lrn.d_hat, atol=1e-10)


def ref_learned_step(estimator, est, u, y_p, d_learned):
    """The update as four products, with the input, output-injection and
    learned-forcing matrices built here from (model, dist, gains); the
    oracle of the stacked map M_step."""
    m, dist, gains = estimator.model, estimator.dist, estimator.gains
    B_stack = np.vstack([m.B, np.zeros((dist.n_d, m.n_u))])
    L_stack = np.vstack([gains.L_x, gains.L_d])
    D_stack = np.vstack([dist.B_d + gains.L_x @ dist.C_d,
                         gains.L_d @ dist.C_d])
    w = (estimator.M_err @ np.concatenate([est.x_hat, est.d_hat])
         + B_stack @ np.asarray(u, dtype=float)
         - L_stack @ np.asarray(y_p, dtype=float)
         + D_stack @ np.asarray(d_learned, dtype=float))
    n_x = m.n_x
    return est_mod.AugmentedEstimate(w[:n_x], w[n_x:])


def test_learned_step_matches_the_four_product_formula(estimator):
    """On random estimates and inputs, fresh or views into a wider array as
    the control loop passes them, and along a chain of steps: each entry
    is within 1e-14 of the oracle's relative to |M_step| |v|, the sum of
    the magnitudes it adds, v = [w; u; y_p; d_learned]; so a cancelling
    entry is held to its operands, not to its own size."""
    rng = np.random.default_rng(29)
    abs_M = np.abs(estimator.M_step)

    def assert_close(got, want, est, u, y, d_l):
        scale = abs_M @ np.abs(np.concatenate([as_vec(est), u, y, d_l]))
        assert (np.abs(as_vec(got) - as_vec(want)) <= 1e-14 * scale).all()

    for scale in (1e-6, 1.0, 1e6):
        for _ in range(50):
            est = make_est(rng.normal(scale=scale, size=3),
                           rng.normal(scale=scale, size=2))
            row = rng.normal(scale=scale, size=12)
            for u, y, d_l in ((rng.normal(size=2) * scale,
                               rng.normal(size=3) * scale,
                               rng.normal(size=2) * scale),
                              (row[:2], row[2:5], row[7:9])):
                got = estimator.learned_step(est, u, y, d_l)
                want = ref_learned_step(estimator, est, u, y, d_l)
                assert_close(got, want, est, u, y, d_l)
    got = want = ZERO
    for _ in range(30):
        u, y, d_l = rng.normal(size=2), rng.normal(size=3), rng.normal(size=2)
        prev = want
        got = estimator.learned_step(got, u, y, d_l)
        want = ref_learned_step(estimator, want, u, y, d_l)
        assert_close(got, want, prev, u, y, d_l)


def test_step_matrix_is_the_four_maps_side_by_side(estimator):
    """M_step = [M_err | B_stack | -L_stack | D_stack], read-only."""
    m, dist, gains = estimator.model, estimator.dist, estimator.gains
    n_w = m.n_x + dist.n_d
    M = estimator.M_step
    assert M.shape == (n_w, n_w + m.n_u + m.n_y + dist.n_d)
    assert np.array_equal(M[:, :n_w], estimator.M_err)
    cols = np.cumsum([n_w, m.n_u, m.n_y])
    B, L, D = np.split(M[:, n_w:], cols[1:] - n_w, axis=1)
    assert np.array_equal(B, np.vstack([m.B, np.zeros((dist.n_d, m.n_u))]))
    assert np.array_equal(L, -np.vstack([gains.L_x, gains.L_d]))
    assert np.array_equal(D, np.vstack([dist.B_d + gains.L_x @ dist.C_d,
                                        gains.L_d @ dist.C_d]))
    assert not M.flags.writeable


@pytest.mark.parametrize("where", ["u", "y_p", "d_learned"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(estimator, where, bad):
    args = {"u": np.zeros(2), "y_p": np.zeros(3), "d_learned": np.zeros(2)}
    args[where] = args[where].copy()
    args[where][-1] = bad
    # inf times a zero gain is NaN
    with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                      match="non-finite"):
        estimator.learned_step(ZERO, **args)


def ref_steady_state_from_io(estimator, y_p, u):
    """The steady-state inversion as it was before the fixed map M_io: one
    LU solve of the steady-IO matrix per call; the oracle."""
    m, dist, gains = estimator.model, estimator.dist, estimator.gains
    rhs = np.concatenate([gains.L_x @ y_p - m.B @ u, gains.L_d @ y_p])
    return numerics.lu_solve(numerics.lu(steady_io_matrix(m, dist, gains)),
                             rhs)


def test_steady_state_from_io_matches_the_lu_solve(estimator):
    rng = np.random.default_rng(31)
    for scale in (1e-6, 1.0, 1e6):
        for _ in range(100):
            y, u = rng.normal(scale=scale, size=3), rng.normal(scale=scale,
                                                                 size=2)
            got = as_vec(estimator.steady_state_from_io(y, u))
            want = ref_steady_state_from_io(estimator, y, u)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_singular_steady_map_raises_on_construction(committed):
    """With L_d = 0 the steady map's disturbance rows vanish; the gains
    are not EstimatorGains, which would reject them as unstable first."""
    m, dist, gains, _ = committed
    shim = SimpleNamespace(L_x=gains.L_x, L_d=np.zeros((2, 3)))
    with pytest.raises(numerics.SingularMatrix):
        est_mod.DisturbanceEstimator(m, dist, shim)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_io_raises(estimator, bad):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                      match="non-finite"):
        estimator.steady_state_from_io(np.array([0.0, bad, 0.0]),
                                       np.zeros(2))
