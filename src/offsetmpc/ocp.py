"""Finite-horizon optimal control problem in condensed form.

The horizon cost is written as a dense quadratic in the stacked input
sequence; box constraints on inputs and predicted states become linear
inequality rows; the QP is solved with a primal active-set method.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model as model_mod
from . import numerics
from . import target as target_mod


class Infeasible(Exception):
    pass


class MaxIterations(Exception):
    pass


TOL_KKT = 1e-8
TOL_FEAS = 1e-9
# entries of a loop's ActiveSetTable; the least recently used drops out.
# A miss scans every entry before the table solves the QP itself, so the
# cap bounds what the scan adds to that solve: with 25 entries about
# 50 us, against a median of 360 us for the condense and solve_qp that
# solved a miss when the cap was set (README, "Partial enumeration").
TABLE_SIZE = 25


@dataclass
class OcpConfig:
    N: int
    q_x: np.ndarray          # diagonal state weights
    q_u: np.ndarray          # diagonal input weights, strictly positive
    q_xN: np.ndarray         # diagonal terminal weights
    u_bounds: tuple          # (lb, ub) arrays, deviation units
    x_bounds: Optional[tuple] = None

    def __post_init__(self):
        self.N = int(self.N)
        self.q_x = np.asarray(self.q_x, dtype=float).reshape(-1)
        self.q_u = np.asarray(self.q_u, dtype=float).reshape(-1)
        self.q_xN = np.asarray(self.q_xN, dtype=float).reshape(-1)
        if self.N < 1:
            raise ValueError("horizon must be >= 1")
        if np.any(self.q_x < 0) or np.any(self.q_xN < 0):
            raise ValueError("state weights must be >= 0")
        if np.any(self.q_u <= 0):
            raise ValueError("input weights must be > 0")
        self.u_bounds = (np.asarray(self.u_bounds[0], dtype=float),
                         np.asarray(self.u_bounds[1], dtype=float))
        if np.any(self.u_bounds[0] >= self.u_bounds[1]):
            raise ValueError("u bounds must satisfy lo < hi")
        if self.x_bounds is not None:
            self.x_bounds = (np.asarray(self.x_bounds[0], dtype=float),
                             np.asarray(self.x_bounds[1], dtype=float))
            if np.any(self.x_bounds[0] >= self.x_bounds[1]):
                raise ValueError("x bounds must satisfy lo < hi")

    @property
    def n_x(self):
        return self.q_x.shape[0]

    @property
    def n_u(self):
        return self.q_u.shape[0]


@dataclass(frozen=True)
class QpFactor:
    """Solver data fixed by a Hessian H and inequality rows G: the lower
    Cholesky factor L of 2H, Y = (2H)^-1 G' and S = G Y, the matrix whose
    working-set block is the Schur complement of every working-set KKT
    system."""
    L: np.ndarray
    Y: np.ndarray
    S: np.ndarray


@dataclass(frozen=True)
class AffineLaw:
    """The interval's problem as fixed maps of theta = [x_hat; d; r] while
    no inequality row is active (the empty-active-set critical region of
    explicit MPC): the target is linear in (d, r), so f_j, b_in and the
    unconstrained minimizer are linear in theta and its objective is
    quadratic. The maps are stacked in P, so one product z = P theta
    gives all of them; S, K and Q are row views of P."""
    P: np.ndarray            # [T acting on theta[n_x:]; S; K; Q]
    n_t: int                 # rows of the target block: z[:n_t] = [x_bar; u_bar]
    S: np.ndarray            # A_in u* - b_in = S theta - b_box
    K: np.ndarray            # u* = K theta
    Q: np.ndarray            # objective at u*: theta'Q theta, Q symmetric


@dataclass
class PredictionMatrices:
    """Condensed-QP data fixed by (model, disturbance model, OCP config);
    H_j, A_in, b_box, factor and law are shared read-only by every
    CondensedQp and every ControlLoop of one command."""
    Phi: np.ndarray
    Psi: np.ndarray
    Psi_d: np.ndarray
    qx_stack: np.ndarray     # stacked diagonal state weights, terminal last
    qu_stack: np.ndarray     # stacked diagonal input weights
    PsiTQx: np.ndarray
    H_j: np.ndarray          # Psi'Qx Psi + Qu
    A_in: np.ndarray         # inequality rows, in condense's order
    b_box: np.ndarray        # right-hand side of A_in at zero state offset
    factor: QpFactor         # of (H_j, A_in)
    law: AffineLaw
    T: np.ndarray            # target map: [x_bar; u_bar] = T [d; r]


@dataclass
class CondensedQp:
    H_j: np.ndarray
    f_j: np.ndarray
    c_j: float
    A_in: np.ndarray
    b_in: np.ndarray
    factor: Optional[QpFactor] = None    # solve_qp factors when None


@dataclass
class QpSolution:
    u_seq: np.ndarray
    active_set: list
    kkt_residual: Optional[float]    # solve_qp's; None from ActiveSetTable
    objective: float
    iterations: int = 0


def build_prediction(model, dist, cfg):
    """Phi = [A; A^2; ...; A^N]; Psi, Psi_d block lower-triangular Toeplitz
    with blocks A^(i-j) B and A^(i-j) B_d."""
    n_x, n_u, n_d = model.n_x, model.n_u, dist.n_d
    N = cfg.N
    # the largest blocks first: a horizon too long for any memory fails
    # here, before N matrix powers are built
    Psi = np.zeros((N * n_x, N * n_u))
    Psi_d = np.zeros((N * n_x, N * n_d))
    powers = [np.eye(n_x)]
    for _ in range(N):
        powers.append(model.A @ powers[-1])
    Phi = np.vstack([powers[i] for i in range(1, N + 1)])
    for i in range(1, N + 1):
        for j in range(1, i + 1):
            Psi[(i - 1) * n_x:i * n_x, (j - 1) * n_u:j * n_u] = powers[i - j] @ model.B
            Psi_d[(i - 1) * n_x:i * n_x, (j - 1) * n_d:j * n_d] = powers[i - j] @ dist.B_d
    qx_stack = np.concatenate([np.tile(cfg.q_x, N - 1), cfg.q_xN]) \
        if N > 1 else cfg.q_xN.copy()
    qu_stack = np.tile(cfg.q_u, N)
    # an H_j, or the 2 H_j factor_qp factors, that overflows is an error
    with np.errstate(over="ignore", invalid="ignore"):
        PsiTQx = Psi.T * qx_stack
        H_j = PsiTQx @ Psi + np.diag(qu_stack)
        finite = np.isfinite(2.0 * H_j).all()
    if not finite:
        raise numerics.SingularMatrix("QP Hessian is not finite")

    I_u = np.eye(N * n_u)
    rows = [I_u, -I_u]
    rhs = [np.tile(cfg.u_bounds[1], N), -np.tile(cfg.u_bounds[0], N)]
    if cfg.x_bounds is not None:
        rows += [Psi, -Psi]
        rhs += [np.tile(cfg.x_bounds[1], N), -np.tile(cfg.x_bounds[0], N)]
    A_in = np.vstack(rows)
    b_box = np.concatenate(rhs)
    factor = factor_qp(H_j, A_in)
    T = target_mod.target_map(model, dist)
    law = _affine_law(cfg, T, Phi, Psi_d, qx_stack, qu_stack, PsiTQx, A_in,
                      factor)
    for shared in (H_j, A_in, b_box, factor.L, factor.Y, factor.S, T,
                   law.P, law.S, law.K, law.Q):
        shared.flags.writeable = False
    return PredictionMatrices(Phi, Psi, Psi_d, qx_stack, qu_stack, PsiTQx,
                              H_j, A_in, b_box, factor, law, T)


def _affine_law(cfg, T, Phi, Psi_d, qx_stack, qu_stack, PsiTQx, A_in,
                factor):
    """The target, condense and the unconstrained minimizer of solve_qp,
    written as matrices acting on theta = [x_hat; d; r]; T is the target
    map [x_bar; u_bar] = T [d; r]."""
    N, n_x = cfg.N, cfg.n_x
    n_d = Psi_d.shape[1] // N
    n_p = n_x + T.shape[1]
    X0 = np.eye(n_x, n_p)                           # x_hat
    D = np.eye(n_d, n_p, n_x)                       # d
    tgt = np.hstack([np.zeros((T.shape[0], n_x)), T])
    X_bar, U_bar = tgt[:n_x], tgt[n_x:]
    X_free = Phi @ X0 + Psi_d @ np.tile(D, (N, 1))  # free response
    G = X_free - np.tile(X_bar, (N, 1))             # condense's g
    U_stack = np.tile(U_bar, (N, 1))                # stacked u_bar
    D0 = X0 - X_bar                                 # x_hat - x_bar
    F_f = PsiTQx @ G - qu_stack[:, None] * U_stack  # f_j = F_f theta
    K = numerics.cho_solve(factor.L, -2.0 * F_f)
    C = (G.T @ (qx_stack[:, None] * G) + U_stack.T @ (qu_stack[:, None] * U_stack)
         + D0.T @ (cfg.q_x[:, None] * D0))          # c_j = theta'C theta
    # u*'H u* + 2 f'u* + c_j = f'u* + c_j at the minimizer
    Q = C + F_f.T @ K
    S = A_in @ K                                    # plus condense's b_in shift
    if cfg.x_bounds is not None:
        S[2 * N * cfg.n_u:] += np.vstack([X_free, -X_free])
    P = np.vstack([tgt, S, K, 0.5 * (Q + Q.T)])
    n_t, n_s, n_k = tgt.shape[0], S.shape[0], K.shape[0]
    return AffineLaw(P, n_t, P[n_t:n_t + n_s], P[n_t + n_s:n_t + n_s + n_k],
                     P[n_t + n_s + n_k:])


def condense(pred, cfg, x_hat, d_hat, tgt):
    """Quadratic in the stacked input sequence u:

        J(u) = u'H_j u + 2 f_j'u + c_j
             = sum_i |x_i - x_bar|^2_Qx + |u_i - u_bar|^2_Qu  (terminal QxN)

    with x_i rolled out from x_hat under constant d_hat; the i = 0 state
    term is constant in u and lands in c_j. Inequality rows, in fixed
    order: u-upper, u-lower, x-upper, x-lower.
    """
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    d_hat = np.asarray(d_hat, dtype=float).reshape(-1)
    N, n_x, n_u = cfg.N, cfg.n_x, cfg.n_u
    n_d = pred.Psi_d.shape[1] // N
    if x_hat.shape[0] != n_x or d_hat.shape[0] != n_d:
        raise model_mod.DimensionMismatch("x_hat/d_hat dimensions")
    qx_stack, qu_stack = pred.qx_stack, pred.qu_stack
    ubar_stack = np.tile(tgt.u_bar, N)

    x_free = pred.Phi @ x_hat + pred.Psi_d @ np.tile(d_hat, N)
    g = x_free - np.tile(tgt.x_bar, N)
    f_j = pred.PsiTQx @ g - qu_stack * ubar_stack
    dx0 = x_hat - tgt.x_bar
    c_j = float(g @ (qx_stack * g) + ubar_stack @ (qu_stack * ubar_stack)
                + dx0 @ (cfg.q_x * dx0))

    b_in = pred.b_box
    if cfg.x_bounds is not None:
        b_in = b_in - np.concatenate([np.zeros(2 * N * n_u), x_free, -x_free])
    return CondensedQp(pred.H_j, f_j, c_j, pred.A_in, b_in, pred.factor)


def factor_qp(H, G):
    """QpFactor of the Hessian H and the inequality rows G; raises
    numerics.SingularMatrix when H is not positive definite."""
    L = numerics.cholesky(2.0 * H)
    Y = numerics.cho_solve(L, G.T)
    return QpFactor(L, Y, G @ Y)


def _ratio_test(Gp, Gx, h, W):
    """Step length along p in [0, 1] and the row that blocks it (-1 for a
    full step), by the lowest-index rule: scanning rows outside W in
    ascending order, a row moving toward its bound blocks when its ratio
    undercuts the current step by more than 1e-12; the step is clamped
    at 0.

    The rows that cannot block (in W, not moving toward their bound, or
    within 1e-12 of a full step) are dropped as one array expression;
    only the few left are scanned.
    """
    cand = Gp > 1e-13 * (1.0 + np.abs(h))
    cand[W] = False
    rows = np.flatnonzero(cand)
    ratios = (h[rows] - Gx[rows]) / Gp[rows]
    near = ratios < 1.0 - 1e-12
    alpha, blocker = 1.0, -1
    for i, ai in zip(rows[near].tolist(), ratios[near].tolist()):
        if ai < alpha - 1e-12:
            alpha, blocker = max(ai, 0.0), i
    return alpha, blocker


def _active_set_core(G, h, Y, S, x_u, r_u, x0, W0, itmax):
    """min of a strictly convex quadratic s.t. Gx <= h from a feasible x0,
    given its unconstrained minimizer x_u, Y = (2H)^-1 G', S = G Y and
    r_u = G x_u - h; returns the minimizer, the final working set, its
    multipliers and the iteration count.

    The working-set KKT system is solved by its Schur complement:
    S_WW lam = r_u[W], x = x_u - Y_W lam. Entering/leaving constraints
    follow Bland's lowest-index rule, which rules out cycling.
    """
    x = x0.copy()
    W = sorted(W0)
    for it in range(itmax):
        if W:
            try:
                lam = np.linalg.solve(S[np.ix_(W, W)], r_u[W])
            except np.linalg.LinAlgError:
                # dependent working set; drop the highest index and retry
                W = W[:-1]
                continue
            xs = x_u - Y[:, W] @ lam
        else:
            xs, lam = x_u, np.zeros(0)
        p = xs - x
        if np.abs(p).max() <= 1e-11 * (1.0 + np.abs(x).max()):
            if not W or lam.min() >= -TOL_KKT:
                return xs, W, lam, it
            # W is ascending: the first negative multiplier has the
            # lowest index
            del W[int(np.argmax(lam < -TOL_KKT))]
            continue
        alpha, blocker = _ratio_test(G @ p, G @ x, h, W)
        x = x + alpha * p
        if blocker >= 0:
            W.append(blocker)
            W.sort()
    raise MaxIterations(f"active set did not converge in {itmax} iterations")


def _kkt_residual(H, f, G, h, x, W, lam):
    mu = np.zeros(G.shape[0])
    mu[W] = lam
    r_stat = np.abs(2.0 * H @ x + 2.0 * f + G.T @ mu).max()
    slack = G @ x - h
    r_prim = max(0.0, slack.max()) if slack.size else 0.0
    r_comp = np.abs(mu * slack).max() if slack.size else 0.0
    r_dual = max(0.0, -mu.min()) if mu.size else 0.0
    return max(r_stat, r_prim, r_comp, r_dual)


@dataclass(frozen=True)
class ActiveSetLaw:
    """The QP's solution on a fixed working set W as a law over theta:
    with r_u = law.S theta - b_box the slack of the unconstrained
    minimizer, the multipliers are lam = S_WW^-1 r_u[W], the row slacks
    r_u - S[:, W] lam and the inputs law.K theta - Y[:, W] lam (the
    Schur-complement solve of _active_set_core, with S and Y from
    QpFactor). S_WW^-1 is stored, so each try of an entry is one
    product."""
    rows: np.ndarray         # W, ascending as _active_set_core returns it
    S_inv: np.ndarray        # S_WW^-1, from its Cholesky factor; read-only
    S_W: np.ndarray          # S[:, W]
    Y_W: np.ndarray          # Y[:, W]


class ActiveSetTable:
    """The non-empty optimal working sets of one loop's QPs, most recently
    used first, at most TABLE_SIZE of them (partial enumeration:
    Pannocchia, Rawlings & Wright, Automatica 43(5), 2007). An entry
    depends only on (H_j, A_in), so it stays valid across setpoints,
    learned-map updates and plant events. hits and misses count the
    intervals with a violated row that an entry solved and that it did
    not."""

    def __init__(self, pred):
        self.pred = pred
        self.entries = []
        self.hits = 0
        self.misses = 0
        law = pred.law
        s_end = law.n_t + law.S.shape[0]
        k_end = s_end + law.K.shape[0]
        # where S theta, K theta and Q theta sit in z = law.P theta
        self._rows = (slice(law.n_t, s_end), slice(s_end, k_end),
                      slice(k_end, None))

    def solve(self, theta, z):
        """The QP of the interval at theta = [x_hat; d; r] from fixed maps,
        with z = pred.law.P @ theta. When the unconstrained minimizer
        u* = K theta satisfies every row (the exact test of solve_qp's
        early exit) it is the solution, with no active set and 0
        iterations. Otherwise it is read from the first entry at which W is
        strictly complementary (every multiplier above TOL_KKT, every other
        row's slack below -TOL_FEAS): the optimal active set is then
        unique, so it is the one solve_qp returns. On a miss the table
        solves the QP itself from u* and its slack r_u, with b_in =
        A_in u* - r_u, as solve_qp does from a cold start, and stores the
        optimal working set; it raises Infeasible or MaxIterations where
        solve_qp would, and stores nothing then. Never None; no KKT
        residual is measured."""
        s_rows, k_rows, q_rows = self._rows
        u_star = z[k_rows]
        r_u = z[s_rows] - self.pred.b_box
        if (r_u <= 0.0).all():
            return QpSolution(u_star, [], None, float(theta @ z[q_rows]), 0)
        for i, e in enumerate(self.entries):
            lam = e.S_inv @ r_u[e.rows]
            if lam.min() <= TOL_KKT:
                continue
            slack = r_u - e.S_W @ lam
            slack[e.rows] = -np.inf
            if slack.max() >= -TOL_FEAS:
                continue
            self.hits += 1
            self.entries.insert(0, self.entries.pop(i))
            u, W, it = u_star - e.Y_W @ lam, e.rows.tolist(), 0
            break
        else:
            self.misses += 1
            H, G = self.pred.H_j, self.pred.A_in
            u, W, lam, it = _solve_from(H, -H @ u_star, G, G @ u_star - r_u,
                                        self.pred.factor, u_star, r_u, None)
            self.insert(W)
        # J(u* - Y_W lam) = J(u*) + lam'S_WW lam / 2, and S_WW lam = r_u[W]
        obj = float(theta @ z[q_rows] + 0.5 * lam @ r_u[W])
        return QpSolution(u, W, None, obj, it)

    def insert(self, W):
        """Put an optimal working set W first, as solve does with a
        miss's. An empty W is not stored, nor one whose rows are
        dependent: S_WW is then singular, but rounding can leave it a
        Cholesky factor with a pivot near zero, so the rows are tested
        with numerics.matrix_rank before S_WW is factored."""
        if not W:
            return
        for i, e in enumerate(self.entries):
            if np.array_equal(e.rows, W):
                self.entries.insert(0, self.entries.pop(i))
                return
        fac = self.pred.factor
        rows = np.array(W, dtype=np.intp)
        if numerics.matrix_rank(self.pred.A_in[rows]) < len(W):
            return
        try:
            L = numerics.cholesky(fac.S[np.ix_(rows, rows)])
        except numerics.SingularMatrix:
            return
        S_inv = numerics.cho_solve(L, np.eye(len(W)))
        S_inv.flags.writeable = False
        self.entries.insert(0, ActiveSetLaw(rows, S_inv, fac.S[:, rows],
                                            fac.Y[:, rows]))
        del self.entries[TABLE_SIZE:]


def solve_qp(qp, warm_start=None):
    """Minimize u'H_j u + 2 f_j'u + c_j subject to A_in u <= b_in.

    The unconstrained minimizer, from the Cholesky factor of 2 H_j
    (qp.factor, or one computed here), is the answer when it satisfies
    every row: no active set, 0 iterations. Otherwise the active-set loop
    starts from warm_start (zero when None) with an empty working set,
    after a phase-1 solve when that point violates a row.
    """
    H, f, G, h = qp.H_j, qp.f_j, qp.A_in, qp.b_in
    n = H.shape[0]
    if G is None or not G.size:
        G, h = np.zeros((0, n)), np.zeros(0)
    fac = qp.factor if qp.factor is not None else factor_qp(H, G)
    x_u = numerics.cho_solve(fac.L, -2.0 * f)
    r_u = G @ x_u - h
    if (r_u <= 0.0).all():
        # no multipliers and no violated row: only stationarity can be off
        x, W, it = x_u, [], 0
        res = np.abs(2.0 * H @ x + 2.0 * f).max()
    else:
        x, W, lam, it = _solve_from(H, f, G, h, fac, x_u, r_u, warm_start)
        res = _kkt_residual(H, f, G, h, x, W, lam)
    obj = float(x @ H @ x + 2.0 * f @ x + qp.c_j)
    return QpSolution(x, W, float(res), obj, it)


def _solve_from(H, f, G, h, fac, x_u, r_u, x0):
    """The active-set loop from x0 (zero when None) with an empty working
    set, after a phase-1 solve when x0 violates a row; x_u and r_u as for
    _active_set_core, and f is read by phase 1 only."""
    itmax = 50 * (len(x_u) + len(h) + 1)
    x0 = np.zeros(len(x_u)) if x0 is None else np.asarray(x0, dtype=float)
    if (G @ x0 - h).max() > TOL_FEAS:
        x0 = _phase1(H, f, G, h, fac, x_u, x0, itmax)
    return _active_set_core(G, h, fac.Y, fac.S, x_u, r_u, x0, [], itmax)


def _phase1(H, f, G, h, fac, x_u, x0, itmax):
    """Single-slack relaxation: same objective plus a heavily weighted
    slack s, rows relaxed to Gx - s <= h with s >= 0. The start
    (x0, max-violation + 1) is strictly feasible by construction.

    The Hessian is blockdiag(H, big), so the factor of 2H extends to it:
    the slack adds a row of -1/(2 big) to Y, 1/(2 big) to every entry of
    S, and s = -1 to the unconstrained minimizer."""
    m, n = G.shape
    big = 1e6 * (np.trace(H) + np.abs(f).sum() + 1.0)
    c = 1.0 / (2.0 * big)
    G2 = np.zeros((m + 1, n + 1))
    G2[:m, :n] = G
    G2[:, n] = -1.0
    h2 = np.append(h, 0.0)
    Y2 = np.zeros((n + 1, m + 1))
    Y2[:n, :m] = fac.Y
    Y2[n] = -c
    S2 = np.full((m + 1, m + 1), c)
    S2[:m, :m] += fac.S
    z_u = np.append(x_u, -1.0)
    s0 = max((G @ x0 - h).max(), 0.0) + 1.0
    z0 = np.append(x0, s0)
    z, _, _, _ = _active_set_core(G2, h2, Y2, S2, z_u, G2 @ z_u - h2, z0,
                                  [], itmax)
    if z[n] > 1e-8:
        raise Infeasible(f"phase-1 slack {z[n]:.3e} > 1e-8")
    return z[:n]


def value_function(pred, cfg, x_hat, d_hat, tgt):
    """Optimal objective of the constrained horizon problem."""
    return solve_qp(condense(pred, cfg, x_hat, d_hat, tgt)).objective

