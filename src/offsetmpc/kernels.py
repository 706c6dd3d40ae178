"""The Python side of _kernels.c, the program's one compiled extension:
the Python form of each of its kernels, and the code that builds it with
gcc on first use and loads it. The kernels are advance, one plant
interval of the CSTR in place, the step of plant.NonlinearPlant;
interval, the controller's estimator update, affine law and free-path
tests; and record, its log row, steady count and carry. Each Python form
gives its kernel's floats bit for bit, so the outputs do not depend on
whether gcc is installed. The CSTR stage, the balances at one state, is
written once in each language: _rates here, rates in _kernels.c. Every
product sums left to right through _product, as the C loops do.

active is the handle the program reads: None until the first plant step
or control interval of the process calls load(), then the compiled
module or PYTHON_KERNELS. A handle set before the first load is never
replaced. This module imports no other module of the package.
"""

import importlib.machinery
import importlib.util
import math
import os
import types
import zlib

import numpy as np


def _in_region(c, T, h):
    """Whether c, T and h are all finite and > 0."""
    inf = math.inf
    return 0.0 < c < inf and 0.0 < T < inf and 0.0 < h < inf


def _rates(c, T, h, Tc, F0, T0, c0, k0, neg_E, area, rxn, jacket):
    """The CSTR stage: the rates (dc, dT) at state (c, T, h) and coolant
    temperature Tc, from the constants of CstrParams.rk4_constants, or
    None when the state or the volume it fills is not finite and > 0 (a
    level so small that the volume underflows to 0 is not physical). The
    Arrhenius factor is math.exp's, whose argument is <= 0 once T is
    finite and > 0, so it cannot overflow. _kernels.c's rates is this,
    compiled."""
    V = area * h
    if not (0.0 < c < math.inf and 0.0 < T < math.inf and 0.0 < h < math.inf
            and V > 0.0):
        return None
    kT = k0 * math.exp(neg_E / T)
    return (F0 * (c0 - c) / V - kT * c,
            F0 * (T0 - T) / V - rxn * kT * c + jacket * (Tc - T))


def _advance_python(x, y, u, u_ss, x_ss, constants, dt):
    """One plant interval on float64 buffers: from the absolute inputs
    (Tc, F) = u_ss + u, where u is two numbers of any shape, and the
    constants CstrParams.rk4_constants, the step constants, then substeps
    RK4 substeps of dt / substeps from the state x = [c, T, h], each of
    whose four stages takes its rates k_i = (dc, dT) from _rates at its
    input state. Writes the last state into x and y = x - x_ss and returns
    True, or, when a stage's input state or the last state fails the
    region check, writes neither and returns that state (c, T, h).
    _kernels.c's advance is this, compiled."""
    if u.size != 2:
        # the compiled advance's check of the buffers' lengths
        raise ValueError("advance: buffer sizes do not fit together")
    F0, T0, c0, k0, neg_E, area, rxn, jacket, outlet, substeps = (
        constants.tolist())
    # the compiled advance's check: a whole number that a C long holds
    if not (1.0 <= substeps < 2.0 ** 63 and substeps == math.floor(substeps)):
        raise ValueError("advance: substeps must be a whole number >= 1")
    Tc, F = (u_ss + u.reshape(2)).tolist()
    stage = (Tc, F0, T0, c0, k0, neg_E, area, rxn, jacket)
    # the level rate does not depend on the state
    dh = (F0 - outlet * F) / area
    hstep = float(dt) / substeps
    half = 0.5 * hstep
    sixth = hstep / 6.0
    # the level rate is the same in every stage, and so are the level's
    # increments: to stages 2 and 3, to stage 4, and over the substep
    h_half = half * dh
    h_full = hstep * dh
    h_next = sixth * (dh + 2.0 * dh + 2.0 * dh + dh)
    c, T, h = x.tolist()
    for _ in range(int(substeps)):
        k1 = _rates(c, T, h, *stage)
        if k1 is None:
            return c, T, h
        c2, T2, h2 = c + half * k1[0], T + half * k1[1], h + h_half
        k2 = _rates(c2, T2, h2, *stage)
        if k2 is None:
            return c2, T2, h2
        c3, T3, h3 = c + half * k2[0], T + half * k2[1], h + h_half
        k3 = _rates(c3, T3, h3, *stage)
        if k3 is None:
            return c3, T3, h3
        c4, T4, h4 = c + hstep * k3[0], T + hstep * k3[1], h + h_full
        k4 = _rates(c4, T4, h4, *stage)
        if k4 is None:
            return c4, T4, h4
        c = c + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        T = T + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        h = h + h_next
    if not _in_region(c, T, h):
        return c, T, h
    x[:] = c, T, h
    np.subtract(x, x_ss, out=y)
    return True


def _product(A, x):
    """A x with each row's products summed left to right from 0.0, as
    _kernels.c's product() sums them; for a 1-D A, the number A'x summed
    the same way. cumsum adds in order, where matmul and @ sum in BLAS's
    order, and + 0.0 turns a sum of -0.0 products into the C sum's
    +0.0."""
    return np.cumsum(A * x, axis=-1)[..., -1] + 0.0


def _interval_python(M_step, P, b_box, lo, hi, v, w, theta, z, n_x):
    """The free-path part of closed_loop.ControlLoop.control_step in numpy,
    writing into the caller's w, theta and z. With v = [w_{k-1}; u_{k-1};
    y_{k-1}; d_l_{k-1}; d_l_k; r_k] and n_in = M_step's columns:
    w = M_step v[:n_in] is the estimator update [x_hat; d_hat], the
    product that DisturbanceEstimator.learned_step computes; theta =
    [x_hat; d_l_k + d_hat; r_k], an IEEE add, so that d_total is exactly
    d_learned + d_supp; z = P theta is the affine law's product (the
    target t = z[:n_t] first, n_t = len(lo), the slacks S theta next, Q
    theta last).
    Returns (flag, objective, excursion): flag 0 when w is not finite, 1
    on the free path, where every slack z[S] - b_box is <= 0, and 2 when a
    row is violated; objective theta'(Q theta); excursion whether t leaves
    [lo, hi]. Each product and the objective is a _product, so
    _kernels.c's interval is this, compiled, bit for bit."""
    n_w = len(w)
    n_in = M_step.shape[1]
    n_dl = n_in + n_w - n_x
    n_t = len(lo)
    w[:] = _product(M_step, v[:n_in])
    if not np.isfinite(w).all():
        return 0, 0.0, False
    theta[:n_x] = w[:n_x]
    np.add(v[n_in:n_dl], w[n_x:], out=theta[n_x:n_w])
    theta[n_w:] = v[n_dl:]
    z[:] = _product(P, theta)
    t = z[:n_t]
    free = (z[n_t:n_t + len(b_box)] - b_box <= 0.0).all()
    objective = _product(theta, z[len(z) - len(theta):])
    return (1 if free else 2, float(objective),
            bool(((t < lo) | (t > hi)).any()))


def _record_python(values, H, y_p, u, w, theta, z, v, k, time, objective,
                   n_active, count, M, tol_y, tol_u, n_x):
    """The bookkeeping of closed_loop.ControlLoop.control_step between the
    choice of u and the plant step, in numpy. Writes row k of the log
    block values, [time; r; y_p; z_p = H y_p; u; x_hat; d_l; d_hat;
    d_total; x_bar; u_bar; objective; n_active; steady] with the
    harvested flag left as it is, from v = [w_{k-1}; u_{k-1}; y_{k-1};
    d_l_{k-1}; d_l_k; r_k] (r and d_l), w, theta (d_total) and z (the
    target, its first n_x + len(u) entries); then carries [w; u; y_p;
    d_l_k] into the first four parts of v for the next interval's update.
    Interval k is quiet when k > 0 and, against row k-1, r is the same
    and no entry of y_p or u moved more than tol_y or tol_u (a NaN never
    is); the count of consecutive quiet intervals is count + 1 then and 0
    otherwise, and the interval is steady once it reaches M. Returns the
    count. z_p is a _product, so _kernels.c's record is this, compiled,
    bit for bit."""
    n_w, n_u, n_y = len(w), len(u), len(y_p)
    n_d = n_w - n_x
    n_z = len(theta) - n_w
    d_l_at = n_w + n_u + n_y + n_d
    r, d_l = v[d_l_at + n_d:], v[d_l_at:d_l_at + n_d]
    row = values[k]
    row[0] = time
    np.concatenate([r, y_p, _product(H, y_p), u, w[:n_x], d_l, w[n_x:],
                    theta[n_x:n_w], z[:n_x + n_u]], out=row[1:-4])
    if k > 0:
        prev = values[k - 1]
        y_at = 1 + n_z
        u_at = y_at + n_y + n_z
        quiet = ((row[1:y_at] == prev[1:y_at]).all()
                 and (abs(row[y_at:y_at + n_y] - prev[y_at:y_at + n_y])
                      <= tol_y).all()
                 and (abs(row[u_at:u_at + n_u] - prev[u_at:u_at + n_u])
                      <= tol_u).all())
    else:
        quiet = False
    count = count + 1 if quiet else 0
    row[-4] = objective
    row[-3] = n_active
    row[-2] = count >= M
    v[:n_w] = w
    v[n_w:n_w + n_u] = u
    v[n_w + n_u:n_w + n_u + n_y] = y_p
    v[d_l_at - n_d:d_l_at] = d_l
    return count


# ---- the compiled kernels: _kernels.c, built with gcc on first use ----

KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "_kernels.c")
BUILD_DIR = os.path.join(os.path.dirname(KERNEL_SOURCE), "build")
# no contraction into fused multiply-adds and no fast math: advance's
# rounding is then the Python loop's, operation for operation
KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared",
                "-fPIC")

# the Python forms of the compiled kernels, which run where they cannot be
# built
PYTHON_KERNELS = types.SimpleNamespace(advance=_advance_python,
                                       interval=_interval_python,
                                       record=_record_python)
# the kernels that run: None until the first plant step or control interval
# of the process loads them, then the compiled module or PYTHON_KERNELS
active = None
fallback_reason = None   # why PYTHON_KERNELS run, when they do


def kernel_path():
    """The build of the current source with KERNEL_FLAGS for this
    interpreter: named by the CRC-32 of both, so two trees with different
    kernels never load each other's build."""
    with open(KERNEL_SOURCE, "rb") as fh:
        tag = zlib.crc32(fh.read() + " ".join(KERNEL_FLAGS).encode())
    return os.path.join(BUILD_DIR, f"_kernels-{tag:08x}"
                        f"{importlib.machinery.EXTENSION_SUFFIXES[0]}")


def kernel_command(out):
    """The gcc command line that builds the kernels into out."""
    import sysconfig
    return ["gcc", *KERNEL_FLAGS, "-I" + sysconfig.get_paths()["include"],
            KERNEL_SOURCE, "-o", out, "-lm"]


def _build_kernel(path):
    """Compile into a temporary file in BUILD_DIR and move it to path, so
    a process building at the same time never sees a partial file; gcc's
    own temporary files go to BUILD_DIR too."""
    import subprocess
    import tempfile
    os.makedirs(BUILD_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=BUILD_DIR)
    os.close(fd)
    try:
        proc = subprocess.run(kernel_command(tmp), capture_output=True,
                              text=True,
                              env=dict(os.environ, TMPDIR=BUILD_DIR))
        if proc.returncode:
            raise ImportError(f"gcc exited with code {proc.returncode}: "
                              + proc.stderr.strip())
        # mkstemp made the file private, and the linker kept its mode
        os.chmod(tmp, 0o755)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load():
    """Set active to the compiled module, built first if its file is
    missing, and return it. When gcc is missing, the build fails,
    BUILD_DIR is not writable or the module lacks a kernel of
    PYTHON_KERNELS, active is PYTHON_KERNELS instead and fallback_reason
    says why."""
    global active, fallback_reason
    try:
        path = kernel_path()
        if not os.path.exists(path):
            _build_kernel(path)
        spec = importlib.util.spec_from_file_location("offsetmpc._kernels",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name in vars(PYTHON_KERNELS):
            getattr(module, name)    # AttributeError when one is missing
        active, fallback_reason = module, None
    except (OSError, ImportError, AttributeError) as exc:
        active = PYTHON_KERNELS
        fallback_reason = f"{type(exc).__name__}: {exc}"
    return active
