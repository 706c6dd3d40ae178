/* The compiled kernels of offsetmpc: one extension module, which
   kernels.py builds on first use and loads once as kernels.active. Each
   function takes the arguments of the function of the same name in
   kernels.PYTHON_KERNELS, which is its fallback and the tests' oracle,
   and returns what that function returns. kernels.py builds this file
   with -ffp-contract=off -fno-fast-math, so the compiler fuses no
   multiply-add and reorders nothing.

   advance(x, y, u, u_ss, x_ss, constants, dt) -> True or (c, T, h)

   is one plant step of plant.NonlinearPlant in place,
   kernels._advance_python compiled; its 7 arguments are 6 float64 buffers
   and dt. The buffers:

     x = [c, T, h] (3, written), the plant's state;
     y (3, written), its measurement;
     u (2), the input in deviation from the operating input u_ss (2);
     x_ss (3), the operating state;
     constants (10), CstrParams.rk4_constants: [F0, T0, c0, k0,
       -E_over_R, area, rxn, jacket, outlet_factor, substeps].

   From the absolute input (Tc, F) = u_ss + u it computes the level rate
   dh and the level's increments, then runs `substeps` RK4
   substeps of length dt / substeps from x. When every stage's input
   state and the last state are in the physical region (PlantState's
   check, which the stages add V > 0 to), it writes the last state into x
   and y = x - x_ss and returns True. Otherwise it writes neither buffer
   and returns the first state that left the region, from which the
   caller raises NonPhysicalState. The four stages of each substep share
   rates, the CSTR stage, as kernels._advance_python's share
   kernels._rates. Every expression keeps the Python form's association
   and exp is libm's, as CPython's math.exp is: each state is the Python
   form's bit for bit.

   interval(M_step, P, b_box, lo, hi, v, w, theta, z, n_x)
   -> (flag, objective, excursion)

   is the free-path part of closed_loop.ControlLoop.control_step,
   kernels._interval_python compiled; its 10 arguments are 9 buffers and
   n_x, and the target's length n_t is len(lo). Its sums run left to
   right from 0.0, as the fallback's kernels._product sums them, so the
   two agree bit for bit.

   record(values, H, y_p, u, w, theta, z, v, k, time, objective, n_active,
          count, M, tol_y, tol_u, n_x)
   -> count

   is the rest of the interval up to the plant step,
   kernels._record_python compiled; its 17 arguments are 8 buffers and 9
   numbers. It writes row k of the log block values, z_p = H y_p among
   it, updates the count of consecutive quiet intervals against row k-1,
   writes steady = count >= M into the row, and carries [w; u; y_p; d_l_k]
   into v for the next interval's update; it returns the new count.
   Every entry it writes is a copy of an input, but for z_p, whose sums
   run left to right as the fallback's do: all of it is the fallback's
   bit for bit.

   log_text(values, n) -> str

   is the body of closed_loop.write_log_csv, kernels._log_text_python
   compiled; its 2 arguments are the log block values (rows x width) and
   the count n <= rows of its written rows. It returns rows [0, n) as
   text, each field as Python's "%.17g" % x writes it, fields joined by
   "," and each row ended by "\n". A field is formatted by
   PyOS_double_to_string(x, 'g', 17, 0, NULL), the routine that "%.17g"
   itself calls, so the text is the fallback's byte for byte: it does not
   read the C locale, and it writes a NaN as "nan" whatever its sign bit.
   A field with the same 64 bits as the field above it is a copy of that
   field's text, since the same bits always give the same text. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* the constants of a CSTR stage */
struct cstr {
    double Tc, F0, T0, c0, k0, neg_E, area, rxn, jacket;
};

/* the step of one RK4 substep, half and a sixth of it, and the level's
   increments, which are the same in every substep: to stages 2 and 3, to
   stage 4, and over the substep */
struct substep {
    double hstep, half, sixth, h_half, h_full, h_next;
};

/* whether c, T and h are all finite and > 0, PlantState's check */
static inline int
in_region(double c, double T, double h)
{
    return 0.0 < c && c < INFINITY && 0.0 < T && T < INFINITY
           && 0.0 < h && h < INFINITY;
}

/* The CSTR stage, kernels._rates compiled: the rates *dc and *dT at (c, T,
   h) and 1, or 0 with neither written when the state or the volume it
   fills is not finite and > 0. */
static inline int
rates(const struct cstr *p, double c, double T, double h, double *dc,
      double *dT)
{
    double V = p->area * h, kT;

    if (!(in_region(c, T, h) && V > 0.0))
        return 0;
    kT = p->k0 * exp(p->neg_E / T);
    *dc = p->F0 * (p->c0 - c) / V - kT * c;
    *dT = p->F0 * (p->T0 - T) / V - p->rxn * kT * c + p->jacket * (p->Tc - T);
    return 1;
}

/* s = (c, T, h) and 0: rk4's failure */
static int
left(double *s, double c, double T, double h)
{
    s[0] = c;
    s[1] = T;
    s[2] = h;
    return 0;
}

/* The RK4 substep loop of kernels._advance_python, compiled: advances s =
   [c, T, h] by n substeps and returns 1, or sets s to the input state of
   the first stage that fails the region check and returns 0. */
static int
rk4(const struct cstr *p, const struct substep *d, long n, double *s)
{
    double c = s[0], T = s[1], h = s[2];
    double c2, T2, h2, c3, T3, h3, c4, T4, h4;
    double dc1, dT1, dc2, dT2, dc3, dT3, dc4, dT4;
    long k;

    for (k = 0; k < n; k++) {
        if (!rates(p, c, T, h, &dc1, &dT1))
            return left(s, c, T, h);
        c2 = c + d->half * dc1; T2 = T + d->half * dT1; h2 = h + d->h_half;
        if (!rates(p, c2, T2, h2, &dc2, &dT2))
            return left(s, c2, T2, h2);
        c3 = c + d->half * dc2; T3 = T + d->half * dT2; h3 = h + d->h_half;
        if (!rates(p, c3, T3, h3, &dc3, &dT3))
            return left(s, c3, T3, h3);
        c4 = c + d->hstep * dc3; T4 = T + d->hstep * dT3; h4 = h + d->h_full;
        if (!rates(p, c4, T4, h4, &dc4, &dT4))
            return left(s, c4, T4, h4);
        c = c + d->sixth * (dc1 + 2.0 * dc2 + 2.0 * dc3 + dc4);
        T = T + d->sixth * (dT1 + 2.0 * dT2 + 2.0 * dT3 + dT4);
        h = h + d->h_next;
    }
    s[0] = c;
    s[1] = T;
    s[2] = h;
    return 1;
}

#define N_BUFFERS 9

/* a C-contiguous float64 buffer of obj, with its shape, writable when
   asked; fn names the kernel in the error */
static int
get_floats(PyObject *obj, Py_buffer *view, int writable, const char *fn)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FORMAT | PyBUF_ND
                           | (writable ? PyBUF_WRITABLE : 0)))
        return -1;
    if (view->itemsize != sizeof(double) || view->format == NULL
        || strcmp(view->format, "d") != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s takes float64 arrays", fn);
        return -1;
    }
    return 0;
}

#define N_ADVANCE_BUFFERS 6

/* The buffers, in argument order: x = [c, T, h] and y (written), u,
   u_ss, x_ss and the constants, of the lengths below; then dt. See the
   header. */
static PyObject *
advance(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const Py_ssize_t lengths[N_ADVANCE_BUFFERS] = {3, 3, 2, 2, 3, 10};
    Py_buffer buf[N_ADVANCE_BUFFERS];
    const double *u, *u_ss, *x_ss, *k;
    double *x, *y, s[3], dt, F, dh, n;
    struct cstr p;
    struct substep d;
    int n_held = 0, i;
    PyObject *out = NULL;

    if (nargs != N_ADVANCE_BUFFERS + 1) {
        PyErr_Format(PyExc_TypeError,
                     "advance takes %d arguments (%zd given)",
                     N_ADVANCE_BUFFERS + 1, nargs);
        return NULL;
    }
    dt = PyFloat_AsDouble(args[N_ADVANCE_BUFFERS]);
    if (dt == -1.0 && PyErr_Occurred())
        return NULL;
    /* the first two, x and y, are written */
    for (; n_held < N_ADVANCE_BUFFERS; n_held++)
        if (get_floats(args[n_held], &buf[n_held], n_held < 2, "advance"))
            goto done;
    for (i = 0; i < N_ADVANCE_BUFFERS; i++)
        if (buf[i].len != lengths[i] * (Py_ssize_t)sizeof(double)) {
            PyErr_SetString(PyExc_ValueError,
                            "advance: buffer sizes do not fit together");
            goto done;
        }
    x = buf[0].buf; y = buf[1].buf; u = buf[2].buf;
    u_ss = buf[3].buf; x_ss = buf[4].buf; k = buf[5].buf;
    /* the substep count, a whole number that a long holds */
    n = k[9];
    if (!(n >= 1.0 && n < (double)LONG_MAX && n == floor(n))) {
        PyErr_SetString(PyExc_ValueError,
                        "advance: substeps must be a whole number >= 1");
        goto done;
    }

    F = u_ss[1] + u[1];
    p = (struct cstr){u_ss[0] + u[0], k[0], k[1], k[2], k[3], k[4], k[5],
                      k[6], k[7]};
    /* the level rate does not depend on the state */
    dh = (p.F0 - k[8] * F) / p.area;
    d.hstep = dt / n;
    d.half = 0.5 * d.hstep;
    d.sixth = d.hstep / 6.0;
    d.h_half = d.half * dh;
    d.h_full = d.hstep * dh;
    d.h_next = d.sixth * (dh + 2.0 * dh + 2.0 * dh + dh);
    for (i = 0; i < 3; i++)
        s[i] = x[i];
    if (rk4(&p, &d, (long)n, s) && in_region(s[0], s[1], s[2])) {
        for (i = 0; i < 3; i++) {
            x[i] = s[i];
            y[i] = s[i] - x_ss[i];
        }
        Py_INCREF(Py_True);
        out = Py_True;
    }
    else
        out = Py_BuildValue("(ddd)", s[0], s[1], s[2]);
done:
    while (n_held > 0)
        PyBuffer_Release(&buf[--n_held]);
    return out;
}

/* y = A x for a row-major n_rows x n_cols A, each row summed left to
   right; returns whether every entry of y is finite */
static int
product(const double *A, const double *x, double *y, Py_ssize_t n_rows,
        Py_ssize_t n_cols)
{
    Py_ssize_t i, j;
    const double *row;
    double s;
    int finite = 1;

    for (i = 0; i < n_rows; i++) {
        row = A + i * n_cols;
        s = 0.0;
        for (j = 0; j < n_cols; j++)
            s += row[j] * x[j];
        y[i] = s;
        if (!isfinite(s))
            finite = 0;
    }
    return finite;
}

/* The buffers, in argument order: M_step (n_w x n_in), P (n_z x n_theta),
   b_box (n_s), lo and hi (n_t), v (n_in + n_d + n_r), and the outputs w
   (n_w = n_x + n_d), theta (n_theta = n_w + n_r) and z (n_z). With
   v = [w_{k-1}; u_{k-1}; y_{k-1}; d_l_{k-1}; d_l_k; r_k]:

     w = M_step v[:n_in], the estimator update;
     theta = [w[:n_x]; d_l_k + w[n_x:]; r_k];
     z = P theta = [target t; S theta; K theta; Q theta];

   flag is 0 when w is not finite (theta and z are then not written), 1
   when every slack z[n_t:n_t + n_s] - b_box is <= 0 (the free path) and
   2 otherwise; objective is theta'(Q theta), the free path's objective;
   excursion is whether some entry of t lies below lo or above hi. */
static PyObject *
interval(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer buf[N_BUFFERS];
    const double *M_step, *P, *b_box, *lo, *hi, *v, *q;
    double *w, *theta, *z, objective = 0.0;
    Py_ssize_t n_x, n_t, n_w, n_d, n_r, n_in, n_s, n_z, n_theta, i;
    int n_held = 0, flag = 0, excursion = 0;
    PyObject *out = NULL;

    if (nargs != N_BUFFERS + 1) {
        PyErr_Format(PyExc_TypeError,
                     "interval takes %d arguments (%zd given)",
                     N_BUFFERS + 1, nargs);
        return NULL;
    }
    n_x = PyLong_AsSsize_t(args[N_BUFFERS]);
    if (n_x == -1 && PyErr_Occurred())
        return NULL;
    /* the last three, w, theta and z, are written */
    for (; n_held < N_BUFFERS; n_held++)
        if (get_floats(args[n_held], &buf[n_held], n_held >= 6,
                       "interval"))
            goto done;
#define LEN(i) (buf[i].len / (Py_ssize_t)sizeof(double))
    n_s = LEN(2);
    n_t = LEN(3);
    n_w = LEN(6);
    n_theta = LEN(7);
    n_z = LEN(8);
    n_d = n_w - n_x;
    n_r = n_theta - n_w;
    n_in = LEN(5) - n_d - n_r;
    if (n_x < 0 || n_d < 0 || n_r < 0 || n_in < 1
        || LEN(0) != n_w * n_in || LEN(1) != n_z * n_theta
        || LEN(4) != n_t || n_t + n_s + n_theta > n_z) {
        PyErr_SetString(PyExc_ValueError,
                        "interval: buffer sizes do not fit together");
        goto done;
    }
#undef LEN
    M_step = buf[0].buf; P = buf[1].buf; b_box = buf[2].buf;
    lo = buf[3].buf; hi = buf[4].buf; v = buf[5].buf;
    w = buf[6].buf; theta = buf[7].buf; z = buf[8].buf;

    if (product(M_step, v, w, n_w, n_in)) {
        for (i = 0; i < n_x; i++)
            theta[i] = w[i];
        for (i = n_x; i < n_w; i++)
            theta[i] = v[n_in + i - n_x] + w[i];
        for (i = n_w; i < n_theta; i++)
            theta[i] = v[n_in + n_d + i - n_w];
        product(P, theta, z, n_z, n_theta);
        flag = 1;
        for (i = 0; i < n_s; i++)
            if (!(z[n_t + i] - b_box[i] <= 0.0)) {
                flag = 2;
                break;
            }
        for (i = 0; i < n_t; i++)
            if (z[i] < lo[i] || z[i] > hi[i])
                excursion = 1;
        q = z + n_z - n_theta;
        for (i = 0; i < n_theta; i++)
            objective += theta[i] * q[i];
    }

    out = Py_BuildValue("(idO)", flag, objective,
                        excursion ? Py_True : Py_False);
done:
    while (n_held > 0)
        PyBuffer_Release(&buf[--n_held]);
    return out;
}

#define N_RECORD_BUFFERS 8
#define N_RECORD_ARGS (N_RECORD_BUFFERS + 9)

/* dst[i] = src[i] for i < n; returns dst + n */
static double *
put(double *dst, const double *src, Py_ssize_t n)
{
    memmove(dst, src, n * sizeof(double));
    return dst + n;
}

/* The buffers, in argument order: the log block values (rows x width,
   written), H (n_z x n_y), y_p (n_y), u (n_u), w (n_w = n_x + n_d),
   theta (n_w + n_z), z (at least n_t = n_x + n_u) and v (n_w + n_u + n_y
   + 2 n_d + n_z, written); then k, time, objective, n_active, count, M,
   tol_y, tol_u and n_x. Writes row k of values, [time; r; y_p; H y_p; u;
   w[:n_x]; d_l; w[n_x:]; theta[n_x:n_w]; z[:n_t]; objective; n_active;
   steady], leaving its last entry, the harvested flag, as it is, with r
   and d_l the last two parts of v; then carries [w; u; y_p; d_l] into
   the first four parts of v. The interval is quiet when k > 0 and,
   against row k-1, every entry of r is equal, and every entry of y_p and
   of u moved at most tol_y and tol_u; the new count is count + 1 when it
   is quiet and 0 otherwise, and steady is whether it is >= M. */
static PyObject *
record(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer buf[N_RECORD_BUFFERS];
    const double *H, *y_p, *u, *w, *theta, *z, *r, *d_l, *prev;
    double *row, *p, *v, time, objective, n_active, tol_y, tol_u;
    Py_ssize_t k, count, M, n_x, n_y, n_u, n_w, n_d, n_z, width, i;
    int n_held = 0, quiet;
    PyObject *out = NULL;

    if (nargs != N_RECORD_ARGS) {
        PyErr_Format(PyExc_TypeError, "record takes %d arguments (%zd given)",
                     N_RECORD_ARGS, nargs);
        return NULL;
    }
#define GET(x, convert, i) \
    if ((x = convert(args[i])) == -1 && PyErr_Occurred()) \
        return NULL
    GET(k, PyLong_AsSsize_t, 8);
    GET(time, PyFloat_AsDouble, 9);
    GET(objective, PyFloat_AsDouble, 10);
    GET(n_active, PyFloat_AsDouble, 11);
    GET(count, PyLong_AsSsize_t, 12);
    GET(M, PyLong_AsSsize_t, 13);
    GET(tol_y, PyFloat_AsDouble, 14);
    GET(tol_u, PyFloat_AsDouble, 15);
    GET(n_x, PyLong_AsSsize_t, 16);
#undef GET
    /* the first, values, and the last, v, are written */
    for (; n_held < N_RECORD_BUFFERS; n_held++)
        if (get_floats(args[n_held], &buf[n_held],
                       n_held == 0 || n_held == N_RECORD_BUFFERS - 1,
                       "record"))
            goto done;
#define LEN(i) (buf[i].len / (Py_ssize_t)sizeof(double))
    n_y = LEN(2);
    n_u = LEN(3);
    n_w = LEN(4);
    n_z = LEN(5) - n_w;
    n_d = n_w - n_x;
    width = 1 + n_z + n_y + n_z + n_u + n_x + 3 * n_d + n_x + n_u + 4;
    if (n_x < 0 || n_d < 0 || n_z < 0 || buf[0].ndim != 2
        || buf[0].shape[1] != width || k < 0 || k >= buf[0].shape[0]
        || LEN(1) != n_z * n_y || LEN(6) < n_x + n_u
        || LEN(7) != n_w + n_u + n_y + 2 * n_d + n_z) {
        PyErr_SetString(PyExc_ValueError,
                        "record: buffer sizes do not fit together");
        goto done;
    }
#undef LEN
    H = buf[1].buf; y_p = buf[2].buf; u = buf[3].buf; w = buf[4].buf;
    theta = buf[5].buf; z = buf[6].buf; v = buf[7].buf;
    d_l = v + n_w + n_u + n_y + n_d;
    r = d_l + n_d;
    row = (double *)buf[0].buf + k * width;

    p = row;
    *p++ = time;
    p = put(p, r, n_z);
    p = put(p, y_p, n_y);
    product(H, y_p, p, n_z, n_y);
    p = put(p + n_z, u, n_u);
    p = put(p, w, n_x);
    p = put(p, d_l, n_d);
    p = put(p, w + n_x, n_d);
    p = put(p, theta + n_x, n_d);
    p = put(p, z, n_x + n_u);

    quiet = k > 0;
    prev = quiet ? row - width : row;
    for (i = 1; quiet && i < 1 + n_z; i++)
        quiet = row[i] == prev[i];
    for (i = 1 + n_z; quiet && i < 1 + n_z + n_y; i++)
        quiet = fabs(row[i] - prev[i]) <= tol_y;
    for (i = 1 + 2 * n_z + n_y; quiet && i < 1 + 2 * n_z + n_y + n_u; i++)
        quiet = fabs(row[i] - prev[i]) <= tol_u;
    count = quiet ? count + 1 : 0;
    *p++ = objective;
    *p++ = n_active;
    *p = count >= M ? 1.0 : 0.0;

    p = put(v, w, n_w);
    p = put(p, u, n_u);
    p = put(p, y_p, n_y);
    put(p, d_l, n_d);

    out = PyLong_FromSsize_t(count);
done:
    while (n_held > 0)
        PyBuffer_Release(&buf[--n_held]);
    return out;
}

/* the longest text of a field, -2.2250738585072014e-308: a sign, 17
   digits, the point and a 5-character exponent */
#define FIELD_MAX 24

/* The block values (2-D, C-contiguous float64) and n, 0 <= n <= its rows;
   see the header. The text is allocated once, at FIELD_MAX and a
   separator per field and a newline per row, and shrunk to what was
   written. */
static PyObject *
log_text(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    /* per column, the bits of the field last formatted and where its text
       was last written */
    struct field {
        uint64_t bits;
        Py_ssize_t at, len;
    } *above = NULL;
    Py_buffer view;
    const double *row;
    Py_ssize_t n, width, i, j;
    uint64_t bits;
    char *text, *p, *s;
    PyObject *out = NULL;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "log_text takes 2 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    n = PyLong_AsSsize_t(args[1]);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (get_floats(args[0], &view, 0, "log_text"))
        return NULL;
    if (view.ndim != 2 || n < 0 || n > view.shape[0]) {
        PyErr_SetString(PyExc_ValueError,
                        "log_text: buffer sizes do not fit together");
        goto done;
    }
    width = view.shape[1];
    if (n > 0 && width > (PY_SSIZE_T_MAX / n - 1) / (FIELD_MAX + 1)) {
        PyErr_NoMemory();
        goto done;
    }
    above = PyMem_New(struct field, width);
    if (above == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    out = PyUnicode_New(n * (width * (FIELD_MAX + 1) + 1), 127);
    if (out == NULL)
        goto done;
    text = p = (char *)PyUnicode_1BYTE_DATA(out);
    for (i = 0; i < n; i++) {
        row = (const double *)view.buf + i * width;
        for (j = 0; j < width; j++) {
            if (j > 0)
                *p++ = ',';
            memcpy(&bits, &row[j], sizeof(bits));
            if (i == 0 || bits != above[j].bits) {
                s = PyOS_double_to_string(row[j], 'g', 17, 0, NULL);
                if (s == NULL)
                    goto fail;
                above[j].bits = bits;
                above[j].len = (Py_ssize_t)strlen(s);
                if (above[j].len > FIELD_MAX) {
                    PyMem_Free(s);
                    PyErr_SetString(PyExc_SystemError,
                                    "log_text: a field is longer than "
                                    "FIELD_MAX");
                    goto fail;
                }
                memcpy(p, s, above[j].len);
                PyMem_Free(s);
            }
            else
                memcpy(p, text + above[j].at, above[j].len);
            above[j].at = p - text;
            p += above[j].len;
        }
        *p++ = '\n';
    }
    if (PyUnicode_Resize(&out, p - text) == 0)
        goto done;
fail:
    Py_CLEAR(out);
done:
    PyMem_Free(above);
    PyBuffer_Release(&view);
    return out;
}

static PyMethodDef methods[] = {
    {"advance", (PyCFunction)(void (*)(void))advance, METH_FASTCALL,
     "One plant interval of NonlinearPlant.step in place: "
     "kernels._advance_python, compiled."},
    {"interval", (PyCFunction)(void (*)(void))interval, METH_FASTCALL,
     "The free-path interval of ControlLoop.control_step: "
     "kernels._interval_python, compiled."},
    {"record", (PyCFunction)(void (*)(void))record, METH_FASTCALL,
     "The log row, steady count and carry of ControlLoop.control_step: "
     "kernels._record_python, compiled."},
    {"log_text", (PyCFunction)(void (*)(void))log_text, METH_FASTCALL,
     "The body of write_log_csv, rows [0, n) of the log block as text: "
     "kernels._log_text_python, compiled."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels", NULL, -1, methods
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
