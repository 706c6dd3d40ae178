/* The RK4 substep loop of offsetmpc.plant.step, compiled.

   rk4(c, T, h, Tc, F0, T0, c0, k0, neg_E, area, rxn, jacket, extra_outlet,
       hstep, half, sixth, h_half, h_full, h_next, mismatch, substeps)
   -> (c, T, h, ok)

   takes the same arguments as plant._rk4_python and returns what it
   returns: the state after `substeps` RK4 substeps and ok = True, or the
   input state of the first stage that fails the region check and
   ok = False. Every expression keeps the Python loop's association, exp is
   libm's, as CPython's math.exp is, and plant.py builds this file with
   -ffp-contract=off -fno-fast-math, so the compiler fuses no multiply-add
   and reorders nothing: each state is the Python loop's bit for bit. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define N_FLOATS 19
#define N_ARGS (N_FLOATS + 2)

/* the state and the volume it fills are finite and > 0 */
static int
in_region(double c, double T, double h, double V)
{
    return 0.0 < c && c < INFINITY && 0.0 < T && T < INFINITY
           && 0.0 < h && h < INFINITY && V > 0.0;
}

static PyObject *
result(double c, double T, double h, int ok)
{
    PyObject *out = PyTuple_New(4);
    PyObject *item;
    double x[3] = {c, T, h};
    int i;

    if (out == NULL)
        return NULL;
    for (i = 0; i < 3; i++) {
        item = PyFloat_FromDouble(x[i]);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, item);
    }
    PyTuple_SET_ITEM(out, 3, PyBool_FromLong(ok));
    return out;
}

static PyObject *
rk4(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double x[N_FLOATS];
    double c, T, h, Tc, F0, T0, c0, k0, neg_E, area, rxn, jacket;
    double extra_outlet, hstep, half, sixth, h_half, h_full, h_next;
    double V, kT, c2, T2, h2, c3, T3, h3, c4, T4, h4;
    double dc1, dT1, dc2, dT2, dc3, dT3, dc4, dT4;
    int mismatch, i;
    long substeps, k;

    if (nargs != N_ARGS) {
        PyErr_Format(PyExc_TypeError, "rk4 takes %d arguments (%zd given)",
                     N_ARGS, nargs);
        return NULL;
    }
    for (i = 0; i < N_FLOATS; i++) {
        x[i] = PyFloat_AsDouble(args[i]);
        if (x[i] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    mismatch = PyObject_IsTrue(args[N_FLOATS]);
    if (mismatch < 0)
        return NULL;
    substeps = PyLong_AsLong(args[N_FLOATS + 1]);
    if (substeps == -1 && PyErr_Occurred())
        return NULL;
    c = x[0]; T = x[1]; h = x[2]; Tc = x[3];
    F0 = x[4]; T0 = x[5]; c0 = x[6]; k0 = x[7]; neg_E = x[8];
    area = x[9]; rxn = x[10]; jacket = x[11]; extra_outlet = x[12];
    hstep = x[13]; half = x[14]; sixth = x[15];
    h_half = x[16]; h_full = x[17]; h_next = x[18];

    for (k = 0; k < substeps; k++) {
        V = area * h;
        if (!in_region(c, T, h, V))
            return result(c, T, h, 0);
        kT = k0 * exp(neg_E / T);
        dc1 = F0 * (c0 - c) / V - kT * c;
        if (mismatch)
            dc1 -= extra_outlet * c / V;
        dT1 = F0 * (T0 - T) / V - rxn * kT * c + jacket * (Tc - T);

        c2 = c + half * dc1; T2 = T + half * dT1; h2 = h + h_half;
        V = area * h2;
        if (!in_region(c2, T2, h2, V))
            return result(c2, T2, h2, 0);
        kT = k0 * exp(neg_E / T2);
        dc2 = F0 * (c0 - c2) / V - kT * c2;
        if (mismatch)
            dc2 -= extra_outlet * c2 / V;
        dT2 = F0 * (T0 - T2) / V - rxn * kT * c2 + jacket * (Tc - T2);

        c3 = c + half * dc2; T3 = T + half * dT2; h3 = h + h_half;
        V = area * h3;
        if (!in_region(c3, T3, h3, V))
            return result(c3, T3, h3, 0);
        kT = k0 * exp(neg_E / T3);
        dc3 = F0 * (c0 - c3) / V - kT * c3;
        if (mismatch)
            dc3 -= extra_outlet * c3 / V;
        dT3 = F0 * (T0 - T3) / V - rxn * kT * c3 + jacket * (Tc - T3);

        c4 = c + hstep * dc3; T4 = T + hstep * dT3; h4 = h + h_full;
        V = area * h4;
        if (!in_region(c4, T4, h4, V))
            return result(c4, T4, h4, 0);
        kT = k0 * exp(neg_E / T4);
        dc4 = F0 * (c0 - c4) / V - kT * c4;
        if (mismatch)
            dc4 -= extra_outlet * c4 / V;
        dT4 = F0 * (T0 - T4) / V - rxn * kT * c4 + jacket * (Tc - T4);

        c = c + sixth * (dc1 + 2.0 * dc2 + 2.0 * dc3 + dc4);
        T = T + sixth * (dT1 + 2.0 * dT2 + 2.0 * dT3 + dT4);
        h = h + h_next;
    }
    return result(c, T, h, 1);
}

static PyMethodDef methods[] = {
    {"rk4", (PyCFunction)(void (*)(void))rk4, METH_FASTCALL,
     "The RK4 substep loop of plant.step: plant._rk4_python, compiled."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_rk4", NULL, -1, methods
};

PyMODINIT_FUNC
PyInit__rk4(void)
{
    return PyModule_Create(&module);
}
