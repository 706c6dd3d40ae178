"""Normalized-RBF regression over a sliding window of steady-state samples.

Predictions are weighted averages of stored outputs, with weights decaying
in the standardized input distance. The window is FIFO so the map tracks a
plant whose characteristics drift. Models are immutable; add_sample returns
a new instance, which keeps the predictions lookup makes of it.
"""

import dataclasses
import functools
import math

import numpy as np


class InsufficientData(Exception):
    pass


class ParseError(Exception):
    pass


SIGMA_GRID = np.logspace(-2.0, 1.0, 31)

# rows of the leave-one-out distance matrix per block, when it is built and
# in each kernel evaluation: a block's temporaries stay small while each
# numpy call still covers many rows
LOO_BLOCK = 32


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class GrnnModel:
    X: np.ndarray            # (k, n_in) window inputs, oldest first
    Y: np.ndarray            # (k, n_out) window outputs
    sigma: float             # kernel width in standardized input units
    capacity: int
    mean: np.ndarray         # per-input standardization of X
    spread: np.ndarray
    Xn: np.ndarray           # (X - mean) / spread

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be > 0")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if len(self.X) > self.capacity:
            raise ValueError("more samples than capacity")

    @property
    def n_out(self):
        return self.Y.shape[1]

    @functools.cached_property
    def loo_d2(self):
        """(k, k) standardized squared distances between window rows,
        read-only, with an infinite diagonal so that a left-out row gives
        itself zero weight. Built once per model, since it does not depend
        on sigma, one row block and input column at a time. Row j equals
        ((Xn - Xn[j]) ** 2).sum(axis=1) bit for bit for fewer than 8
        inputs, which numpy sums left to right as this loop does; it sums
        longer rows pairwise, which moves the last bits only."""
        k = len(self.Xn)
        d2 = np.zeros((k, k))
        for i in range(0, k, LOO_BLOCK):
            block = d2[i:i + LOO_BLOCK]
            for x in self.Xn.T:
                block += (x[i:i + LOO_BLOCK, None] - x) ** 2
        np.fill_diagonal(d2, np.inf)
        d2.flags.writeable = False
        return d2

    @functools.cached_property
    def predictions(self):
        """lookup's store, keyed by the setpoint's float64 bytes."""
        return {}


def make_model(capacity, n_out, sigma=0.5):
    empty = np.zeros((0, 0))
    return GrnnModel(empty, np.zeros((0, int(n_out))), float(sigma),
                     int(capacity), np.zeros(0), np.ones(0), empty)


def add_sample(model, r, d_ss):
    return _grown(model, [r], [d_ss])


def from_samples(capacity, n_out, sigma, samples):
    """The model that folding add_sample over samples [(r, d_ss), ...] from
    make_model(capacity, n_out, sigma) gives, window arrays bit for bit,
    built in one step. Raises ValueError for a non-finite sample,
    inconsistent dimensions, or inputs that overflow the kept window's
    standardization."""
    model = make_model(capacity, n_out, sigma)
    if not samples:
        return model
    return _grown(model, [r for r, _ in samples], [d for _, d in samples])


def _grown(model, rs, ds):
    """model with the samples of inputs rs and outputs ds stacked under its
    window, which keeps the last capacity rows."""
    rs = [np.asarray(r, dtype=float).reshape(-1) for r in rs]
    ds = [np.asarray(d, dtype=float).reshape(-1) for d in ds]
    if any(len(d) != model.n_out for d in ds):
        raise ValueError("output dimension mismatch")
    n_in = model.X.shape[1] if len(model.X) else len(rs[0])
    if any(len(r) != n_in for r in rs):
        raise ValueError("input dimension mismatch")
    X, Y = np.array(rs), np.array(ds)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("sample must be finite")
    if len(model.X):
        X, Y = np.vstack([model.X, X]), np.vstack([model.Y, Y])
    return _window(model, X[-model.capacity:], Y[-model.capacity:])


def _window(model, X, Y):
    """model with the window X, Y and its standardization."""
    # inputs near the float limit overflow the standardization
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        spread = X.std(axis=0)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(spread))):
        raise ValueError("sample inputs overflow the window's standardization")
    # constant dimensions would blow up the normalization
    spread = np.where(spread < 1e-12, 1.0, spread)
    return GrnnModel(X, Y, model.sigma, model.capacity, mean, spread,
                     (X - mean) / spread)


def _kernel_mean(d2, Y, sigma):
    # shifting by the minimum keeps the largest weight at 1, so the
    # average stays well defined down to the nearest-neighbor limit
    d2 = d2 - d2.min()
    w = np.exp(-d2 / (2.0 * sigma ** 2))
    return (w[:, None] * Y).sum(axis=0) / w.sum()


def predict(model, r):
    """The map's output at r, zeros for an empty window; r must have as many
    entries as the window has inputs, else ValueError."""
    if not len(model.X):
        return np.zeros(model.n_out)
    r = np.asarray(r, dtype=float).reshape(-1)
    if len(r) != model.X.shape[1]:
        # the standardization would broadcast a single entry
        raise ValueError(f"setpoint has {len(r)} entries, the map takes "
                         f"{model.X.shape[1]} inputs")
    qn = (r - model.mean) / model.spread
    return _kernel_mean(((model.Xn - qn) ** 2).sum(axis=1), model.Y,
                        model.sigma)


def lookup(model, r):
    """predict(model, r), read-only, computed once per model and setpoint
    and kept in model.predictions. predict is called through this module,
    so a wrapper set on grnn.predict sees each computation."""
    r = np.asarray(r, dtype=float).reshape(-1)
    d = model.predictions.get(r.tobytes())
    if d is None:
        d = model.predictions[r.tobytes()] = predict(model, r)
        d.flags.writeable = False
    return d


def loo_error(model, sigma):
    """Mean squared leave-one-out prediction error at a given sigma."""
    k = len(model.X)
    if k < 2:
        raise InsufficientData("need at least 2 samples")
    D, Y = model.loo_d2, model.Y
    err = 0.0
    for i in range(0, k, LOO_BLOCK):
        # _kernel_mean for a block of rows at once, with its per-row shift
        # by the minimum
        d2 = D[i:i + LOO_BLOCK]
        w = d2 - d2.min(axis=1, keepdims=True)
        w /= -2.0 * sigma ** 2
        np.exp(w, out=w)
        # column sums rather than w @ Y: the matrix product is faster, but
        # its BLAS work buffers add ~0.3 MB (0.5%) to grnn-fit's peak memory
        num = np.column_stack([(w * y).sum(axis=1) for y in Y.T])
        pred = num / w.sum(axis=1, keepdims=True)
        err += float(((pred - Y[i:i + LOO_BLOCK]) ** 2).sum())
    return err / k


def select_sigma(model, curve=None):
    """Leave-one-out sweep over SIGMA_GRID, ascending; ties keep the
    smaller sigma. Needs at least 2 samples, as loo_error does. A list
    passed as curve receives the sweep's (sigma, error) pairs, so a caller
    that also reports the curve sweeps once."""
    best_s, best_e = None, np.inf
    for s in SIGMA_GRID:
        e = loo_error(model, float(s))
        if curve is not None:
            curve.append((float(s), e))
        if e < best_e:
            best_s, best_e = float(s), e
    return best_s


def default_sigma(model):
    if len(model.X) >= 5:
        return select_sigma(model)
    return 0.5


def with_sigma(model, sigma):
    return dataclasses.replace(model, sigma=float(sigma))


# ---- line-oriented text serialization ----

def _fmt(v):
    return " ".join("%.17g" % x for x in v)


def write_rows(fh, rows):
    """One line per row of numbers in %.17g, which read_rows reads back."""
    for row in rows:
        fh.write(_fmt(row) + "\n")


def open_text(path):
    """path opened to read as UTF-8 whatever the locale; a byte that is not
    UTF-8 stays in as a lone surrogate, which fails as a non-numeric field."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def read_rows(path, lines, comment=None):
    """The rows of the (line number, text) pairs of a numeric text file:
    finite floats, as many per row as in the first, with '#' starting a
    comment, which comment(lineno, text) is given when passed ('' for a
    line without one). A ParseError names path and the line."""
    rows = []
    for lineno, raw in lines:
        body, _, text = raw.partition("#")
        if comment is not None:
            comment(lineno, text)
        if not body.strip():
            continue
        try:
            vals = [float(tok) for tok in body.split()]
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric field")
        if not all(map(math.isfinite, vals)):
            raise ParseError(f"{path}: line {lineno}: non-finite field")
        if rows and len(vals) != len(rows[0]):
            raise ParseError(f"{path}: line {lineno}: expected {len(rows[0])} "
                             f"fields, got {len(vals)}")
        rows.append(vals)
    return rows


def write_samples(path, samples):
    with open(path, "w") as fh:
        fh.write("# steady-state training samples\n")
        _write_samples(fh, samples)


def _write_samples(fh, samples):
    """The '# inputs k' directive, k from the first sample, then one row
    per sample, as load_samples reads them; nothing for no samples."""
    if samples:
        fh.write(f"# inputs {len(samples[0][0])}\n")
    write_rows(fh, ((*r, *d) for r, d in samples))


def load_samples(path):
    """Whitespace-separated numeric rows, '#' comments, as read_rows reads
    them; the samples [(r, d), ...] split after the first k fields by the
    last '# inputs k' directive."""
    n_in = None

    def directive(lineno, text):
        nonlocal n_in
        if text.strip().startswith("inputs"):
            try:
                n_in = int(text.split()[1])
            except (IndexError, ValueError):
                raise ParseError(f"{path}: line {lineno}: bad inputs directive")

    with open_text(path) as fh:
        rows = read_rows(path, enumerate(fh, start=1), directive)
    if not rows:
        return []
    if n_in is None:
        raise ParseError(f"{path}: input dimension unknown: no '# inputs k' "
                         "directive")
    if not 0 < n_in < len(rows[0]):
        raise ParseError(f"{path}: inputs directive {n_in} inconsistent with "
                         f"{len(rows[0])}-column rows")
    return [(np.array(vals[:n_in]), np.array(vals[n_in:])) for vals in rows]


def write_model(path, model):
    with open(path, "w") as fh:
        fh.write("# fitted regression model\n")
        fh.write("sigma %.17g\n" % model.sigma)
        fh.write("capacity %d\n" % model.capacity)
        fh.write("outputs %d\n" % model.n_out)
        _write_samples(fh, list(zip(model.X, model.Y)))
