import pathlib

import numpy as np
import pytest

from offsetmpc import grnn

TRAIN_400 = (pathlib.Path(__file__).resolve().parent.parent / "out"
             / "sweep_ct_400_train.txt")


def linear_map_model(n=20, seed=3, capacity=50):
    rng = np.random.default_rng(seed)
    M = np.array([[2.0, -1.0], [0.5, 3.0]])
    m = grnn.make_model(capacity=capacity, n_out=2)
    for p in rng.uniform(-1.0, 1.0, size=(n, 2)):
        m = grnn.add_sample(m, p, M @ p)
    return m, M


def test_empty_model_predicts_zero():
    m = grnn.make_model(capacity=10, n_out=2)
    assert np.array_equal(grnn.predict(m, np.array([0.3, -0.1])), np.zeros(2))


def test_single_sample_is_constant_map():
    m = grnn.make_model(capacity=10, n_out=2)
    m = grnn.add_sample(m, np.array([0.1, 0.2]), np.array([1.5, -2.0]))
    for q in ([0.1, 0.2], [5.0, -3.0], [0.0, 0.0]):
        assert np.allclose(grnn.predict(m, np.array(q)), [1.5, -2.0])


def test_equidistant_pair_averages():
    m = grnn.make_model(capacity=10, n_out=1)
    m = grnn.add_sample(m, np.array([-1.0]), np.array([2.0]))
    m = grnn.add_sample(m, np.array([1.0]), np.array([6.0]))
    assert grnn.predict(m, np.array([0.0]))[0] == pytest.approx(4.0, abs=1e-12)


def test_prediction_stays_in_output_hull():
    """Normalized positive weights keep every output inside the sample hull,
    coordinate by coordinate."""
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        m = grnn.make_model(capacity=40, n_out=3,
                            sigma=float(rng.uniform(0.05, 2.0)))
        outs = rng.normal(size=(n, 3))
        for i in range(n):
            m = grnn.add_sample(m, rng.normal(size=2), outs[i])
        lo, hi = outs.min(axis=0), outs.max(axis=0)
        for _ in range(10):
            y = grnn.predict(m, rng.normal(scale=3.0, size=2))
            assert (y >= lo - 1e-12).all() and (y <= hi + 1e-12).all()


def test_wide_kernel_limit_is_mean():
    m, _ = linear_map_model()
    m = grnn.with_sigma(m, 1e6)
    outs = m.Y
    y = grnn.predict(m, np.array([0.2, 0.3]))
    assert np.allclose(y, outs.mean(axis=0), atol=1e-6)


def test_narrow_kernel_limit_is_nearest_neighbour():
    m, _ = linear_map_model()
    m = grnn.with_sigma(m, 1e-6)
    q = np.array([0.21, -0.37])
    ins = m.X
    outs = m.Y
    scaled = (ins - ins.mean(axis=0)) / np.where(ins.std(axis=0) < 1e-12, 1.0,
                                                 ins.std(axis=0))
    qs = (q - ins.mean(axis=0)) / np.where(ins.std(axis=0) < 1e-12, 1.0,
                                           ins.std(axis=0))
    nearest = np.argmin(((scaled - qs) ** 2).sum(axis=1))
    assert np.allclose(grnn.predict(m, q), outs[nearest], atol=1e-9)


def test_fifo_eviction():
    m = grnn.make_model(capacity=3, n_out=1)
    for k in range(5):
        m = grnn.add_sample(m, np.array([float(k)]), np.array([float(k)]))
    kept = list(m.X[:, 0])
    assert kept == [2.0, 3.0, 4.0]
    assert len(m.X) == 3


def test_add_sample_does_not_mutate():
    m0 = grnn.make_model(capacity=5, n_out=1)
    m1 = grnn.add_sample(m0, np.array([0.0]), np.array([1.0]))
    assert len(m0.X) == 0
    assert len(m1.X) == 1


def test_permutation_invariance():
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(12, 2))
    outs = rng.normal(size=(12, 2))
    a = grnn.make_model(capacity=20, n_out=2, sigma=0.7)
    b = grnn.make_model(capacity=20, n_out=2, sigma=0.7)
    order = rng.permutation(12)
    for i in range(12):
        a = grnn.add_sample(a, pts[i], outs[i])
        b = grnn.add_sample(b, pts[order[i]], outs[order[i]])
    q = np.array([0.4, -0.2])
    assert np.allclose(grnn.predict(a, q), grnn.predict(b, q), atol=1e-12)


def reference_loo(X, Y, sigma):
    """Leave-one-out error written out row by row: each left-out row is
    predicted from a masked copy of the others, under the standardization of
    the full window."""
    spread = X.std(axis=0)
    spread = np.where(spread < 1e-12, 1.0, spread)
    Xn = (X - X.mean(axis=0)) / spread
    err = 0.0
    for j in range(len(X)):
        keep = np.arange(len(X)) != j
        d2 = ((Xn[keep] - Xn[j]) ** 2).sum(axis=1)
        w = np.exp(-(d2 - d2.min()) / (2.0 * sigma ** 2))
        pred = w @ Y[keep] / w.sum()
        err += ((pred - Y[j]) ** 2).sum()
    return err / len(X)


B = grnn.LOO_BLOCK
# window: (samples, capacity, rows copied from an earlier row as (to, from))
LOO_WINDOWS = {
    "duplicate inputs": (14, 14, [(5, 2), (9, 2), (11, 7)]),
    "fifo evicted": (14, 9, []),
    # more than three row blocks, the last one partial
    "k = 100": (100, 100, []),
    "duplicates across a block boundary": (100, 100, [(B, B - 1),
                                                      (2 * B + 3, 4)]),
}


@pytest.mark.parametrize("window", sorted(LOO_WINDOWS))
def test_loo_error_matches_masked_reference(window):
    n, capacity, copies = LOO_WINDOWS[window]
    rng = np.random.default_rng(29)
    X = rng.normal(size=(n, 2))
    for to, frm in copies:
        X[to] = X[frm]
    Y = rng.normal(size=(n, 2))
    m = grnn.make_model(capacity=capacity, n_out=2)
    for x, y in zip(X, Y):
        m = grnn.add_sample(m, x, y)
    X, Y = X[-m.capacity:], Y[-m.capacity:]
    for sigma in (grnn.SIGMA_GRID[0], 0.1, 0.7, 5.0, grnn.SIGMA_GRID[-1]):
        assert grnn.loo_error(m, sigma) == pytest.approx(
            reference_loo(X, Y, sigma), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n_in", [1, 2, 3])
def test_loo_distances_equal_the_row_formula(n_in):
    """The distance matrix is built once per model, by row block and input
    column, but with fewer than 8 inputs each row is the per-row formula
    bit for bit, with inf on the diagonal."""
    X = np.random.default_rng(n_in).normal(size=(2 * B + 7, n_in))
    m = grnn.from_samples(len(X), 1, 0.5, [(x, [0.0]) for x in X])
    d2 = m.loo_d2
    assert d2 is m.loo_d2 and not d2.flags.writeable
    for j in range(len(X)):
        row = ((m.Xn - m.Xn[j]) ** 2).sum(axis=1)
        row[j] = np.inf
        assert d2[j].tobytes() == row.tobytes(), j


def test_select_sigma_on_the_committed_400_samples():
    samples = grnn.load_samples(str(TRAIN_400))
    assert len(samples) == 400
    m = grnn.from_samples(len(samples), 2, 0.5, samples)
    assert grnn.select_sigma(m) == 0.1


def folded(capacity, n_out, sigma, samples):
    m = grnn.make_model(capacity, n_out, sigma)
    for r, d in samples:
        m = grnn.add_sample(m, r, d)
    return m


@pytest.mark.parametrize("capacity", [400, 150])
def test_from_samples_equals_folding_add_sample(capacity):
    """The committed 400-sample file, whole and longer than the window."""
    samples = grnn.load_samples(str(TRAIN_400))
    a = folded(capacity, 2, 0.3, samples)
    b = grnn.from_samples(capacity, 2, 0.3, samples)
    assert (b.sigma, b.capacity, len(b.X)) == (0.3, capacity, capacity)
    for name in ("X", "Y", "mean", "spread", "Xn"):
        got, ref = getattr(b, name), getattr(a, name)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("samples", [
    [([0.0, 1.0], [1.0]), ([np.nan, 1.0], [1.0])],
    [([0.0, 1.0], [1.0]), ([0.0, 1.0], [1.0, 2.0])],
    [([0.0, 1.0], [1.0]), ([0.0, 1.0, 2.0], [1.0])],
    [([1e308], [0.0]), ([-1e308], [0.0]), ([1.7e308], [0.0])],
], ids=["non-finite", "output dimension", "input dimension", "overflow"])
def test_from_samples_rejects_what_add_sample_rejects(samples):
    with pytest.raises(ValueError):
        folded(5, 1, 0.5, samples)
    with pytest.raises(ValueError):
        grnn.from_samples(5, 1, 0.5, samples)


def test_select_sigma_needs_two_samples():
    m = grnn.make_model(capacity=5, n_out=1)
    with pytest.raises(grnn.InsufficientData):
        grnn.select_sigma(m)
    m = grnn.add_sample(m, np.array([0.0]), np.array([0.0]))
    with pytest.raises(grnn.InsufficientData):
        grnn.select_sigma(m)


def test_select_sigma_returns_grid_argmin():
    m, _ = linear_map_model()
    sig = grnn.select_sigma(m)
    errs = np.array([grnn.loo_error(m, s) for s in grnn.SIGMA_GRID])
    k = int(np.argmin(errs))
    assert sig == grnn.SIGMA_GRID[k]
    # smooth data gives an interior optimum, not a grid endpoint
    assert 0 < k < len(grnn.SIGMA_GRID) - 1


def test_select_sigma_tie_takes_smaller():
    # two identical samples at distinct points: loo error is flat in sigma
    m = grnn.make_model(capacity=5, n_out=1)
    m = grnn.add_sample(m, np.array([0.0]), np.array([1.0]))
    m = grnn.add_sample(m, np.array([1.0]), np.array([1.0]))
    assert grnn.select_sigma(m) == grnn.SIGMA_GRID[0]


def test_default_sigma_fallback():
    m = grnn.make_model(capacity=10, n_out=1, sigma=0.5)
    for k in range(4):
        m = grnn.add_sample(m, np.array([float(k)]), np.array([float(k)]))
    assert grnn.default_sigma(m) == 0.5  # under the selection threshold
    m = grnn.add_sample(m, np.array([4.0]), np.array([4.0]))
    assert grnn.default_sigma(m) == grnn.select_sigma(m)


def test_samples_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    rows = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(7)]
    path = tmp_path / "train.txt"
    grnn.write_samples(str(path), rows)
    back = grnn.load_samples(str(path))
    assert len(back) == 7
    for (r0, d0), (r1, d1) in zip(rows, back):
        assert np.array_equal(r0, r1)
        assert np.array_equal(d0, d1)


def test_model_round_trip(tmp_path):
    """write_model writes the sigma, capacity and outputs lines, then the
    window as write_samples does: rows that read_rows reads back bit for
    bit, each with its line number."""
    m, _ = linear_map_model(n=9)
    m = grnn.with_sigma(m, 0.37)
    path = tmp_path / "model.txt"
    grnn.write_model(str(path), m)
    lines = path.read_text().splitlines()
    assert lines[1:5] == ["sigma %.17g" % 0.37, "capacity 50", "outputs 2",
                          "# inputs 2"]
    rows = grnn.read_rows(str(path), enumerate(lines[5:], start=6))
    assert [lineno for lineno, _ in rows] == list(range(6, 15))
    assert np.array_equal([vals for _, vals in rows], np.hstack([m.X, m.Y]))


def test_load_samples_reports_bad_line(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("# inputs 2\n0.1 0.2 1.0 2.0\n0.3 oops 1.0 2.0\n")
    with pytest.raises(grnn.ParseError) as exc:
        grnn.load_samples(str(path))
    assert str(exc.value) == f"{path}: line 3: non-numeric field"


def test_load_samples_rejects_ragged(tmp_path):
    path = tmp_path / "ragged.txt"
    path.write_text("# inputs 2\n0.1 0.2 1.0 2.0\n0.3 0.4 1.0\n")
    with pytest.raises(grnn.ParseError):
        grnn.load_samples(str(path))


@pytest.mark.parametrize("line, text, message", [
    (2, "# inputs two", "bad inputs directive"),
    (4, "0.1 0.2 1.0", "expected 4 fields, got 3"),
    (3, "0.1 nan 1.0 2.0", "non-finite field"),
], ids=["directive", "short row", "nan"])
def test_load_samples_names_the_bad_line(tmp_path, line, text, message):
    """A bad directive or row of a sample file is a ParseError naming the
    file and the line."""
    m, _ = linear_map_model(n=4)
    path = tmp_path / "train.txt"
    grnn.write_samples(str(path), list(zip(m.X, m.Y)))
    lines = path.read_text().splitlines()
    assert lines[1] == "# inputs 2"
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(grnn.ParseError) as exc:
        grnn.load_samples(str(path))
    assert str(exc.value) == f"{path}: line {line}: {message}"


# ---- lookup: the model keeps its own predictions ----

def test_lookup_is_predict_computed_once(predict_calls):
    """lookup returns predict's array bit for bit, read-only; a second
    lookup at the same setpoint, through any array type that holds it,
    returns the same array and makes no predict call."""
    m, _ = linear_map_model()
    rng = np.random.default_rng(5)
    for q in rng.normal(scale=2.0, size=(8, 2)):
        want = grnn.predict(m, q)
        predict_calls.clear()
        got = grnn.lookup(m, q)
        assert got.tobytes() == want.tobytes() and not got.flags.writeable
        assert predict_calls == [(m, q.tolist())]
        for again in (q.copy(), q.tolist(), tuple(q)):
            assert grnn.lookup(m, again) is got
        assert len(predict_calls) == 1
        with pytest.raises(ValueError):
            got[0] = 0.0
    empty = grnn.make_model(capacity=5, n_out=2)
    assert grnn.lookup(empty, [0.1, 0.2]).tolist() == [0.0, 0.0]


def test_a_new_model_starts_without_predictions(predict_calls):
    """The models that add_sample, with_sigma and from_samples return
    start with an empty store, so a lookup on them predicts again, and
    a lookup on one leaves the others' stores as they were."""
    m, _ = linear_map_model()
    q = np.array([0.2, -0.3])
    grnn.lookup(m, q)
    children = [grnn.add_sample(m, [0.5, 0.5], [1.0, 1.0]),
                grnn.with_sigma(m, m.sigma),
                grnn.from_samples(m.capacity, 2, m.sigma,
                                  list(zip(m.X, m.Y)))]
    for child in children:
        assert child.predictions == {}
        predict_calls.clear()
        grnn.lookup(child, q)
        assert predict_calls == [(child, q.tolist())]
    assert list(m.predictions) == [q.tobytes()]


@pytest.mark.parametrize("r", [[0.1], [0.1, 0.2, 0.3], []],
                         ids=["1", "3", "0"])
def test_predict_refuses_a_setpoint_of_the_wrong_length(r):
    """On a window of 2 inputs, a setpoint of another length is a
    ValueError, not a standardization broadcast over it; nothing is
    stored. The empty map, whose input count is unknown, predicts zeros."""
    m, _ = linear_map_model()
    for fn in (grnn.predict, grnn.lookup):
        with pytest.raises(ValueError, match=(
                rf"^setpoint has {len(r)} entries, the map takes 2 inputs$")):
            fn(m, r)
    assert m.predictions == {}
    empty = grnn.make_model(capacity=5, n_out=2)
    assert grnn.predict(empty, r).tolist() == [0.0, 0.0]
