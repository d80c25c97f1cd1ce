"""Kernel-level checks: matvec against a loop oracle, activation
values and derivative rules against finite differences, and the Glorot
initializer's determinism, range, and draw count."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit

from slimrnn.numerics import (
    ACTIVATIONS,
    SIGMOID_VECTOR_MIN,
    activate,
    activate_grad_from_output,
    init_matrix,
    make_rng,
    matvec,
)


def loop_matvec(a, x):
    """Independent O(rows*cols) reference for matvec."""
    rows, cols = a.shape
    out = np.zeros(rows)
    for r in range(rows):
        acc = 0.0
        for c in range(cols):
            acc += a[r, c] * x[c]
        out[r] = acc
    return out


def test_matvec_known_value():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    npt.assert_array_equal(matvec(a, np.array([[1.0, 1.0]])), [[3.0, 7.0]])
    npt.assert_array_equal(matvec(a, np.array([[0.0, 0.0]])), [[0.0, 0.0]])


def test_matvec_matches_loop_oracle():
    rng = make_rng(101)
    for _ in range(20):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        a = rng.uniform(-2.0, 2.0, size=(rows, cols))
        x = rng.uniform(-2.0, 2.0, size=(1, cols))
        npt.assert_allclose(matvec(a, x), [loop_matvec(a, x[0])], rtol=0, atol=1e-12)


def test_matvec_distributes_over_addition():
    rng = make_rng(102)
    for _ in range(20):
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 33))
        a = rng.uniform(-1.0, 1.0, size=(rows, cols))
        x = rng.uniform(-1.0, 1.0, size=(1, cols))
        y = rng.uniform(-1.0, 1.0, size=(1, cols))
        npt.assert_allclose(matvec(a, x + y), matvec(a, x) + matvec(a, y),
                            rtol=0, atol=1e-12)


def test_matvec_shape_mismatch_names_both_shapes():
    a = np.zeros((3, 2))
    with pytest.raises(ValueError, match=r"\(3, 2\).*\(1, 4\)"):
        matvec(a, np.zeros((1, 4)))
    # one sample is a batch of one: a 1-D vector is refused
    with pytest.raises(ValueError, match=r"\(3, 2\) vs \(2,\), expected \(B, n\)"):
        matvec(a, np.zeros(2))


def test_matvec_over_a_batch_axis_applies_to_every_row():
    rng = make_rng(103)
    a = rng.uniform(-1.0, 1.0, size=(5, 4))
    xs = rng.uniform(-1.0, 1.0, size=(6, 4))
    ys = matvec(a, xs)
    assert ys.shape == (6, 5)
    for x, y in zip(xs, ys):
        npt.assert_allclose(y, loop_matvec(a, x), rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match=r"\(5, 4\).*\(6, 3\)"):
        matvec(a, np.zeros((6, 3)))


# each sigmoid check runs on its own points, which take expit, and on the
# same points tiled to SIGMOID_VECTOR_MIN entries, which take NumPy's exp
SIGMOID_SIZES = pytest.mark.parametrize("entries", [None, SIGMOID_VECTOR_MIN],
                                        ids=["own", "tiled"])


def tiled(x, entries):
    return np.asarray(x, dtype=float) if entries is None else np.resize(x, entries)


@SIGMOID_SIZES
def test_activate_center_values(entries):
    npt.assert_array_equal(activate("sigmoid", tiled([0.0], entries)), 0.5)
    npt.assert_array_equal(activate("tanh", tiled([0.0], entries)), 0.0)
    npt.assert_array_equal(activate("relu", tiled([-1.0, 0.0, 2.0], entries)),
                           tiled([0.0, 0.0, 2.0], entries))


@SIGMOID_SIZES
def test_sigmoid_saturates_without_overflow(entries):
    # +/-1000 must neither warn nor produce NaN; the limits are exact.
    with np.errstate(over="raise", invalid="raise"):
        y = activate("sigmoid", tiled([-1000.0, 1000.0], entries))
    npt.assert_array_equal(y, tiled([0.0, 1.0], entries))


@SIGMOID_SIZES
def test_sigmoid_saturates_to_exact_limits_under_every_floating_point_trap(entries):
    # exp overflows past 709.78, and 1 / (1 + exp(-x)) then reads exactly 0
    # where a branch form would give a subnormal (4.48e-309 at -710)
    x = tiled([-1000.0, -710.0, 710.0, 1000.0], entries)
    with np.errstate(all="raise"):
        y = activate("sigmoid", x)
        into = activate("sigmoid", x, out=np.empty_like(x))
    npt.assert_array_equal(y, tiled([0.0, 0.0, 1.0, 1.0], entries))
    npt.assert_array_equal(into, y)


@SIGMOID_SIZES
def test_sigmoid_symmetry(entries):
    rng = make_rng(103)
    x = tiled(rng.uniform(-30.0, 30.0, size=500), entries)
    s = activate("sigmoid", x) + activate("sigmoid", -x)
    npt.assert_allclose(s, np.ones_like(s), rtol=0, atol=1e-12)


def test_sigmoid_takes_expit_below_the_vector_size_and_numpys_exp_from_it():
    # in place on lstm's gate view z[:, :3n] of a (b, 4n) array, as its step
    # activates it, and on 1-D arrays either side of the constant; the
    # points include where exp over- and underflows, under every trap
    rng = make_rng(108)
    edges = [-800.0, -745.5, -710.0, -709.0, -700.0, 36.0, 40.0, 800.0,
             np.inf, -np.inf, np.nan]
    cases = [(b, 3 * n) for b, n in ((1, 100), (3, 100), (2, 170), (4, 100), (16, 100))]
    cases += [(1, SIGMOID_VECTOR_MIN - 1), (1, SIGMOID_VECTOR_MIN)]
    for b, width in cases:
        z = rng.uniform(-40.0, 40.0, size=(b, width + width // 3))
        z[0, :len(edges)] = edges
        x = z[:, :width].copy()
        rest = z[:, width:].copy()
        with np.errstate(over="ignore", under="ignore"):
            want = (expit(x) if x.size < SIGMOID_VECTOR_MIN else
                    1.0 / (1.0 + np.exp(-x)))
        with np.errstate(all="raise"):
            y = activate("sigmoid", z[:, :width], out=z[:, :width])
        assert np.shares_memory(y, z)
        npt.assert_array_equal(z[:, :width], want, err_msg=f"{b} x {width}")
        npt.assert_array_equal(z[:, width:], rest)
        npt.assert_allclose(want, expit(x), rtol=1e-15, atol=0)
        npt.assert_array_equal(want[0, :len(edges)], expit(np.array(edges)))


def test_tanh_is_odd():
    rng = make_rng(104)
    x = rng.uniform(-10.0, 10.0, size=500)
    npt.assert_allclose(activate("tanh", -x), -activate("tanh", x),
                        rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind", ACTIVATIONS)
def test_derivative_rule_matches_central_differences(kind):
    """d/dx activate == activate_grad_from_output(activate(x)), checked
    against (act(x+h) - act(x-h)) / 2h at h = 1e-6 over |x| <= 10."""
    h = 1e-6
    x = np.linspace(-10.0, 10.0, 801)
    if kind == "relu":
        x = x[np.abs(x) > 1e-3]  # the kink has no two-sided derivative
    y = activate(kind, x)
    analytic = activate_grad_from_output(kind, y)
    fd = (activate(kind, x + h) - activate(kind, x - h)) / (2.0 * h)
    npt.assert_allclose(analytic, fd, rtol=0, atol=1e-8)


def test_grad_from_output_closed_forms():
    y = np.array([0.25, 0.5, 0.9])
    npt.assert_allclose(activate_grad_from_output("sigmoid", y), y * (1 - y))
    npt.assert_allclose(activate_grad_from_output("tanh", y), 1 - y * y)
    npt.assert_array_equal(
        activate_grad_from_output("relu", np.array([0.0, 0.5, 2.0])),
        [0.0, 1.0, 1.0])


@pytest.mark.parametrize("kind", ACTIVATIONS)
def test_grad_from_output_into_out_has_the_allocating_bits(kind):
    # the backward pass writes its factors into given arrays: into a strided
    # block of a wider array too, with relu's kink at exactly 0 included
    rng = make_rng(106)
    y = activate(kind, rng.uniform(-4.0, 4.0, size=(5, 3, 4)))
    y[0, 0, :2] = 0.0
    want = {"sigmoid": y * (1.0 - y), "tanh": 1.0 - y * y,
            "relu": (y > 0.0).astype(np.float64)}[kind]
    npt.assert_array_equal(activate_grad_from_output(kind, y), want)
    wide = np.full((5, 3, 12), np.nan)
    out = wide[..., 4:8]
    assert activate_grad_from_output(kind, y, out=out) is out
    npt.assert_array_equal(out, want)
    assert np.isnan(wide[..., :4]).all() and np.isnan(wide[..., 8:]).all()


@pytest.mark.parametrize("kind", ACTIVATIONS)
def test_grad_from_output_rejects_an_out_that_overlaps_y(kind):
    buf = np.full((4, 6), 0.5)
    for y, out in ((buf, buf), (buf[:, :4], buf[:, 2:]), (buf[:, :3], buf[:, :3].T.T)):
        with pytest.raises(ValueError, match="overlaps"):
            activate_grad_from_output(kind, y, out=out)
    npt.assert_array_equal(buf, 0.5)
    activate_grad_from_output(kind, buf[:, :3], out=buf[:, 3:])  # disjoint blocks


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="softsign"):
        activate("softsign", np.zeros(1))
    with pytest.raises(ValueError):
        activate_grad_from_output("softsign", np.zeros(1))


def test_init_matrix_deterministic_for_fixed_seed():
    a = init_matrix(make_rng(42), 2, 2)
    b = init_matrix(make_rng(42), 2, 2)
    npt.assert_array_equal(a, b)
    c = init_matrix(make_rng(43), 2, 2)
    assert np.any(a != c)


def test_init_matrix_range():
    w = init_matrix(make_rng(7), 100, 100)
    s = np.sqrt(6.0 / (100 + 100))
    assert w.shape == (100, 100)
    assert np.all(np.abs(w) <= s)


def test_init_matrix_sample_mean_near_zero():
    w = init_matrix(make_rng(7), 1000, 1000)
    assert abs(w.mean()) < 0.01


def test_init_matrix_consumes_exactly_rows_times_cols_draws():
    # After drawing a matrix, both generators must be in the same state.
    rng_a = make_rng(11)
    init_matrix(rng_a, 5, 7)
    rng_b = make_rng(11)
    rng_b.uniform(size=5 * 7)
    npt.assert_array_equal(rng_a.uniform(size=10), rng_b.uniform(size=10))


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0)])
def test_init_matrix_refuses_a_zero_dimension(rows, cols):
    with pytest.raises(ValueError) as info:
        init_matrix(make_rng(12), rows, cols)
    assert str(info.value) == f"init_matrix needs rows, cols >= 1, got {rows}x{cols}"


def test_make_rng_accepts_numpy_integers():
    npt.assert_array_equal(make_rng(np.int64(5)).uniform(size=3),
                           make_rng(5).uniform(size=3))


def test_matvec_rows_get_the_bits_of_a_batch_of_one():
    # the readout of a chunk of samples gives each sample the bits it gets alone
    rng = make_rng(2060)
    for B in (1, 2, 3, 5, 8, 13, 32):
        for cols in (1, 2, 3, 7, 8, 16, 33, 64, 100, 257, 400):
            for rows in (1, 2, 3, 4, 7, 20):
                a = rng.uniform(-1.0, 1.0, (rows, cols))
                x = rng.uniform(-1.0, 1.0, (B, cols))
                y = matvec(a, x)
                assert y.shape == (B, rows)
                for j in range(B):
                    npt.assert_array_equal(y[j:j + 1], matvec(a, x[j:j + 1]),
                                           err_msg=f"B={B} cols={cols} rows={rows} j={j}")
