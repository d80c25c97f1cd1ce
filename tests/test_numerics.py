"""Kernel-level checks: matvec against a loop oracle, activation
values and derivative rules against finite differences, and the Glorot
initializer's determinism, range, and draw count."""

import numpy as np
import numpy.testing as npt
import pytest

from slimrnn.numerics import (
    ACTIVATIONS,
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
    npt.assert_array_equal(matvec(a, np.array([1.0, 1.0])), [3.0, 7.0])
    npt.assert_array_equal(matvec(a, np.array([0.0, 0.0])), [0.0, 0.0])


def test_matvec_matches_loop_oracle():
    rng = make_rng(101)
    for _ in range(20):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        a = rng.uniform(-2.0, 2.0, size=(rows, cols))
        x = rng.uniform(-2.0, 2.0, size=cols)
        npt.assert_allclose(matvec(a, x), loop_matvec(a, x), rtol=0, atol=1e-12)


def test_matvec_distributes_over_addition():
    rng = make_rng(102)
    for _ in range(20):
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 33))
        a = rng.uniform(-1.0, 1.0, size=(rows, cols))
        x = rng.uniform(-1.0, 1.0, size=cols)
        y = rng.uniform(-1.0, 1.0, size=cols)
        npt.assert_allclose(matvec(a, x + y), matvec(a, x) + matvec(a, y),
                            rtol=0, atol=1e-12)


def test_matvec_shape_mismatch_names_both_shapes():
    a = np.zeros((3, 2))
    with pytest.raises(ValueError, match=r"\(3, 2\).*\(4,\)"):
        matvec(a, np.zeros(4))


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


def test_activate_center_values():
    npt.assert_array_equal(activate("sigmoid", np.array([0.0])), [0.5])
    npt.assert_array_equal(activate("tanh", np.array([0.0])), [0.0])
    npt.assert_array_equal(activate("relu", np.array([-1.0, 0.0, 2.0])),
                           [0.0, 0.0, 2.0])


def test_sigmoid_saturates_without_overflow():
    # +/-1000 must neither warn nor produce NaN; the limits are exact.
    with np.errstate(over="raise", invalid="raise"):
        y = activate("sigmoid", np.array([-1000.0, 1000.0]))
    npt.assert_array_equal(y, [0.0, 1.0])


def test_sigmoid_symmetry():
    rng = make_rng(103)
    x = rng.uniform(-30.0, 30.0, size=500)
    s = activate("sigmoid", x) + activate("sigmoid", -x)
    npt.assert_allclose(s, np.ones_like(s), rtol=0, atol=1e-12)


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


def test_make_rng_accepts_numpy_integers():
    npt.assert_array_equal(make_rng(np.int64(5)).uniform(size=3),
                           make_rng(5).uniform(size=3))
