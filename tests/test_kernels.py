"""Kernel values against frozen high-precision references, and the
spectral (matrix-beta) path against the scalar one.

Reference literals were generated once by tools/make_oracles.py (mpmath,
50 digits) and are pasted here as plain floats.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hpid.errors import DomainError, InputError
from hpid.kernels import (
    MatrixBeta,
    ScalarBeta,
    _abc,
    _h_probe,
    _harmonic_step,
    _rows_matmul,
    decompose,
    drift_prefactors,
    log_g_minus,
    log_g_plus,
    log_kernel_ratio,
)
from hpid.stationary import _probe_denominator

finite_floats = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
betas = st.sampled_from([0.0, 1e-14, 1e-13, 1e-11, 0.3, 1.0, 2.0, 7.5, 100.0])
times = st.floats(0.01, 0.99, allow_nan=False)


def test_scalar_beta_validation():
    with pytest.raises(InputError):
        ScalarBeta(beta=-0.1, dim=1)
    with pytest.raises(InputError):
        ScalarBeta(beta=float("nan"), dim=1)
    with pytest.raises(InputError):
        ScalarBeta(beta=1.0, dim=0)


def test_log_g_minus_frozen_values():
    p = ScalarBeta(beta=1.0, dim=1)
    got = log_g_minus(p, 0.0, 0.0, 0.0)
    assert_allclose(got, -0.9996582139902705585854, rtol=1e-14)
    p = ScalarBeta(beta=2.0, dim=2)
    got = log_g_minus(p, 0.35, [0.4, -1.1], [0.9, 0.3])
    assert_allclose(got, -3.716255471602826375381, rtol=1e-14)


def test_log_g_plus_frozen_values():
    p = ScalarBeta(beta=1.0, dim=1)
    got = log_g_plus(p, 1.0, 1.0, 0.0)
    assert_allclose(got, -1.656175856739936210403, rtol=1e-14)
    p = ScalarBeta(beta=1.3, dim=2)
    got = log_g_plus(p, 0.8, [0.2, 0.5], [-0.7, 1.1])
    assert_allclose(got, -2.872922525488852011515, rtol=1e-14)


def test_log_kernel_ratio_frozen_values():
    p = ScalarBeta(beta=1.5, dim=1)
    got = log_kernel_ratio(p, 0.45, 0.8, -0.6)
    assert_allclose(got, -1.209599205580374564985, rtol=1e-14)
    got = log_kernel_ratio(p, 0.45, 0.0, 0.0)
    assert_allclose(got, 0.3809474603482105173627, rtol=1e-14)


def test_drift_prefactors_frozen_values():
    c1, c2 = drift_prefactors(ScalarBeta(beta=1.0, dim=1), 0.0)
    assert_allclose(c1, 0.8509181282393215451338, rtol=1e-14)
    assert_allclose(c2, 1.543080634815243778478, rtol=1e-14)
    c1, c2 = drift_prefactors(ScalarBeta(beta=2.7, dim=1), 0.62)
    assert_allclose(c1, 2.46804957871946286098, rtol=1e-14)
    assert_allclose(c2, 1.201356487627496626378, rtol=1e-14)


def test_tiny_eigenvalue_frozen_values():
    # at lambda = 1e-13 every coefficient is 1 + O(lambda) times its heat
    # kernel value, and the O(lambda) part must survive
    p = ScalarBeta(beta=1e-13, dim=1)
    c1, c2 = drift_prefactors(p, 0.0)
    assert_allclose(c1, 0.9999999999999833333333, rtol=1e-15)
    assert_allclose(c2, 1.00000000000005, rtol=1e-15)
    got = log_kernel_ratio(p, 0.0, 0.8, -0.6)
    assert_allclose(got, -0.8000000000000027110756, rtol=1e-15)
    c1, c2 = drift_prefactors(p, 0.5)
    assert_allclose(c1, 1.999999999999991666667, rtol=1e-15)
    assert_allclose(c2, 1.0000000000000125, rtol=1e-15)
    got = log_kernel_ratio(p, 0.5, 0.8, -0.6)
    assert_allclose(got, -1.43342640972001950412, rtol=1e-15)


FLAT_TO_STIFF = (0.0, 1e-300, 1e-13, 0.5, 1e4)


@pytest.mark.parametrize("t", [0.0, 0.5, 0.999])
def test_coefficients_raise_no_floating_point_error(t):
    # one formula for every eigenvalue: a flat, a vanishing or a stiff
    # axis never divides 0 by 0 or takes log(0), alone or in one spectrum
    lams = np.array(FLAT_TO_STIFF)
    spectrum = MatrixBeta(eigvals=lams, eigvecs=np.eye(lams.size))
    with np.errstate(divide="raise", invalid="raise"):
        for lam in (*FLAT_TO_STIFF, lams):
            for v in (*_abc(lam, 1.0 - t), _h_probe(lam, t), _probe_denominator(lam, t)):
                assert np.all(np.isfinite(v))
        for p in (*(ScalarBeta(beta=lam, dim=2) for lam in FLAT_TO_STIFF), spectrum):
            assert np.all(np.isfinite(drift_prefactors(p, t)))
            x = np.linspace(-1.0, 1.0, p.dim)
            assert np.isfinite(log_kernel_ratio(p, t, x, -x))
            rows = log_kernel_ratio(p, t, x[None, None, :], np.ones((3, p.dim)))
            assert np.all(np.isfinite(rows))


def test_beta_zero_is_heat_kernel():
    # G_minus at beta=0 is the N(y | x, (1-t) I) log density
    p = ScalarBeta(beta=0.0, dim=3)
    t, x, y = 0.3, np.array([0.1, -0.4, 2.0]), np.array([1.0, 0.0, -0.5])
    var = 1.0 - t
    expected = -0.5 * np.sum((y - x) ** 2) / var - 1.5 * math.log(2 * math.pi * var)
    assert_allclose(log_g_minus(p, t, x, y), expected, rtol=1e-14)
    # G_plus at beta=0 is N(x | y, t I)
    expected = -0.5 * np.sum((y - x) ** 2) / t - 1.5 * math.log(2 * math.pi * t)
    assert_allclose(log_g_plus(p, t, x, y), expected, rtol=1e-14)


def test_beta_zero_prefactors():
    c1, c2 = drift_prefactors(ScalarBeta(beta=0.0, dim=1), 0.75)
    assert_allclose(c1, 4.0, rtol=1e-15)
    assert c2 == 1.0


def test_time_domain_is_enforced():
    p = ScalarBeta(beta=1.0, dim=1)
    with pytest.raises(DomainError):
        log_g_minus(p, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        log_g_plus(p, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        log_kernel_ratio(p, -0.1, 0.0, 0.0)
    with pytest.raises(DomainError):
        drift_prefactors(p, float("nan"))


def test_shape_validation():
    p = ScalarBeta(beta=1.0, dim=2)
    with pytest.raises(InputError):
        log_g_minus(p, 0.5, [1.0, 2.0, 3.0], [0.0, 0.0])
    with pytest.raises(InputError):
        log_g_minus(p, 0.5, [np.nan, 0.0], [0.0, 0.0])


def test_batched_evaluation_matches_loop():
    p = ScalarBeta(beta=0.8, dim=2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 2))
    y = rng.normal(size=(5, 2))
    batch = log_g_minus(p, 0.4, x, y)
    single = [log_g_minus(p, 0.4, x[i], y[i]) for i in range(5)]
    assert_allclose(batch, single, rtol=1e-15)


@given(beta=betas, t=times, x=finite_floats, y=finite_floats)
def test_kernels_are_symmetric_in_x_y(beta, t, x, y):
    p = ScalarBeta(beta=beta, dim=1)
    assert log_g_minus(p, t, x, y) == log_g_minus(p, t, y, x)
    assert log_g_plus(p, t, x, y) == log_g_plus(p, t, y, x)


@given(beta=betas, t=times)
def test_coefficient_identity(beta, t):
    # A^2 - B^2 = beta for any horizon (coth^2 - csch^2 = 1)
    a, b, _ = _abc(beta, 1.0 - t)
    assert abs((a - b) * (a + b) - beta) < 1e-9 * max(1.0, a * a)


@given(beta=betas, t=times)
def test_probe_precision_positive_and_matches_coeff_difference(beta, t):
    h = float(_h_probe(beta, t))
    assert h > 0
    am = float(_abc(beta, 1.0 - t)[0])
    a1 = float(_abc(beta, 1.0)[0])
    # the difference cancels catastrophically at large beta, so tolerate
    # roundoff at the scale of the operands
    assert abs(h - (am - a1)) < 1e-13 * max(am, 1.0)


@given(beta=betas, t=times, x=finite_floats, y=finite_floats)
@settings(max_examples=50)
def test_ratio_equals_kernel_difference(beta, t, x, y):
    # the combined form must agree with the naive difference where both
    # are representable
    p = ScalarBeta(beta=beta, dim=1)
    direct = log_kernel_ratio(p, t, x, y)
    naive = log_g_minus(p, t, x, y) - log_g_plus(p, 1.0, np.asarray(y), 0.0)
    assert_allclose(direct, naive, rtol=1e-9, atol=1e-9)


@given(t=times, x=finite_floats)
def test_prefactor_product_is_a_minus(t, x):
    for beta in (0.0, 0.5, 3.0):
        c1, c2 = drift_prefactors(ScalarBeta(beta=beta, dim=1), t)
        am = float(_abc(beta, 1.0 - t)[0])
        assert_allclose(c1 * c2, am, rtol=1e-12)


@given(
    beta=betas,
    dt=st.floats(1e-3, 0.5),
    d=st.integers(1, 3),
    angle=st.floats(0.0, math.pi),
    xy=st.lists(finite_floats, min_size=6, max_size=6),
)
@settings(max_examples=60)
def test_harmonic_step_factor(beta, dt, d, angle, xy):
    # log G^beta_dt - log G^0_dt: exactly zero without confinement, the
    # scalar value for an isotropic matrix, and the difference of the two
    # closed-form kernels for scalar or rotated matrix confinement
    x, y = np.array(xy[:d]), np.array(xy[3 : 3 + d])

    def step(params):  # the factor reads eigenbasis coordinates
        to = params.to_eigenbasis
        return _harmonic_step(params, dt)(to(x), to(y))

    free = ScalarBeta(beta=0.0, dim=d)
    for flat in (free, decompose(np.zeros((d, d)))):
        assert step(flat) == 0.0
    scalar = ScalarBeta(beta=beta, dim=d)
    got = step(scalar)
    iso = step(decompose(beta * np.eye(d)))
    assert_allclose(iso, got, rtol=1e-12, atol=1e-12)
    q = np.eye(d)
    if d > 1:
        c, s = math.cos(angle), math.sin(angle)
        q[:2, :2] = [[c, -s], [s, c]]
    rotated = decompose(q @ np.diag([beta, beta / 3.0, 0.0][:d]) @ q.T)
    scale = 1.0 + (x @ x + y @ y) / dt
    for params in (scalar, rotated):
        want = log_g_plus(params, dt, x, y) - log_g_plus(free, dt, x, y)
        assert abs(step(params) - want) <= 1e-12 * scale


def test_delta_limit_onto_x():
    # G_minus(t; x; .) tightens onto x as t -> 1: numerical moments of the
    # normalized slice must match x / cosh((1-t) sqrt(beta)) with variance
    # shrinking monotonically to zero
    beta, x = 2.0, 0.8
    p = ScalarBeta(beta=beta, dim=1)
    ys = np.linspace(-3.0, 4.0, 20_001)[:, None]
    prev = math.inf
    for t in (0.9, 0.99, 0.999):
        logw = log_g_minus(p, t, np.array([x]), ys)
        w = np.exp(logw - logw.max())
        mean = float(np.sum(w * ys[:, 0]) / np.sum(w))
        var = float(np.sum(w * (ys[:, 0] - mean) ** 2) / np.sum(w))
        assert_allclose(mean, x / math.cosh((1.0 - t) * math.sqrt(beta)), rtol=1e-6)
        assert var < prev
        prev = var
    assert prev < 1.5e-3


def test_continuity_across_beta_zero_branch():
    # tiny eigenvalues join the free heat kernel continuously, to O(beta)
    p_lo = ScalarBeta(beta=1e-13, dim=1)
    p_hi = ScalarBeta(beta=1e-11, dim=1)
    for t in (0.1, 0.5, 0.9):
        a = log_g_minus(p_lo, t, 0.7, -0.3)
        b = log_g_minus(p_hi, t, 0.7, -0.3)
        assert_allclose(a, b, rtol=1e-9)
        c1a, c2a = drift_prefactors(p_lo, t)
        c1b, c2b = drift_prefactors(p_hi, t)
        assert_allclose([c1a, c2a], [c1b, c2b], rtol=1e-9)


def test_large_beta_stays_finite():
    # hyperbolics at sqrt(beta)=10 overflow naive sinh-based formulas
    p = ScalarBeta(beta=100.0, dim=1)
    v = log_g_minus(p, 0.5, 1.0, 1.0)
    assert np.isfinite(v)


def test_high_dimension_log_domain():
    # quadratic forms far past exp() range must stay representable in logs
    d = 4000
    p = ScalarBeta(beta=1.0, dim=d)
    x = np.full(d, 1.5)
    y = np.full(d, -1.5)
    v = log_g_minus(p, 0.5, x, y)
    assert np.isfinite(v) and v < -1e4


@pytest.mark.parametrize("k", [1, 2, 9, 1000])
def test_rows_matmul_rows_do_not_depend_on_their_neighbours(k):
    # a plain GEMM's rounding can change with its row count; the row-tiled
    # product gives every row the same bits whatever rows surround it
    rng = np.random.default_rng(k)
    a = rng.normal(size=(40, k))
    b = rng.normal(size=(k, 7))
    whole = _rows_matmul(a, b)
    bound = 1e-12 * (np.abs(a) @ np.abs(b))
    assert np.all(np.abs(whole - a @ b) <= bound)
    for m in range(1, 41):
        for lo in sorted({0, 7 % (41 - m), 40 - m}):
            part = _rows_matmul(a[lo : lo + m], b)
            assert np.array_equal(part, whole[lo : lo + m]), (m, lo)
    # leading axes are flattened into rows: a (B, N, k) operand
    a3 = rng.normal(size=(3, 11, k))
    stacked = _rows_matmul(a3, b)
    assert stacked.shape == (3, 11, 7)
    assert np.all(np.abs(stacked - a3 @ b) <= 1e-12 * (np.abs(a3) @ np.abs(b)))
    for i in range(3):
        assert np.array_equal(_rows_matmul(a3[i], b), stacked[i])
    assert np.array_equal(_rows_matmul(a3[1, 4], b), stacked[1, 4])


def _random_spd(rng, d, floor=0.1):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    vals = rng.uniform(floor, 4.0, size=d)
    return (q * vals) @ q.T


def test_decompose_validation():
    with pytest.raises(InputError):
        decompose(np.zeros((2, 3)))
    with pytest.raises(InputError):
        decompose(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(InputError):
        decompose(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        decompose(np.array([[-1.0, 0.0], [0.0, 1.0]]))


def test_decompose_clamps_numerically_flat_axes():
    m = np.diag([0.0, -1e-13, 2.0])
    p = decompose(m)
    assert (p.eigvals[:2] == 0.0).all()
    assert_allclose(p.eigvals[2], 2.0)


def test_isotropic_matches_scalar():
    d = 3
    scalar = ScalarBeta(beta=0.7, dim=d)
    matrix = decompose(0.7 * np.eye(d))
    rng = np.random.default_rng(1)
    for _ in range(10):
        t = rng.uniform(0.05, 0.95)
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        assert_allclose(
            log_g_minus(matrix, t, x, y),
            log_g_minus(scalar, t, x, y),
            rtol=1e-12,
        )
        assert_allclose(
            log_g_plus(matrix, t, x, y),
            log_g_plus(scalar, t, x, y),
            rtol=1e-12,
        )
        assert_allclose(
            log_kernel_ratio(matrix, t, x, y),
            log_kernel_ratio(scalar, t, x, y),
            rtol=1e-12,
        )


def test_diagonal_potential_separates_over_axes():
    # a diagonal matrix factorizes into independent one-dimensional kernels
    diag = np.array([0.3, 1.1, 2.4])
    p = decompose(np.diag(diag))
    x = np.array([0.4, -0.2, 1.0])
    y = np.array([-0.9, 0.6, 0.1])
    t = 0.35
    per_axis = sum(
        log_g_minus(ScalarBeta(beta=b, dim=1), t, x[i], y[i])
        for i, b in enumerate(diag)
    )
    assert_allclose(log_g_minus(p, t, x, y), per_axis, rtol=1e-10)


def test_rotation_equivariance():
    rng = np.random.default_rng(7)
    d = 4
    diag = np.diag(rng.uniform(0.2, 3.0, size=d))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    rotated = decompose(q @ diag @ q.T)
    plain = decompose(diag)
    x = rng.normal(size=d)
    y = rng.normal(size=d)
    for t in (0.15, 0.5, 0.85):
        assert_allclose(
            log_g_minus(rotated, t, q @ x, q @ y),
            log_g_minus(plain, t, x, y),
            rtol=1e-10,
        )
        assert_allclose(
            log_g_plus(rotated, t, q @ x, q @ y),
            log_g_plus(plain, t, x, y),
            rtol=1e-10,
        )


def test_decomposition_reconstructs_matrix():
    rng = np.random.default_rng(11)
    m = _random_spd(rng, 5)
    p = decompose(m)
    rebuilt = (p.eigvecs * p.eigvals) @ p.eigvecs.T
    assert np.abs(rebuilt - m).max() < 1e-10


def test_eigenbasis_round_trip():
    rng = np.random.default_rng(2)
    p = decompose(_random_spd(rng, 4))
    v = rng.normal(size=(6, 4))
    assert_allclose(p.from_eigenbasis(p.to_eigenbasis(v)), v, rtol=1e-12)


def test_control_reduction_matches_scalar_prefactors():
    diag = np.array([0.0, 0.9, 3.3])
    p = decompose(np.diag(diag))
    for t in (0.0, 0.4, 0.99):
        c1, c2 = drift_prefactors(p, t)
        for i, b in enumerate(diag):
            s1, s2 = drift_prefactors(ScalarBeta(beta=b, dim=1), t)
            assert_allclose([c1[i], c2[i]], [s1, s2], rtol=1e-12)


def test_mixed_spectrum_with_flat_axis():
    # one zero eigenvalue is the exact heat kernel next to a confined
    # axis; the sum must still be finite
    p = decompose(np.diag([0.0, 2.0]))
    v = log_g_minus(p, 0.5, [1.0, -1.0], [0.0, 0.5])
    assert np.isfinite(v)


def test_batched_points():
    rng = np.random.default_rng(5)
    p = decompose(_random_spd(rng, 3))
    x = rng.normal(size=(7, 3))
    y = rng.normal(size=(7, 3))
    batch = log_kernel_ratio(p, 0.25, x, y)
    single = [log_kernel_ratio(p, 0.25, x[i], y[i]) for i in range(7)]
    assert_allclose(batch, single, rtol=1e-13)


@pytest.mark.parametrize("t", [0.0, 0.5, 0.99])
@pytest.mark.parametrize("d", [1, 2, 25])
@pytest.mark.parametrize("potential", ["scalar", "matrix"])
def test_row_set_form_matches_broadcast_form(potential, d, t):
    # x of shape (..., 1, d) against one (N, d) row set takes the tiled
    # GEMM form; the same rows broadcast to one block per point take the
    # elementwise form. A row's bits must not depend on B or its place.
    rng = np.random.default_rng(d)
    if potential == "scalar":
        p = ScalarBeta(beta=0.8, dim=d)
    else:
        p = decompose(_random_spd(rng, d))
    x = 2.0 * rng.normal(size=(130, d))
    y = 3.0 * rng.normal(size=(40, d))
    rows = log_kernel_ratio(p, t, x[:, None, :], y)
    blocks = log_kernel_ratio(p, t, x[:, None, :], np.broadcast_to(y, (130, 40, d)))
    assert rows.shape == (130, 40)
    assert_allclose(rows, blocks, rtol=1e-12, atol=1e-14 * np.abs(blocks).max())
    for B in (1, 15, 17, 130):
        assert np.array_equal(log_kernel_ratio(p, t, x[:B, None, :], y), rows[:B])
        assert np.array_equal(log_kernel_ratio(p, t, x[-B:, None, :], y), rows[-B:])
    lead = log_kernel_ratio(p, t, x.reshape(2, 65, 1, d), y)
    assert np.array_equal(lead, rows.reshape(2, 65, 40))
