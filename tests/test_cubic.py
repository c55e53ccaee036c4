import numpy as np
import pytest

from tlspr.core import make_rng
from tlspr.cubic import (
    all_roots,
    depressed_real_roots,
    depressed_roots_batch,
    residual_scale,
    root_workspace,
    smallest_real_root,
    smallest_real_root_into,
)

from oracles import real_roots_reference


# Roots of all_roots with |Im| <= REAL_TOL count as real.
REAL_TOL = 1e-9


def _poly(a, b, c, d, z):
    return ((a * z + b) * z + c) * z + d


def test_roots_of_unity():
    roots = sorted(all_roots(1, 0, 0, -1), key=lambda z: np.angle(z))
    omega = np.exp(2j * np.pi / 3)
    expect = sorted([1.0 + 0j, omega, omega**2], key=lambda z: np.angle(z))
    for got, want in zip(roots, expect):
        assert abs(got - want) < 1e-12


def test_factored_cubic():
    # (x - 1)(x - 2)(x + 3) = x^3 - 7x + 6
    roots = sorted(all_roots(1, 0, -7, 6), key=lambda z: z.real)
    for got, want in zip(roots, [-3.0, 1.0, 2.0]):
        assert abs(got - want) < 1e-10
        assert abs(got.imag) < 1e-10


def test_triple_root():
    # (x - 2)^3 = x^3 - 6x^2 + 12x - 8
    roots = all_roots(1, -6, 12, -8)
    assert np.all(np.abs(roots - 2.0) < 1e-5)


def test_leading_zero_rejected():
    with pytest.raises(ValueError):
        all_roots(0, 1, 1, 1)


def test_random_residuals_10k():
    rng = make_rng(77)
    for _ in range(10_000):
        a, b, c, d = rng.normal(size=4) * 10.0 ** rng.integers(-3, 4, size=4)
        if a == 0.0:
            a = 1.0
        for z in all_roots(a, b, c, d):
            assert abs(_poly(a, b, c, d, z)) <= 1e-8 * residual_scale(a, b, c, d, z)


def test_complex_coefficients():
    rng = make_rng(78)
    for _ in range(200):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(coeffs[0]) < 1e-3:
            coeffs[0] = 1.0
        a, b, c, d = coeffs
        for z in all_roots(a, b, c, d):
            assert abs(_poly(a, b, c, d, z)) <= 1e-8 * residual_scale(a, b, c, d, z)


def test_smallest_real_root_rejects_alpha():
    with pytest.raises(ValueError):
        smallest_real_root(0.0, [1.0], [1.0])
    with pytest.raises(ValueError):
        depressed_roots_batch(-1.0, [1.0], [1.0])


def test_batch_matches_scalar():
    rng = make_rng(80)
    alpha = 1.7
    beta = rng.normal(size=200) * 3
    const = rng.normal(size=200) * 3
    batch = depressed_roots_batch(alpha, beta, const)
    assert batch.shape == (200, 3) and batch.dtype == np.float64
    for i in range(200):
        single = all_roots(alpha, 0.0, beta[i], const[i])
        single = np.sort(single[np.abs(single.imag) <= REAL_TOL].real)
        got = batch[i][~np.isnan(batch[i])]
        assert np.all(np.isnan(batch[i][got.size:]))
        assert got.shape == single.shape
        assert np.allclose(single, got, atol=1e-9)


def _real_roots(alpha, beta, const):
    row = depressed_roots_batch(alpha, np.array([beta]), np.array([const]))[0]
    return row[~np.isnan(row)]


@pytest.mark.parametrize(
    "beta, const, expect",
    [
        (-7.0, 6.0, [-3.0, 1.0, 2.0]),  # three real roots (Viete)
        (3.0, 4.0, [-1.0]),  # one real root (Cardano): (t + 1)(t^2 - t + 4)
        (0.0, -8.0, [2.0]),  # p = 0
        (0.0, 8.0, [-2.0]),
        (-4.0, 0.0, [-2.0, 0.0, 2.0]),  # const = 0, three roots
        (4.0, 0.0, [0.0]),  # const = 0, one root
        (0.0, 0.0, [0.0]),  # triple root at zero
        (-3.0, 2.0, [-2.0, 1.0, 1.0]),  # double root (t - 1)^2 (t + 2)
        (-3.0, -2.0, [-1.0, -1.0, 2.0]),
    ],
)
def test_real_solver_cases(beta, const, expect):
    got = _real_roots(1.0, beta, const)
    assert got.shape == (len(expect),)
    # A double root is only determined to about sqrt(machine epsilon).
    tol = 1e-6 if len(set(expect)) < len(expect) else 1e-12
    assert np.allclose(got, expect, rtol=0, atol=tol)


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9])
def test_real_solver_either_side_of_double_root(delta):
    # t^3 - 3t + 2 has the double root 1; lowering the constant splits it
    # into two real roots, raising it leaves -2 as the only real root.
    below = _real_roots(1.0, -3.0, 2.0 - delta)
    above = _real_roots(1.0, -3.0, 2.0 + delta)
    split = np.sqrt(delta / 3.0)
    assert np.allclose(below, [-2.0, 1.0 - split, 1.0 + split], rtol=0, atol=delta)
    assert above.size == 1 and abs(above[0] + 2.0) <= delta
    for const, roots in ((2.0 - delta, below), (2.0 + delta, above)):
        for t in roots:
            assert abs(_poly(1.0, 0.0, -3.0, const, t)) <= 1e-14


def test_real_solver_residuals_10k():
    rng = make_rng(81)
    alpha_all = np.abs(rng.normal(size=10_000)) * 10.0 ** rng.integers(-3, 4, size=10_000)
    beta = rng.normal(size=10_000) * 10.0 ** rng.integers(-3, 4, size=10_000)
    const = rng.normal(size=10_000) * 10.0 ** rng.integers(-3, 4, size=10_000)
    for i in range(10_000):
        alpha = float(alpha_all[i])
        roots = _real_roots(alpha, beta[i], const[i])
        assert roots.size in (1, 3)
        assert np.all(np.diff(roots) >= 0)
        for t in roots:
            residual = abs(_poly(alpha, 0.0, beta[i], const[i], t))
            assert residual <= 1e-8 * residual_scale(alpha, 0.0, beta[i], const[i], t)


def test_smallest_real_root_matches_frozen_solver_bitwise():
    # Coefficients over most of the float range, near-double roots
    # (t - r)^2 (t + 2r) perturbed by a few ulps, where the branch test sits on
    # D = 0, and non-finite, zero and subnormal entries.
    rng = make_rng(82)
    n = 200_000
    beta = [rng.normal(size=n) * 10.0 ** rng.integers(-100, 100, n)]
    const = [rng.normal(size=n) * 10.0 ** rng.integers(-150, 150, n)]
    r = rng.normal(size=n) * 10.0 ** rng.integers(-40, 40, n)
    for rel in (0.0, 1e-16, 1e-14):
        beta.append(-3.0 * r * r * (1.0 + rel * rng.normal(size=n)))
        const.append(2.0 * r**3 * (1.0 + rel * rng.normal(size=n)))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310, 1e308, -1e308])
    beta.append(np.repeat(special, special.size))
    const.append(np.tile(special, special.size))
    beta, const = np.concatenate(beta), np.concatenate(const)
    for alpha in (1.0, 3.7e-5):
        with np.errstate(all="ignore"):
            got = smallest_real_root(alpha, beta, const)
            want = real_roots_reference(alpha, beta, const)[:, 0]
        same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
        assert same.all()
        assert np.isnan(got).sum() <= special.size**2


def test_smallest_real_root_into_a_reused_workspace_matches_the_allocating_call():
    # The cases of the bitwise test above, in blocks of equal length: wide
    # exponents, near-double roots, and inf/nan/zero/subnormal entries.  One
    # workspace serves every call, and the blocks alternate between mostly
    # one-root and mostly three-root rows, so a value left from an earlier
    # call would show.
    rng = make_rng(83)
    n = 20_000
    r = rng.normal(size=n) * 10.0 ** rng.integers(-40, 40, n)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310, 1e308, -1e308])
    blocks = [
        (rng.normal(size=n) * 10.0 ** rng.integers(-100, 100, n), rng.normal(size=n) * 10.0 ** rng.integers(-150, 150, n)),
        (np.abs(rng.normal(size=n)), rng.normal(size=n)),
        *((-3.0 * r * r * (1.0 + rel * rng.normal(size=n)), 2.0 * r**3 * (1.0 + rel * rng.normal(size=n)))
          for rel in (0.0, 1e-16, 1e-14)),
        (-np.abs(rng.normal(size=n)), 1e-3 * rng.normal(size=n)),
        (np.resize(np.repeat(special, special.size), n), np.resize(np.tile(special, special.size), n)),
    ]
    rows, masks = root_workspace(n)
    t = np.empty(n)
    for alpha in (1.0, 3.7e-5):
        for beta, const in blocks + blocks[::-1]:
            with np.errstate(all="ignore"):
                want = smallest_real_root(alpha, beta, const)
                rows[0], rows[1] = beta, const
                smallest_real_root_into(t, alpha, rows, masks)
            assert np.array_equal(t.view(np.uint64), want.view(np.uint64))


def _scalar_against_batch(p, q):
    """(count mismatches, worst relative root difference) of
    depressed_real_roots against depressed_roots_batch with alpha = 1."""
    batch = depressed_roots_batch(1.0, p, q)
    mismatched, worst = 0, 0.0
    for i in range(p.size):
        got = np.array(depressed_real_roots(float(p[i]), float(q[i])))
        want = batch[i][~np.isnan(batch[i])]
        if got.size != want.size:
            mismatched += 1
            continue
        diff = np.abs(got - want)
        assert np.all((diff == 0.0) | (want != 0.0))
        worst = max(worst, float(np.max(diff / np.where(want == 0.0, 1.0, np.abs(want)))))
    return mismatched, worst


def test_depressed_real_roots_matches_batch():
    # Random cubics over 16 decades; near-double roots r, r(1 + d), -r(2 + d)
    # for relative gaps d down to 1e-6; exact double roots (t - r)^2 (t + 2r)
    # with r a power of two, so that p and q carry no rounding; near-triple
    # roots at 0 (tiny p and q); p = q = 0.
    rng = make_rng(83)
    n = 4000
    scale = 10.0 ** rng.uniform(-8.0, 8.0, n)
    p = [rng.normal(size=n) * scale**2, -np.abs(rng.normal(size=n)) * scale**2]
    q = [rng.normal(size=n) * scale**3, rng.normal(size=n) * scale**3]
    r = rng.normal(size=n) * scale
    gap = 10.0 ** rng.uniform(-6.0, -1.0, n) * rng.choice([-1.0, 1.0], n)
    r2, r3 = r * (1.0 + gap), -r * (2.0 + gap)
    p.append(r * r2 + r * r3 + r2 * r3)
    q.append(-r * r2 * r3)
    twos = 2.0 ** rng.integers(-30, 30, 400).astype(np.float64) * rng.choice([-1.0, 1.0], 400)
    p.append(-3.0 * twos**2)
    q.append(2.0 * twos**3)
    p.append(-(10.0 ** rng.uniform(-100.0, -20.0, 400)))
    q.append(rng.normal(size=400) * 10.0 ** rng.uniform(-150.0, -30.0, 400))
    p.append(np.zeros(1))
    q.append(np.zeros(1))
    p, q = np.concatenate(p), np.concatenate(q)
    assert p.size >= 10_000
    mismatched, worst = _scalar_against_batch(p, q)
    assert mismatched == 0
    assert worst <= 1e-12
    assert depressed_real_roots(0.0, 0.0) == (0.0,)
    assert depressed_real_roots(-3.0, 2.0) == (-2.0, 1.0, 1.0)


def test_depressed_real_roots_count_differs_only_on_rounding_noise():
    # Where a double root is rounded into p and q, the discriminant is
    # rounding noise: the batch's vectorized cube and the scalar cube may
    # then split the double root or not, and only there may the counts differ.
    rng = make_rng(84)
    r = rng.normal(size=20_000) * 10.0 ** rng.uniform(-8.0, 8.0, 20_000)
    p, q = -3.0 * r * r, 2.0 * r**3
    batch = depressed_roots_batch(1.0, p, q)
    for i in range(r.size):
        got = depressed_real_roots(float(p[i]), float(q[i]))
        want = batch[i][~np.isnan(batch[i])]
        if len(got) == want.size:
            assert np.allclose(got, want, rtol=1e-12, atol=0)
            continue
        disc = (0.5 * q[i]) ** 2 + (p[i] / 3.0) ** 3
        assert abs(disc) <= 1e-14 * (0.5 * q[i]) ** 2
        # The simple root -2r is found either way.
        assert np.isclose(got, -2.0 * r[i], rtol=1e-12, atol=0).any()
        assert np.isclose(want, -2.0 * r[i], rtol=1e-12, atol=0).any()
