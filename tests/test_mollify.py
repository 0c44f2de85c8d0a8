"""Smoothing-kernel tests: conservation, positivity, bounds, symmetry."""

import numpy as np
import pytest

import chemoflux as cf


def _periodic(n, dim=2, length=2.0):
    return cf.DomainSpec(dim=dim, mode="periodic",
                         lengths=(length,) * dim, resolution=(n,) * dim)


def _neumann(n, length=2.0):
    return cf.DomainSpec(dim=2, mode="neumann",
                         lengths=(length,) * 2, resolution=(n,) * 2)


def _spiky(spec, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.random(spec.shape)
    vals[tuple(s // 2 for s in spec.shape)] += 5.0
    return vals


class TestConservationAndBounds:

    def test_periodic_mass_preserved(self):
        spec = _periodic(32)
        vals = _spiky(spec)
        out = cf.mollify_values(vals, spec, rho=0.3)
        before = vals.sum() * spec.cell_volume
        after = out.sum() * spec.cell_volume
        assert abs(after - before) <= 1e-12 * before

    def test_nonnegative_input_stays_nonnegative(self):
        for spec in (_periodic(24), _neumann(24)):
            vals = _spiky(spec, seed=3)
            out = cf.mollify_values(vals, spec, rho=0.4)
            assert out.min() >= 0.0

    def test_max_does_not_grow(self):
        # convex averaging: the smoothed max cannot exceed the raw max
        for spec in (_periodic(24), _neumann(24)):
            vals = _spiky(spec, seed=7)
            out = cf.mollify_values(vals, spec, rho=0.35)
            assert out.max() <= vals.max() + 1e-12

    def test_constants_are_fixed_points(self):
        for spec in (_periodic(20), _neumann(20)):
            vals = np.full(spec.shape, 1.7)
            out = cf.mollify_values(vals, spec, rho=0.5)
            np.testing.assert_allclose(out, 1.7, rtol=0, atol=1e-13)


class TestKernelStructure:

    def test_tiny_radius_is_identity(self):
        # radius below two cells: no usable stencil, pass data through
        spec = _periodic(16)
        vals = _spiky(spec, seed=1)
        out = cf.mollify_values(vals, spec, rho=0.5 * min(spec.spacing))
        np.testing.assert_array_equal(out, vals)

    def test_wider_radius_smooths_more(self):
        spec = _periodic(32)
        vals = _spiky(spec, seed=2)
        def roughness(a):
            f = cf.ScalarField(spec, a)
            return cf.lp_norm(cf.gradient(f), 2)
        r0 = roughness(vals)
        r1 = roughness(cf.mollify_values(vals, spec, rho=0.2))
        r2 = roughness(cf.mollify_values(vals, spec, rho=0.5))
        assert r1 < r0
        assert r2 < r1

    def test_kernel_symmetry(self):
        # an even input about the box center stays even
        spec = _periodic(32)
        x, y = cf.mesh(spec)
        vals = np.exp(-4.0 * (x ** 2 + y ** 2))
        out = cf.mollify_values(vals, spec, rho=0.3)
        np.testing.assert_allclose(out, out[::-1, :], rtol=0, atol=1e-14)
        np.testing.assert_allclose(out, out[:, ::-1], rtol=0, atol=1e-14)
        np.testing.assert_allclose(out, out.T, rtol=0, atol=1e-14)

    def test_neumann_mass_within_tolerance_of_interior(self):
        # wall renormalization keeps the smoothing an average, so total mass
        # moves only through what leaks past walls; an interior bump loses none
        spec = _neumann(32, length=4.0)
        x, y = cf.mesh(spec)
        vals = np.exp(-8.0 * (x ** 2 + y ** 2))
        out = cf.mollify_values(vals, spec, rho=0.3)
        before = vals.sum() * spec.cell_volume
        after = out.sum() * spec.cell_volume
        assert abs(after - before) <= 1e-10 * before


def test_rejects_bad_radius():
    spec = _periodic(16)
    vals = np.ones(spec.shape)
    with pytest.raises(ValueError):
        cf.mollify_values(vals, spec, rho=-0.1)
