"""Smoothing-kernel tests: conservation, positivity, bounds, symmetry, and
agreement with two references written independently of the module's folded
sum: a per-cell weighted sum and `scipy.ndimage.convolve`."""

import math

import numpy as np
import pytest

import chemoflux as cf
from chemoflux.mollify import _kernel


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


# odd, anisotropic boxes in every dimension and both modes (walls need
# dim >= 2); each radius is above 2h, so the kernel has work to do
_ODD_BOXES = [(1, "periodic", (2.0,), (23,)),
              (2, "periodic", (2.0, 1.3), (15, 11)),
              (2, "neumann", (2.0, 1.3), (15, 11)),
              (3, "periodic", (2.0, 1.5, 1.2), (9, 11, 13)),
              (3, "neumann", (2.0, 1.5, 1.2), (9, 11, 13))]


def _odd_box(dim, mode, lengths, resolution):
    return cf.DomainSpec(dim=dim, mode=mode, lengths=lengths,
                         resolution=resolution)


def _per_cell_sum(values, spec, rho):
    """At each cell, the exactly rounded sum of kernel weight times value over
    the offsets that land in the box (wrapped when periodic), divided at walls
    by the same sum of the weights alone."""
    kern = _kernel(spec, rho)
    offsets = np.argwhere(kern > 0) - np.array(kern.shape) // 2
    weights = kern[kern > 0]
    shape = np.array(spec.shape)
    out = np.empty(spec.shape)
    for cell in np.ndindex(*spec.shape):
        idx = np.array(cell) + offsets
        if spec.mode == "periodic":
            out[cell] = math.fsum(weights * values[tuple((idx % shape).T)])
        else:
            keep = np.all((idx >= 0) & (idx < shape), axis=1)
            w, idx = weights[keep], idx[keep]
            out[cell] = math.fsum(w * values[tuple(idx.T)]) / math.fsum(w)
    return out


def _ndimage(values, spec, rho):
    from scipy.ndimage import convolve
    kern = _kernel(spec, rho)
    if spec.mode == "periodic":
        return convolve(values, kern, mode="wrap")
    ones = np.ones(spec.shape)
    return (convolve(values, kern, mode="constant", cval=0.0)
            / convolve(ones, kern, mode="constant", cval=0.0))


class TestAgainstReferences:
    """Agreement within 1e-15 of the field's max.  A reordered sum of
    positive terms differs by a few roundings per term, so this bound holds
    for these kernels of 5 to 61 nonzero weights; bitwise equality is not
    promised."""

    @pytest.mark.parametrize("box", _ODD_BOXES)
    @pytest.mark.parametrize("cells", [2.5, 3.7])
    def test_matches_per_cell_sum_and_ndimage(self, box, cells):
        spec = _odd_box(*box)
        rho = cells * min(spec.spacing)
        assert _kernel(spec, rho) is not None
        vals = np.random.default_rng(5).random(spec.shape) + 0.5
        vals[(0,) * spec.dim] += 4.0          # a spike in a wall corner
        out = cf.mollify_values(vals, spec, rho)
        for ref in (_per_cell_sum(vals, spec, rho), _ndimage(vals, spec, rho)):
            assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("box", _ODD_BOXES)
    def test_compact_input_keeps_exact_zeros(self, box):
        # nonzero data on the corner block of cells 0..2: the output is >= 0
        # with no tolerance, and every cell at distance >= rho from the
        # block's cells (across the boundary only if periodic) stays exactly 0
        spec = _odd_box(*box)
        rho = 2.5 * min(spec.spacing)
        block = (slice(0, 3),) * spec.dim
        vals = np.zeros(spec.shape)
        vals[block] = np.random.default_rng(2).random(vals[block].shape) + 0.1
        out = cf.mollify_values(vals, spec, rho)
        assert out.min() >= 0.0
        dist_sq = np.zeros(spec.shape)
        for d, (n, h) in enumerate(zip(spec.shape, spec.spacing)):
            # cells from each cell to the block on this axis, to the nearest
            # image in a periodic box
            images = (0, -n, n) if spec.mode == "periodic" else (0,)
            gap = np.min([np.maximum(np.maximum(-j, j - 2), 0)
                          for j in (np.arange(n) + s for s in images)], axis=0)
            shape = [1] * spec.dim
            shape[d] = n
            dist_sq = dist_sq + ((gap * h) ** 2).reshape(shape)
        far = dist_sq >= rho * rho
        assert far.any() and (out[~far] > 0.0).sum() > vals.astype(bool).sum()
        assert np.all(out[far] == 0.0)

    @pytest.mark.parametrize("box", [b for b in _ODD_BOXES if b[1] == "periodic"])
    def test_periodic_mass_to_roundoff(self, box):
        spec = _odd_box(*box)
        vals = np.random.default_rng(9).random(spec.shape)
        out = cf.mollify_values(vals, spec, 3.7 * min(spec.spacing))
        assert abs(out.sum() - vals.sum()) <= 1e-14 * vals.sum()


def test_rejects_bad_radius():
    spec = _periodic(16)
    vals = np.ones(spec.shape)
    with pytest.raises(ValueError):
        cf.mollify_values(vals, spec, rho=-0.1)
