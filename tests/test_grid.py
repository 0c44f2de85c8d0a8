"""Discrete operators, norms, and snapshot IO."""

import json
import struct

import numpy as np
import pytest

import chemoflux as cf
from chemoflux.grid import cell_centers, diff_central, mesh, shifted


def _periodic(n=32, dim=2, length=2.0):
    return cf.DomainSpec(dim, "periodic", (length,) * dim, (n,) * dim)


def _neumann(n=32, dim=2, length=2.0):
    return cf.DomainSpec(dim, "neumann", (length,) * dim, (n,) * dim)


def _trig(spec, kvec, phase=0.3):
    xs = mesh(spec)
    arg = phase
    for d, X in enumerate(xs):
        arg = arg + 2.0 * np.pi * kvec[d] * X / spec.lengths[d]
    return np.sin(arg) + 0.0 * sum(np.broadcast_to(X, spec.shape) for X in xs)


GHOSTS = ("mirror", "zero", "odd")
# odd, even and anisotropic boxes in every dimension
SHIFT_SHAPES = [(9,), (8,), (9, 10), (8, 8), (8, 11, 13)]


def _box(shape, mode):
    return cf.DomainSpec(len(shape), mode, (2.0,) * len(shape), shape)


def _shape_id(shape):
    return "x".join(map(str, shape))


def _assert_rejects_bad_arguments(v, spec):
    # checked in every mode, so a typo fails in periodic boxes too
    for offset, ghost in ((0, "mirror"), (2, "mirror"), (-2, "zero"),
                          (1, "zeros"), (-1, "Mirror")):
        with pytest.raises(ValueError):
            shifted(v, spec, 0, offset, ghost)


class TestShifted:
    @pytest.mark.parametrize("offset", [1, -1], ids=["right", "left"])
    @pytest.mark.parametrize("shape", SHIFT_SHAPES, ids=_shape_id)
    def test_periodic_wrap(self, shape, offset):
        # periodic ghosts wrap around whatever the ghost kind
        spec = _box(shape, "periodic")
        v = np.random.default_rng(1).standard_normal(shape)
        for axis in range(len(shape)):
            for ghost in GHOSTS:
                np.testing.assert_array_equal(
                    shifted(v, spec, axis, offset, ghost),
                    np.roll(v, -offset, axis=axis))
        _assert_rejects_bad_arguments(v, spec)

    @pytest.mark.parametrize("ghost", GHOSTS)
    @pytest.mark.parametrize("shape", [s for s in SHIFT_SHAPES if len(s) > 1],
                             ids=_shape_id)
    def test_neumann_mirror_and_zero(self, shape, ghost):
        # interior cells shift; the ghost past each wall is the wall cell
        # (mirror), 0 (zero) or the negated wall cell (odd)
        spec = _box(shape, "neumann")
        v = np.random.default_rng(2).standard_normal(shape)
        sign = {"mirror": 1.0, "zero": 0.0, "odd": -1.0}[ghost]
        for axis in range(len(shape)):
            w = np.moveaxis(v, axis, 0)
            right = np.moveaxis(shifted(v, spec, axis, 1, ghost), axis, 0)
            left = np.moveaxis(shifted(v, spec, axis, -1, ghost), axis, 0)
            np.testing.assert_array_equal(right[:-1], w[1:])
            np.testing.assert_array_equal(right[-1], sign * w[-1])
            np.testing.assert_array_equal(left[1:], w[:-1])
            np.testing.assert_array_equal(left[0], sign * w[0])
        _assert_rejects_bad_arguments(v, spec)

    @pytest.mark.parametrize("offset", [1, -1], ids=["right", "left"])
    @pytest.mark.parametrize("mode", ["periodic", "neumann"])
    @pytest.mark.parametrize("shape", [(9, 10), (8, 11, 13)], ids=_shape_id)
    def test_axis_counted_from_grid_not_array(self, shape, mode, offset):
        # vector component arrays carry a leading component axis; `axis`
        # still refers to the grid axis
        spec = _box(shape, mode)
        v = np.random.default_rng(3).standard_normal((len(shape),) + shape)
        for axis in range(len(shape)):
            out = shifted(v, spec, axis, offset, "odd")
            for comp in range(len(shape)):
                np.testing.assert_array_equal(
                    out[comp], shifted(v[comp], spec, axis, offset, "odd"))
            if mode == "periodic":
                np.testing.assert_array_equal(
                    out, np.roll(v, -offset, axis=axis + 1))


class TestOperators:
    def test_integrate_constant(self):
        for spec in (_periodic(16), _neumann(16)):
            f = cf.ScalarField(spec, np.full(spec.shape, 3.5))
            assert cf.integrate(f) == pytest.approx(3.5 * 4.0, rel=1e-14)

    def test_divergence_integrates_to_zero_periodic(self):
        rng = np.random.default_rng(11)
        spec = _periodic(24)
        data = np.zeros((2,) + spec.shape)
        for d in range(2):
            for k in ((1, 0), (0, 2), (1, 1), (2, 1)):
                data[d] += rng.normal() * _trig(spec, k, rng.random())
        div = cf.divergence(cf.VectorField(spec, data))
        assert abs(cf.integrate(div)) <= 1e-13

    def test_integration_by_parts_periodic(self):
        # central differencing is antisymmetric under the periodic inner
        # product, so sum f Dg + sum g Df telescopes to zero exactly
        rng = np.random.default_rng(3)
        spec = _periodic(16)
        f = rng.standard_normal(spec.shape)
        g = rng.standard_normal(spec.shape)
        for d in range(2):
            lhs = np.sum(f * diff_central(g, spec, d))
            rhs = -np.sum(g * diff_central(f, spec, d))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("ghost", GHOSTS)
    @pytest.mark.parametrize("mode", ["periodic", "neumann"])
    def test_diff_central_of_integers(self, mode, ghost):
        # an integer array differences in integers and divides into a new
        # float array, equal to that of the same values held as floats
        spec = _box((8, 9), mode)
        ints = np.arange(72).reshape(spec.shape) ** 2
        for d in range(2):
            got = diff_central(ints, spec, d, ghost)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(
                got, diff_central(ints.astype(float), spec, d, ghost))

    def test_laplacian_is_div_of_grad(self):
        rng = np.random.default_rng(5)
        spec = _periodic(16)
        f = cf.ScalarField(spec, rng.standard_normal(spec.shape))
        np.testing.assert_array_equal(cf.laplacian(f).data,
                                      cf.divergence(cf.gradient(f)).data)
        # at a wall the gradient of a mirrored scalar is odd, so the outer
        # divergence of the composition extends it with odd ghosts
        spec = _neumann(16)
        f = cf.ScalarField(spec, rng.standard_normal(spec.shape))
        np.testing.assert_array_equal(
            cf.laplacian(f).data,
            cf.divergence(cf.gradient(f), ghost="odd").data)

    def test_gradient_order_periodic(self):
        errs = []
        for n in (32, 64):
            spec = _periodic(n, dim=2)
            f = cf.ScalarField(spec, _trig(spec, (1, 2)))
            xs = mesh(spec)
            arg = 0.3 + 2.0 * np.pi * (1 * xs[0] + 2 * xs[1]) / 2.0
            exact = np.cos(arg) * 2.0 * np.pi / 2.0
            errs.append(np.max(np.abs(cf.gradient(f).data[0] - exact)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_laplacian_order_neumann_symmetric_field(self):
        # cos(pi x~/L) is even about both walls, so the mirror ghost equals
        # the true exterior value and the wide stencil stays second order up
        # to the boundary
        errs = []
        for n in (32, 64):
            spec = _neumann(n, dim=2)
            xs = mesh(spec)
            tx = np.pi * (xs[0] + 1.0) / 2.0
            ty = np.pi * (xs[1] + 1.0) / 2.0
            f = np.cos(tx) * np.cos(ty)
            exact = -2.0 * (np.pi / 2.0) ** 2 * f
            lap = cf.laplacian(cf.ScalarField(spec, f + 0.0 * f)).data
            errs.append(np.max(np.abs(lap - exact)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9


class TestNorms:
    def test_lp_of_constant(self):
        spec = _periodic(16)
        f = cf.ScalarField(spec, np.full(spec.shape, 2.0))
        vol = 4.0
        assert cf.lp_norm(f, 1) == pytest.approx(2.0 * vol, rel=1e-14)
        assert cf.lp_norm(f, 2) == pytest.approx(2.0 * np.sqrt(vol), rel=1e-14)
        assert cf.lp_norm(f, np.inf) == 2.0

    def test_vector_uses_pointwise_magnitude(self):
        spec = _periodic(16)
        data = np.zeros((2,) + spec.shape)
        data[0] = 3.0
        data[1] = 4.0
        u = cf.VectorField(spec, data)
        assert cf.lp_norm(u, np.inf) == pytest.approx(5.0, rel=1e-14)
        assert cf.lp_norm(u, 2) == pytest.approx(5.0 * 2.0, rel=1e-14)

    def test_subunit_exponent_rejected(self):
        spec = _periodic(16)
        f = cf.ScalarField(spec, np.ones(spec.shape))
        with pytest.raises(ValueError):
            cf.lp_norm(f, 0.5)

    def test_gaussian_l2_against_quadrature(self):
        spec = cf.DomainSpec(1, "periodic", (8.0,), (512,))
        x = cell_centers(spec)[0]
        f = cf.ScalarField(spec, np.exp(-x * x))
        # int exp(-2x^2) = sqrt(pi/2); tails beyond |x|=4 are ~1e-14
        exact = np.sqrt(np.sqrt(np.pi / 2.0))
        assert cf.lp_norm(f, 2) == pytest.approx(exact, rel=1e-10)


class TestFieldContainers:
    def test_scalar_shape_checked(self):
        spec = _periodic(16)
        with pytest.raises(ValueError):
            cf.ScalarField(spec, np.zeros((8, 8)))

    def test_vector_shape_checked(self):
        spec = _periodic(16)
        with pytest.raises(ValueError):
            cf.VectorField(spec, np.zeros((3,) + spec.shape))

    def test_data_coerced_to_float64(self):
        spec = _periodic(16)
        f = cf.ScalarField(spec, np.ones(spec.shape, dtype=np.float32))
        assert f.data.dtype == np.float64


class TestSnapshotIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        spec = _neumann(16)
        f = cf.ScalarField(spec, rng.standard_normal(spec.shape))
        cf.save_field(f, tmp_path / "snap", "n", 0.625)
        loaded, meta = cf.load_field(tmp_path / "snap", spec)
        np.testing.assert_array_equal(loaded.data, f.data)
        assert meta["time"] == 0.625
        assert meta["field"] == "n"

    def test_layout_is_little_endian_c_order(self, tmp_path):
        spec = cf.DomainSpec(1, "periodic", (1.0,), (8,))
        vals = np.arange(8.0) + 0.125
        cf.save_field(cf.ScalarField(spec, vals), tmp_path / "s", "n", 0.0)
        raw = (tmp_path / "s.f64").read_bytes()
        assert len(raw) == 8 * 8
        assert struct.unpack("<d", raw[:8])[0] == 0.125
        side = json.loads((tmp_path / "s.json").read_text())
        assert side["resolution"] == [8]

    @pytest.mark.parametrize("sidecar, nbytes", [
        ("{not json", 128), ("[16]", 128), ('{"resolution": [16]}', 128),
        ('{"resolution": [16], "lengths": [1.0]}', 64),
        ('{"resolution": [16], "lengths": 5}', 128)])
    def test_malformed_snapshot_is_a_config_error(self, tmp_path, sidecar,
                                                  nbytes):
        (tmp_path / "s.json").write_text(sidecar)
        (tmp_path / "s.f64").write_bytes(bytes(nbytes))
        with pytest.raises(cf.ConfigError):
            cf.load_field(tmp_path / "s", cf.DomainSpec(1, "periodic", (1.0,), (16,)))

    def test_load_validates_domain(self, tmp_path):
        spec = _periodic(16)
        cf.save_field(cf.ScalarField(spec, np.zeros(spec.shape)),
                      tmp_path / "s", "n", 0.0)
        other = _periodic(8)
        with pytest.raises(ValueError):
            cf.load_field(tmp_path / "s", other)
