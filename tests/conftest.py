import numpy as np
import pytest

from curvlab.catalog import ManifoldSpec, build_manifold, rng_from_seed


@pytest.fixture(scope="session")
def flat_torus():
    return build_manifold(ManifoldSpec("torus-flat", dim=2, resolution=8))


@pytest.fixture(scope="session")
def kahler_torus():
    return build_manifold(ManifoldSpec("torus-kahler-potential", dim=2, resolution=8))


@pytest.fixture(scope="session")
def perturbed_torus():
    return build_manifold(ManifoldSpec("torus-hermitian-perturbed", dim=2, resolution=8))


@pytest.fixture(scope="session")
def hopf():
    return build_manifold(ManifoldSpec("hopf-standard"))


@pytest.fixture(scope="session")
def inoue():
    return build_manifold(ManifoldSpec("inoue-chart"))


@pytest.fixture()
def rng():
    return rng_from_seed(20240817)


def hopf_points(rng, count):
    t = rng.uniform(0.0, np.log(2.0), size=count)
    v = rng.normal(size=(count, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.exp(t)[:, None] * (v[:, :2] + 1j * v[:, 2:])


def _periodic_axes(axes):
    """The periodic chart axes of the product grid `axes`: all torus axes;
    t, beta and gamma on Hopf."""
    return tuple(range(len(axes["shape"]))) if axes["kind"] == "torus" else (0, 2, 3)


def nyquist_free(values, axes):
    """Node values on the product grid `axes` with the alternating mode
    (-1)^j removed along every periodic axis of even size (all torus axes;
    t, beta and gamma on Hopf), one axis at a time by its inner product
    with (-1)^j: the reference for `NodalDerivatives.project`."""
    shape = tuple(axes["shape"])
    v = np.array(values, dtype=float).reshape(shape)
    for a in _periodic_axes(axes):
        if shape[a] % 2:
            continue
        sign = ((-1.0) ** np.arange(shape[a])).reshape((-1,) + (1,) * (len(shape) - 1 - a))
        v -= sign * np.sum(sign * v, axis=a, keepdims=True) / shape[a]
    return v.ravel()


def averaged_operator(nodal, axes, w, wK, kappa):
    """The matvec d -> Wbar d + kappa sum D_mu^T (wK)bar_{mu nu} D_nu d,
    read through the partials and their adjoint, with the node weights w
    and the (2n, 2n, N) field wK averaged along the periodic axes of the
    grid `axes`: the operator `NodalDerivatives.riesz` inverts."""
    shape = tuple(axes["shape"])

    def average(field):
        v = field.reshape(field.shape[:-1] + shape)
        along = tuple(v.ndim - len(shape) + a for a in _periodic_axes(axes))
        return np.broadcast_to(v.mean(axis=along, keepdims=True), v.shape).reshape(field.shape)

    wbar, coeff = average(w), average(wK)
    return lambda d: wbar * d + kappa * nodal.adjoint(np.einsum("abp,pb->pa", coeff, nodal(d)))
