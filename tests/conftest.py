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


def nyquist_free(values, axes):
    """Node values on the product grid `axes` with the alternating mode
    (-1)^j removed along every periodic axis of even size (all torus axes;
    t, beta and gamma on Hopf), one axis at a time by its inner product
    with (-1)^j: the reference for `NodalDerivatives.sobolev` at kappa 0."""
    shape = tuple(axes["shape"])
    periodic = range(len(shape)) if axes["kind"] == "torus" else (0, 2, 3)
    v = np.array(values, dtype=float).reshape(shape)
    for a in periodic:
        if shape[a] % 2:
            continue
        sign = ((-1.0) ** np.arange(shape[a])).reshape((-1,) + (1,) * (len(shape) - 1 - a))
        v -= sign * np.sum(sign * v, axis=a, keepdims=True) / shape[a]
    return v.ravel()
