"""Scenario generation: truncated circle, random Hermitian, custom files.

The circle scenario truncates differentiation on the unit circle to the
Fourier modes -N..N: the generator is diag(-N..N) and multiplication by a
trigonometric symbol truncates to the corresponding Toeplitz matrix.  The
basic building block is the k-shift S_k taking mode m to mode m+k, which
satisfies [D, S_k] = k S_k exactly, so all of its derivative identities
have closed forms.

Random scenarios draw eigenvalues uniformly in [0, N] (several spectral
bands (r-1, r] populated) with Haar-like eigenvectors, and are bitwise
deterministic under a seed.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .core import (
    SelfAdjointGenerator,
    TolerancePolicy,
    _integer,
    as_operator,
    eig_hermitian,
    hermitian_part,
    load_operator,
)

__all__ = [
    "ConfigError",
    "circle_generator",
    "circle_shift",
    "toeplitz_from_symbol",
    "random_symbol_coeffs",
    "circle_scenario",
    "random_operator",
    "random_scenario",
    "custom_scenario",
]


class ConfigError(ValueError):
    """Invalid scenario or harness configuration."""


def circle_generator(n_modes: int) -> SelfAdjointGenerator:
    """Truncated circle generator: diag(m) over modes m = -N..N."""
    if n_modes < 1:
        raise ConfigError("mode cutoff N must be >= 1")
    modes = np.arange(-n_modes, n_modes + 1, dtype=float)
    dim = modes.size
    return SelfAdjointGenerator(
        base=np.diag(modes.astype(complex)),
        eigenvalues=modes,
        eigenvectors=np.eye(dim, dtype=complex),
    )


def circle_shift(n_modes: int, k: int) -> np.ndarray:
    """Truncated k-shift: mode m goes to mode m+k (dropped past the cutoff)."""
    if abs(k) > 2 * n_modes:
        raise ConfigError(f"shift |k| = {abs(k)} exceeds the truncation range {2 * n_modes}")
    dim = 2 * n_modes + 1
    s = np.zeros((dim, dim), dtype=complex)
    for p in range(dim):
        q = p + k
        if 0 <= q < dim:
            s[q, p] = 1.0
    return s


def toeplitz_from_symbol(n_modes: int, coeffs: dict) -> np.ndarray:
    """Truncated multiplication by sum_k c_k e^{ik theta}: a Toeplitz matrix."""
    dim = 2 * n_modes + 1
    out = np.zeros((dim, dim), dtype=complex)
    for k, c in coeffs.items():
        out += complex(c) * circle_shift(n_modes, int(k))
    return out


def random_symbol_coeffs(seed: int, degree: int) -> dict:
    """Deterministic random symbol coefficients for |k| <= degree."""
    if degree < 0:
        raise ConfigError("symbol degree must be >= 0")
    rng = np.random.default_rng(seed)
    out = {}
    for k in range(-degree, degree + 1):
        re, im = rng.standard_normal(2)
        out[k] = (re + 1j * im) / np.sqrt(2.0)
    return out


def circle_scenario(n_modes: int, x_kind) -> tuple[SelfAdjointGenerator, np.ndarray]:
    """Generator and operator for the truncated circle.

    ``x_kind`` is a dict: {"kind": "shift", "k": int},
    {"kind": "trig_poly", "coeffs": {k: [re, im] | complex}}, or
    {"kind": "random_symbol", "seed": int, "degree": int}.  Each int may be
    an integral float such as 4.0; 2.7, a bool or a string is a
    ConfigError.  A trig_poly key is such an int, or a string that ``int``
    reads, as a JSON key is; two keys that read as the same mode (``"2"``
    and ``"+2"``) are a ConfigError naming both.
    """
    gen = circle_generator(n_modes)
    if not isinstance(x_kind, dict) or "kind" not in x_kind:
        raise ConfigError("x_kind must be a dict with a 'kind' field")
    kind = x_kind["kind"]
    if kind == "shift":
        x = circle_shift(n_modes, _integer(x_kind["k"], "x_kind.k", ConfigError))
    elif kind == "trig_poly":
        coeffs, keys = {}, {}
        for key, c in dict(x_kind["coeffs"]).items():
            if isinstance(c, (list, tuple)):
                c = complex(c[0], c[1])
            k = key
            if isinstance(k, str):  # a JSON key; one int() cannot read is left to _integer
                with contextlib.suppress(ValueError):
                    k = int(k)
            k = _integer(k, "x_kind.coeffs key", ConfigError)
            if k in keys:
                raise ConfigError(f"trig_poly keys {keys[k]!r} and {key!r} are both mode {k}")
            coeffs[k], keys[k] = complex(c), key
        if any(abs(k) > 2 * n_modes for k in coeffs):
            raise ConfigError("trig_poly coefficient index exceeds the truncation range")
        if not np.all(np.isfinite(list(coeffs.values()))):
            raise ConfigError("trig_poly coefficients must be finite")
        x = toeplitz_from_symbol(n_modes, coeffs)
    elif kind == "random_symbol":
        degree = _integer(x_kind["degree"], "x_kind.degree", ConfigError)
        if degree > 2 * n_modes:
            raise ConfigError(f"symbol degree {degree} exceeds the truncation range")
        seed = _integer(x_kind["seed"], "x_kind.seed", ConfigError)
        x = toeplitz_from_symbol(n_modes, random_symbol_coeffs(seed, degree))
    else:
        raise ConfigError(f"unknown circle x_kind {kind!r}")
    return gen, x


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_operator(dim: int, rng: np.random.Generator, kind: str = "general") -> np.ndarray:
    """Random complex Gaussian operator; 'hermitian' takes the Hermitian part."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(
        2.0 * dim
    )
    if kind == "general":
        return z
    if kind == "hermitian":
        return hermitian_part(z)
    raise ConfigError(f"unknown random x_kind {kind!r}")


def random_scenario(
    dim: int, seed: int, x_kind: str = "general", tol: TolerancePolicy | None = None
) -> tuple[SelfAdjointGenerator, np.ndarray]:
    """Seeded random generator (eigenvalues uniform in [0, N]) and operator.

    The eigenvalue spread populates several spectral bands (r-1, r] with
    overwhelming probability.  Identical seeds give bitwise-identical
    matrices in one process/platform.
    """
    if dim < 1:
        raise ConfigError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    evals = np.sort(rng.uniform(0.0, dim, size=dim))
    u = _haar_unitary(dim, rng)
    base = hermitian_part((u * evals) @ u.conj().T)
    gen = eig_hermitian(base, tol)
    x = random_operator(dim, rng, x_kind)
    return gen, x


def custom_scenario(
    d_path, x_path, tol: TolerancePolicy | None = None
) -> tuple[SelfAdjointGenerator, np.ndarray]:
    """Load generator and operator from matrix JSON files."""
    try:
        d_mat = load_operator(d_path)
        x = load_operator(x_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"could not load scenario matrices: {exc}") from exc
    if d_mat.shape != x.shape:
        raise ConfigError("generator and operator files have different dimensions")
    return eig_hermitian(d_mat, tol), as_operator(x)
