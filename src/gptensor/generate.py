"""Random low-rank instances with controlled perturbation, and a library of
named function-sampled tensors used by the benchmark suite."""

from __future__ import annotations

import math

import numpy as np

from .tensors import DenseTensor, SymTensor, khatri_rao, monomial_values

__all__ = ["check_eps", "gen_random_sym", "gen_random_ns", "named_tensor", "NAMED_TENSORS"]


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def check_eps(eps: float) -> None:
    """Raise ValueError unless eps is finite and >= 0; a NaN would pass `eps < 0`."""
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")


def gen_random_sym(n: int, m: int, r: int, eps: float = 0.0, seed: int = 0):
    """Random rank-r symmetric tensor plus a norm-eps symmetric perturbation.

    Returns (F, R, E): the perturbed tensor F = R + E, the unperturbed rank-r
    tensor R = sum of symmetric powers of complex Gaussian vectors, and the
    noise tensor E with tensor norm exactly eps (zero when eps = 0).
    """
    if r < 1:
        raise ValueError(f"rank must be positive, got {r}")
    check_eps(eps)
    rng = np.random.default_rng(seed)
    U = _random_complex(rng, r, n)
    R = SymTensor(n, m, monomial_values(U, m).sum(axis=0))
    if eps > 0:
        E = SymTensor(n, m, _random_complex(rng, len(R.values)))
        E = E * (eps / E.norm())
    else:
        E = SymTensor.zeros(n, m)
    return R + E, R, E


def gen_random_ns(dims, r: int, eps: float = 0.0, seed: int = 0):
    """Random rank-r dense tensor plus a norm-eps perturbation.

    Returns (F, R, E) analogous to :func:`gen_random_sym`, with R a sum of
    outer products of complex Gaussian mode vectors.
    """
    dims = tuple(int(d) for d in dims)
    if r < 1:
        raise ValueError(f"rank must be positive, got {r}")
    check_eps(eps)
    if len(dims) < 3:
        raise ValueError("need order >= 3")
    rng = np.random.default_rng(seed)
    draws = [[_random_complex(rng, d) for d in dims] for _ in range(r)]  # term-major
    A = [np.column_stack(vs) for vs in zip(*draws)]  # A[t]: the (n_t, r) factor of mode t
    R = DenseTensor((A[0] @ khatri_rao(A[1:]).T).reshape(dims))
    if eps > 0:
        E = DenseTensor(_random_complex(rng, *dims))
        E = E * (eps / E.norm())
    else:
        E = DenseTensor(np.zeros(dims, dtype=np.complex128))
    return R + E, R, E


# symmetric family -> (default n, order, entry formula of the 1-based indices)
_SYM_NAMED = {
    "sin3": (6, 3, lambda i, j, k: np.sin(i + j + k)),
    "recip3": (10, 3, lambda i, j, k: 1.0 / (i + j + k)),
    "exp4": (5, 4, lambda i, j, k, l: np.exp(-float(i * j * k * l))),
    "log4": (5, 4, lambda i, j, k, l: np.log(float(i + j + k + l))),
    "sqrt5": (4, 5, lambda *ix: np.sqrt(float(sum(v * v for v in ix)))),
    "logexp6": (4, 6, lambda *ix: np.log(float(np.prod(ix)) + np.exp(float(sum(ix))))),
}

# dense family -> (dims, entry formula evaluated on the 1-based index grids)
_DENSE_NAMED = {
    "expsum3": ((7, 6, 5), lambda i, j, k: 1.0 / (np.exp(i) + np.exp(j**2) + np.exp(k**3))),
    "cos3": ((5, 4, 4), lambda i, j, k: np.cos(i - j - k) + 0.0j),
    "recip4": ((8, 7, 6, 5), lambda i, j, k, l: 1.0 / (1 + i + 2 * j + 3 * k + 4 * l)),
    "coscross4": (
        (5, 5, 4, 4),
        lambda i, j, k, l: np.cos(i + j - k - l) - 1e-3 * np.sin(i * j * k * l) + 0.0j,
    ),
    "arctan5": (
        (9, 8, 7, 6, 5),
        lambda i, j, k, l, p: np.arctan(i * j**2 * k**3 * l**4 * p**5, dtype=np.float64),
    ),
    "logexp6ns": (
        (5, 5, 5, 4, 4, 4),
        lambda i1, i2, i3, i4, i5, i6: np.log(
            1.0 + np.exp(np.float64(i1 * i2 * i3) + np.float64(i4 * i5 * i6))
        ),
    ),
}

NAMED_TENSORS = (*_SYM_NAMED, *_DENSE_NAMED)


def named_tensor(name: str, n: int | None = None):
    """Function-sampled benchmark tensor by name.

    Symmetric families (`_SYM_NAMED`) accept an optional dimension override
    `n`; dense families (`_DENSE_NAMED`) have fixed dimensions.
    """
    if name in _SYM_NAMED:
        default_n, m, fn = _SYM_NAMED[name]
        return SymTensor.from_function(default_n if n is None else n, m, fn)
    if name not in _DENSE_NAMED:
        raise ValueError(f"unknown tensor name {name!r}; choose from {', '.join(NAMED_TENSORS)}")
    if n is not None:
        raise ValueError(f"{name} has fixed dimensions; n override not supported")
    dims, fn = _DENSE_NAMED[name]
    grids = np.meshgrid(*[np.arange(1, d + 1) for d in dims], indexing="ij")
    return DenseTensor(fn(*grids).astype(np.complex128))
