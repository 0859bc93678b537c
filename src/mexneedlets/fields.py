"""Band-limited fields on the sphere in the real orthonormal basis."""

import numpy as np

from .errors import ZeroFieldError
from .harmonics import n_coeffs, real_sh_matrix, sh_index


class HarmonicField:
    """Mean-zero-capable band-limited function stored as Y_{l,q} coefficients."""

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        L = int(round(np.sqrt(coeffs.size))) - 1
        if n_coeffs(L) != coeffs.size:
            raise ValueError("coefficient vector length must be (L+1)^2")
        self.coeffs = coeffs
        self.L_max = L

    @classmethod
    def zeros(cls, L):
        return cls(np.zeros(n_coeffs(L)))

    @classmethod
    def single_harmonic(cls, l, q, L=None):
        L = l if L is None else L
        field = cls.zeros(L)
        field.coeffs[sh_index(l, q)] = 1.0
        return field

    @classmethod
    def random_mean_zero(cls, L, rng):
        """Unit field from i.i.d. standard normal coefficients, constant mode zeroed."""
        coeffs = rng.standard_normal(n_coeffs(L))
        coeffs[0] = 0.0
        coeffs /= np.linalg.norm(coeffs)
        return cls(coeffs)

    def coeff(self, l, q):
        return float(self.coeffs[sh_index(l, q)])

    @property
    def mean_zero(self):
        return self.coeffs[0] == 0.0

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def copy(self):
        return HarmonicField(self.coeffs.copy())

    def __repr__(self):
        return "HarmonicField(L_max=%d, norm=%.6g)" % (self.L_max, self.norm())


def evaluate_field(field, xyz):
    """Pointwise values of the field at unit vectors xyz (scalar for one point)."""
    xyz = np.asarray(xyz, dtype=float)
    single = xyz.ndim == 1
    values = real_sh_matrix(field.L_max, np.atleast_2d(xyz)) @ field.coeffs
    return float(values[0]) if single else values


def require_nonzero(field):
    if field.norm() == 0.0:
        raise ZeroFieldError("field is identically zero")
