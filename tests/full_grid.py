"""The tests' conversions between an n x n field and the stepper's spectrum.

eikolab holds a field as its quadrant [:n/2+1, :n/2+1] and meets the full
grid only in snapshot files.  Tests that build a field or an oracle on every
cell of the periodic grid convert here, through the package's own mirror and
evenness check.
"""
import scipy.fft

from eikolab.spectral import _mirror, quadrant


def to_spectrum(values):
    """The DCT-I of the quadrant of an n x n field even in x and y and x <-> y
    symmetric (ConfigError beyond rounding): its rfft2 coefficients, kx, ky >= 0."""
    return scipy.fft.dctn(quadrant(values), type=1)


def to_field(uhat):
    """The n x n field of the quadrant spectrum uhat (see to_spectrum)."""
    return _mirror(scipy.fft.idctn(uhat, type=1))
