"""Quasi-energy spectra, monodromy operators, periodic-boundary resolvents
and stroboscopic scattering for Hamiltonians with unit period."""

from .numerics import NumericalError

__all__ = ["NumericalError"]
