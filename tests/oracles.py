"""Test-only readings of library objects: whole matrices and per-n iterates
that the library neither forms nor keeps.

    reconstruct(eig)            V diag(values) V^H
    orthonormality_defect(eig)  max |V^H V - I|
    iterates(w, n)              Theta^{+-j} phi for j = 1..n, from the library's loop
    image(w, n)                 W^(n) phi = Theta0^{-+n} Theta^{+-n} phi
    operator(w)                 W^(n_max) on the full space (L x L)

`w` is a scattering.WaveOperatorIterates.  Its iterates are recomputed by
scattering._iterates, the generator stroboscopic_wave_op consumes, so they
carry the bits of the run's own loop; stroboscopic_wave_op itself cannot be
asked for them at every n, since it raises ConvergenceError where no probe
has settled (at n < GAP_RUN, or while the packets cross the well).
"""

from itertools import islice

import numpy as np

from floqscat.numerics import unitary_defect
from floqscat.scattering import _iterates


def reconstruct(eig):
    return (eig.vectors * eig.values) @ eig.vectors.conj().T


def orthonormality_defect(eig):
    return unitary_defect(eig.vectors)


def iterates(w, n=None):
    """Theta^{+-j} phi for j = 1..n (default n_max), each (L, p)."""
    steps = _iterates(w.model, w.direction, w.mono, w.probe_set.vectors)
    return [x for _, x in islice(steps, w.n_max if n is None else n)]


def image(w, n):
    """W^(n) phi = Theta0^{-+n} Theta^{+-n} phi, (L, p), from the n-th iterate."""
    return w.model.free_apply(-w.direction * n, iterates(w, n)[-1])


def operator(w):
    """Full-space iterate at n_max (unitary)."""
    return w.apply(np.eye(w.model.sites, dtype=np.complex128))
