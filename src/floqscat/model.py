"""Time-periodic Hamiltonians H(t) = H0 + V(t) with period 1.

A model is held as a time-independent part ``h0`` plus a finite set of
Fourier modes ``{n: H_n}`` so that ``H(t) = h0 + sum_n H_n exp(2 pi i n t)``.
Hermiticity of H(t) is encoded structurally through the mode symmetry
H_{-n} = H_n^dagger, held to numerics.require_hermitian's rule.  `potential`
is the one evaluator of V(t) = H(t) - h0, at a time or over an array of
times (the resolvent's grid among them).  Fourier coefficients use the plain
convention H_n = integral_0^1 exp(-2 pi i n t) H(t) dt (prefactor 1), which
is the one that makes the expansion above exact.

The lattice model is a periodically driven ring, held as its structure: a
PeriodicHamiltonian subclass whose free part is the nearest-neighbour
hopping with periodic closure (or an open chain cut from it, `segment`) and
whose well and cosine drive are two real length-L diagonals, nonzero only on
the declared sites `potential_support`, which may cross site 0.  Its `h0`
and its modes {-1, 0, 1} are dense arrays formed on first read, for the
generic routes alone; `support`, `ring_spectrum`, `mirror`, `segment` and
`static_energy` read the diagonals in O(L).  The declared sites' `arc` is the
shortest run of ring sites that holds them: the probe packets aim at its
midpoint, `support_window` widens it (a bound state's reported localization
is its mass on support_window(4)) and `mirror` reflects the ring about it.

Every model owns what is built once from it: where its interaction acts
(`support`, the sites where some mode has a nonzero row or column), the H0
eigendecomposition (`free_eig`) behind every free resolvent (grid, mode space,
null scan), the free one-period operator U0(1) (`free_period`, read-only) and
the Magnus steppers of each step width and order it is propagated with
(`steppers`, filled by propagation.propagate).

The model also owns U0(t) = exp(-i t H0) and its spectrum.  `free_apply`
applies U0(t) to a block of columns and `free_levels` gives H0's levels.  A
closed LatticeModel, whose h0 is the nearest-neighbour ring of its hopping,
a circulant, has `ring_spectrum`: eps_k, the FFT of h0's first column, one
per ring momentum k = 2 pi q / L (Davis, Circulant Matrices, 1979).  There
U0(t) x is ifft(e^{-i t eps_k} fft(x)) and U0(1) is the circulant of U0(1)'s
first column, so neither needs free_eig.  On every other model
(`ring_spectrum` None) both come from free_eig.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# loaded at import, so that a ring's first free_apply does not pay for it
import numpy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import (EigenDecomposition, as_complex_matrix, check_square, distinct,
                       hermitian_defect, hermitian_eig, require_hermitian)


@dataclass
class PeriodicHamiltonian:
    """H(t) = h0 + sum_n modes[n] exp(2 pi i n t), period 1."""

    h0: np.ndarray
    modes: dict[int, np.ndarray] = field(default_factory=dict)
    label: str = ""
    # (dt, order) -> MagnusStepper, filled by propagation.propagate
    steppers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.h0 = check_square(self.h0)
        clean = {}
        for n, m in sorted(self.modes.items()):
            m = as_complex_matrix(m)
            if m.shape != self.h0.shape:
                raise ValueError(f"mode {n} has shape {m.shape}, expected {self.h0.shape}")
            clean[int(n)] = m
        self.modes = clean
        self.validate()

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    @property
    def max_mode(self) -> int:
        """Largest |n| with a stored mode (0 for a constant Hamiltonian)."""
        return max((abs(n) for n in self.modes), default=0)

    def validate(self):
        """Every mode has its partner, and H0 = H0^dagger and each H_-n = H_n^dagger
        hold to require_hermitian's rule as one stack, a mode pair at the scale
        max(max|H0|, max|H_n|)."""
        for n in self.modes:
            if -n not in self.modes:
                raise ValueError(f"mode {n} has no partner mode {-n} (H_-n = H_n^dagger required)")
        scale = float(np.abs(self.h0).max())
        # max|H_-n - H_n^H| = max|H_n - H_-n^H| (the adjoint, negated): one dense pass
        # per pair {n, -n}, read for both
        defect = {}
        for n, m in self.modes.items():
            if n not in defect:
                defect[n] = defect[-n] = float(np.abs(self.modes[-n] - m.conj().T).max())
        require_hermitian(
            [hermitian_defect(self.h0)] + [defect[n] for n in self.modes],
            [scale] + [max(scale, float(np.abs(m).max())) for m in self.modes.values()],
            ["H0 is not Hermitian"] +
            [f"mode symmetry H_-n = H_n^dagger violated at n={n}" for n in self.modes])

    def evaluate(self, t: float) -> np.ndarray:
        """H(t) as a dense Hermitian matrix.

        The phase is formed from t mod 1, so periodicity is structural:
        whenever t and t+1 reduce to the same float, the results are
        bitwise identical.
        """
        return self.h0 + self.potential(t)

    def potential(self, t) -> np.ndarray:
        """V(t) = H(t) - h0, the mode sum alone (includes the n=0 mode): one (d, d)
        matrix at a time t, or a stack of shape t.shape + (d, d) over an array of
        times, each entry the bits of its single-time call."""
        tau = np.asarray(t, dtype=float) % 1.0
        out = np.zeros(tau.shape + self.h0.shape, dtype=np.complex128)
        for n, m in self.modes.items():
            out = out + m * np.exp(2j * np.pi * n * tau)[..., None, None]
        return out

    def mode(self, n: int) -> np.ndarray:
        """H_n, zero if absent."""
        m = self.modes.get(int(n))
        if m is None:
            return np.zeros_like(self.h0)
        return m

    @cached_property
    def support(self) -> np.ndarray:
        """The sites where some mode (n = 0 included) has a nonzero row or column,
        sorted and read-only; empty for a constant Hamiltonian."""
        touched = sum((m != 0 for m in self.modes.values()), np.zeros(self.h0.shape, dtype=bool))
        return _read_only(np.flatnonzero(touched.any(axis=0) | touched.any(axis=1)))

    @cached_property
    def free_eig(self) -> EigenDecomposition:
        """H0's eigendecomposition (hermitian_eig), formed once per model: the only
        one, behind every free resolvent, and behind free_period and free_apply
        where the model has no ring_spectrum."""
        return hermitian_eig(self.h0)

    @property
    def ring_spectrum(self) -> np.ndarray | None:
        """H0's levels per ring momentum where h0 is a nearest-neighbour ring; a
        PeriodicHamiltonian has none."""
        return None

    @property
    def free_levels(self) -> np.ndarray:
        """H0's levels, ascending: the sorted ring_spectrum, else free_eig.values."""
        levels = self.ring_spectrum
        return self.free_eig.values if levels is None else np.sort(levels)

    @cached_property
    def free_period(self) -> np.ndarray:
        """Theta0 = U0(1) = exp(-i H0), the free one-period operator, formed once per
        model and read-only: on a ring the circulant of free_apply(1, e_0), else
        the bits of free_eig.exp(1.0)."""
        if self.ring_spectrum is None:
            theta0 = self.free_eig.exp(1.0)
        else:
            unit = np.zeros(self.dim, dtype=np.complex128)
            unit[0] = 1.0
            theta0 = circulant(self.free_apply(1.0, unit))
        return _read_only(theta0)

    def free_apply(self, t: float, x: np.ndarray) -> np.ndarray:
        """U0(t) x for a vector or a block x of columns, without forming U0(t): on a
        ring ifft(e^{-i t eps_k} fft(x)) along the sites, else V (e^{-i t E} (V^H x))
        from free_eig.  The phases are exact for every t (no repeated products)."""
        levels = self.ring_spectrum
        if levels is None:
            eig = self.free_eig
            return eig.apply(np.exp(-1j * float(t) * eig.values), x)
        phases = np.exp(-1j * float(t) * levels).reshape((-1,) + (1,) * (np.ndim(x) - 1))
        return np.fft.ifft(phases * np.fft.fft(x, axis=0), axis=0)


class LatticeModel(PeriodicHamiltonian):
    """Driven ring lattice, held as its structure: the hopping, the declared sites
    `potential_support` and two real length-L diagonals, the static `well` and
    the cosine's amplitude `drive`, both zero off potential_support.  H(t) is
    h0 + diag(well) + diag(drive) cos(2 pi t): Hermitian by construction, since
    the hopping and both diagonals are real and H_-1 = H_1 = diag(drive / 2), so
    PeriodicHamiltonian.validate does not run on it.  `closed` is False only on
    an open chain cut from a ring (`segment`).

    Every structural question is answered from the diagonals in O(L):
    `support`, `ring_spectrum`, `mirror`, `segment`, `static_energy`.  `h0` and
    `modes` are the dense arrays of the generic routes (MagnusStepper,
    floquet.k_blocks, ScanOperators, free_eig, potential), formed on first read
    and kept."""

    def __init__(self, hopping: float, potential_support, well, drive, label="", closed=True):
        self.hopping, self.potential_support = hopping, np.asarray(potential_support)
        self.well, self.drive, self.label, self.closed = well, drive, label, closed
        self.steppers = {}

    @property
    def dim(self) -> int:
        return len(self.well)

    sites = dim

    @property
    def max_mode(self) -> int:
        return int(self.drive.any())

    @cached_property
    def h0(self) -> np.ndarray:
        """The hopping H0[i, i+1] = H0[i+1, i] = -hopping, and between sites L - 1
        and 0 where the model is closed: the ring's circulant, or the open chain's."""
        h0 = np.zeros((self.sites, self.sites), dtype=np.complex128)
        i = np.arange(self.sites if self.closed else self.sites - 1)
        h0[i, (i + 1) % self.sites] = h0[(i + 1) % self.sites, i] = -self.hopping
        return h0

    @cached_property
    def modes(self) -> dict[int, np.ndarray]:
        """The diagonals formed complex, keys ascending: the well as mode 0 where it
        is nonzero somewhere, drive / 2 as modes -1 and 1 (one array, which no code
        writes into) where the drive is."""
        modes = {0: np.diag(self.well.astype(np.complex128))} if self.well.any() else {}
        if self.drive.any():
            half = np.diag((self.drive / 2.0).astype(np.complex128))
            modes = {-1: half, **modes, 1: half}
        return modes

    @cached_property
    def support(self) -> np.ndarray:
        """The sites where the well or the drive is nonzero, sorted and read-only."""
        return _read_only(np.flatnonzero((self.well != 0) | (self.drive != 0)))

    def static_energy(self, vectors: np.ndarray) -> np.ndarray:
        """<v|H0 + H_0|v> per column v of site amplitudes: the well on |v|^2 and the
        hopping on the bonds (i, i + 1), with (L - 1, 0) where the model is closed."""
        bonds = vectors.conj() * np.roll(vectors, -1, axis=0)    # row L - 1 closes the ring
        hop = bonds.sum(axis=0) - (0.0 if self.closed else bonds[-1])
        return self.well @ np.abs(vectors) ** 2 - 2 * self.hopping * hop.real

    @cached_property
    def ring_spectrum(self) -> np.ndarray | None:
        """eps_k, the FFT of h0's first column at momentum k = 2 pi q / L (index q),
        read-only, that column built alone; None on an open chain.  A real
        circulant's eigenvalues are real: the FFT's round-off in the imaginary part
        is dropped."""
        if self.closed:
            column = np.zeros(self.sites, dtype=np.complex128)
            column[[1, -1]] = -self.hopping
            return _read_only(np.fft.fft(column).real)

    @cached_property
    def arc(self) -> tuple[int, int]:
        """(lo, width): the shortest run of ring sites from lo that holds
        potential_support.  It leaves out the widest gap between cyclically
        consecutive declared sites; a tie goes to the gap from the largest round
        to the smallest, which leaves min..max."""
        sites = distinct(self.potential_support)
        gaps = np.diff(sites, append=sites[0] + self.sites)
        widest = len(gaps) - 1 - int(np.argmax(gaps[::-1]))
        return int(sites[(widest + 1) % len(sites)]), self.sites + 1 - int(gaps[widest])

    def support_window(self, margin: int = 0) -> np.ndarray:
        """The arc widened by `margin` sites on each side, in ring order from
        lo - margin (mod L); every site once where that reaches round the ring."""
        lo, width = self.arc
        return np.arange(lo - margin, lo - margin + min(width + 2 * margin, self.sites)) % self.sites

    def mirror(self) -> np.ndarray | None:
        """The site reflection R: x -> 2 lo + width - 1 - x (mod L) about the arc, where
        it maps h0 onto itself (on a ring always, on a chain where it reverses the
        chain) and both diagonals equal their reflected copies; else None.

        H(t) then commutes with R for every t, and so does U(t, s): column R[j]
        of a propagator is rows R of column j."""
        r = (2 * self.arc[0] + self.arc[1] - 1 - np.arange(self.sites)) % self.sites
        symmetric = (self.closed or r[0] == self.sites - 1) and \
            np.array_equal(self.well[r], self.well) and np.array_equal(self.drive[r], self.drive)
        return r if symmetric else None

    def segment(self, margin: int) -> LatticeModel:
        """The open chain on support_window(margin), with the diagonals' slices and
        potential_support in its coordinates."""
        sites = self.support_window(margin)
        return LatticeModel(self.hopping, (self.potential_support - sites[0]) % self.sites,
                            self.well[sites], self.drive[sites], closed=False)


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, its writeable flag cleared: a model's cached arrays, which no caller may write."""
    a.flags.writeable = False
    return a


def circulant(column: np.ndarray) -> np.ndarray:
    """The dense circulant C[i, j] = column[(i - j) mod L]: row i is the window
    of (column reversed, twice) that ends at column[i]."""
    twice = np.tile(column[::-1], 2)
    return np.ascontiguousarray(sliding_window_view(twice, len(column))[-2::-1])


def build_lattice(sites: int, hopping: float, well_depth: float, drive_amp: float,
                  support, label: str = "") -> LatticeModel:
    """Ring lattice with a static well and cosine drive on a support window.

    The free part has H0[i, i+-1 mod L] = -hopping; the well well_depth and the
    drive drive_amp * cos(2 pi t) sit on the diagonal at the sites `support`
    (the model's two length-L diagonals: nothing L x L is formed here).
    """
    if sites < 8:
        raise ValueError("lattice needs at least 8 sites")
    support = np.asarray(support, dtype=int)
    if support.size == 0 or support.min() < 0 or support.max() >= sites:
        raise ValueError(f"support {support} outside lattice [0, {sites})")
    well, drive = np.zeros(sites), np.zeros(sites)
    well[support], drive[support] = well_depth, drive_amp
    return LatticeModel(hopping, support, well, drive, label=label or f"lattice L={sites}")


def rabi_model(delta: float = 0.0, v: float = 1.0) -> PeriodicHamiltonian:
    """Driven two-level model H(t) = [[delta/2, v e^{2 pi i t}], [v e^{-2 pi i t}, -delta/2]]."""
    h0 = np.array([[delta / 2, 0.0], [0.0, -delta / 2]], dtype=np.complex128)
    up = np.array([[0.0, v], [0.0, 0.0]], dtype=np.complex128)
    return PeriodicHamiltonian(h0=h0, modes={1: up, -1: up.conj().T},
                               label=f"rabi delta={delta} v={v}")


def _random_two_harmonic(dim: int, seed: int, label: str) -> PeriodicHamiltonian:
    """Deterministic two-harmonic model with moderate mode amplitudes."""
    rng = np.random.default_rng(seed)

    def herm(scale):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return scale * (a + a.conj().T) / 2

    def raw(scale):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return scale * a

    h0 = herm(0.8)
    m1 = raw(0.30)
    m2 = raw(0.15)
    modes = {1: m1, -1: m1.conj().T, 2: m2, -2: m2.conj().T}
    return PeriodicHamiltonian(h0=h0, modes=modes, label=label)


def fleet() -> list[PeriodicHamiltonian]:
    """Small test fleet: the driven two-level model plus two two-harmonic models."""
    return [
        rabi_model(0.0, 1.0),
        _random_two_harmonic(3, seed=11, label="two-harmonic d=3"),
        _random_two_harmonic(4, seed=17, label="two-harmonic d=4"),
    ]


# ---------------------------------------------------------------------------
# JSON model files, read: {dim, H0, modes: [{n, matrix}], label}; matrices
# are nested arrays of [re, im] pairs of finite floats.  The package writes no
# model file.
# ---------------------------------------------------------------------------

def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    arr = np.array(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"{name}: payload must be a nested array of [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: non-finite entry")
    return (arr[..., 0] + 1j * arr[..., 1]).astype(np.complex128)


def model_from_json_dict(doc: dict) -> PeriodicHamiltonian:
    required = {"dim", "H0", "modes", "label"}
    missing = required - set(doc)
    if missing:
        raise ValueError(f"model document missing fields: {sorted(missing)}")
    h0 = matrix_from_json(doc["H0"], "H0")
    if h0.shape[0] != doc["dim"]:
        raise ValueError(f"dim field {doc['dim']} does not match H0 shape {h0.shape}")
    modes = {int(entry["n"]): matrix_from_json(entry["matrix"], f"modes[n={entry['n']}].matrix")
             for entry in doc["modes"]}
    return PeriodicHamiltonian(h0=h0, modes=modes, label=doc["label"])


def load_model(path) -> PeriodicHamiltonian:
    with open(path) as f:
        return model_from_json_dict(json.load(f))
