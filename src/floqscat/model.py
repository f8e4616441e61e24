"""Time-periodic Hamiltonians H(t) = H0 + V(t) with period 1.

A model is held as a time-independent part ``h0`` plus a finite set of
Fourier modes ``{n: H_n}`` so that ``H(t) = h0 + sum_n H_n exp(2 pi i n t)``.
Hermiticity of H(t) is encoded structurally through the mode symmetry
H_{-n} = H_n^dagger.  Fourier coefficients use the plain convention
H_n = integral_0^1 exp(-2 pi i n t) H(t) dt (prefactor 1), which is the one
that makes the expansion above exact.

The lattice model is a periodically driven ring: a PeriodicHamiltonian
subclass whose free part is a tridiagonal hopping Hamiltonian with periodic
closure, plus a static well and a cosine drive on the declared sites
`potential_support`, which may cross site 0, encoded as modes {-1, 0, 1}.
Their `arc` is the shortest run of ring sites that holds them: the probe
packets aim at its midpoint, `support_window` widens it and `mirror`
reflects the ring about it.  The bound-state detectors score a state by its
mass on support_window(4); where that window holds 90 % of the ring, an
evenly spread state scores as bound, and the CLI refuses the lattice for
bound-states and wave-operators (exit 2).

Every model owns what is built once from it: where its interaction acts
(`support`, the sites where some mode has a nonzero row or column), the H0
eigendecomposition (`free_eig`) behind U0(t) = exp(-i t H0) (`free_propagator`,
`free_apply`) and the null scan's free resolvent, the free one-period operator
U0(1) (`free_period`, read-only) and the Magnus steppers of each step width
and order it is propagated with (`steppers`, filled by propagation.propagate).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import EigenDecomposition, as_complex_matrix, check_hermitian, hermitian_eig

HERMITIAN_TOL = 1e-12


@dataclass
class PeriodicHamiltonian:
    """H(t) = h0 + sum_n modes[n] exp(2 pi i n t), period 1."""

    h0: np.ndarray
    modes: dict[int, np.ndarray] = field(default_factory=dict)
    label: str = ""
    # (dt, order) -> MagnusStepper, filled by propagation.propagate
    steppers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.h0 = check_hermitian(as_complex_matrix(self.h0))
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

    def validate(self, tol: float = HERMITIAN_TOL):
        scale = max(float(np.abs(self.h0).max()), 1.0)
        for n, m in self.modes.items():
            partner = self.modes.get(-n)
            if partner is None:
                raise ValueError(f"mode {n} has no partner mode {-n} (H_-n = H_n^dagger required)")
            defect = float(np.abs(partner - m.conj().T).max())
            if defect > tol * max(scale, float(np.abs(m).max()), 1.0):
                raise ValueError(f"mode symmetry violated at n={n}: |H_-n - H_n^dagger| = {defect:.3e}")

    def evaluate(self, t: float) -> np.ndarray:
        """H(t) as a dense Hermitian matrix.

        The phase is formed from t mod 1, so periodicity is structural:
        whenever t and t+1 reduce to the same float, the results are
        bitwise identical.
        """
        return self.h0 + self.potential(t)

    def potential(self, t: float) -> np.ndarray:
        """V(t) = H(t) - h0, the mode sum alone (includes the n=0 mode)."""
        tau = float(t) % 1.0
        out = np.zeros_like(self.h0)
        for n, m in self.modes.items():
            out = out + m * np.exp(2j * np.pi * n * tau)
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
        sites = np.flatnonzero(touched.any(axis=0) | touched.any(axis=1))
        sites.flags.writeable = False
        return sites

    @cached_property
    def free_eig(self) -> EigenDecomposition:
        """H0's eigendecomposition (hermitian_eig), formed once per model: the one
        behind free_propagator and free_apply."""
        return hermitian_eig(self.h0)

    @cached_property
    def free_period(self) -> np.ndarray:
        """Theta0 = U0(1) = exp(-i H0), the free one-period operator: the bits of
        free_propagator(1.0), formed once per model and read-only."""
        theta0 = self.free_eig.exp(1.0)
        theta0.flags.writeable = False
        return theta0

    def free_propagator(self, t: float) -> np.ndarray:
        """U0(t) = exp(-i t H0), equal to expm_hermitian(h0, t); every t shares
        one eigendecomposition of H0 per model."""
        return self.free_eig.exp(float(t))

    def free_apply(self, t: float, x: np.ndarray) -> np.ndarray:
        """U0(t) x for a block x of columns, from the same eigendecomposition of H0,
        without forming U0(t): V (e^{-i t E} (V^H x)), whose phases are exact for
        every t (no repeated products)."""
        eig = self.free_eig
        return eig.apply(np.exp(-1j * float(t) * eig.values), x)


def fourier_modes(samples, m_cut: int, label: str = "") -> PeriodicHamiltonian:
    """Recover Fourier modes from uniform samples (t_j, H(t_j)).

    samples must lie on the uniform grid t_j = j / N_t with N_t >= 4*m_cut + 2.
    Returns a PeriodicHamiltonian with h0 = 0 and modes
    H_n = (1/N_t) sum_j exp(-2 pi i n t_j) H(t_j) for |n| <= m_cut.
    Band-limited inputs of degree <= m_cut round-trip through evaluate().
    """
    if m_cut < 0:
        raise ValueError("mode cutoff must be >= 0")
    n_t = len(samples)
    if n_t < 4 * m_cut + 2:
        raise ValueError(f"need at least 4*M+2 = {4 * m_cut + 2} samples for cutoff M={m_cut}, got {n_t}")
    ts = np.array([float(t) for t, _ in samples])
    expected = np.arange(n_t) / n_t
    if np.abs(ts - expected).max() > 1e-12:
        raise ValueError("samples must sit on the uniform grid t_j = j/N_t")
    mats = np.stack([check_hermitian(as_complex_matrix(h)) for _, h in samples])
    dim = mats.shape[1]
    modes = {}
    for n in range(-m_cut, m_cut + 1):
        phases = np.exp(-2j * np.pi * n * expected)
        modes[n] = np.einsum("j,jab->ab", phases, mats) / n_t
    return PeriodicHamiltonian(h0=np.zeros((dim, dim)), modes=modes, label=label)


@dataclass(kw_only=True)
class LatticeModel(PeriodicHamiltonian):
    """Driven ring lattice: free hopping part plus windowed well and drive."""

    hopping: float
    potential_support: np.ndarray

    @property
    def sites(self) -> int:
        return self.dim

    @cached_property
    def arc(self) -> tuple[int, int]:
        """(lo, width): the shortest run of ring sites from lo that holds
        potential_support.  It leaves out the widest gap between cyclically
        consecutive declared sites; a tie goes to the gap from the largest round
        to the smallest, which leaves min..max."""
        sites = np.unique(self.potential_support)
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
        h0 and every mode equal their reflected copies exactly; else None.

        H(t) then commutes with R for every t, and so does U(t, s): column R[j]
        of a propagator is rows R of column j."""
        r = (2 * self.arc[0] + self.arc[1] - 1 - np.arange(self.sites)) % self.sites
        flip = np.ix_(r, r)
        symmetric = np.array_equal(self.h0[flip], self.h0) and \
            all(np.array_equal(m[flip], m) for m in self.modes.values())
        return r if symmetric else None


def ring_h0(sites: int, hopping: float) -> np.ndarray:
    """The free ring's tridiagonal hopping with periodic closure: H0[i, i+-1 mod L] = -hopping."""
    h0 = np.zeros((sites, sites), dtype=np.complex128)
    i = np.arange(sites)
    h0[i, (i + 1) % sites] = h0[(i + 1) % sites, i] = -hopping
    return h0


def build_lattice(sites: int, hopping: float, well_depth: float, drive_amp: float,
                  support, label: str = "") -> LatticeModel:
    """Ring lattice with a static well and cosine drive on a support window.

    The free part has H0[i, i+-1 mod L] = -hopping; the well enters as the
    n = 0 mode and the drive drive_amp * cos(2 pi t) as modes n = +-1 with
    coefficient drive_amp / 2, all diagonal and confined to `support`.  The
    drive is real and diagonal, so H_-1 = H_1^dagger = H_1: both modes are one
    array, which no code writes into.
    """
    if sites < 8:
        raise ValueError("lattice needs at least 8 sites")
    support = np.asarray(support, dtype=int)
    if support.size == 0 or support.min() < 0 or support.max() >= sites:
        raise ValueError(f"support {support} outside lattice [0, {sites})")
    h0 = ring_h0(sites, hopping)
    well = np.zeros(sites)
    well[support] = well_depth
    drv = np.zeros(sites)
    drv[support] = drive_amp / 2.0
    modes = {}
    if well_depth != 0.0:
        modes[0] = np.diag(well).astype(np.complex128)
    if drive_amp != 0.0:
        modes[1] = modes[-1] = np.diag(drv).astype(np.complex128)
    return LatticeModel(h0=h0, modes=modes, label=label or f"lattice L={sites}",
                        hopping=hopping, potential_support=support)


def rabi_model(delta: float = 0.0, v: float = 1.0) -> PeriodicHamiltonian:
    """Driven two-level model H(t) = [[delta/2, v e^{2 pi i t}], [v e^{-2 pi i t}, -delta/2]]."""
    h0 = np.array([[delta / 2, 0.0], [0.0, -delta / 2]], dtype=np.complex128)
    up = np.array([[0.0, v], [0.0, 0.0]], dtype=np.complex128)
    return PeriodicHamiltonian(h0=h0, modes={1: up, -1: up.conj().T},
                               label=f"rabi delta={delta} v={v}")


def rabi_quasi_energies(delta: float = 0.0, v: float = 1.0) -> np.ndarray:
    """Closed-form quasi-energies of the driven two-level model, folded to [0, 2pi).

    From the rotating frame U(t,0) = exp(+i pi t sigma_z) exp(-i t Hrot) with
    Hrot = [[delta/2 + pi, v], [v, -delta/2 - pi]] (validated against direct
    integration), the monodromy is -exp(-i Hrot), giving quasi-energies
    +-sqrt((delta/2 + pi)^2 + v^2) - pi mod 2pi.
    """
    mu = np.sqrt((delta / 2 + np.pi) ** 2 + v**2)
    return np.sort(np.mod([mu - np.pi, -mu - np.pi], 2 * np.pi))


def rabi_closed_form_propagator(t: float, delta: float = 0.0, v: float = 1.0) -> np.ndarray:
    """Exact U(t, 0) for the driven two-level model via the rotating frame."""
    from .numerics import expm_hermitian

    sz = np.diag([1.0, -1.0]).astype(np.complex128)
    hrot = np.array([[delta / 2 + np.pi, v], [v, -delta / 2 - np.pi]], dtype=np.complex128)
    return expm_hermitian(-np.pi * t * sz, 1.0) @ expm_hermitian(hrot, t)


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
# JSON model files: {dim, H0, modes: [{n, matrix}], label}; matrices are
# nested arrays of [re, im] pairs.  Serialization is bit-exact: floats are
# written with Python repr (shortest round-trip) and key order is fixed.
# ---------------------------------------------------------------------------

def matrix_to_json(a: np.ndarray):
    # + 0.0 normalizes negative zero so write-read-write is byte-identical
    return [[[float(z.real) + 0.0, float(z.imag) + 0.0] for z in row] for row in np.asarray(a, complex)]


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    arr = np.array(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"{name}: payload must be a nested array of [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: non-finite entry")
    return (arr[..., 0] + 1j * arr[..., 1]).astype(np.complex128)


def model_to_json_dict(h: PeriodicHamiltonian) -> dict:
    return {
        "dim": h.dim,
        "H0": matrix_to_json(h.h0),
        "modes": [{"n": n, "matrix": matrix_to_json(m)} for n, m in sorted(h.modes.items())],
        "label": h.label,
    }


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


def save_model(h: PeriodicHamiltonian, path):
    with open(path, "w") as f:
        json.dump(model_to_json_dict(h), f, sort_keys=True, indent=1)
        f.write("\n")


def load_model(path) -> PeriodicHamiltonian:
    with open(path) as f:
        return model_from_json_dict(json.load(f))
