"""Quasi-energy spectra, monodromy operators, periodic-boundary resolvents
and stroboscopic scattering for Hamiltonians with unit period."""

from .numerics import (
    EigenDecomposition,
    NumericalError,
    SingularMatrixError,
    expm_hermitian,
    hermitian_eig,
    unitary_eig,
)
from .model import (
    LatticeModel,
    PeriodicHamiltonian,
    build_lattice,
    fleet,
    load_model,
    rabi_model,
    rabi_quasi_energies,
    save_model,
)
from .propagation import (
    Monodromy,
    PropagatorSchedule,
    monodromy,
    propagate,
)
from .floquet import (
    FloquetMatrix,
    QuasiEnergySpectrum,
    build_floquet,
    correspondence_report,
    quasi_spectrum,
    shift_commutation_defect,
    shift_group_defect,
)
from .resolvent import (
    BoundStateVerdict,
    FactorizedPotential,
    ScanOperators,
    ThresholdProximityError,
    block_q,
    bound_state_correspondence,
    factorized_potential,
    q_factorized,
    r0_apply,
    r0_matrix,
)
from .scattering import (
    ConvergenceError,
    ProbeSet,
    ScatteringReport,
    WaveOperatorIterates,
    bound_state_scan,
    make_probes,
    s_matrix,
    stroboscopic_wave_op,
    time_averaged_wave_op,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
