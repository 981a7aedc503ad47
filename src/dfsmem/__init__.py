"""Exact desk-scale simulator of a teleportation-based decoherence-free
quantum memory for photonic qubits in atomic ensembles."""

from .fock import (
    MixedState,
    ModeLabel,
    ModeRegistry,
    OpticalElement,
    PureState,
    TruncationOverflowError,
    apply_unitary,
    atomic_mode,
    fidelity_mixed,
    fidelity_pure,
    inner,
    photon_mode,
    register_modes,
    vacuum,
)
from .noise import FidelityReport, NoiseParams, apply_loss, end_to_end_fidelity
from .protocol import (
    BellOutcome,
    LogicalQubitMap,
    PauliMark,
    TrialRecord,
    generate_entanglement,
    pauli_mark,
    read_memory,
    remote_transfer,
    write_memory,
)
from .source import pc_from_physical
from .trials import RunConfig, RunStats, oracle_check, run_remote_trials, run_write_trials

__version__ = "0.1.0"
