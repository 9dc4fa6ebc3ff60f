"""Two-qubit trapped-ion quantum process tomography toolkit.

Simulates composite-pulse QPT experiments under a parameterized laser and
addressing noise model, reconstructs 16x16 process matrices by CPTP-constrained
maximum likelihood, and provides gate-error and motional-thermometry analyses.
"""
from .qmath import (
    DEFAULT_TOL,
    Tolerances,
    ValidationError,
    matrix_exponential,
    nearest_psd,
    pauli_labels_2q,
    two_qubit_pauli_basis,
)
from .process import (
    CptpDiagnostics,
    ProcessFidelityReport,
    ProcessMatrix,
    apply_process,
    chi_choi_roundtrip,
    chi_to_choi,
    choi_to_chi,
    compose,
    extract_error_process,
    identity_chi,
    load_chi,
    process_fidelity,
    save_chi,
    unitary_to_chi,
    validate_cptp,
)
from .protocol import (
    ExperimentPlan,
    RotationSetting,
    TimingModel,
    build_plan,
    design_rank,
    meas_operator,
    predict_p2,
    prep_state,
)
from .ionsim import (
    NoiseModel,
    ProcessSpec,
    ShotDataset,
    composite_rotation,
    dataset_from_probabilities,
    generate_dataset,
    plan_for_process,
    ramsey_contrast_model,
    sample_trajectory,
    simulate_ramsey,
)
from .recon import (
    BootstrapReport,
    MleConfig,
    MleResult,
    bootstrap_fidelity,
    bootstrap_statistic,
    linear_inversion,
    mle_reconstruct,
)
from .analysis import (
    MotionalOccupation,
    OverRotationFit,
    ParityScan,
    RamseyFit,
    bell_populations,
    bell_state_fidelity,
    displaced_thermal_populations,
    fit_heating,
    fit_over_rotation,
    fit_ramsey_model,
    lamb_dicke_eta,
    sideband_rabi_signal,
    simulate_parity_scan,
    thermal_gate_error,
)

__version__ = "0.1.0"
