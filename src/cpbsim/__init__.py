"""Driven Cooper-pair box simulator.

Unitary charge dynamics under flux/gate drives, forward/backward protocol
reversal checks, two-point-measurement work statistics with emulated
thermal ensembles, and the supporting decoherence and readout estimates.
Units: energies in rad/ns (hbar = 1), times in ns, flux in flux quanta,
temperatures in kelvin.
"""

__version__ = "0.1.0"

from .config import RunConfig, config_from_mapping
from .drive import (
    BACKWARD,
    DEFAULT_DURATION,
    FORWARD,
    DriveProtocol,
    TabulatedProtocol,
    Waveform,
    load_waveform_table,
    reverse_protocol,
    sample_drive,
)
from .experiment import (
    MicrorevReport,
    PreparationEnsemble,
    TransitionMatrix,
    derive_seed,
    microrev_deviation,
    partition_seeds,
    prepare_ensemble,
    run_protocol,
    sample_experiment,
    stochasticity_defect,
    transition_matrix,
)
from .model import (
    DEFAULT_SUBSPACE,
    KB_OVER_HBAR,
    BiasPoint,
    DeviceParams,
    beta_ratio,
    charge_labels,
    josephson_energy,
    label_rows,
)
from .noise import (
    DephasingRatioPoint,
    DetectorParams,
    DetectorReport,
    dephasing_ratio,
    detector_distinguishability,
    kolmogorov_distance_quadrature,
    ratio_trace,
    window_width,
)
from .propagate import (
    PropagatorConfig,
    SpectrumTrace,
    evolve,
    spectrum_trace,
    unitarity_defect,
)
from .thermo import (
    BKEqualityResult,
    BKRatioRecord,
    EnergyLadder,
    GibbsWeights,
    WorkDistribution,
    bk_equality,
    bk_ratio_check,
    energy_ladder,
    gibbs_weights,
    sample_work,
    thermal_energy,
    work_distribution_exact,
)
