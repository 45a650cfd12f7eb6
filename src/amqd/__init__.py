"""Multicarrier CVQKD transmission chain: transforms, Gaussian sub-channels,
constellations, and error-probability analysis with Monte Carlo checks."""

from .channel import (
    RateAllocation,
    SubchannelSet,
    WorstCaseSet,
    apply_channel,
    end_to_end_roundtrip,
    secret_key_rate,
    worst_case_set,
)
from .config import ExperimentConfig, SnrGrid, parse_model_spec
from .diversity import (
    Constellation,
    PermutationConstellation,
    build_permutation_constellation,
    product_distance,
    product_distance_bound,
)
from .error_analysis import (
    ErrorEstimate,
    MonteCarloConfig,
    SlopeScanResult,
    analytic_event_probability,
    chi2_density,
    diversity_slope_scan,
    fit_diversity_slope,
    monte_carlo_p_err,
    outage_cdf,
    p_err_amqd_analytic,
    p_err_single_analytic,
    wilson_interval,
)
from .exceptions import ConfigError, EstimationError
from .experiments import (
    Table,
    gnuplot_script,
    run_analytic_table,
    run_monte_carlo,
)
from .sampling import (
    ComplexGaussianSpec,
    RngStream,
    TransmittanceModel,
    sample_modulation_block,
)
from .transform import ModulatedVector, unitary_dft, unitary_idft
from .validation import ValidationReport, run_validation

__version__ = "0.1.0"
