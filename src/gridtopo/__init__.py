"""Topology learning and change detection for meshed distribution grids.

The package synthesizes voltage fluctuation data for a linearized power
flow model, estimates the voltage concentration matrix, and recovers the
grid topology and single-line changes from it.
"""

from .detect import ChangeReport, detect_change, diagonal_deltas
from .errors import ConvergenceError, GridTopoError, NumericalError, ValidationError
from .estimator import (
    ConcentrationMatrix,
    NoiseDeviationBound,
    analytic_concentration,
    direct_concentration,
    gamma_thresholds,
    noise_deviation_bound,
    noisy_concentration,
    sample_covariance,
)
from .generate import generate_grid
from .glasso import active_kernel, graphical_lasso
from .grid import (
    GridGraph,
    LaplacianPair,
    Line,
    LineAdmittance,
    StructureReport,
    admittance,
    apply_line_event,
    load_grid,
    reduced_laplacians,
    save_grid,
    structure_report,
)
from .sampler import (
    InjectionStatistics,
    NoiseStatistics,
    VoltageSampleSet,
    add_noise,
    analytic_voltage_covariance,
    draw_covariance,
    export_samples,
    import_samples,
    make_correlated_stats,
    sample_voltages,
)
from .topology import TopologyEstimate, learn_neighborhood, learn_sign_rule, score

__version__ = "0.1.0"
