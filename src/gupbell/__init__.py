"""Two-qubit CHSH laboratory with minimal-length (GUP) corrections."""

from .errors import (
    AmbiguousBranchError, DegeneracyError, DimensionError, GupBellError,
    HermiticityError, NotDichotomicError, NumericError, OutOfRangeError,
    ValidationError,
)
from .gup import (
    ChshResult, GupModel, GupObservable, PerturbedState, default_hamiltonian,
    default_perturbation, gup_correct_observable, perturb_state,
)
from .lab import (
    BatchEvaluator, Optimum, ScanGrid, ScenarioConfig, SweepCurve, beta_sweep,
    classify, evaluate_point, grid_scan, optimize_angles,
    superclassical_components,
)
from .quantum import (
    ChshSettings, DensityMatrix, Direction, PureState, bell_state,
    canonical_settings, correlation_tensor, spin_observable,
)
from .security import (
    SecurityReport, build_report, eavesdrop_test, minentropy_bound,
    violation_margin,
)
from .shots import (
    ChshEstimate, CountsTable, ShotPlan, depolarize, estimate_chsh, lhv_max,
)
from .tensor import EigenSystem, eig_hermitian

__version__ = "0.1.0"
