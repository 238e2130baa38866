"""Two-qubit CHSH laboratory with minimal-length (GUP) corrections."""

from .errors import (
    AmbiguousBranchError, DegeneracyError, DimensionError, GupBellError,
    HermiticityError, NotDichotomicError, NumericError, OutOfRangeError,
    ValidationError,
)
from .gup import (
    ChshResult, GupModel, PerturbedState, default_hamiltonian,
    default_perturbation, gup_correct_observable, perturb_state,
)
from .lab import (
    BatchEvaluator, Optimum, ScanGrid, ScenarioConfig, SweepCurve, beta_sweep,
    classify, evaluate_point, grid_scan, optimize_angles,
)
from .quantum import (
    ChshSettings, Direction, PureState, bell_state, canonical_settings,
    correlation_tensor, spin_observable,
)
from .security import (
    SecurityReport, build_report, eavesdrop_test, minentropy_bound,
    violation_margin,
)
from .shots import (
    ChshEstimate, CountsTable, ShotPlan, depolarize, estimate_chsh,
)
from .tensor import eig_hermitian

__version__ = "0.1.0"
