"""Golden-ratio approximation toolkit for the metric s-t path TSP."""

from .errors import (
    InvalidInstanceError,
    InvariantError,
    IterationLimitError,
    NotConnectedError,
    ParseError,
    PathTSPError,
    SizeLimitError,
)
from .instances import (
    EdgeVector,
    GraphicalInstance,
    Instance,
    generate_random_metric,
    metric_closure,
    read_instance,
    validate_metric,
    write_instance,
)
from .heldkarp import HKSolution, hk_solve, hk_verify, separate
from .decompose import TreeCombination, decompose, max_weight_spanning_tree, verify_combination
from .tjoin import ParitySet, eulerian_path, min_tjoin, min_weight_perfect_matching, shortcut, wrong_parity_set
from .solver import GOLDEN_RATIO, PathSolution, baseline_bounds_check, solve_bom, solve_hoogeveen
from .narrowcuts import (
    DominatorCertificate,
    FlowAssignment,
    NarrowCutStructure,
    build_certificate,
    certificate_cost_bound,
    compute_narrow_cuts,
    representative_vectors,
    solve_fractional_disjoint,
    verify_certificate,
)
from .prize import PCInstance, PCLPSolution, pc_lp_solve, pc_solve, pd_oracle, threshold_subinstance
from .graphical import build_layer_traversal, check_layer_connectivity, ratio_expression, solve_graphical
from .exact import ExactResult, exact_path_tsp, exact_pc_path

__version__ = "0.1.0"
