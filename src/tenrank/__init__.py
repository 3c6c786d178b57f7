"""tenrank: dense tensor rank functions, full-rank subtensors, Tucker models."""

from .errors import CapacityError, FormatError, NoFullRankError, NumericError, SelectionError
from .tensor import (
    DenseTensor,
    IndexSelection,
    add,
    fold,
    frobenius_norm,
    identity_tensor,
    mode_product,
    outer_product,
    permute_modes,
    scale,
    subtensor,
    unfold,
)
from .io import read_tensor, write_tensor
from .linalg import DEFAULT_TOL, RankTolerance, matrix_rank, row_basis
from .ranks import (
    RankFunction,
    max_tucker,
    max_tucker_rank,
    min_rank,
    n_rank,
    n_ranks,
    submax_tucker,
)
from .cp import CpBounds, cp_bounds
from .axioms import AxiomReport, FixtureSet, axiom_report, standard_fixtures, write_report
from .fullrank import (
    FullRankCertificate,
    closure_eval,
    closure_rank_function,
    extract_brute_force,
    extract_max_tucker,
    extract_nrank,
    is_full_rank,
    verify_span_certificate,
)
from .tucker import (
    SweepConfig,
    TuckerModel,
    default_sweep_config,
    generate_sweep_source,
    hooi,
    hosvd,
    reconstruct,
    relative_error,
    run_sweep,
    st_hosvd,
    sweep_to_csv,
)

__version__ = "0.1.0"
