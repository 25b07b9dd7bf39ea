"""Two-qubit entanglement vs. mixedness toolbox.

Measures (concurrence, tangle, entanglement of formation, linear and von
Neumann entropy, negativity), the named state families (Bell, Werner, the
maximally entangled mixed states), seeded random-state ensembles, frontier
scanning/certification in the tangle vs. linear-entropy plane, and local
filtering concentration.
"""

from .filtering import (
    FilterOutcome,
    LocalFilter,
    TrajectoryPoint,
    VanishingSuccess,
    apply_filter,
    best_filter,
    kappa_schedule,
    one_sided_filter,
    trajectory,
    two_sided_filter,
)
from .frontier import (
    CertificationReport,
    FrontierEnvelope,
    MixednessMetric,
    UnsupportedMetric,
    certify,
    certify_states,
    envelope_tangle,
    hill_climb,
    mems_curve,
    mems_linear_entropy,
    scan,
    werner_curve,
)
from .linalg import NotHermitian, NotPSD
from .measures import (
    MeasureReport,
    concurrence,
    eof,
    linear_entropy,
    measure_report,
    negativity,
    purity,
    tangle,
    von_neumann_entropy,
    wootters_lambdas,
)
from .sampling import (
    EnsembleSpec,
    GinibreRank,
    PerturbAbout,
    PureMixture,
    sample_states,
)
from .states import (
    BellKind,
    DensityMatrix,
    OutOfRange,
    TraceNotOne,
    ZeroVector,
    bell,
    make_density,
    maximally_mixed,
    mems,
    pure_from_vector,
    read_matrix_file,
    validate_stack,
    werner,
    write_matrix_file,
)

__version__ = "0.1.0"
