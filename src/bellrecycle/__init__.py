"""Sequential sharing of CHSH Bell nonlocality on recycled qubits.

The package models two-valued qubit observables (bias, strength, direction),
their maximally reversible measurements, and the ensemble dephasing those
measurements inflict on shared two-qubit states.  On top of that it provides
the CHSH/Horodecki machinery, the one-sided monogamy relations between an
upstream and a downstream observer pair, a differential-evolution optimizer
for the optimal tradeoff boundary, and multi-observer recycling chains.
"""

__version__ = "0.1.0"

from .bell import (
    MeasurementPair,
    WMatrix,
    angle_between,
    chsh_value,
    horodecki_sstar,
    s0_bound,
    s0_from_w,
    svd3,
    w_matrix,
)
from .errors import (
    AngleOutOfRange,
    BellRecycleError,
    BiasedWeakPointer,
    BudgetTooSmall,
    ConstraintViolation,
    DomainError,
    Infeasible,
    IndexOutOfRange,
    InvalidBloch,
    LengthMismatch,
    NegativeRadicand,
    NotNonlocal,
    PreconditionViolation,
    ProbabilityOutOfRange,
    QualityExceedsReversibility,
    ZeroDirection,
)
from .instruments import (
    SIMPLE_MODEL,
    SQUARE_ROOT,
    DephasingChannel,
    MeasurementKind,
    apply_chain,
    apply_local,
    channel_of,
    setting_channel,
    transfer_matrix,
    weak_pointer,
)
from .monogamy import (
    ORTHOGONAL_MONOGAMY_BOUND,
    EQUAL_STRENGTH_MONOGAMY_BOUND,
    ScenarioConfig,
    ScenarioResult,
    TheoremCheck,
    check_orthogonal_monogamy,
    check_equal_strength_monogamy,
    conjecture_margin,
    evaluate_scenario,
    g_equal_strength,
    g_orthogonal,
    max_exponent_d,
    region1_closed,
    region1_parametric,
    region3_curve,
)
from .multiparty import (
    MultiBobSchedule,
    NoiseRobustness,
    ObserverPlan,
    chain_chsh,
    multipair_scenario,
    noise_robustness,
    plan_multibob,
    rerun_schedule,
    verify_noise_robustness,
)
from .observables import (
    Observable,
    ReversibilityProfile,
    decoherence,
    expectation,
    fidelity_bound,
    from_reversibility_angle,
    make_observable,
    projective,
    reversibility,
    reversibility_profile,
    trivial,
    unbiased,
)
from .optimizer import (
    GENERAL_BIASED,
    REGION2_ANSATZ,
    UNBIASED,
    UNBIASED_SINGLET,
    BoundaryPoint,
    SearchMode,
    boundary_curve,
    boundary_point,
    decode_params,
    search_mode,
)
from .states import (
    TwoQubitState,
    add_isotropic_noise,
    density_matrix,
    from_schmidt,
    make_state,
    singlet,
    state_from_json,
    state_to_json,
)
