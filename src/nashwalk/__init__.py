"""Random N-player two-action games as randomly oriented hypercubes.

Vertices are n-bit action profiles; each cube edge is independently a tie
(probability alpha) or oriented toward the better-responding endpoint.  The
package builds these media, finds their pure equilibria and traps, runs
best-response and related walks, and audits the coupling between
reverse-accessibility and bond percolation with beta = (1 - alpha) / 2.
"""

from .errors import (
    AlphaOutOfRange,
    AxisOutOfRange,
    BetaOutOfRange,
    DimensionTooLarge,
    EmptyTrialCount,
    ExhaustiveModeRequired,
    IncompleteTable,
    NashwalkError,
    NoConditionedTrials,
    NonCanonicalEdge,
    PneInSample,
    SeedCollision,
    StepCapZero,
    TimeBudgetExceeded,
)
from .medium import (
    DOWN,
    MODE_EXHAUSTIVE,
    MODE_LAZY,
    TIE,
    UP,
    EdgeRef,
    Medium,
    MediumParams,
    PayoffGame,
    PayoffSpec,
    Vertex,
    build_medium,
    medium_from_payoffs,
    neighbor_partition,
    orientation,
    sample_payoff_game,
)
from .percolation import (
    CouplingAudit,
    FragmentStats,
    PercolationGraph,
    check_lemma_finally,
    connected_component,
    coupling_run,
    fragment_stats,
    largest_component,
    reverse_accessible_from_zero,
    sample_percolation,
)
from .sinks import (
    ClosureResult,
    SinkAnalysis,
    VertexClass,
    classify_vertex,
    enumerate_pnes,
    expected_pne_count,
    forward_closure,
    is_pne,
    m_beta,
    sink_components,
)
from .walkers import (
    AssumptionCheck,
    Policy,
    WalkConfig,
    WalkRecord,
    parse_policy,
    run_trials,
    run_walk,
    step_distribution,
    verify_assumption,
)

__version__ = "0.1.0"
