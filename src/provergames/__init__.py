"""Exact-rational analysis of payment games between a verifier and non-cooperative provers."""

# The two largest modules load first: the bytecode compiler's scratch memory
# for later, smaller modules then fits in what theirs freed, which keeps the
# process's peak resident memory lower when no bytecode cache is written.
from .trees import (
    NATURE,
    DecisionNode,
    GameTree,
    History,
    InformationSet,
    Rational,
    StrategyProfile,
    TerminalNode,
    ValidationReport,
    Violation,
    check_perfect_recall,
    conditional_utility,
    expected_utility,
    make_game,
    rational,
    reach_probability,
    utility_vector,
    validate_game,
)
from .protocols import (
    MipBlackbox,
    MripSpec,
    OracleScript,
    ProtocolGame,
    build_mrip_simulation,
    build_nexp_protocol,
    build_pnexp_protocol,
    build_three_coloring,
    fixed_soundness_mip,
    honest_strategy,
    toy_clause_variable_mip,
)
from .beliefs import (
    BeliefSystem,
    LimitBeliefTrace,
    bayes_beliefs,
    limit_beliefs,
    reachable_sets,
    verify_sequential_rationality,
)
from .equilibrium import (
    SseCertificate,
    enumerate_sse,
    is_sse,
    is_sse_bruteforce,
    max_total_utility_sse,
)
from .subforms import (
    Subform,
    conditional_game,
    dominant_sse_set,
    dominates_on_subform,
    find_dominant_sse,
    find_subforms,
    is_dominant_sse,
)
from .pruning import (
    IntervalMap,
    interval_representative,
    prune_nature,
    verify_pruning,
)
from .gaps import (
    GapWitness,
    answer_bit_distribution,
    check_gap_closeness,
    find_gap_witness,
    splice,
    subinterval_profile_check,
    verify_utility_gap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
