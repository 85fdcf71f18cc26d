"""Winning shifts of uniform substitutions: games, synchronization, complexity."""

from .catalog import (
    builtin_substitution,
    load_substitution,
    resolve_substitution,
    substitution_from_dict,
    substitution_to_dict,
)
from .complexity import (
    ComplexityTable,
    complexity_table,
    delta_direct,
    delta_recurrence,
    recurrence_constant,
)
from .errors import (
    CapExceededError,
    ConstructionError,
    InternalConsistencyError,
    NotInLanguageError,
    PeriodicInputError,
    PreconditionError,
    UnsupportedInputError,
    WinshiftError,
)
from .game import (
    MemberResult,
    Refutation,
    StrategyTree,
    WinningSet,
    branch_profile,
    branch_rounds,
    max_first_choice,
    member,
    residual,
    strategy_choice_sequence,
    strategy_plays,
    validate_refutation,
    validate_strategy,
    winning_members,
    winning_set,
    winning_set_cardinality,
)
from .gtm import (
    GtmParams,
    gtm_complexity,
    gtm_complexity_table,
    gtm_delta,
    gtm_factors,
    gtm_irreducibles,
    gtm_letter,
    gtm_params,
    gtm_q,
    gtm_substitution,
    gtm_sync_delay,
)
from .recognizability import (
    Interpretation,
    SyncAnalysis,
    SyncDelay,
    decomposition,
    interpretations,
    periodicity,
    sync_analysis,
    sync_delay,
)
from .shift import (
    ExtensionPlan,
    LevelData,
    choice_decomposition,
    desubstitute_strategy,
    enumerate_irreducible,
    extend_level,
    extension_plan,
    irreducible_groups,
    level_data,
    substitute_strategy,
    verify_form,
)
from .substitution import (
    FactorLanguage,
    PeriodicityProbe,
    Substitution,
    factor_count,
    fixed_point_prefix,
    is_factor,
    language,
    make_substitution,
    periodicity_probe,
)
from .words import (
    ChoiceSequence,
    Word,
    factors,
    format_choices,
    format_word,
    is_irreducible,
    le,
    parse_choices,
    parse_word,
    stretch,
    trim,
)

__version__ = "0.1.0"
