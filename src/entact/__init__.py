"""Family states over n parties: indicators, grouping verdicts, protocols.

The package models the mixed multiqubit family whose states are fixed by
one coefficient per bipartite splitting plus two corner weights.  On top
of that it decides which splittings are distillable, which groups of
cooperating parties can activate a pair between them, simulates the
protocols that do it, and cross-checks everything against a
partial-transpose oracle on the density-matrix entries, up to 16 parties
(entact.oracle, needs numpy).  The command-line entry point lives in entact.cli.
"""
from .analysis import (
    BUILTIN_REQUIREMENTS,
    GroupingReport,
    PairVerdict,
    any_two_activation_requirement,
    classify_groupings,
    distillation_witness,
    example_vii_requirement,
    grouping_report,
    iter_set_partitions,
    necessary_distillable,
    search_specifications,
)
from .construct import (
    example_pattern,
    example_state,
    from_specification,
    random_family_state,
)
from .model import (
    NORMALIZATION_TOL,
    FamilyState,
    Grouping,
    Specification,
    Splitting,
    parties_from_bitmask,
    party_bitmask,
    validate,
)
from .protocols import (
    AMPLIFY_CAP,
    DegenerateStateError,
    PipelineStep,
    PipelineTrace,
    amplify,
    distill_pipeline,
    join_povm,
    measure_out_party,
    permute_parties,
    project_to_effective_pair,
    required_amplification,
)

__version__ = "0.1.0"

__all__ = [
    "AMPLIFY_CAP",
    "BUILTIN_REQUIREMENTS",
    "DegenerateStateError",
    "FamilyState",
    "Grouping",
    "GroupingReport",
    "NORMALIZATION_TOL",
    "PairVerdict",
    "PipelineStep",
    "PipelineTrace",
    "Specification",
    "Splitting",
    "amplify",
    "any_two_activation_requirement",
    "classify_groupings",
    "distill_pipeline",
    "distillation_witness",
    "example_pattern",
    "example_state",
    "example_vii_requirement",
    "from_specification",
    "grouping_report",
    "iter_set_partitions",
    "join_povm",
    "measure_out_party",
    "necessary_distillable",
    "parties_from_bitmask",
    "party_bitmask",
    "permute_parties",
    "project_to_effective_pair",
    "random_family_state",
    "required_amplification",
    "search_specifications",
    "validate",
]
