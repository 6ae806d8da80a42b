"""Exact polyhedral computations for mechanism design with partial verification.

Which misreports can never help an agent (so a designer may skip checking
them), and which reports must be checked?  Everything runs on exact rational
arithmetic; the only floats live in SVG rendering.
"""

__version__ = "0.1.0"

from .geometry import (
    ConvexRegion,
    DimensionMismatch,
    Halfspace,
    Hyperplane,
    Sense,
    Span,
    Vector,
    box_region,
    empty_region,
    frac,
    halfspace_contains,
    ones_vector,
    project_onto_span,
    rank,
    region_contains,
    span_rank,
    unit_vector,
    vec,
    whole_space,
    zero_vector,
)
from .mechanisms import (
    Allocation,
    AssignmentSet,
    MechanismError,
    SeparatingRule,
    TaxationRule,
    TieSide,
    allocate_separating,
    apply_rule,
    best_entry,
    is_truthful_with_verification,
    point_mass,
    point_masses,
)
from .harmless import (
    HarmlessResult,
    SimplexFamily,
    SubspaceHypothesisError,
    decisive_pair,
    deterministic_harmless,
    pairwise_harmless,
    point_mass_rule,
    tie_harmless_contains,
    universally_truthful_harmless,
)
from .oracle import (
    TieWitness,
    construct_tie_witness,
    grid_harmless,
    rule_benefit,
    search_beneficial_misreport,
)
from .reverse import harmful_union_contains
from .multiagent import (
    PriceFamily,
    PriceWitness,
    UNRESERVED,
    UnitDemandProfile,
    best_matching_welfare,
    find_beneficial_price,
    find_beneficial_price_on_grid,
    price_family_harmless_contains,
    vcg_harmless_contains,
    vcg_single_agent_rule,
)
from .scenarios import (
    FacilityLine,
    VerificationKind,
    distance_verification_blocks,
    facility_first_uncovered,
    facility_harmless_position,
    facility_preferred,
    facility_type,
    facility_verification_covers,
    kminded_harmless_contains,
    second_price_harmful_contains,
)
from .cli import (
    QueryResult,
    ResultDocument,
    Scenario,
    ScenarioError,
    WitnessRecord,
    load_scenario,
    parse_scenario,
    render_regions,
    run_scenario,
    slice_region_vertices,
    run_verify,
    serialize_result,
    serialize_witnesses,
)

__all__ = [name for name in dir() if not name.startswith("_")]
