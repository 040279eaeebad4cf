"""Exact tools for multiple-priors preference models over finite states.

The package decides weak preference by the sign of exact rational margins,
audits batteries of acts against the classical axioms, analyzes belief
collections for the parametric conditions behind completeness and bound
transitivity, and samples the margin cones on diagonal slices for figure
data.  Everything downstream of instance JSON is Fraction arithmetic; no
verdict in this package depends on floating point.
"""

from .model import (
    Act,
    AlphaOutOfRange,
    BeliefCollection,
    BeliefSet,
    Instance,
    InstanceValidationError,
    Lottery,
    NotARational,
    Prior,
    PrizeSet,
    StateSpace,
    UnknownBeliefSetName,
    UtilityFunction,
    UtilityVector,
    ValidationIssue,
    act_from_utility_vector,
    constant_act,
    dumps_instance,
    expected_value,
    instance_to_jsonable,
    load_instance,
    mix_acts,
    mix_lotteries,
    mixture_weight,
    parse_rational,
    format_rational,
    statewise_dominates,
    utility_of_lottery,
    utility_vector,
    validate_instance,
)
from .margins import (
    AlphaMixture,
    Bewley,
    Conjunctive,
    Disjunctive,
    GeneralizedBewley,
    HalfMixture,
    Justifiable,
    MarginProfile,
    ModelKind,
    Relation,
    SEU,
    classify,
    describe_model,
    margin_pair,
    margin_profile,
    model_margin,
    phi_between,
    robust_weakly_prefers,
    set_max,
    set_min,
    weakly_prefers,
)
from .axioms import (
    AuditReport,
    AxiomKind,
    Battery,
    BatteryMissingConstants,
    MarginTable,
    RadiusExceedsUtilityRange,
    Witness,
    audit,
    audit_suite,
    generate_act_grid,
    weak_relation,
)
from .analysis import (
    AnalysisReport,
    CommonPrior,
    CommutativityVerdict,
    CuttingHyperplane,
    DimensionMismatch,
    PairwiseReport,
    SametCertificate,
    WrongDimension,
    analyze,
    build_cbt_witness,
    build_incompleteness_witness,
    check_commutativity,
    find_cutting_hyperplane,
    pairwise_intersection_holds,
    phi_lattice,
    polytopes_intersect,
    seu_collapse_binary,
)
from .slices import (
    CONES,
    ConvexityVerdict,
    DegenerateDirection,
    SlicePlane,
    SliceProfile,
    SliceSample,
    UnknownFormat,
    certify_slice_convexity,
    check_sample_count,
    export_slice,
    slice_profile,
)
from .generate import GenParams, ParamsOutOfRange, generate_instance
from .verify import (
    SCHEMA_VERSION,
    SUITES,
    SuiteEntry,
    SuiteOutcome,
    UnknownSuite,
    VerificationReport,
    VerifyConfig,
    suite_outcomes,
    verify,
)

__version__ = "0.1.0"
