"""monosing: Gorenstein projectives and singularity categories of monomial
quiver algebras, with an exact linear-algebra homological oracle."""

from .errors import (
    DegreeOutOfRange,
    DuplicateIdentifier,
    InfiniteDimensional,
    InternalInvariantViolation,
    MismatchDetected,
    MonosingError,
    NonComposableRelation,
    NotAChain,
    NotGorenstein,
    NotOneGorenstein,
    ParseError,
    PresentationMismatch,
    RelationTooShort,
    TrivialPath,
    UndecidedResolution,
    UnknownArrow,
    UnknownVertex,
    ZeroPath,
)
from .gluing import Involution, bar_presentation, equivalence_report, glue, glue_is_finite_dimensional
from .gorenstein import (
    OrbitCategoryDescriptor,
    RelationCycle,
    cycle_subalgebra,
    detect_self_injective_nakayama,
    gentle_check,
    is_one_gorenstein,
    relation_cycles,
    singularity_decomposition,
)
from .graded import (
    Reduction,
    TypeAQuiver,
    basic_syzygy_summands,
    graded_singularity_description,
    perfect_reduction,
    syzygy_of_T,
    truncation_summands,
)
from .oracle import (
    GorensteinProfile,
    Representation,
    ResolutionTrace,
    crosscheck_classification,
    dual_regular_rep,
    ext_dim,
    global_dimension,
    gorenstein_projective_test,
    hom_dim,
    injective_dimension_profile,
    path_module_rep,
    regular_rep,
    resolve,
    simple_rep,
    stable_hom_dim,
    syzygy_rep,
    verify_omega_T_ext_vanishing,
)
from .perfection import (
    GpModuleDescriptor,
    PerfectPairGraph,
    annihilator_minimal,
    classify_stable_gproj,
    cm_type,
    perfect_pairs,
    perfect_paths,
)
from .presentation import (
    MonomialPresentation,
    Path,
    PathBasis,
    Quiver,
    minimal_relations,
    parse_presentation,
    parse_presentation_file,
    presentation_to_json,
    presentation_to_text,
)

__version__ = "0.1.0"
