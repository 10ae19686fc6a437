"""Flow-equivalence invariants of minimal substitution subshifts.

The top level re-exports the working vocabulary: build a `Substitution`,
ask for its Perron data, coinvariants, asymptotic classes or automorphisms,
wrap conjugacies as flow codes, and assemble the whole structure report
with `assemble_mcg`.  Everything downstream of the eigenvalue is exact.
"""

from .asymptotics import action_on_classes, asymptotic_classes, stabilize_power
from .automorphisms import (
    action_on_measures,
    search_automorphisms,
    shift_quotient,
)
from .coinvariants import (
    build_coinvariants,
    coinvariants_report,
    cylinder_class,
    element_equal,
    induced_action,
    infinitesimal_rank,
    restrict_class,
    trace,
    trace_image,
)
from .errors import InternalCheckError, ResourceLimitError, ValidationError
from .flows import (
    FlowCode,
    automorphism_code,
    cocycle_slopes,
    compose_flow_codes,
    identity_code,
    induce,
    lambda_relation_search,
    r_mu,
    restrict_flow_code,
    substitution_code,
)
from .mcg import (
    NON_QUADRATIC,
    McgReport,
    Surd,
    assemble_mcg,
    hierarchical_subshift,
    odometer_mcg,
    sturmian_classify,
    virtually_abelian_report,
)
from .pf import cr_check, cylinder_measure, is_pisot, pf_data
from .substitution import (
    Substitution,
    complexity,
    complexity_profile,
    incidence_matrix,
    is_aperiodic,
    is_primitive,
)
from .words import Alphabet, SlidingBlockCode, Word

__all__ = [
    "Alphabet",
    "FlowCode",
    "InternalCheckError",
    "McgReport",
    "NON_QUADRATIC",
    "ResourceLimitError",
    "SlidingBlockCode",
    "Substitution",
    "Surd",
    "ValidationError",
    "Word",
    "action_on_classes",
    "action_on_measures",
    "assemble_mcg",
    "asymptotic_classes",
    "automorphism_code",
    "build_coinvariants",
    "cocycle_slopes",
    "coinvariants_report",
    "complexity",
    "complexity_profile",
    "compose_flow_codes",
    "cr_check",
    "cylinder_class",
    "cylinder_measure",
    "element_equal",
    "hierarchical_subshift",
    "identity_code",
    "incidence_matrix",
    "induce",
    "induced_action",
    "infinitesimal_rank",
    "is_aperiodic",
    "is_pisot",
    "is_primitive",
    "lambda_relation_search",
    "odometer_mcg",
    "pf_data",
    "r_mu",
    "restrict_class",
    "restrict_flow_code",
    "search_automorphisms",
    "shift_quotient",
    "stabilize_power",
    "sturmian_classify",
    "substitution_code",
    "trace",
    "trace_image",
    "virtually_abelian_report",
]

__version__ = "0.1.0"
