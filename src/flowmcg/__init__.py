"""Flow-equivalence invariants of minimal substitution subshifts.

The top level re-exports the working vocabulary: build a `Substitution`,
ask for its Perron data, coinvariants, asymptotic classes or automorphisms,
wrap conjugacies as flow codes, and assemble the whole structure report
with `assemble_mcg`.  Everything downstream of the eigenvalue is exact.

Importing the package loads none of its modules (PEP 562).  The first
name looked up here loads every layer at once, so a library caller pays for
its imports before its first call and no call carries one; a submodule such
as `flowmcg.errors` or `flowmcg.cli` loads only what it imports itself, and
each CLI command imports only the layers it runs.
"""

from importlib import import_module

# each re-exported name, under the module that defines it
_EXPORTS = {
    "asymptotics": ("action_on_classes", "asymptotic_classes", "stabilize_power"),
    "automorphisms": ("search_automorphisms", "shift_quotient"),
    "coinvariants": (
        "build_coinvariants", "coinvariants_report", "cylinder_class", "element_equal", "induced_action",
        "infinitesimal_rank", "restrict_class", "trace", "trace_image",
    ),
    "errors": ("InternalCheckError", "ResourceLimitError", "ValidationError"),
    "flows": (
        "FlowCode", "automorphism_code", "cocycle_slopes", "compose_flow_codes", "identity_code", "induce",
        "lambda_relation_search", "r_mu", "restrict_flow_code", "substitution_code",
    ),
    "mcg": (
        "NON_QUADRATIC", "McgReport", "Surd", "action_on_measures", "assemble_mcg", "hierarchical_subshift",
        "odometer_mcg", "sturmian_classify", "virtually_abelian_report",
    ),
    "pf": ("cr_check", "cylinder_measure", "is_pisot", "pf_data"),
    "substitution": (
        "Substitution", "complexity", "complexity_profile", "incidence_matrix", "is_aperiodic",
        "is_primitive",
    ),
    "words": ("Alphabet", "SlidingBlockCode", "Word"),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in __all__:
        try:
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    for module, names in _EXPORTS.items():
        home = import_module(f"{__name__}.{module}")
        globals().update((n, getattr(home, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
