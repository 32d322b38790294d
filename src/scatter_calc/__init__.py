"""scatter-calc: exact order-type arithmetic, colouring extractors and
verifiers for countable scattered linear orders.

Importing the package loads only ``errors``.  Each other public name, and
each submodule, is imported the first time it is read, so a caller pays
only for the modules it uses (PEP 562).
"""

import importlib

from .errors import ScatterCalcError

# public name -> the submodule that defines it
_HOME = {name: module for module, names in [
    ("errors", "ScatterCalcError"),
    ("ordinal", "CnfOrdinal OMEGA ONE ZERO format_ordinal from_int fundamental_sequence"
                " ord_add ord_compare ord_mul ord_pow parse_ordinal"),
    ("terms", "Fin FinSupp Ord OrderTerm Rev Scaled Shuffle SumList compare_elements"
              " decode_element encode_element finsupp_elem materialize parse_term pow_term"
              " sample_elements search_embedding validate_element"),
    ("partition", "extract_unary find_homogeneous sierpinski_coloring step_up_extract"),
    ("milner_rado", "cantor1 ks_omega_check mr_class_type_bound mr_label_ordinal"
                    " mr_label_term mr_labeling"),
    ("neg_graph", "GridGraph NegGraphParams build_neg_graph check_corner_invariant"
                  " check_triangle_free compose_negative_coloring"),
    ("antilex", "AlphaTree FinSuppFn check_antilex_lemma compare_antilex dec_seq delta_prime"
                " induced_seq_coloring ks_embed search_alpha_tree validate_alpha_tree"
                " verify_color_collapse"),
] for name in names.split()}
_SUBMODULES = {*_HOME.values(), "cli"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
