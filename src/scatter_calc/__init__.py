"""scatter-calc: exact order-type arithmetic, colouring extractors and
verifiers for countable scattered linear orders."""

from .errors import ScatterCalcError
from .ordinal import (
    CnfOrdinal,
    OMEGA,
    ONE,
    ZERO,
    format_ordinal,
    from_int,
    fundamental_sequence,
    ord_add,
    ord_compare,
    ord_mul,
    ord_pow,
    parse_ordinal,
)
from .terms import (
    Fin,
    FinSupp,
    Ord,
    OrderTerm,
    Rev,
    Scaled,
    Shuffle,
    SumList,
    compare_elements,
    decode_element,
    encode_element,
    finsupp_elem,
    materialize,
    parse_term,
    pow_term,
    sample_elements,
    search_embedding,
    validate_element,
)
from .partition import (
    extract_unary,
    find_homogeneous,
    sierpinski_coloring,
    step_up_extract,
)
from .milner_rado import (
    cantor1,
    ks_omega_check,
    mr_class_type_bound,
    mr_label_ordinal,
    mr_label_term,
    mr_labeling,
)
from .neg_graph import (
    GridGraph,
    NegGraphParams,
    build_neg_graph,
    check_corner_invariant,
    check_triangle_free,
    compose_negative_coloring,
)
from .antilex import (
    AlphaTree,
    FinSuppFn,
    check_antilex_lemma,
    compare_antilex,
    dec_seq,
    delta_prime,
    induced_seq_coloring,
    ks_embed,
    search_alpha_tree,
    validate_alpha_tree,
    verify_color_collapse,
)

__version__ = "0.1.0"
