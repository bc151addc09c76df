"""Exact calculus of Jordan types for order-p unipotent elements on SL2
modules, verified against a finite-field matrix oracle, with
distinguished-class criteria for classical groups and unipotent-class
identification in exceptional groups."""

from .characters import (
    Character,
    char_add,
    char_dim,
    char_dual,
    char_tensor,
    char_twist,
    weyl_character,
)
from .classtables import (
    ClassEntry,
    ClassTable,
    LookupResult,
    TableFormatError,
    bundled_table,
    identify_class,
    identify_from_expr,
    load_class_table,
)
from .core import (
    DEFAULT_DIM_CAP,
    DigitVector,
    DomainError,
    JordanType,
    base_p_digits,
    check_prime,
    is_prime,
    nu_p,
    parse_partition,
)
from .distinguished import (
    DistinguishedVerdict,
    bminus1_family,
    distinct_even_orthogonality_note,
    is_distinguished,
    lift_quotient_to_orthogonal,
)
from .expr import (
    Atom,
    Dual,
    ModuleExpr,
    ParseError,
    Sum,
    Tensor,
    Twist,
    parse_expr,
    render_expr,
)
from .extclassify import (
    ExtVerdict,
    Family,
    SemisimplicityVerdict,
    classify_dim4_p2,
    enumerate_indecomposables,
    ext1_neighbors,
    ext1_nonzero,
    nonsplit_ext_classify,
    semisimplicity_verdict,
)
from .rootdata import (
    QmStructure,
    RootSystem,
    adjoint_dimension,
    module_dimension,
    parse_group_name,
    qm_structure,
    quasi_minuscule_weight,
    root_system,
    weyl_dim,
)
from .sl2 import (
    EvalResult,
    eval_expr,
    irrep_char,
    irrep_jordan,
    tensor_jordan,
    tensor_jordan_types,
    tilting_char,
    tilting_dim,
    tilting_jordan,
    weyl_jordan,
)

__version__ = "0.1.0"

# The oracle is the only module that needs numpy; its names are resolved
# on first use (PEP 562) so that closed-form callers never load numpy.
_ORACLE_NAMES = frozenset({
    "DimensionCapError",
    "FpMatrix",
    "NotUnipotentError",
    "direct_sum",
    "identity_matrix",
    "jordan_type_of_unipotent",
    "kron",
    "oracle_certificate",
    "oracle_eval",
    "pascal_matrix",
    "rank_mod_p",
    "rank_sequence",
})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
