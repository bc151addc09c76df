"""Exact calculus of Jordan types for order-p unipotent elements on SL2
modules, verified against a finite-field matrix oracle, with
distinguished-class criteria for classical groups and unipotent-class
identification in exceptional groups.

Every public name resolves on first use (PEP 562) from the module that
defines it, so a caller loads only the modules it uses, and closed-form
callers never load numpy (the oracle's only dependency)."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> defining module
_HOME = {name: module for module, names in {
    "characters": "Character char_add char_dim char_dual char_tensor char_twist "
                  "weyl_character",
    "classtables": "ClassEntry ClassTable LookupResult TableFormatError bundled_table "
                   "identify_class identify_from_expr load_class_table",
    "core": "DEFAULT_DIM_CAP DigitVector DomainError JordanType base_p_digits "
            "check_prime is_prime nu_p parse_partition",
    "distinguished": "DistinguishedVerdict bminus1_family "
                     "distinct_even_orthogonality_note is_distinguished "
                     "lift_quotient_to_orthogonal",
    "expr": "Atom Dual ModuleExpr ParseError Sum Tensor Twist parse_expr render_expr",
    "extclassify": "ExtVerdict Family SemisimplicityVerdict classify_dim4_p2 "
                   "enumerate_indecomposables ext1_neighbors ext1_nonzero "
                   "nonsplit_ext_classify semisimplicity_verdict",
    "oracle": "DimensionCapError FpMatrix NotUnipotentError direct_sum identity_matrix "
              "jordan_type_of_unipotent kron oracle_certificate oracle_eval "
              "pascal_matrix rank_mod_p rank_sequence",
    "rootdata": "QmStructure RootSystem adjoint_dimension module_dimension "
                "parse_group_name qm_structure quasi_minuscule_weight root_system "
                "weyl_dim",
    "sl2": "EvalResult eval_expr irrep_char irrep_jordan tensor_jordan "
           "tensor_jordan_types tilting_char tilting_dim tilting_jordan weyl_jordan",
}.items() for name in names.split()}

# A star import binds every module except the oracle, and their public
# names, so that it never loads numpy.
__all__ = sorted({x for name, module in _HOME.items() if module != "oracle"
                  for x in (name, module)})


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
