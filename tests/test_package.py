"""Package entry points: closed-form commands never load numpy, each
command loads only the modules it runs, and public names resolve on
first use."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import unipjordan
import unipjordan.oracle

SRC = str(Path(unipjordan.__file__).resolve().parents[1])
WORKED_EXPR = "L(14)+T(10)+V(10)+V(10)^*+T(6)+L(4)+L(4)+L(0)"

CLOSED_FORM = [
    ["jordan", "-p", "5", WORKED_EXPR],
    ["jordan", "-p", "5", "--json", WORKED_EXPR],
    ["tensor", "-p", "5", "2", "3"],
    ["weyl", "-p", "5", "10"],
    ["tilting", "-p", "5", "10"],
    ["ext", "-p", "5", "6", "2"],
    ["classify-ext", "-p", "5", "6", "2"],
    ["enumerate", "-p", "5", "5 2"],
    ["semisimple", "-p", "5", "3 1"],
    ["distinguished", "-p", "3", "--group", "SO", "--dim", "27", "15 9 3"],
    ["lift-bd", "-p", "2", "6"],
    ["qm", "-p", "3", "--group", "E7"],
    ["identify", "-p", "5", "--group", "E6", "--expr", WORKED_EXPR],
]

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from unipjordan.cli import main

def answer(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue().strip()]

codes = [answer(argv)[0] for argv in json.loads(sys.argv[2])]
numpy = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
oracle = [answer(["jordan", "-p", "5", "--oracle", "L(14)+V(10)^*"]),
          answer(["oracle-verify", "-p", "5", "L(14)"])]
print(json.dumps({"codes": codes, "numpy": numpy, "oracle": oracle}))
"""


def test_closed_form_commands_do_not_load_numpy():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, SRC, json.dumps(CLOSED_FORM)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * len(CLOSED_FORM)
    assert got["numpy"] == []
    (jordan_code, jordan_out), (verify_code, verify_out) = got["oracle"]
    assert jordan_code == 0 and jordan_out == "5^5 1"
    assert verify_code == 0 and json.loads(verify_out) == {
        "expr": "L(14)", "p": 5, "dim": 15, "dtype": "float32", "ranks": [15, 12, 9, 6, 3, 0],
        "jordan": [[5, 3]]}


# a CLI call in a fresh interpreter; the last line lists the loaded modules
MODULES_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from unipjordan.cli import main
code = main(sys.argv[2:])
print(code, *sorted(sys.modules))
"""

HEAVY = {"unipjordan.classtables", "unipjordan.rootdata", "unipjordan.extclassify",
         "unipjordan.distinguished", "unipjordan.oracle", "json", "numpy"}


@pytest.mark.parametrize("argv,allowed", [
    (["jordan", "-p", "5", WORKED_EXPR], set()),
    (["jordan", "-p", "5", "--json", WORKED_EXPR], {"json"}),
    (["tensor", "-p", "5", "2", "3"], set()),
    (["weyl", "-p", "5", "10"], set()),
    (["tilting", "-p", "5", "10"], set()),
    (["ext", "-p", "5", "6", "2"], {"unipjordan.extclassify"}),
    (["classify-ext", "-p", "5", "6", "2"], {"unipjordan.extclassify"}),
], ids=["jordan", "jordan-json", "tensor", "weyl", "tilting", "ext", "classify-ext"])
def test_commands_load_only_their_modules(argv, allowed):
    proc = subprocess.run([sys.executable, "-c", MODULES_SCRIPT, SRC, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.strip().splitlines()[-1].split()
    assert code == "0" and "unipjordan.sl2" in modules
    assert set(modules) & HEAVY == allowed


# the public names, apart from the oracle's, and the modules that
# `from unipjordan import *` bound when the package imported every module
# but the oracle eagerly
CLOSED_FORM_NAMES = set("""
    Character char_add char_dim char_dual char_tensor char_twist weyl_character
    ClassEntry ClassTable LookupResult TableFormatError bundled_table identify_class
    identify_from_expr load_class_table
    DEFAULT_DIM_CAP DigitVector DomainError JordanType base_p_digits check_prime
    is_prime nu_p parse_partition
    DistinguishedVerdict bminus1_family distinct_even_orthogonality_note
    is_distinguished lift_quotient_to_orthogonal
    Atom Dual ModuleExpr ParseError Sum Tensor Twist parse_expr render_expr
    ExtVerdict Family SemisimplicityVerdict classify_dim4_p2 enumerate_indecomposables
    ext1_neighbors ext1_nonzero nonsplit_ext_classify semisimplicity_verdict
    QmStructure RootSystem adjoint_dimension module_dimension parse_group_name
    qm_structure quasi_minuscule_weight root_system weyl_dim
    EvalResult eval_expr irrep_char irrep_jordan tensor_jordan tensor_jordan_types
    tilting_char tilting_dim tilting_jordan weyl_jordan
""".split())
MODULE_NAMES = {"characters", "classtables", "core", "distinguished", "expr",
                "extclassify", "rootdata", "sl2"}
ORACLE_NAMES = set("""
    DimensionCapError FpMatrix NotUnipotentError direct_sum identity_matrix
    jordan_type_of_unipotent kron oracle_certificate oracle_eval pascal_matrix
    rank_mod_p rank_sequence
""".split())

STAR_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import unipjordan
listed = dir(unipjordan)
before = set(globals())
from unipjordan import *
print(*listed)
print(*sorted(set(globals()) - before - {"before"}))
print(*sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_dir_and_star_import_in_a_fresh_interpreter():
    proc = subprocess.run([sys.executable, "-c", STAR_SCRIPT, SRC],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    listed, bound, numpy = (line.split() for line in proc.stdout.split("\n")[:3])
    assert set(listed) >= CLOSED_FORM_NAMES | ORACLE_NAMES | {"__version__"}
    assert set(bound) == CLOSED_FORM_NAMES | MODULE_NAMES
    assert numpy == []


def test_public_names_resolve_to_their_modules():
    from unipjordan import oracle_certificate, rank_sequence
    assert rank_sequence is unipjordan.oracle.rank_sequence
    assert oracle_certificate is unipjordan.oracle.oracle_certificate
    assert set(unipjordan._HOME) == CLOSED_FORM_NAMES | ORACLE_NAMES
    for name, module in unipjordan._HOME.items():
        home = importlib.import_module(f"unipjordan.{module}")
        assert getattr(unipjordan, name) is getattr(home, name)
        assert vars(unipjordan)[name] is getattr(home, name)  # cached on first use
    with pytest.raises(AttributeError):
        unipjordan.no_such_name


# the oracle on a tensor, a V atom split by Lucas' theorem and an L atom;
# the last line lists the package's loaded modules
ORACLE_CASES = [("V(20)*V(30)", 5), ("V(1599)", 3), ("L(124)", 5)]
ORACLE_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from unipjordan.expr import parse_expr
from unipjordan.oracle import oracle_certificate, oracle_eval
for text, p in json.loads(sys.argv[2]):
    e = parse_expr(text)
    print(oracle_eval(e, p), json.dumps(oracle_certificate(e, p)["jordan"]))
print(*sorted(m for m in sys.modules if m.split(".")[0] == "unipjordan"))
"""


def test_oracle_does_not_load_the_closed_forms():
    # the oracle is the independent check on the closed forms, so it must
    # answer without loading them
    from unipjordan.expr import parse_expr
    from unipjordan.sl2 import eval_expr
    proc = subprocess.run([sys.executable, "-c", ORACLE_SCRIPT, SRC, json.dumps(ORACLE_CASES)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *answers, modules = proc.stdout.strip().splitlines()
    want = [eval_expr(parse_expr(text), p).jordan for text, p in ORACLE_CASES]
    assert answers == [f"{j} {json.dumps(j.as_pairs())}" for j in want]
    assert set(modules.split()) & {f"unipjordan.{m}" for m in (
        "sl2", "characters", "extclassify", "classtables", "rootdata", "distinguished")} == set()
