"""Package entry points: closed-form commands never load numpy, and the
oracle's names resolve on first use."""

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


def test_oracle_names_resolve_to_the_oracle():
    from unipjordan import oracle_certificate, rank_sequence
    assert rank_sequence is unipjordan.oracle.rank_sequence
    assert oracle_certificate is unipjordan.oracle.oracle_certificate
    for name in unipjordan._ORACLE_NAMES:
        assert getattr(unipjordan, name) is getattr(unipjordan.oracle, name)
    with pytest.raises(AttributeError):
        unipjordan.no_such_name
