"""Command-line interface: output formats, JSON schema, exit codes."""

import json
import random
import time

import pytest

from unipjordan.cli import main
from unipjordan.core import PRIME_LIMIT, parse_partition

WORKED_EXPR = "L(14)+T(10)+V(10)+V(10)^*+T(6)+L(4)+L(4)+L(0)"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_jordan_human(capsys):
    code, out, _ = run(capsys, "jordan", "-p", "5", WORKED_EXPR)
    assert code == 0
    assert out.splitlines()[0] == "5^15 1^3"


def test_jordan_json_schema(capsys):
    code, out, _ = run(capsys, "jordan", "-p", "5", "--json", WORKED_EXPR)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 78
    assert payload["jordan"] == [[5, 15], [1, 3]]
    assert all(len(pair) == 2 for pair in payload["character"])
    weights = [w for w, _ in payload["character"]]
    assert weights == sorted(weights)


def test_jordan_oracle_verified(capsys):
    code, out, _ = run(capsys, "jordan", "-p", "5", "--oracle", "L(14)+V(10)^*")
    assert code == 0 and out.splitlines()[0] == "5^5 1"


def test_jordan_oracle_mismatch_exits_one(capsys, monkeypatch):
    import unipjordan.oracle
    monkeypatch.setattr(unipjordan.oracle, "oracle_eval",
                        lambda e, p, cap: parse_partition("11", p))
    code, out, err = run(capsys, "jordan", "-p", "5", "--oracle", "V(10)")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("oracle mismatch: closed form 5^2 1, oracle ")


def test_jordan_oracle_rejects_tilting_atoms(capsys):
    code, _, err = run(capsys, "jordan", "-p", "5", "--oracle", "T(6)")
    assert code == 1 and "error" in err


def test_jordan_parse_error_is_domain_error(capsys):
    code, _, err = run(capsys, "jordan", "-p", "5", "L(14")
    assert code == 1 and "position" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["jordan"])  # missing -p and expression
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(": error: " in line for line in err)


def test_tensor(capsys):
    code, out, _ = run(capsys, "tensor", "-p", "5", "2", "3")
    assert code == 0 and out.strip() == "4 2"
    code, out, _ = run(capsys, "tensor", "-p", "5", "--json", "3", "5")
    assert json.loads(out) == {"dim": 15, "jordan": [[5, 3]]}


def test_tensor_out_of_range(capsys):
    code, _, err = run(capsys, "tensor", "-p", "5", "2", "7")
    assert code == 1 and "within [1, 5]" in err


def test_weyl(capsys):
    code, out, _ = run(capsys, "weyl", "-p", "5", "10")
    assert code == 0 and out.strip() == "5^2 1"


def test_weyl_large_prime(capsys):
    code, out, _ = run(capsys, "weyl", "-p", str(2 ** 61 - 1), "3")
    assert code == 0 and out.strip() == "4"
    code, _, err = run(capsys, "weyl", "-p", "3825123056546413051", "3")
    assert code == 1 and "prime" in err
    code, _, err = run(capsys, "weyl", "-p", str(PRIME_LIMIT + 2), "3")
    assert code == 1 and len(err.strip().splitlines()) == 1


def test_jordan_tensor_at_large_prime(capsys):
    # 90601 block pairs below a huge p; the answer has 604 distinct sizes
    start = time.perf_counter()
    code, out, _ = run(capsys, "jordan", "-p", "1000000007", "(V(300)*V(301))*(V(302)*V(303))")
    assert time.perf_counter() - start < 1
    assert code == 0
    t = parse_partition(out.strip(), 1000000007)
    assert t.dim == 301 * 302 * 303 * 304 and len(t.blocks) == 604


# Dimensions from the Weyl formula and from Donkin's tensor-twist recursion
# worked separately; none of these needs a character.
@pytest.mark.parametrize("expr, dim", [("V(3000000)", 3000001),
                                       ("T(100000000)", 781250000),
                                       ("T(100000000000)", 2929687500000)])
def test_jordan_huge_weight(capsys, expr, dim):
    code, out, _ = run(capsys, "jordan", "-p", "5", expr)
    assert code == 0
    assert parse_partition(out.strip(), 5).dim == dim


def test_tilting(capsys):
    code, out, _ = run(capsys, "tilting", "-p", "5", "10")
    assert code == 0
    assert out.splitlines() == ["5^4", "dim: 20"]
    code, out, _ = run(capsys, "tilting", "-p", "5", "--json", "6")
    payload = json.loads(out)
    assert payload["dim"] == 10 and payload["jordan"] == [[5, 2]]


def test_ext(capsys):
    code, out, _ = run(capsys, "ext", "-p", "5", "6", "2")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "ext", "-p", "5", "3", "3")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, "ext", "-p", "5", "--json", "6", "2")
    assert json.loads(out) == {"verdict": True}


def test_classify_ext(capsys):
    code, out, _ = run(capsys, "classify-ext", "-p", "5", "6", "2")
    assert code == 0 and out.splitlines()[0] == "WeylTwist(c=6, l=0)"
    code, out, _ = run(capsys, "classify-ext", "-p", "5", "--json", "2", "6")
    payload = json.loads(out)
    assert payload == {"verdict": "DualWeylTwist", "c": 6, "l": 0,
                       "jordan": [[5, 1], [2, 1]]}
    code, out, _ = run(capsys, "classify-ext", "-p", "5", "--json", "3", "3")
    assert json.loads(out) == {"verdict": "NoExtension"}


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "-p", "5", "5 2")
    assert code == 0
    assert "V(6)[l]" in out and "V(6)^*[l]" in out
    code, out, _ = run(capsys, "enumerate", "-p", "2", "--json", "2^2")
    fams = json.loads(out)["families"]
    assert [f["kind"] for f in fams] == ["irreducible", "direct-sum", "tilting-twist"]


def test_semisimple(capsys):
    code, out, _ = run(capsys, "semisimple", "-p", "5", "3 1")
    assert code == 0 and out.splitlines()[0] == "ForcedSemisimple"
    code, out, _ = run(capsys, "semisimple", "-p", "5", "5 2")
    assert out.splitlines()[0] == "Inconclusive"
    code, out, _ = run(capsys, "semisimple", "-p", "5", "--self-dual", "5 2")
    assert out.splitlines()[0] == "ForcedSemisimple"


def test_distinguished(capsys):
    code, out, _ = run(capsys, "distinguished", "-p", "3", "--group", "SO",
                       "--dim", "27", "15 9 3")
    assert code == 0 and out.splitlines()[0] == "true"
    code, out, _ = run(capsys, "distinguished", "-p", "2", "--group", "Sp",
                       "--dim", "12", "4^3")
    assert code == 0 and out.splitlines()[0] == "false"
    code, out, _ = run(capsys, "distinguished", "-p", "2", "--group", "Sp",
                       "--dim", "68", "--json", "16 14 10^2 8 6 2^2")
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["requires_orthogonal_witness"] is True
    code, out, _ = run(capsys, "distinguished", "-p", "2", "--group", "Sp",
                       "--dim", "68", "--json", "--witness", "16 14 10^2 8 6 2^2")
    assert "requires_orthogonal_witness" not in json.loads(out)


def test_distinguished_comma_form(capsys):
    code, out, _ = run(capsys, "distinguished", "-p", "3", "--group", "SO",
                       "--dim", "27", "15,9,3")
    assert code == 0 and out.splitlines()[0] == "true"


def test_lift_bd(capsys):
    code, out, _ = run(capsys, "lift-bd", "-p", "2", "6")
    assert code == 0 and out.strip() == "6 2"
    code, _, err = run(capsys, "lift-bd", "-p", "3", "6")
    assert code == 1 and "characteristic 2" in err


def test_qm(capsys):
    code, out, _ = run(capsys, "qm", "-p", "3", "--group", "F4")
    assert code == 0
    assert "structure: OneTrivial" in out
    assert "dim T: 27" in out
    code, out, _ = run(capsys, "qm", "-p", "2", "--group", "D6", "--json")
    payload = json.loads(out)
    assert payload["weyl_structure"] == "TwoTrivial"
    assert payload["dim_tilting"] == 68


def test_identify_bundled(capsys):
    code, out, _ = run(capsys, "identify", "-p", "5", "--group", "E6",
                       "--expr", WORKED_EXPR)
    assert code == 0 and out.strip() == "A_4"
    code, out, _ = run(capsys, "identify", "-p", "5", "--group", "E6",
                       "--json", "--expr", WORKED_EXPR)
    payload = json.loads(out)
    assert payload["label"] == "A_4" and payload["jordan"] == [[5, 15], [1, 3]]


def test_identify_custom_table_and_env(capsys, tmp_path, monkeypatch):
    table = tmp_path / "mine.tsv"
    table.write_text("E6\t5\tadjoint\t5^15 1^3\tcustom\tme\n", encoding="utf-8")
    code, out, _ = run(capsys, "identify", "-p", "5", "--group", "E6",
                       "--table", str(table), "--expr", WORKED_EXPR)
    assert code == 0 and out.strip() == "custom"
    monkeypatch.setenv("UNIP_CLASS_TABLE", str(table))
    code, out, _ = run(capsys, "identify", "-p", "5", "--group", "E6",
                       "--expr", WORKED_EXPR)
    assert code == 0 and out.strip() == "custom"


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
@pytest.mark.parametrize("via", ["--table", "UNIP_CLASS_TABLE"])
def test_unreadable_class_table_is_one_error_line(capsys, tmp_path, monkeypatch,
                                                  kind, via):
    path = tmp_path / "table.tsv"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b"\xff\xfe")
    argv = ["identify", "-p", "5", "--group", "E6", "--expr", "L(2)"]
    if via == "--table":
        argv += ["--table", str(path)]
    else:
        monkeypatch.setenv("UNIP_CLASS_TABLE", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(path) in err


def test_identify_not_found(capsys):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run(capsys, "identify", "-p", "7", "--group", "E6",
                           "--expr", "L(0)")
    assert code == 0
    assert out.splitlines()[0] == "NotFound"


@pytest.mark.parametrize("expr,cert", [
    ("L(14)", {"expr": "L(14)", "p": 5, "dim": 15, "dtype": "float32",
               "ranks": [15, 12, 9, 6, 3, 0], "jordan": [[5, 3]]}),
    # 282 rows: the 47- and 6-row factors ranked in one block, then the
    # tensor from their Jordan blocks
    ("(V(40)+L(7))*(V(3)+V(1))",
     {"expr": "(V(40)+L(7))*(V(3)+V(1))", "p": 5, "dim": 282, "dtype": "float32",
      "ranks": [282, 222, 164, 107, 53, 0],
      "jordan": [[5, 53], [4, 1], [3, 3], [2, 1], [1, 2]]}),
], ids=["single-block", "multi-block"])
def test_oracle_verify(capsys, expr, cert):
    code, out, _ = run(capsys, "oracle-verify", "-p", "5", expr)
    assert code == 0
    assert json.loads(out) == cert


def test_oracle_verify_tensor_above_block_width(capsys):
    # 1408 rows, typed through the factors' Jordan blocks
    code, out, _ = run(capsys, "oracle-verify", "-p", "3", "V(31)*V(43)")
    assert code == 0
    assert json.loads(out) == {"expr": "V(31)*V(43)", "p": 3, "dim": 1408,
                               "dtype": "float32", "ranks": [1408, 938, 469, 0],
                               "jordan": [[3, 469], [1, 1]]}


def test_jordan_oracle_irreducible_tensor(capsys):
    # 2625 rows: the leaves L(124), 125 rows, and V(20), then the pairs
    # kron(J_a, J_b) of their blocks
    code, out, err = run(capsys, "jordan", "-p", "5", "--oracle", "L(124)*V(20)")
    assert (code, out, err) == (0, "5^525\n", "")


def test_jordan_oracle_weyl_atom_at_the_cap(capsys):
    # 4096 rows, planned by Lucas' theorem as V(127) and 2-row factors
    closed = run(capsys, "jordan", "-p", "2", "V(4095)")
    assert run(capsys, "jordan", "-p", "2", "--oracle", "V(4095)") == closed == (0, "2^2048\n", "")


@pytest.mark.parametrize("p, expr, closed", [
    (3, "V(1599)", "3^533 1"), (5, "V(1151)", "5^230 2"), (7, "V(1023)", "7^146 2")])
def test_jordan_oracle_weyl_atom_with_remainder(capsys, p, expr, closed):
    # p does not divide the dimension: a free Lucas part plus a remainder leaf
    want = (0, closed + "\n", "")
    assert run(capsys, "jordan", "-p", str(p), expr) == want
    assert run(capsys, "jordan", "-p", str(p), "--oracle", expr) == want


def test_oracle_verify_split_weyl_atom_ranks(capsys):
    # 1458 = 2 * 3^6 rows: the certificate's ranks are the whole Pascal matrix's
    from unipjordan.oracle import pascal_matrix, rank_sequence
    code, out, _ = run(capsys, "oracle-verify", "-p", "3", "V(1457)")
    assert code == 0
    assert json.loads(out)["ranks"] == rank_sequence(pascal_matrix(1457, 3))


def test_oracle_verify_cap_refusal_is_one_line(capsys):
    code, out, err = run(capsys, "oracle-verify", "-p", "5", "L(3124)*L(3124)")
    assert (code, out) == (1, "")
    assert err == "error: expression dimension 9765625 exceeds the oracle cap 4096\n"


def test_oracle_verify_dim_cap(capsys):
    code, _, err = run(capsys, "oracle-verify", "-p", "5", "--dim-cap", "10", "V(99)")
    assert code == 1 and "cap" in err


@pytest.mark.parametrize("command", [["jordan", "--oracle"], ["oracle-verify"]])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_dim_cap_below_one_is_a_usage_error(capsys, command, cap):
    with pytest.raises(SystemExit) as exc:
        main([*command, "-p", "5", "--dim-cap", cap, "V(0)"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "dimension cap must be at least 1" in err


def test_dim_cap_of_one_accepted(capsys):
    code, out, _ = run(capsys, "jordan", "-p", "5", "--oracle", "--dim-cap", "1", "V(0)")
    assert (code, out) == (0, "1\n")


def test_identify_dimension_warning_is_one_line(capsys):
    code, out, err = run(capsys, "identify", "-p", "5", "--group", "E6",
                         "--expr", "L(0)")
    assert code == 0 and out.splitlines()[0] == "NotFound"
    assert err.splitlines() == ["warning: expression dimension 1 does not match "
                                "the adjoint module of E6 (dimension 78)"]


@pytest.mark.parametrize("argv", [
    ["jordan", "-p", "2", "(" * 3000 + "L(1)" + ")" * 3000],
    ["jordan", "-p", "2", "+".join(["L(1)"] * 3000)],
    ["jordan", "-p", "2", "*".join(["L(1)"] * 1200)],
    ["qm", "-p", "5", "--group", "A100"],
    ["identify", "-p", "5", "--group", "A2000", "--expr", "L(1)"],
])
def test_deep_expressions_and_large_ranks_refused(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["jordan", "-p", "5", "V(\u00b2)"],                 # superscript two
    ["jordan", "-p", "5", "V(3)[\u00b2]"],
    ["jordan", "-p", "5", "L(\u0663)"],                 # Arabic-Indic three
    ["qm", "-p", "5", "--group", "A1_0"],
    ["qm", "-p", "5", "--group", "E\u0668"],            # Arabic-Indic eight
    ["qm", "-p", "5", "--group", "E+8"],
    ["qm", "-p", "5", "--group", "A 3"],
    ["identify", "-p", "5", "--group", "E\u0666", "--expr", "L(1)"],
    ["semisimple", "-p", "5", "\u0663 1_0"],
    ["enumerate", "-p", "5", "3^\u0662"],
    ["distinguished", "-p", "5", "1_0", "--group", "SL", "--dim", "10"],
])
def test_only_ascii_digits_accepted(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["weyl", "-p", "\u0665", "10"],                    # Arabic-Indic five
    ["weyl", "-p", "5", "1_0"],
    ["tensor", "-p", "5", "\uff13", "2"],              # fullwidth three
    ["ext", "-p", "5", "1", "\u0967"],                 # Devanagari one
    ["distinguished", "-p", "5", "5 5", "--group", "SL", "--dim", "1_0"],
    ["jordan", "-p", "5", "L(1)", "--oracle", "--dim-cap", "\u0663"],
])
def test_only_ascii_digits_accepted_as_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "ASCII digits only" in err


def test_ascii_integer_arguments_still_read(capsys):
    assert run(capsys, "weyl", "-p", "5", "10")[:2] == (0, "5^2 1\n")
    assert run(capsys, "weyl", "-p", "+5", " 10")[:2] == (0, "5^2 1\n")
    code, _, err = run(capsys, "weyl", "-p", "5", "-3")
    assert code == 1 and err.startswith("error: ")


def _fuzz_argv(rng):
    """One random command line: expression noise, huge numbers, deep
    nesting, huge ranks and malformed partitions."""
    p = str(rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]))

    def num():
        if rng.random() < 0.3:
            return str(rng.randrange(40))
        return str(rng.choice([-1, 1]) * rng.randrange(10 ** rng.randrange(1, 60)))

    def noise(alphabet, n):
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(n)))

    tokens = ["L(", "V(", "T(", "(", ")", ")", "+", "*", "^*", "[", "]", "^",
              num(), num(), " "]
    expr = rng.choice([
        noise("LVT()+*^[]0123456789 ", 30),
        "".join(rng.choice(tokens) for _ in range(rng.randrange(1, 20))),
        rng.choice("+*").join([f"{rng.choice('LVT')}({rng.randrange(50)})"]
                              * rng.randrange(90, 130)),
        "(" * rng.randrange(90, 300) + "L(1)" + ")" * rng.randrange(90, 300),
        "L(3)" + "^*" * rng.randrange(90, 130),
    ])
    partition = rng.choice([noise("0123456789^, x.-", 12), f"{num()}^{num()}",
                            " ".join(str(rng.randrange(1, 40)) for _ in range(5))])
    group = rng.choice(["E6", "E7", "E8", "F4", "G2", noise("0123456789.-x", 4),
                        rng.choice("ABCDEFGHZ") + num()])
    return rng.choice([
        ["jordan", "-p", p, expr],
        ["weyl", "-p", p, num()],
        ["tensor", "-p", p, num(), num()],
        ["tilting", "-p", p, num()],
        ["ext", "-p", p, num(), num()],
        ["classify-ext", "-p", p, num(), num()],
        ["enumerate", "-p", p, partition],
        ["semisimple", "-p", p, partition],
        ["distinguished", "-p", p, "--group", rng.choice(["SL", "Sp", "SO"]),
         "--dim", num(), partition],
        ["lift-bd", "-p", "2", partition],
        ["qm", "-p", p, "--group", group],
        ["identify", "-p", p, "--group", group, "--expr", expr],
    ])


def test_cli_fuzz(capsys):
    # Human output and p <= 37 only: JSON characters with millions of
    # weights, and tensors of huge blocks at a huge p, are still too large.
    rng = random.Random(20261018)
    start = time.perf_counter()
    for _ in range(800):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        _, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert len(err.splitlines()) <= 1, (argv, err)
    assert time.perf_counter() - start < 10
