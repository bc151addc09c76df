"""Command-line interface.

One subcommand per library operation; every command takes ``--json`` for
machine-readable output with the stable schema
``{"dim": n, "jordan": [[size, mult], ...], "character":
[[weight, mult], ...], "verdict": ..., "label": ...}`` (absent fields
omitted).  Exit codes: 0 success, 1 domain error, 2 usage error; an
error is reported as one line on stderr.

The only environment variable consulted is ``UNIP_CLASS_TABLE``, an
optional default class-table path for ``identify``.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

# Only what the parser and the SL2 commands need is imported here; every
# other command imports its own modules, so a call loads only what it runs.
from .core import DEFAULT_DIM_CAP, DomainError, parse_int, parse_partition, render_blocks
from .expr import Atom, parse_expr
from .sl2 import EvalResult, eval_expr, tensor_jordan, weyl_jordan

PROG = "unipjordan"


def _emit(args, payload: dict, human: str):
    if args.json:
        import json
        print(json.dumps(payload))
    else:
        print(human)


def _emit_result(args, res: EvalResult, human: str):
    """Emit dimension and Jordan type; under --json, build the character too."""
    payload = {"dim": res.dim, "jordan": res.jordan.as_pairs()}
    if args.json:
        payload["character"] = res.character.items
    _emit(args, payload, human)


def _cmd_jordan(args) -> int:
    e = parse_expr(args.expr)
    res = eval_expr(e, args.p)
    if args.oracle:
        from .oracle import oracle_eval
        got = oracle_eval(e, args.p, args.dim_cap)
        if got != res.jordan:
            print(f"oracle mismatch: closed form {res.jordan}, oracle {got}",
                  file=sys.stderr)
            return 1
    _emit_result(args, res, str(res.jordan))
    return 0


def _cmd_tensor(args) -> int:
    t = tensor_jordan(args.m, args.n, args.p)
    _emit(args, {"dim": t.dim, "jordan": t.as_pairs()}, str(t))
    return 0


def _cmd_weyl(args) -> int:
    t = weyl_jordan(args.m, args.p)
    _emit(args, {"dim": t.dim, "jordan": t.as_pairs()}, str(t))
    return 0


def _cmd_tilting(args) -> int:
    res = eval_expr(Atom("T", args.c), args.p)
    _emit_result(args, res, f"{res.jordan}\ndim: {res.dim}")
    return 0


def _cmd_ext(args) -> int:
    from .extclassify import ext1_nonzero
    val = ext1_nonzero(args.lam, args.mu, args.p)
    _emit(args, {"verdict": val}, "true" if val else "false")
    return 0


def _cmd_classify_ext(args) -> int:
    from .extclassify import nonsplit_ext_classify
    v = nonsplit_ext_classify(args.lam, args.mu, args.p)
    payload: dict = {"verdict": v.kind}
    human = v.kind
    if v.kind in ("WeylTwist", "DualWeylTwist"):
        payload.update({"c": v.c, "l": v.l, "jordan": v.jordan.as_pairs()})
        human = f"{v.kind}(c={v.c}, l={v.l})\njordan: {v.jordan}"
    _emit(args, payload, human)
    return 0


def _cmd_enumerate(args) -> int:
    from .extclassify import classify_dim4_p2, enumerate_indecomposables
    t = parse_partition(args.partition, args.p)
    if args.p == 2 and t.blocks == ((2, 2),):
        fams = classify_dim4_p2()
    else:
        fams = enumerate_indecomposables(t, args.p)
    payload = {"families": [{"kind": f.kind, "template": f.template,
                             "constraint": f.constraint} for f in fams]}
    human = "\n".join(f"{f.kind}: {f.template}  ({f.constraint})" for f in fams)
    _emit(args, payload, human if fams else "no families")
    return 0


def _cmd_semisimple(args) -> int:
    from .extclassify import semisimplicity_verdict
    t = parse_partition(args.partition, args.p)
    v = semisimplicity_verdict(t, args.self_dual, args.p)
    _emit(args, {"verdict": v.verdict}, f"{v.verdict}\nreason: {v.reason}")
    return 0


def _cmd_distinguished(args) -> int:
    from .distinguished import is_distinguished
    t = parse_partition(args.partition, args.p)
    v = is_distinguished(args.group, args.p, t, args.dim,
                         orthogonal_witness=args.witness)
    payload = {"verdict": v.distinguished, "reason": v.reason}
    if v.requires_orthogonal_witness:
        payload["requires_orthogonal_witness"] = True
    human = "true" if v.distinguished else "false"
    human += f"\nreason: {v.reason}"
    _emit(args, payload, human)
    return 0


def _cmd_lift_bd(args) -> int:
    from .distinguished import lift_quotient_to_orthogonal
    if args.p != 2:
        raise DomainError("the stabilizer lift applies in characteristic 2 only")
    t = parse_partition(args.partition, 2)
    lifted = lift_quotient_to_orthogonal(t)
    _emit(args, {"dim": lifted.dim, "jordan": lifted.as_pairs()}, str(lifted))
    return 0


def _cmd_qm(args) -> int:
    from .rootdata import parse_group_name, qm_structure, root_system
    letter, rank = parse_group_name(args.group)
    rs = root_system(letter, rank)
    q = qm_structure(rs, args.p)
    payload = {"group": q.group, "p": q.p, "weight": q.weight_name,
               "weyl_structure": q.weyl_structure,
               "weyl_series": q.weyl_series, "tilting_series": q.tilting_series,
               "dim_weyl": q.dim_weyl, "dim_simple": q.dim_simple,
               "dim_tilting": q.dim_tilting}
    human = (f"group: {q.group}\nweight: {q.weight_name}\n"
             f"structure: {q.weyl_structure}\n"
             f"weyl series: {q.weyl_series}\ntilting series: {q.tilting_series}\n"
             f"dim V: {q.dim_weyl}  dim L: {q.dim_simple}  dim T: {q.dim_tilting}")
    _emit(args, payload, human)
    return 0


def _cmd_identify(args) -> int:
    from .classtables import bundled_table, identify_from_expr, load_class_table
    path = args.table or os.environ.get("UNIP_CLASS_TABLE")
    table = load_class_table(path) if path else bundled_table()
    e = parse_expr(args.expr)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        jt, result = identify_from_expr(table, args.group, args.p, e, args.module)
    for w in caught:  # one line each, without the source location
        print(f"warning: {w.message}", file=sys.stderr)
    payload = {"dim": jt.dim, "jordan": jt.as_pairs()}
    if result:
        payload["label"] = result.label
        human = result.label
    else:
        payload["nearest"] = [
            {"label": entry.label, "partition": render_blocks(entry.partition),
             "distance": dist}
            for dist, entry in result.nearest]
        human = "NotFound"
        if result.nearest:
            human += "\nnearest: " + "; ".join(
                f"{entry.label} (distance {dist})" for dist, entry in result.nearest)
    _emit(args, payload, human)
    return 0


def _cmd_oracle_verify(args) -> int:
    import json

    from .oracle import oracle_certificate
    e = parse_expr(args.expr)
    cert = oracle_certificate(e, args.p, args.dim_cap)
    print(json.dumps(cert))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line; ``-h`` shows the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _integer(text: str) -> int:
    """argparse type for integer arguments: ASCII digits only."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _dim_cap(text: str) -> int:
    """argparse type for --dim-cap: an integer of at least 1."""
    cap = _integer(text)
    if cap < 1:
        raise argparse.ArgumentTypeError(f"dimension cap must be at least 1, got {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog=PROG,
        description="Exact Jordan-type calculus for order-p unipotent elements")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *, jsonflag=True):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(fn=fn)
        sp.add_argument("-p", type=_integer, required=True, metavar="PRIME",
                        help="prime characteristic")
        if jsonflag:
            sp.add_argument("--json", action="store_true", help="JSON output")
        return sp

    sp = add("jordan", _cmd_jordan, "Jordan type of a module expression")
    sp.add_argument("expr")
    sp.add_argument("--oracle", action="store_true",
                    help="re-verify through the matrix oracle (T-free only)")
    sp.add_argument("--dim-cap", type=_dim_cap, default=DEFAULT_DIM_CAP)

    sp = add("tensor", _cmd_tensor, "Jordan type of J_m tensor J_n")
    sp.add_argument("m", type=_integer)
    sp.add_argument("n", type=_integer)

    sp = add("weyl", _cmd_weyl, "Jordan type of the Weyl module V(m)")
    sp.add_argument("m", type=_integer)

    sp = add("tilting", _cmd_tilting, "Jordan type and dimension of T(c)")
    sp.add_argument("c", type=_integer)

    sp = add("ext", _cmd_ext, "Is Ext^1(L(lambda), L(mu)) nonzero?")
    sp.add_argument("lam", type=_integer, metavar="lambda")
    sp.add_argument("mu", type=_integer)

    sp = add("classify-ext", _cmd_classify_ext,
             "Classify the nonsplit extension of L(lambda) by L(mu)")
    sp.add_argument("lam", type=_integer, metavar="lambda")
    sp.add_argument("mu", type=_integer)

    sp = add("enumerate", _cmd_enumerate,
             "Indecomposable-module families with a given Jordan type")
    sp.add_argument("partition")

    sp = add("semisimple", _cmd_semisimple, "Semisimplicity forced by Jordan data")
    sp.add_argument("partition")
    sp.add_argument("--self-dual", action="store_true", dest="self_dual")

    sp = add("distinguished", _cmd_distinguished,
             "Distinguishedness of a unipotent Jordan type in SL/Sp/SO")
    sp.add_argument("partition")
    sp.add_argument("--group", required=True, choices=("SL", "Sp", "SO"))
    sp.add_argument("--dim", type=_integer, required=True, help="dimension of the space")
    sp.add_argument("--witness", action="store_true",
                    help="attest that an orthogonal decomposition exists (p = 2)")

    sp = add("lift-bd", _cmd_lift_bd,
             "Lift a quotient Jordan type through a stabilized vector (p = 2)")
    sp.add_argument("partition")

    sp = add("qm", _cmd_qm, "Quasi-minuscule Weyl/tilting structure and dimensions")
    sp.add_argument("--group", required=True, metavar="NAME", help="e.g. F4, E7, B3")

    sp = add("identify", _cmd_identify,
             "Identify a unipotent class from a module-restriction expression")
    sp.add_argument("--group", required=True, metavar="NAME")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--table", help="class table TSV (default: bundled table, "
                                    "or $UNIP_CLASS_TABLE)")
    sp.add_argument("--module", default="adjoint",
                    choices=("adjoint", "minimal", "natural"))

    sp = add("oracle-verify", _cmd_oracle_verify,
             "Oracle certificate (rank sequence) for a T-free expression",
             jsonflag=False)
    sp.add_argument("expr")
    sp.add_argument("--dim-cap", type=_dim_cap, default=DEFAULT_DIM_CAP)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
