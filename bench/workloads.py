"""Seeded request streams for the three workloads, their execution
through the public functions of ``unipjordan`` and the answer checks.

Why each workload exists, the request mix and the inputs left out are
described in ``bench/README.md``.

Generating a stream needs nothing from ``unipjordan``: requests are the
strings and numbers a CLI user would type, so the program under test
sees only generated inputs.  ``execute`` runs one request through the
library the way the matching CLI command does; ``check`` validates the
answer with facts that do not reuse the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator

PRIMES = (2, 3, 5, 7)
WORKLOADS = ("calculus", "verify", "sweep")

# peak_rss_mb is read after this many requests of a worker, so that it
# measures a fixed amount of work whatever the speed (or at the end, if
# a worker answers fewer)
RSS_AFTER = {"calculus": 4000, "verify": 240, "sweep": 400}

# golden-ratio step: successive fractional parts fill [0, 1) evenly, so
# any window of the stream sees the intended size distribution
_GOLDEN = 0.6180339887498949

WORKED_SUMMANDS = ("L(14)", "T(10)", "V(10)", "V(10)^*", "T(6)", "L(4)", "L(4)", "L(0)")
WORKED_LABEL = "A_4"
WORKED_JORDAN = [[5, 15], [1, 3]]

QM_GROUPS = ("A1", "A4", "A8", "B2", "B4", "B6", "C3", "C4", "C6", "D4", "D5",
             "D7", "E6", "E7", "E8", "F4", "G2")


def qm_weyl_dim(group: str) -> int:
    """Dimension of the Weyl module at the highest short root (the
    quasi-minuscule weight), from the classical tables."""
    letter, n = group[0], int(group[1:])
    if letter == "A":
        return n * (n + 2)
    if letter == "B":
        return 2 * n + 1
    if letter == "C":
        return n * (2 * n - 1) - 1
    if letter == "D":
        return n * (2 * n - 1)
    return {"E6": 78, "E7": 133, "E8": 248, "F4": 26, "G2": 7}[group]


@dataclass(frozen=True)
class Request:
    """One request: a kind, the prime, and the CLI-level arguments."""

    kind: str
    p: int
    args: tuple

    def argv(self) -> list[str]:
        """The CLI command line that makes the same request."""
        p = ["-p", str(self.p)]
        a = self.args
        if self.kind == "jordan":
            return ["jordan", *p, a[0]] + (["--json"] if a[2] else [])
        if self.kind == "identify":
            return ["identify", *p, "--group", a[0], "--expr", a[1]]
        if self.kind in ("ext", "classify-ext"):
            return [self.kind, *p, str(a[0]), str(a[1])]
        if self.kind == "qm":
            return ["qm", *p, "--group", a[0]]
        if self.kind == "distinguished":
            return ["distinguished", *p, "--group", a[0], "--dim", str(a[1]), a[2]]
        if self.kind == "verify":
            return ["oracle-verify", *p, a[0]]
        if self.kind == "sweep":
            return ["jordan", *p, "--oracle", f"V({a[0]})"]
        raise ValueError(f"unknown request kind {self.kind!r}")


# ---------------------------------------------------------------------------
# generators


def _digits(n: int, p: int) -> list[int]:
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return out


def _irrep_dim(lam: int, p: int) -> int:
    """Steinberg: dim L(lam) is the product of (digit + 1)."""
    dim = 1
    for d in _digits(lam, p):
        dim *= d + 1
    return dim


def _suffix(rng: random.Random, text: str) -> str:
    roll = rng.random()
    if roll < 0.15:
        return f"{text}^*"
    if roll < 0.25:
        return f"{text}[{rng.randrange(1, 4)}]"
    return text


def _tilting_dim(c: int, p: int) -> int:
    """Donkin's recursion: T(c) is irreducible for c < p, has dimension 2p
    for p <= c <= 2p - 2, and T(sp + p - 1 + r) = T(p - 1 + r) (x) T(s)^[1]."""
    if c < p:
        return c + 1
    if c <= 2 * p - 2:
        return 2 * p
    s, r = divmod(c - (p - 1), p)
    return _tilting_dim(p - 1 + r, p) * _tilting_dim(s, p)


def _atom_dim(kind: str, w: int, p: int) -> int:
    if kind == "L":
        return _irrep_dim(w, p)
    return w + 1 if kind == "V" else _tilting_dim(w, p)


# Bound on the character work of one tree: the sum over its tensor nodes
# of dim(left) * dim(right), which bounds the pairs a convolution visits.
# Trees above it are drawn again; see "Inputs left out" in README.md.
TREE_TENSOR_WORK = 200_000


def _tree(rng: random.Random, depth: int, p: int) -> tuple[str, int, int]:
    """(text, dimension, tensor work) of a random tree."""
    if depth == 0 or rng.random() < 0.4:
        kind, w = rng.choice("LVT"), rng.randrange(0, 3 * p * p + 1)
        return f"{kind}({w})", _atom_dim(kind, w, p), 0
    roll = rng.random()
    if roll < 0.65:
        a, da, wa = _tree(rng, depth - 1, p)
        b, db, wb = _tree(rng, depth - 1, p)
        if roll < 0.35:
            return f"({a}+{b})", da + db, wa + wb
        return f"({a}*{b})", da * db, wa + wb + da * db
    a, da, wa = _tree(rng, depth - 1, p)
    if roll < 0.85:
        return f"({a})^*", da, wa
    return f"({a})[{rng.randrange(1, 4)}]", da, wa


def random_tree(rng: random.Random, p: int) -> tuple[str, int]:
    """(text, dimension) of a random expression in the style of the test
    suite: depth 0-4, L, V and T atoms with weights up to 3p^2, sums,
    tensors, duals and twists."""
    while True:
        text, dim, work = _tree(rng, rng.randrange(0, 5), p)
        if work <= TREE_TENSOR_WORK:
            return text, dim


def exact_dim_tree(rng: random.Random, dim: int, p: int, depth: int = 4) -> str:
    """T-free expression of dimension exactly ``dim``, built from L and V
    atoms with sums, tensors, twists and duals."""
    if dim == 1:
        return rng.choice(("L(0)", "V(0)", "L(0)[1]"))
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return _suffix(rng, f"V({dim - 1})")
    if roll < 0.45:
        a = rng.randrange(1, dim)
        return (f"({exact_dim_tree(rng, a, p, depth - 1)}"
                f"+{exact_dim_tree(rng, dim - a, p, depth - 1)})")
    if roll < 0.7:
        divisors = [a for a in range(2, int(dim ** 0.5) + 1) if dim % a == 0]
        if divisors:
            a = rng.choice(divisors)
            return _suffix(rng, f"({exact_dim_tree(rng, a, p, depth - 1)}"
                                f"*{exact_dim_tree(rng, dim // a, p, depth - 1)})")
    # an irreducible head that fits, the rest as a sum
    lam = rng.randrange(1, 4 * p * p)
    head = _irrep_dim(lam, p)
    if head > dim:
        return _suffix(rng, f"V({dim - 1})")
    if head == dim:
        return _suffix(rng, f"L({lam})")
    return f"(L({lam})+{exact_dim_tree(rng, dim - head, p, depth - 1)})"


def _partition(rng: random.Random, group: str, p: int) -> tuple[int, str]:
    """(space dimension, partition text) for a distinguishedness query;
    half of them use distinct sizes of the group's parity."""
    if rng.random() < 0.5:
        parity = {"SL": None, "Sp": 0, "SO": 1}[group]
        if p == 2 and group != "SL":
            parity = 0
        pool = [s for s in range(1, 26) if parity is None or s % 2 == parity]
        sizes = sorted(rng.sample(pool, rng.randrange(1, 5)), reverse=True)
    else:
        sizes = sorted((rng.randrange(1, 12) for _ in range(rng.randrange(1, 6))),
                       reverse=True)
    dim = sum(sizes)
    if group == "Sp" or (p == 2 and group == "SO"):
        if dim % 2:
            sizes.append(1)
            dim += 1
    return dim, " ".join(map(str, sizes))


def _weyl_twist_pair(rng: random.Random, p: int) -> tuple[int, int, int, int]:
    """(c, l, c p^l, (2p - 2 - c) p^l) with p <= c <= 2p - 2: the l-th twist
    of the Weyl module V(c) is a nonsplit extension of L(c p^l) by
    L((2p - 2 - c) p^l)."""
    c = rng.randrange(p, 2 * p - 1)
    l = rng.randrange(0, 3)
    return c, l, c * p ** l, (2 * p - 2 - c) * p ** l


# calculus block: 80 requests with fixed counts, shuffled by the seed
CALCULUS_BLOCK = (["big"] * 7 + ["big+character"] * 3 + ["tree"] * 28
                  + ["tree+character"] * 12 + ["identify-worked"] * 4 + ["identify"] * 4
                  + ["ext"] * 3 + ["ext-same"] + ["ext-twist"] * 2
                  + ["classify-ext"] * 3 + ["classify-twist"] * 2 + ["classify-dual-twist"]
                  + ["qm"] * 5 + ["distinguished"] * 5)


def calculus_stream(seed: int) -> Iterator[Request]:
    rng = random.Random(f"calculus:{seed}")
    walk = {kind: rng.random() for kind in "LVT"}
    big: list[tuple[str, int]] = []  # (atom kind, p) of the large summands
    p = rng.choice(PRIMES)
    yield Request("jordan", p, (*random_tree(rng, p), False))
    while True:
        block = list(CALCULUS_BLOCK)
        rng.shuffle(block)
        for slot in block:
            p = rng.choice(PRIMES)
            if slot.startswith("big"):
                # one large-weight summand: (kind, p) cycles through all
                # twelve pairs, and for each kind log10(weight) walks
                # [2, 5) in golden-ratio steps
                if not big:
                    big = [(k, q) for k in "LVT" for q in PRIMES]
                    rng.shuffle(big)
                kind, p = big.pop()
                walk[kind] = (walk[kind] + _GOLDEN) % 1.0
                weight = int(10 ** (2 + 3 * walk[kind]))
                text, dim = random_tree(rng, p)
                yield Request("jordan", p, (f"{text}+{kind}({weight})",
                                            dim + _atom_dim(kind, weight, p),
                                            slot.endswith("character")))
            elif slot.startswith("tree"):
                yield Request("jordan", p, (*random_tree(rng, p),
                                            slot.endswith("character")))
            elif slot == "identify-worked":
                summands = list(WORKED_SUMMANDS)
                rng.shuffle(summands)
                summands = [s[:-2] if s.endswith("^*") and rng.random() < 0.5 else s
                            for s in summands]
                yield Request("identify", 5, ("E6", "+".join(summands), True))
            elif slot == "identify":
                yield Request("identify", 5, ("E6", exact_dim_tree(rng, 78, 5), False))
            # the last argument of ext and classify-ext is the known
            # answer, or None for a random pair
            elif slot == "ext":
                yield Request("ext", p, (rng.randrange(0, 3 * p * p),
                                         rng.randrange(0, 3 * p * p), None))
            elif slot == "ext-same":
                lam = rng.randrange(0, 3 * p * p)
                yield Request("ext", p, (lam, lam, False))
            elif slot == "ext-twist":
                _c, _l, top, bottom = _weyl_twist_pair(rng, p)
                pair = (top, bottom) if rng.random() < 0.5 else (bottom, top)
                yield Request("ext", p, (*pair, True))
            elif slot == "classify-ext":
                yield Request("classify-ext", p, (rng.randrange(0, 3 * p * p),
                                                  rng.randrange(0, 3 * p * p), None))
            elif slot == "classify-twist":
                c, l, top, bottom = _weyl_twist_pair(rng, p)
                yield Request("classify-ext", p, (top, bottom, ("WeylTwist", c, l)))
            elif slot == "classify-dual-twist":
                c, l, top, bottom = _weyl_twist_pair(rng, p)
                yield Request("classify-ext", p, (bottom, top, ("DualWeylTwist", c, l)))
            elif slot == "qm":
                yield Request("qm", p, (rng.choice(QM_GROUPS),))
            else:
                group = rng.choice(("SL", "Sp", "SO"))
                dim, part = _partition(rng, group, p)
                yield Request("distinguished", p, (group, dim, part))


# verify block: 20 requests, shuffled by the seed.  The median and the
# 90th percentile fall inside groups of like-shaped requests (dimension
# 96 and 640 at p = 3), so that they do not jump between sizes and
# primes.  The medium and large dimensions shrink as p grows, so that a
# request costs about the same whatever its prime.
VERIFY_BLOCK = (["small"] * 8 + ["median"] * 5 + ["medium"] * 4 + ["p90"] * 2
                + ["large"])
VERIFY_DIMS = {"medium": {2: 192, 3: 160, 5: 144, 7: 128},
               "large": {2: 2048, 3: 1600, 5: 1152, 7: 1024}}


def verify_stream(seed: int) -> Iterator[Request]:
    rng = random.Random(f"verify:{seed}")
    u = rng.random()
    cycles: dict[str, list[int]] = {}

    def prime(tier: str) -> int:
        # each tier cycles through the four primes in a shuffled order
        if not cycles.get(tier):
            cycles[tier] = rng.sample(PRIMES, len(PRIMES))
        return cycles[tier].pop()

    def request(dim: int, p: int) -> Request:
        return Request("verify", p, (exact_dim_tree(rng, dim, p), dim))

    yield request(64, prime("small"))
    while True:
        block = list(VERIFY_BLOCK)
        rng.shuffle(block)
        for tier in block:
            if tier == "small":
                # dimension 16 to 32, log(dim) in golden-ratio steps
                u = (u + _GOLDEN) % 1.0
                yield request(round(16 * 2 ** u), prime(tier))
            elif tier == "median":
                yield request(96, 3)
            elif tier == "p90":
                yield request(640, 3)
            else:
                p = prime(tier)
                yield request(VERIFY_DIMS[tier][p], p)


SWEEP_MAX = 200


def sweep_stream(seed: int) -> Iterator[Request]:
    rng = random.Random(f"sweep:{seed}")
    while True:
        for m in range(SWEEP_MAX + 1):
            for p in rng.sample(PRIMES, len(PRIMES)):
                yield Request("sweep", p, (m,))


def stream(workload: str, seed: int) -> Iterator[Request]:
    return {"calculus": calculus_stream, "verify": verify_stream,
            "sweep": sweep_stream}[workload](seed)


# ---------------------------------------------------------------------------
# execution and checks


class Runner:
    """Executes requests through ``unipjordan``.  Functions are looked up
    on their modules at call time, so a tracer that patches the modules
    sees every call."""

    def __init__(self):
        import unipjordan
        self.lib = unipjordan

    def execute(self, req: Request):
        lib = self.lib
        a = req.args
        if req.kind == "jordan":
            res = lib.eval_expr(lib.parse_expr(a[0]), req.p)
            if a[2]:
                payload = {"dim": res.dim, "jordan": res.jordan.as_pairs(),
                           "character": [[w, m] for w, m in res.character.items]}
                return res, json.dumps(payload)
            return res, str(res.jordan)
        if req.kind == "identify":
            table = lib.bundled_table()
            return lib.identify_from_expr(table, a[0], req.p, lib.parse_expr(a[1]))
        if req.kind == "ext":
            return lib.ext1_nonzero(a[0], a[1], req.p)
        if req.kind == "classify-ext":
            return lib.nonsplit_ext_classify(a[0], a[1], req.p)
        if req.kind == "qm":
            letter, rank = lib.parse_group_name(a[0])
            return lib.qm_structure(lib.root_system(letter, rank), req.p)
        if req.kind == "distinguished":
            t = lib.parse_partition(a[2], req.p)
            return lib.is_distinguished(a[0], req.p, t, a[1])
        if req.kind == "verify":
            e = lib.parse_expr(a[0])
            return lib.eval_expr(e, req.p), lib.oracle_certificate(e, req.p)
        if req.kind == "sweep":
            m = a[0]
            return (lib.weyl_jordan(m, req.p),
                    lib.jordan_type_of_unipotent(lib.pascal_matrix(m, req.p)))
        raise ValueError(f"unknown request kind {req.kind!r}")

    @staticmethod
    def cli_text(req: Request, out) -> str:
        """What the CLI prints for the first request of a stream."""
        if req.kind == "jordan":
            return out[1]
        if req.kind == "verify":
            return json.dumps(out[1])
        if req.kind == "sweep":
            return str(out[0])
        raise ValueError(f"no CLI rendering for {req.kind!r}")


def _jordan_ok(pairs, dim: int, p: int) -> bool:
    return (sum(s * m for s, m in pairs) == dim
            and all(1 <= s <= p and m >= 1 for s, m in pairs))


def _character_ok(items, dim: int) -> bool:
    mult = dict(items)
    return (len(mult) == len(items) and sum(mult.values()) == dim
            and all(m > 0 and mult.get(-w) == m for w, m in mult.items()))


def _may_extend(lam: int, mu: int, p: int) -> bool:
    """Necessary for a nonzero Ext^1 between L(lam) and L(mu): the weights
    differ (Ext^1 of a simple module with itself vanishes), and they are
    linked, mu = lam or mu = -lam - 2 modulo 2p (the linkage principle for
    the affine Weyl group of SL2)."""
    return lam != mu and ((mu - lam) % (2 * p) == 0 or (mu + lam + 2) % (2 * p) == 0)


def _weyl_twist_jordan(c: int, p: int) -> list[list[int]]:
    """Jordan type of the Weyl module V(c), p <= c <= 2p - 2: a block of
    size p and one of size c - p + 1 (its dimension is c + 1)."""
    return [[p, 1], [c - p + 1, 1]]


def _distinguished_expected(group: str, p: int, sizes: list[int], dim: int) -> bool:
    """The criteria as stated for SL, Sp and SO: a single full block for
    SL; otherwise distinct sizes of the form's parity, and for p = 2 even
    sizes with multiplicity at most two."""
    if group == "SL":
        return sizes == [dim]
    counts = {s: sizes.count(s) for s in sizes}
    if p == 2:
        return all(s % 2 == 0 and m <= 2 for s, m in counts.items())
    parity = 0 if group == "Sp" else 1
    return all(s % 2 == parity and m == 1 for s, m in counts.items())


def check(req: Request, out) -> bool:
    """Validate one answer.  Returns False on a wrong answer."""
    a = req.args
    p = req.p
    if req.kind == "jordan":
        res, _text = out
        return (res.dim == a[1] and _jordan_ok(res.jordan.as_pairs(), a[1], p)
                and (not a[2] or _character_ok(res.character.items, a[1])))
    if req.kind == "identify":
        jt, result = out
        pairs = jt.as_pairs()
        if not _jordan_ok(pairs, 78, p):
            return False
        if a[2] or pairs == WORKED_JORDAN:
            return pairs == WORKED_JORDAN and result.label == WORKED_LABEL
        return result.label is None
    if req.kind == "ext":
        lam, mu, known = a
        if not isinstance(out, bool) or (out and not _may_extend(lam, mu, p)):
            return False
        return known is None or out == known
    if req.kind == "classify-ext":
        lam, mu, known = a
        if known is not None:
            kind, c, l = known
            return (out.kind == kind and (out.c, out.l) == (c, l)
                    and out.jordan.as_pairs() == _weyl_twist_jordan(c, p))
        if out.kind == "NoExtension":
            return True
        if not _may_extend(lam, mu, p):
            return False
        if out.kind == "ManyLargeBlocks":
            return True
        if out.kind not in ("WeylTwist", "DualWeylTwist"):
            return False
        top, bottom = (lam, mu) if out.kind == "WeylTwist" else (mu, lam)
        c, l = out.c, out.l
        return (p <= c <= 2 * p - 2 and top == c * p ** l
                and bottom == (2 * p - 2 - c) * p ** l
                and out.jordan.as_pairs() == _weyl_twist_jordan(c, p))
    if req.kind == "qm":
        q = out
        if q.dim_weyl != qm_weyl_dim(a[0]):
            return False
        t = q.dim_weyl - q.dim_simple
        if t not in (0, 1, 2) or q.dim_tilting != q.dim_weyl + t:
            return False
        return a[0] != "F4" or p != 3 or q.dim_tilting == 27
    if req.kind == "distinguished":
        sizes = [int(s) for s in a[2].split()]
        return out.distinguished == _distinguished_expected(a[0], p, sizes, a[1])
    if req.kind == "verify":
        res, cert = out
        ranks = cert["ranks"]
        dim = a[1]
        return (res.dim == dim and cert["dim"] == dim
                and cert["jordan"] == res.jordan.as_pairs()
                and _jordan_ok(cert["jordan"], dim, p)
                and ranks[0] == dim and ranks[-1] == 0 and len(ranks) <= p + 1
                and all(x > y for x, y in zip(ranks, ranks[1:])))
    if req.kind == "sweep":
        closed, oracle = out
        return closed == oracle and _jordan_ok(oracle.as_pairs(), a[0] + 1, p)
    return False
