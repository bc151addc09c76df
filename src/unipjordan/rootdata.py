"""Root systems, the Weyl dimension formula, and quasi-minuscule data.

Root systems are built from explicit simple-root coordinate tables in
the standard (Bourbaki) ordering: the positive roots come from root
strings over those simple roots, in exact integer arithmetic, and their
coordinates are the matching integer combinations of the table rows.
Types F4 and E6/E7/E8 natively use half-integral coordinates; those
coordinate systems are scaled by 2 so every root is an integer vector
(the Weyl dimension formula only uses scale-invariant ratios).  E7 and
E6 take the first 7 and 6 simple roots of the E8 table.

The quasi-minuscule weight of a system is its highest short root; its
Weyl module carries zero, one or two trivial composition factors
depending on (type, rank, p), and the corresponding tilting module adds
the same number of trivials on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import DomainError, check_prime

# The classical types stop at a fixed rank: A40 has 820 positive roots
# and takes about 0.1 s to build; the time grows roughly with the cube of
# the rank.
MAX_CLASSICAL_RANK = 40

RANK_BOUNDS = {"A": (1, MAX_CLASSICAL_RANK), "B": (2, MAX_CLASSICAL_RANK),
               "C": (2, MAX_CLASSICAL_RANK), "D": (4, MAX_CLASSICAL_RANK),
               "E": (6, 8), "F": (4, 4), "G": (2, 2)}

POSITIVE_ROOT_COUNTS = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": lambda l: {6: 36, 7: 63, 8: 120}[l],
    "F": lambda l: 24,
    "G": lambda l: 6,
}


def _simple_roots(letter: str, rank: int) -> list[list[int]]:
    l = rank
    if letter == "A":
        return [[int(k == i) - int(k == i + 1) for k in range(l + 1)] for i in range(l)]
    if letter in ("B", "C", "D"):  # e_i - e_(i+1), then e_l, 2 e_l or e_(l-1) + e_l
        last = {"B": [1], "C": [2], "D": [1, 1]}[letter]
        return ([[int(k == i) - int(k == i + 1) for k in range(l)] for i in range(l - 1)]
                + [[0] * (l - len(last)) + last])
    if letter == "G":
        return [[1, -1, 0], [-2, 1, 1]]
    if letter == "F":  # doubled coordinates
        return [[0, 2, -2, 0], [0, 0, 2, -2], [0, 0, 0, 2], [1, -1, -1, -1]]
    if letter == "E":  # doubled E8 coordinates, first `rank` simple roots
        e8 = [
            [1, -1, -1, -1, -1, -1, -1, 1],
            [2, 2, 0, 0, 0, 0, 0, 0],
            [-2, 2, 0, 0, 0, 0, 0, 0],
            [0, -2, 2, 0, 0, 0, 0, 0],
            [0, 0, -2, 2, 0, 0, 0, 0],
            [0, 0, 0, -2, 2, 0, 0, 0],
            [0, 0, 0, 0, -2, 2, 0, 0],
            [0, 0, 0, 0, 0, -2, 2, 0],
        ]
        return e8[:rank]
    raise DomainError(f"unknown type {letter!r}")


def _dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


def _add(u, v) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(u, v))


def _positive_roots(simple: list[list[int]]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map the coefficients of each positive root on the simple roots to
    its coordinates, in order of height, by root strings (Humphreys,
    Introduction to Lie Algebras and Representation Theory, 9.4 and 10.2).

    For a positive root b and a simple root a_i, the a_i-string through b
    runs from b - r a_i to b + q a_i with r - q = <b, a_i^>; so b + a_i is
    a root exactly when r > <b, a_i^>.  Every root of height h + 1 is b +
    a_i for some root b of height h, and every b - k a_i lies lower, so
    one pass per height finds them all.
    """
    rank = len(simple)
    # cartan[j][i] = <a_j, a_i^> = 2 (a_j, a_i) / (a_i, a_i)
    cartan = [[2 * _dot(a, b) // _dot(b, b) for b in simple] for a in simple]
    pairings = {}  # positive root -> (<b, a_i^> for every i)
    coords = {}
    for i in range(rank):
        unit = tuple(int(k == i) for k in range(rank))
        pairings[unit] = tuple(cartan[i])
        coords[unit] = tuple(simple[i])
    level = list(coords)
    while level:
        above = []
        for b in level:
            for i in range(rank):
                r = 0
                while b[i] > r and b[:i] + (b[i] - r - 1,) + b[i + 1:] in pairings:
                    r += 1
                if r > pairings[b][i]:
                    up = b[:i] + (b[i] + 1,) + b[i + 1:]
                    if up not in pairings:
                        pairings[up] = _add(pairings[b], cartan[i])
                        coords[up] = _add(coords[b], simple[i])
                        above.append(up)
        level = above
    return coords


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data in Bourbaki simple-root order.

    positive_roots[i] is an integer coordinate vector;
    positive_coeffs[i] its non-negative integer coefficients on the
    simple roots; norms are squared lengths in the (possibly scaled)
    coordinate system.
    """

    letter: str
    rank: int
    simple_roots: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    positive_coeffs: tuple[tuple[int, ...], ...]
    simple_norms: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"{self.letter}{self.rank}"

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def root_norm(self, idx: int) -> int:
        v = self.positive_roots[idx]
        return sum(x * x for x in v)


def parse_group_name(name: str) -> tuple[str, int]:
    name = name.strip()
    if len(name) < 2 or name[0].upper() not in RANK_BOUNDS:
        raise DomainError(f"bad group name {name!r} (expected e.g. 'E6', 'B3')")
    try:
        rank = int(name[1:])
    except ValueError as exc:
        raise DomainError(f"bad group name {name!r}") from exc
    return name[0].upper(), rank


@lru_cache(maxsize=None)
def root_system(letter: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of the given type."""
    letter = letter.upper()
    if letter not in RANK_BOUNDS:
        raise DomainError(f"unknown type {letter!r}")
    lo, hi = RANK_BOUNDS[letter]
    if not lo <= rank <= hi:
        raise DomainError(f"rank {rank} out of range for type {letter} ({lo} to {hi})")

    simple = _simple_roots(letter, rank)
    roots = _positive_roots(simple)

    expected = POSITIVE_ROOT_COUNTS[letter](rank)
    if len(roots) != expected:
        raise RuntimeError(
            f"{letter}{rank}: found {len(roots)} positive roots, expected {expected}")
    norms = tuple(_dot(s, s) for s in simple)
    return RootSystem(letter, rank, tuple(tuple(s) for s in simple),
                      tuple(roots.values()), tuple(roots), norms)


def weyl_dim(rs: RootSystem, weight: tuple[int, ...]) -> int:
    """Weyl dimension formula in exact rational arithmetic.

    ``weight`` holds the coefficients of the fundamental weights.  For a
    positive root a = sum n_j a_j, the pairing <w_i, a^> equals
    n_i |a_i|^2 / |a|^2, so every factor is a ratio of small integers.
    """
    if len(weight) != rs.rank:
        raise DomainError(f"weight has {len(weight)} coordinates, rank is {rs.rank}")
    if any(c < 0 for c in weight):
        raise DomainError(f"weight must be dominant (non-negative), got {weight}")
    num = Fraction(1)
    for idx, coeff in enumerate(rs.positive_coeffs):
        norm = rs.root_norm(idx)
        lam_plus_rho = sum((weight[j] + 1) * coeff[j] * rs.simple_norms[j]
                           for j in range(rs.rank))
        rho = sum(coeff[j] * rs.simple_norms[j] for j in range(rs.rank))
        num *= Fraction(lam_plus_rho, norm) / Fraction(rho, norm)
    if num.denominator != 1:
        raise RuntimeError(f"Weyl dimension came out non-integral: {num}")
    return int(num)


def quasi_minuscule_weight(rs: RootSystem) -> tuple[int, ...]:
    """The quasi-minuscule weight: the highest short root, in
    fundamental-weight coordinates."""
    min_norm = min(rs.root_norm(i) for i in range(rs.num_positive_roots))
    best = None
    best_height = -1
    for i in range(rs.num_positive_roots):
        if rs.root_norm(i) != min_norm:
            continue
        height = sum(rs.positive_coeffs[i])
        if height > best_height:
            best_height = height
            best = rs.positive_roots[i]
    # express in fundamental weights: c_i = 2 <a, a_i> / |a_i|^2
    out = []
    for j in range(rs.rank):
        c = Fraction(2 * _dot(best, rs.simple_roots[j]), rs.simple_norms[j])
        if c.denominator != 1 or c < 0:
            raise RuntimeError(f"highest short root not dominant-integral: {best}")
        out.append(int(c))
    return tuple(out)


def weight_name(weight: tuple[int, ...]) -> str:
    parts = []
    for i, c in enumerate(weight, start=1):
        if c == 1:
            parts.append(f"w{i}")
        elif c > 1:
            parts.append(f"{c}*w{i}")
    return "+".join(parts) if parts else "0"


def _trivial_count(rs: RootSystem, p: int) -> int:
    """Number of trivial composition factors of the quasi-minuscule Weyl
    module, by type and characteristic."""
    l = rs.rank
    letter = rs.letter
    if letter == "A":
        return 1 if (l + 1) % p == 0 else 0
    if letter == "B":
        return 1 if p == 2 else 0
    if letter == "C":
        return 1 if l % p == 0 else 0
    if letter == "D":
        if p != 2:
            return 0
        return 2 if l % 2 == 0 else 1
    if letter == "G":
        return 1 if p == 2 else 0
    if letter == "F":
        return 1 if p == 3 else 0
    if letter == "E":
        if rs.rank == 6:
            return 1 if p == 3 else 0
        if rs.rank == 7:
            return 1 if p == 2 else 0
        return 0
    raise DomainError(f"unknown type {letter!r}")


STRUCTURE_NAMES = {0: "Irreducible", 1: "OneTrivial", 2: "TwoTrivial"}


@dataclass(frozen=True)
class QmStructure:
    """Structure of the quasi-minuscule Weyl and tilting modules."""

    group: str
    p: int
    weight: tuple[int, ...]
    weight_name: str
    weyl_structure: str      # Irreducible | OneTrivial | TwoTrivial
    weyl_series: str
    tilting_series: str
    dim_weyl: int
    dim_simple: int
    dim_tilting: int


def qm_structure(rs: RootSystem, p: int) -> QmStructure:
    """Weyl/simple/tilting dimensions and socle series at the
    quasi-minuscule weight, in characteristic p."""
    check_prime(p)
    weight = quasi_minuscule_weight(rs)
    dim_v = weyl_dim(rs, weight)
    t = _trivial_count(rs, p)
    name = weight_name(weight)
    lam = f"L({name})"
    if t == 0:
        weyl_series = lam
        tilt_series = lam
    elif t == 1:
        weyl_series = f"{lam} | L(0)"
        tilt_series = f"L(0) | {lam} | L(0)"
    else:
        weyl_series = f"{lam} | L(0)^2"
        tilt_series = f"L(0)^2 | {lam} | L(0)^2"
    return QmStructure(
        group=rs.name, p=p, weight=weight, weight_name=name,
        weyl_structure=STRUCTURE_NAMES[t],
        weyl_series=weyl_series, tilting_series=tilt_series,
        dim_weyl=dim_v, dim_simple=dim_v - t, dim_tilting=dim_v + t,
    )


def adjoint_dimension(letter: str, rank: int) -> int:
    """Dimension of the adjoint module: root count plus rank."""
    rs = root_system(letter, rank)
    return 2 * rs.num_positive_roots + rs.rank


MINIMAL_MODULE_DIMS = {"G2": 7, "F4": 26, "E6": 27, "E7": 56, "E8": 248}


def module_dimension(letter: str, rank: int, tag: str) -> int:
    """Dimension of a tagged module used for class-table validation."""
    if tag == "adjoint":
        return adjoint_dimension(letter, rank)
    if tag == "natural":
        if letter == "A":
            return rank + 1
        if letter == "B":
            return 2 * rank + 1
        if letter in ("C", "D"):
            return 2 * rank
        raise DomainError(f"no natural module tag for type {letter}")
    if tag == "minimal":
        name = f"{letter}{rank}"
        if name in MINIMAL_MODULE_DIMS:
            return MINIMAL_MODULE_DIMS[name]
        raise DomainError(f"no tabulated minimal module for {name}")
    raise DomainError(f"unknown module tag {tag!r}")
