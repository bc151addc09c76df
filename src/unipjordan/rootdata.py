"""Root systems, the Weyl dimension formula, and quasi-minuscule data.

Root systems are built from explicit simple-root coordinate tables in
the standard (Bourbaki) ordering: the positive roots come from root
strings over those simple roots, in exact integer arithmetic, and their
coordinates are the matching integer combinations of the table rows.
Types F4 and E6/E7/E8 natively use half-integral coordinates; those
coordinate systems are scaled by 2 so every root is an integer vector
(the Weyl dimension formula only uses scale-invariant ratios).  E7 and
E6 take the first 7 and 6 simple roots of the E8 table.

The Cartan matrix is computed once from the table and kept on the
root system; the root strings, the Weyl dimension formula and the
quasi-minuscule data are integer computations on it.  The
quasi-minuscule weight of a system is its highest short root.  Its Weyl
module has as many trivial composition factors as the corank mod p of
the Cartan matrix restricted to the short simple roots (all simple
roots in the simply laced types): zero, one or two.  The corresponding
tilting module adds the same number of trivials on top.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _positive_roots(simple: list[list[int]],
                    cartan: list[list[int]]) -> dict[tuple[int, ...], tuple[int, ...]]:
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
    coordinate system; cartan[i][j] = <a_i, a_j^> = 2 (a_i, a_j) / (a_j, a_j).
    """

    letter: str
    rank: int
    simple_roots: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    positive_coeffs: tuple[tuple[int, ...], ...]
    simple_norms: tuple[int, ...]
    cartan: tuple[tuple[int, ...], ...]

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
    digits = name[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise DomainError(f"bad group name {name!r}")
    return name[0].upper(), int(digits)


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
    cartan = [[2 * _dot(a, b) // _dot(b, b) for b in simple] for a in simple]
    roots = _positive_roots(simple, cartan)

    expected = POSITIVE_ROOT_COUNTS[letter](rank)
    if len(roots) != expected:
        raise RuntimeError(
            f"{letter}{rank}: found {len(roots)} positive roots, expected {expected}")
    norms = tuple(_dot(s, s) for s in simple)
    return RootSystem(letter, rank, tuple(tuple(s) for s in simple),
                      tuple(roots.values()), tuple(roots), norms,
                      tuple(tuple(row) for row in cartan))


def weyl_dim(rs: RootSystem, weight: tuple[int, ...]) -> int:
    """Weyl dimension formula in integer arithmetic.

    ``weight`` holds the coefficients of the fundamental weights.  For a
    positive root a = sum n_j a_j, the pairing <w_j, a^> equals
    n_j |a_j|^2 / |a|^2; the norm |a|^2 cancels from each factor
    <lambda + rho, a^> / <rho, a^>, which leaves two integer sums.
    """
    if len(weight) != rs.rank:
        raise DomainError(f"weight has {len(weight)} coordinates, rank is {rs.rank}")
    if any(c < 0 for c in weight):
        raise DomainError(f"weight must be dominant (non-negative), got {weight}")
    shifted = [(c + 1) * n for c, n in zip(weight, rs.simple_norms)]
    num = den = 1
    for coeff in rs.positive_coeffs:
        num *= _dot(coeff, shifted)
        den *= _dot(coeff, rs.simple_norms)
    dim, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"Weyl dimension came out non-integral: {num}/{den}")
    return dim


def quasi_minuscule_weight(rs: RootSystem) -> tuple[int, ...]:
    """The quasi-minuscule weight: the highest short root, in
    fundamental-weight coordinates c_j = <b, a_j^> = sum_i n_i <a_i, a_j^>."""
    shortest = min(rs.simple_norms)  # every root is W-conjugate to a simple root
    best = max((c for i, c in enumerate(rs.positive_coeffs) if rs.root_norm(i) == shortest),
               key=sum)
    out = tuple(_dot(best, col) for col in zip(*rs.cartan))
    if any(c < 0 for c in out):
        raise RuntimeError(f"highest short root not dominant: {best}")
    return out


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
    module: the corank mod p of the Cartan matrix restricted to the short
    simple roots, by Gaussian elimination over GF(p)."""
    shortest = min(rs.simple_norms)
    short = [i for i, n in enumerate(rs.simple_norms) if n == shortest]
    rows = [[rs.cartan[i][j] % p for j in short] for i in short]
    rank = 0
    for col in range(len(short)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % p
            if f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return len(short) - rank


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
