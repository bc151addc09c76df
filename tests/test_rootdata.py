"""Root systems, Weyl dimension formula, quasi-minuscule structure."""

import pytest

from unipjordan.core import DomainError
from unipjordan.rootdata import (
    MAX_CLASSICAL_RANK,
    RANK_BOUNDS,
    _trivial_count,
    adjoint_dimension,
    module_dimension,
    parse_group_name,
    qm_structure,
    quasi_minuscule_weight,
    root_system,
    weight_name,
    weyl_dim,
)

ALL_SYSTEMS = ([("A", l) for l in range(1, 13)] + [("B", l) for l in range(2, 13)]
               + [("C", l) for l in range(2, 13)] + [("D", l) for l in range(4, 13)]
               + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def test_positive_root_counts():
    expected = {"A": lambda l: l * (l + 1) // 2, "B": lambda l: l * l,
                "C": lambda l: l * l, "D": lambda l: l * (l - 1),
                "E": lambda l: {6: 36, 7: 63, 8: 120}[l],
                "F": lambda l: 24, "G": lambda l: 6}
    for letter, rank in ALL_SYSTEMS:
        rs = root_system(letter, rank)
        assert rs.num_positive_roots == expected[letter](rank)


def test_positive_roots_have_nonnegative_coefficients():
    for letter, rank in [("A", 3), ("B", 4), ("C", 3), ("D", 5),
                         ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]:
        rs = root_system(letter, rank)
        for coeffs in rs.positive_coeffs:
            assert all(c >= 0 for c in coeffs)
            assert any(c > 0 for c in coeffs)


def test_simple_reflections_permute_the_roots():
    # checked without the root strings: each s_i(b) = b - <b, a_i^> a_i
    # maps the roots into (so onto) themselves, and each root's
    # coordinates are its coefficients applied to the simple roots
    for letter, rank in ALL_SYSTEMS:
        rs = root_system(letter, rank)
        for v, c in zip(rs.positive_roots, rs.positive_coeffs):
            assert v == tuple(sum(cj * s[k] for cj, s in zip(c, rs.simple_roots))
                              for k in range(len(v)))
        roots = set(rs.positive_roots) | {tuple(-x for x in v) for v in rs.positive_roots}
        for a, norm in zip(rs.simple_roots, rs.simple_norms):
            for v in roots:
                twice = 2 * sum(x * y for x, y in zip(v, a))
                assert twice % norm == 0
                assert tuple(x - twice // norm * y for x, y in zip(v, a)) in roots


def test_rank_bounds_enforced():
    for letter in "ABCD":
        assert root_system(letter, MAX_CLASSICAL_RANK).rank == MAX_CLASSICAL_RANK
    for letter, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 3),
                         ("E", 5), ("E", 9), ("F", 3), ("G", 3),
                         ("A", MAX_CLASSICAL_RANK + 1), ("B", MAX_CLASSICAL_RANK + 1),
                         ("C", MAX_CLASSICAL_RANK + 1), ("D", 10 ** 30)]:
        with pytest.raises(DomainError):
            root_system(letter, rank)
    with pytest.raises(DomainError):
        root_system("H", 4)


def test_quasi_minuscule_weights_match_the_table():
    assert quasi_minuscule_weight(root_system("A", 5)) == (1, 0, 0, 0, 1)
    assert quasi_minuscule_weight(root_system("A", 1)) == (2,)
    for l in (2, 5, 12):
        assert quasi_minuscule_weight(root_system("B", l)) == \
            tuple([1] + [0] * (l - 1))
    for l in (2, 3, 7):
        assert quasi_minuscule_weight(root_system("C", l)) == \
            tuple([0, 1] + [0] * (l - 2))
    for l in (4, 6, 9):
        assert quasi_minuscule_weight(root_system("D", l)) == \
            tuple([0, 1] + [0] * (l - 2))
    assert quasi_minuscule_weight(root_system("G", 2)) == (1, 0)
    assert quasi_minuscule_weight(root_system("F", 4)) == (0, 0, 0, 1)
    assert quasi_minuscule_weight(root_system("E", 6)) == (0, 1, 0, 0, 0, 0)
    assert quasi_minuscule_weight(root_system("E", 7)) == (1,) + (0,) * 6
    assert quasi_minuscule_weight(root_system("E", 8)) == (0,) * 7 + (1,)


def test_weight_name():
    assert weight_name((1, 0, 0, 0, 1)) == "w1+w5"
    assert weight_name((0, 1)) == "w2"
    assert weight_name((2,)) == "2*w1"
    assert weight_name((0, 0)) == "0"


def test_weyl_dim_key_values():
    assert weyl_dim(root_system("F", 4), (0, 0, 0, 1)) == 26
    assert weyl_dim(root_system("E", 7), (1, 0, 0, 0, 0, 0, 0)) == 133
    assert weyl_dim(root_system("E", 6), (0, 1, 0, 0, 0, 0)) == 78
    assert weyl_dim(root_system("G", 2), (1, 0)) == 7
    assert weyl_dim(root_system("E", 8), (0,) * 7 + (1,)) == 248
    for letter, rank in ALL_SYSTEMS:
        rs = root_system(letter, rank)
        assert weyl_dim(rs, (0,) * rank) == 1


def test_weyl_dim_at_qm_matches_closed_forms():
    closed = {"A": lambda l: l * l + 2 * l, "B": lambda l: 2 * l + 1,
              "C": lambda l: 2 * l * l - l - 1, "D": lambda l: 2 * l * l - l,
              "E": lambda l: {6: 78, 7: 133, 8: 248}[l],
              "F": lambda l: 26, "G": lambda l: 7}
    for letter, rank in ALL_SYSTEMS:
        rs = root_system(letter, rank)
        assert weyl_dim(rs, quasi_minuscule_weight(rs)) == closed[letter](rank)


def test_weyl_dim_counts_short_roots_plus_short_simples():
    # the quasi-minuscule module has one weight per short root plus a
    # zero-weight space of dimension = number of short simple roots
    for letter, rank in ALL_SYSTEMS:
        rs = root_system(letter, rank)
        min_norm = min(rs.root_norm(i) for i in range(rs.num_positive_roots))
        short = sum(1 for i in range(rs.num_positive_roots)
                    if rs.root_norm(i) == min_norm)
        short_simple = sum(1 for n in rs.simple_norms if n == min_norm)
        assert weyl_dim(rs, quasi_minuscule_weight(rs)) == 2 * short + short_simple


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(DomainError):
        weyl_dim(root_system("A", 2), (1, -1))
    with pytest.raises(DomainError):
        weyl_dim(root_system("A", 2), (1,))


def test_weyl_dim_natural_modules():
    assert weyl_dim(root_system("A", 3), (1, 0, 0)) == 4
    assert weyl_dim(root_system("B", 3), (1, 0, 0)) == 7
    assert weyl_dim(root_system("C", 3), (1, 0, 0)) == 6
    assert weyl_dim(root_system("D", 4), (1, 0, 0, 0)) == 8
    assert weyl_dim(root_system("A", 2), (1, 1)) == 8


def tabulated_trivial_count(letter: str, rank: int, p: int) -> int:
    """Trivial composition factors of the quasi-minuscule Weyl module, by
    type, rank and characteristic, as tabulated case by case."""
    if letter == "A":
        return 1 if (rank + 1) % p == 0 else 0
    if letter in ("B", "G"):
        return 1 if p == 2 else 0
    if letter == "C":
        return 1 if rank % p == 0 else 0
    if letter == "D":
        return (2 if rank % 2 == 0 else 1) if p == 2 else 0
    if letter == "F":
        return 1 if p == 3 else 0
    return {6: int(p == 3), 7: int(p == 2), 8: 0}[rank]  # E


PRIMES_BELOW_100 = [p for p in range(2, 100) if all(p % d for d in range(2, p))]


def test_trivial_count_is_the_short_cartan_corank():
    for letter, (lo, hi) in RANK_BOUNDS.items():
        for rank in range(lo, hi + 1):
            rs = root_system(letter, rank)
            for p in PRIMES_BELOW_100:
                assert _trivial_count(rs, p) == tabulated_trivial_count(letter, rank, p), \
                    (rs.name, p)


def test_cartan_matrix_entries():
    # checked on the stored matrix alone, without the root strings
    for letter, rank in ALL_SYSTEMS:
        rs = root_system(letter, rank)
        c, norms = rs.cartan, rs.simple_norms
        assert len(c) == rank and all(len(row) == rank for row in c)
        for i in range(rank):
            assert c[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert c[i][j] <= 0
                    assert (c[i][j] == 0) == (c[j][i] == 0)
                # (a_i, a_j) is symmetric
                assert c[i][j] * norms[j] == c[j][i] * norms[i]


def test_cartan_matrix_of_g2_and_f4():
    assert root_system("G", 2).cartan == ((2, -1), (-3, 2))
    assert root_system("F", 4).cartan == ((2, -1, 0, 0), (-1, 2, -2, 0),
                                          (0, -1, 2, -1), (0, 0, -1, 2))


class TestQmStructure:
    def test_f4(self):
        q = qm_structure(root_system("F", 4), 3)
        assert q.weyl_structure == "OneTrivial"
        assert (q.dim_weyl, q.dim_simple, q.dim_tilting) == (26, 25, 27)
        assert q.tilting_series == "L(0) | L(w4) | L(0)"
        q = qm_structure(root_system("F", 4), 5)
        assert q.weyl_structure == "Irreducible"
        assert q.dim_tilting == 26

    def test_e8_always_irreducible(self):
        for p in (2, 3, 5, 7, 31):
            q = qm_structure(root_system("E", 8), p)
            assert q.weyl_structure == "Irreducible"
            assert q.dim_tilting == 248

    def test_d_series_split_by_parity(self):
        q = qm_structure(root_system("D", 6), 2)
        assert q.weyl_structure == "TwoTrivial"
        assert q.dim_tilting == 68
        assert q.tilting_series == "L(0)^2 | L(w2) | L(0)^2"
        q = qm_structure(root_system("D", 5), 2)
        assert q.weyl_structure == "OneTrivial"
        assert q.dim_tilting == 46
        q = qm_structure(root_system("D", 6), 3)
        assert q.weyl_structure == "Irreducible"

    def test_a_and_c_divisibility_conditions(self):
        assert qm_structure(root_system("A", 4), 5).weyl_structure == "OneTrivial"
        assert qm_structure(root_system("A", 4), 3).weyl_structure == "Irreducible"
        assert qm_structure(root_system("C", 3), 3).weyl_structure == "OneTrivial"
        assert qm_structure(root_system("C", 3), 2).weyl_structure == "Irreducible"
        assert qm_structure(root_system("C", 4), 2).weyl_structure == "OneTrivial"

    def test_b_g_e7_char_two(self):
        assert qm_structure(root_system("B", 3), 2).weyl_structure == "OneTrivial"
        g2 = qm_structure(root_system("G", 2), 2)
        assert g2.weyl_structure == "OneTrivial" and g2.dim_tilting == 8
        e7 = qm_structure(root_system("E", 7), 2)
        assert e7.weyl_structure == "OneTrivial" and e7.dim_tilting == 134

    def test_e6_char_three(self):
        q = qm_structure(root_system("E", 6), 3)
        assert q.weyl_structure == "OneTrivial" and q.dim_tilting == 79

    def test_dim_relations(self):
        for letter, rank in ALL_SYSTEMS:
            for p in (2, 3, 5, 7):
                q = qm_structure(root_system(letter, rank), p)
                t = {"Irreducible": 0, "OneTrivial": 1, "TwoTrivial": 2}[q.weyl_structure]
                assert q.dim_simple == q.dim_weyl - t
                assert q.dim_tilting == q.dim_weyl + t


def test_adjoint_dimensions():
    assert adjoint_dimension("E", 6) == 78
    assert adjoint_dimension("E", 7) == 133
    assert adjoint_dimension("E", 8) == 248
    assert adjoint_dimension("F", 4) == 52
    assert adjoint_dimension("G", 2) == 14
    assert adjoint_dimension("A", 3) == 15
    assert adjoint_dimension("B", 4) == 36


def test_module_dimension_tags():
    assert module_dimension("E", 6, "adjoint") == 78
    assert module_dimension("E", 6, "minimal") == 27
    assert module_dimension("E", 7, "minimal") == 56
    assert module_dimension("B", 3, "natural") == 7
    assert module_dimension("C", 4, "natural") == 8
    assert module_dimension("A", 3, "natural") == 4
    with pytest.raises(DomainError):
        module_dimension("E", 6, "natural")
    with pytest.raises(DomainError):
        module_dimension("A", 3, "minimal")
    with pytest.raises(DomainError):
        module_dimension("A", 3, "spin")


def test_parse_group_name():
    assert parse_group_name("E6") == ("E", 6)
    assert parse_group_name("d12") == ("D", 12)
    for bad in ("E", "6E", "Q4", "Ex", "A1_0", "E+8", "E\u0668", "A 3", "B\u00b2"):
        with pytest.raises(DomainError):
            parse_group_name(bad)
