"""Class-table loading, validation and lookup."""

import warnings

import pytest

from unipjordan.classtables import (
    TableFormatError,
    bundled_table,
    identify_class,
    identify_from_expr,
    load_class_table,
)
from unipjordan.core import parse_partition
from unipjordan.expr import parse_expr

WORKED_EXPR = "L(14)+T(10)+V(10)+V(10)^*+T(6)+L(4)+L(4)+L(0)"


def write_table(tmp_path, text):
    path = tmp_path / "classes.tsv"
    path.write_text(text, encoding="utf-8")
    return path


def test_bundled_table_is_valid():
    table = bundled_table()
    assert len(table.entries) == 2
    groups = {e.group for e in table.entries}
    assert groups == {"E6", "E7"}


def test_bundled_lookups():
    table = bundled_table()
    hit = identify_class(table, "E6", 5, "adjoint", parse_partition("5^15 1^3", 5))
    assert hit and hit.label == "A_4"
    hit = identify_class(table, "E7", 2, "adjoint",
                         parse_partition("32 26 22 18 16 10 8 1", 2))
    assert hit and hit.label == "regular"


def test_not_found_with_nearest_diagnostics():
    table = bundled_table()
    miss = identify_class(table, "E6", 5, "adjoint", parse_partition("5^15 2 1", 5))
    assert not miss and miss.label is None
    assert miss.nearest and miss.nearest[0][1].label == "A_4"
    assert miss.nearest[0][0] == 3  # J_2 added, a J_1 removed vs 1^3


def test_load_valid_file(tmp_path):
    path = write_table(tmp_path, "# comment\nE6\t5\tadjoint\t5^15 1^3\tA_4\ttest\n\n")
    table = load_class_table(path)
    assert len(table.entries) == 1
    assert table.entries[0].p == 5


def test_empty_file(tmp_path):
    table = load_class_table(write_table(tmp_path, "# nothing here\n"))
    assert table.entries == []


def test_wildcard_and_shadowing(tmp_path):
    path = write_table(
        tmp_path,
        "E6\t*\tadjoint\t5^15 1^3\twild\tsrc\n"
        "E6\t5\tadjoint\t5^15 1^3\texact\tsrc\n")
    table = load_class_table(path)
    assert identify_class(table, "E6", 5, "adjoint",
                          parse_partition("5^15 1^3", 5)).label == "exact"
    assert identify_class(table, "E6", 7, "adjoint",
                          parse_partition("5^15 1^3", 7)).label == "wild"


def test_dimension_check(tmp_path):
    # 77 != 78 for the E6 adjoint module
    path = write_table(tmp_path, "E6\t5\tadjoint\t5^15 1^2\tA_4\tsrc\n")
    with pytest.raises(TableFormatError) as err:
        load_class_table(path)
    assert "77" in str(err.value) and ":1:" in str(err.value)


def test_parse_error_carries_line_number(tmp_path):
    path = write_table(tmp_path, "# ok\nE6\t5\tadjoint\t5^15 1^3\tA_4\n")
    with pytest.raises(TableFormatError) as err:
        load_class_table(path)
    assert ":2:" in str(err.value)


def test_non_canonical_partition_rejected(tmp_path):
    for text in ("1^3 5^15", "5^15 1 1 1", "5^15  1^3"):
        path = write_table(tmp_path, f"E6\t5\tadjoint\t{text}\tA_4\tsrc\n")
        with pytest.raises(TableFormatError):
            load_class_table(path)


def test_characteristic_in_ascii_digits_only(tmp_path):
    for p_str in ("\u0665", "0_5", "5.0"):
        path = write_table(tmp_path, f"E6\t{p_str}\tadjoint\t5^15 1^3\tA_4\tsrc\n")
        with pytest.raises(TableFormatError, match="bad characteristic"):
            load_class_table(path)


def test_duplicate_key_rejected(tmp_path):
    path = write_table(
        tmp_path,
        "E6\t5\tadjoint\t5^15 1^3\tA_4\tsrc\n"
        "E6\t5\tadjoint\t5^15 1^3\tother\tsrc\n")
    with pytest.raises(TableFormatError) as err:
        load_class_table(path)
    assert "duplicate" in str(err.value)


def test_bad_characteristic_and_tag(tmp_path):
    with pytest.raises(TableFormatError):
        load_class_table(write_table(tmp_path, "E6\t4\tadjoint\t5^15 1^3\tA_4\tsrc\n"))
    with pytest.raises(TableFormatError):
        load_class_table(write_table(tmp_path, "E6\t5\tspin\t5^15 1^3\tA_4\tsrc\n"))


def test_identify_from_expr_end_to_end():
    table = bundled_table()
    jordan, result = identify_from_expr(table, "E6", 5, parse_expr(WORKED_EXPR))
    assert str(jordan) == "5^15 1^3"
    assert result.label == "A_4"


def test_identify_from_expr_dimension_warning():
    table = bundled_table()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        jordan, result = identify_from_expr(table, "E6", 5, parse_expr("L(4)+L(0)"))
    assert len(caught) == 1 and "dimension" in str(caught[0].message)
    assert jordan.dim == 6
    assert not result


def test_identify_from_expr_unknown_label():
    table = bundled_table()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, result = identify_from_expr(table, "E6", 5, parse_expr("T(4)*V(5)  "))
    assert result.label is None


def test_identify_trivial_restriction_misses():
    table = bundled_table()
    expr = "+".join(["L(0)"] * 78)
    jordan, result = identify_from_expr(table, "E6", 5, parse_expr(expr))
    assert jordan.dim == 78 and str(jordan) == "1^78"
    assert result.label is None
