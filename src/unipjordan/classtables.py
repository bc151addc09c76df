"""Unipotent class lookup: Jordan type on a tabulated module -> class label.

Tables are TSV (UTF-8, '#' comments) with columns
group, p ('*' for any characteristic), module tag (adjoint / minimal /
natural), partition ("s1^m1 s2^m2 ..." descending), label, source.
Partitions must round-trip bit-exactly through the canonical renderer.
Rows with an explicit p shadow wildcard rows.

The bundled table carries only the entries needed by the worked
identifications; anything further is user-supplied data, never
fabricated here.
"""

from __future__ import annotations

import importlib.resources
import warnings
from dataclasses import dataclass, field
from typing import Optional

from .core import DomainError, JordanType, check_prime, parse_blocks, parse_int, render_blocks
from .expr import ModuleExpr
from .rootdata import module_dimension, parse_group_name
from .sl2 import EvalResult, eval_expr

MODULE_TAGS = ("adjoint", "minimal", "natural")


class TableFormatError(DomainError):
    """Malformed class table; message carries the offending line number."""


Partition = tuple[tuple[int, int], ...]  # ((size, mult), ...) descending


@dataclass(frozen=True)
class ClassEntry:
    group: str                 # e.g. "E6", "D4"
    p: Optional[int]           # None = wildcard
    module_tag: str
    partition: Partition
    label: str
    source: str

    @property
    def dim(self) -> int:
        return sum(s * m for s, m in self.partition)


@dataclass
class ClassTable:
    entries: list[ClassEntry] = field(default_factory=list)

    def lookup(self, group: str, p: int, module_tag: str,
               partition: Partition) -> Optional[ClassEntry]:
        exact = wildcard = None
        for e in self.entries:
            if e.group != group or e.module_tag != module_tag or e.partition != partition:
                continue
            if e.p == p:
                exact = e
            elif e.p is None:
                wildcard = e
        return exact if exact is not None else wildcard


def load_class_table(path) -> ClassTable:
    """Load and validate a TSV class table.

    Raises TableFormatError naming the path if the file cannot be read
    as UTF-8 text, and with a line number on parse problems, dimension
    mismatches against the tabulated module dimension, or duplicate keys.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise TableFormatError(
            f"{path}: cannot read class table: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"{path}: class table is not UTF-8 text: {exc}") from exc
    entries = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 6:
            raise TableFormatError(
                f"{path}:{lineno}: expected 6 tab-separated columns, got {len(cols)}")
        group, p_str, tag, part_str, label, source = (c.strip() for c in cols)
        try:
            letter, rank = parse_group_name(group)
        except DomainError as exc:
            raise TableFormatError(f"{path}:{lineno}: {exc}") from exc
        if p_str == "*":
            p = None
        else:
            try:
                p = check_prime(parse_int(p_str))
            except (ValueError, DomainError) as exc:
                raise TableFormatError(
                    f"{path}:{lineno}: bad characteristic {p_str!r}") from exc
        if tag not in MODULE_TAGS:
            raise TableFormatError(
                f"{path}:{lineno}: unknown module tag {tag!r}")
        try:
            partition = tuple(parse_blocks(part_str))
        except DomainError as exc:
            raise TableFormatError(f"{path}:{lineno}: {exc}") from exc
        sizes = [s for s, _ in partition]
        # bit-exact round trip through the renderer, sizes strictly descending
        if (render_blocks(partition) != part_str
                or sorted(set(sizes), reverse=True) != sizes):
            raise TableFormatError(
                f"{path}:{lineno}: partition {part_str!r} is not in canonical form")
        entry = ClassEntry(f"{letter}{rank}", p, tag, partition, label, source)
        expected = module_dimension(letter, rank, tag)
        if entry.dim != expected:
            raise TableFormatError(
                f"{path}:{lineno}: partition sums to {entry.dim}, "
                f"but the {tag} module of {group} has dimension {expected}")
        key = (entry.group, entry.p, entry.module_tag, entry.partition)
        if key in seen:
            raise TableFormatError(f"{path}:{lineno}: duplicate key {key}")
        seen.add(key)
        entries.append(entry)
    return ClassTable(entries)


def bundled_table() -> ClassTable:
    """The table shipped with the package."""
    ref = importlib.resources.files("unipjordan").joinpath("data/classes.tsv")
    with importlib.resources.as_file(ref) as path:
        return load_class_table(path)


@dataclass(frozen=True)
class LookupResult:
    label: Optional[str]
    entry: Optional[ClassEntry] = None
    nearest: tuple[tuple[int, ClassEntry], ...] = ()

    def __bool__(self) -> bool:
        return self.label is not None


def _partition_distance(a: Partition, b: Partition) -> int:
    """Size of the multiset symmetric difference of the block lists."""
    da = dict(a)
    db = dict(b)
    return sum(abs(da.get(s, 0) - db.get(s, 0)) for s in set(da) | set(db))


def identify_class(table: ClassTable, group: str, p: int, module_tag: str,
                   t: JordanType) -> LookupResult:
    """Exact-match lookup; on a miss, report the nearest entries of the
    same group and module as diagnostics."""
    check_prime(p)
    partition = tuple(t.blocks)
    hit = table.lookup(group, p, module_tag, partition)
    if hit is not None:
        return LookupResult(hit.label, hit)
    candidates = [e for e in table.entries
                  if e.group == group and e.module_tag == module_tag
                  and e.p in (None, p)]
    ranked = sorted(((_partition_distance(partition, e.partition), e)
                     for e in candidates), key=lambda pair: (pair[0], pair[1].label))
    return LookupResult(None, nearest=tuple(ranked[:3]))


def identify_from_expr(table: ClassTable, group: str, p: int, e: ModuleExpr,
                       module_tag: str = "adjoint") -> tuple[JordanType, LookupResult]:
    """Full pipeline: evaluate the module expression, then look the Jordan
    type up in the class table.

    A mismatch between the expression dimension and the tagged module
    dimension of the group is reported as a warning, not an error; the
    lookup then simply misses.
    """
    letter, rank = parse_group_name(group)
    result: EvalResult = eval_expr(e, p)
    expected = module_dimension(letter, rank, module_tag)
    if result.dim != expected:
        warnings.warn(
            f"expression dimension {result.dim} does not match the {module_tag} "
            f"module of {group} (dimension {expected})", stacklevel=2)
    return result.jordan, identify_class(table, f"{letter}{rank}", p, module_tag,
                                         result.jordan)
