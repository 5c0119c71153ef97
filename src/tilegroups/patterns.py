"""The point-set semigroup of doubly-pointed finite pattern classes.

Elements are translation classes of (out point, finite pattern, in point),
multiplied by aligning the in point of the left factor with the out point
of the right factor and embedding the union back into the point set.
Products are decided against the truncated set; an optional window oracle
(from the cut-and-project machinery) upgrades the answer to an exact
Defined/Undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .exactnum import QuadraticRational as QR
from .pointset import DiffElement, PointSet1D, diff_set


@dataclass(frozen=True)
class PatternClass:
    """Canonical representative of a translation class: offsets sorted with
    minimum 0, out/in given as positions into the offsets."""

    offsets: tuple[QR, ...]
    out_index: int
    in_index: int

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("pattern must be non-empty")
        if any(b <= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("offsets must be strictly increasing")
        if self.offsets[0]:
            raise ValueError("canonical form requires minimum offset 0")
        for idx in (self.out_index, self.in_index):
            if not 0 <= idx < len(self.offsets):
                raise ValueError("pointed index out of range")

    @property
    def out_value(self) -> QR:
        return self.offsets[self.out_index]

    @property
    def in_value(self) -> QR:
        return self.offsets[self.in_index]


def pattern_class(values: list[QR], out_value: QR, in_value: QR) -> PatternClass:
    """Canonicalize arbitrary point values into a PatternClass."""
    pts = sorted(set(values))
    try:
        out_index, in_index = pts.index(out_value), pts.index(in_value)
    except ValueError:
        raise ValueError("pointed values must belong to the pattern") from None
    base = pts[0]
    return _pattern(tuple(p - base for p in pts), out_index, in_index)


def _pattern(offsets: tuple[QR, ...], out_index: int, in_index: int) -> PatternClass:
    """A PatternClass whose offsets are known to be canonical and whose
    indices are in range: skips the checks."""
    x = object.__new__(PatternClass)
    object.__setattr__(x, "offsets", offsets)
    object.__setattr__(x, "out_index", out_index)
    object.__setattr__(x, "in_index", in_index)
    return x


def make_element(ps: PointSet1D, indices: list[int], out: int, in_: int) -> PatternClass:
    """Pattern class from point indices of the truncated set."""
    if not indices:
        raise ValueError("empty point subset")
    if out not in indices or in_ not in indices:
        raise ValueError("out/in indices must belong to the subset")
    values = [ps.point(i) for i in indices]
    return pattern_class(values, ps.point(out), ps.point(in_))


def inverse(x: PatternClass) -> PatternClass:
    return _pattern(x.offsets, x.in_index, x.out_index)


def is_idempotent(x: PatternClass) -> bool:
    return x.out_index == x.in_index


def pointed_difference(x: PatternClass) -> QR:
    """The difference of the pointed points; the morphism onto the
    group generated by all differences."""
    return x.out_value - x.in_value


def max_above(x: PatternClass) -> PatternClass:
    """Drop all unpointed points; the unique maximal element above x."""
    return pattern_class([x.out_value, x.in_value], x.out_value, x.in_value)


def natural_leq(x: PatternClass, y: PatternClass) -> bool:
    """x <= y iff a translate aligns the pointed pairs and y's pattern is
    contained in x's."""
    if pointed_difference(x) != pointed_difference(y):
        return False
    shift = x.in_value - y.in_value
    xs = set(x.offsets)
    return all((v + shift) in xs for v in y.offsets) and x.out_value == y.out_value + shift


@dataclass(frozen=True)
class ProductResult:
    """Outcome of a pattern product: 'defined' carries the result; 'unknown'
    means no embedding inside this truncation; 'undefined' is an exact
    global claim (empty acceptance window)."""

    status: str
    value: Optional[PatternClass] = None

    @property
    def is_defined(self) -> bool:
        return self.status == "defined"


DEFINED, UNDEFINED, UNKNOWN = "defined", "undefined", "unknown"


def _embeds(ps: PointSet1D, offsets: tuple[QR, ...]) -> bool:
    """Whether p + offsets lies in the truncated set for some point p, the
    offsets canonical (the least is 0): a value past either end of the
    truncation is simply not a key of the point index."""
    index = ps._index_of
    return any(all(p + o in index for o in offsets) for p in ps.points)


def multiply(
    x: PatternClass,
    y: PatternClass,
    ps: PointSet1D,
    embeds_oracle: Optional[Callable[[Sequence[QR]], bool]] = None,
) -> ProductResult:
    """Product in the pattern-class semigroup over the truncated set.

    The union of x and of y shifted by in(x) - out(y) is canonicalised once.
    Its offsets are the union in x's frame less min(0, shift), a difference
    of two pattern points and so a lattice vector; "embeds anywhere" does
    not change under such a translation, so the truncated search and
    embeds_oracle both take them.  embeds_oracle, when given, decides
    exactly whether a sequence of pattern values embeds anywhere in the
    infinite set (cut-and-project window calculus); it turns a failed
    truncated search into an exact Defined or Undefined answer.
    """
    shift = x.in_value - y.out_value
    result = pattern_class([*x.offsets, *(v + shift for v in y.offsets)], x.out_value, y.in_value + shift)
    if _embeds(ps, result.offsets) or (embeds_oracle is not None and embeds_oracle(result.offsets)):
        return ProductResult(DEFINED, result)
    return ProductResult(UNKNOWN if embeds_oracle is None else UNDEFINED)


def maxset_table(ps: PointSet1D, bound: QR) -> dict[tuple[QR, QR], QR]:
    """The partial-operation table of chained differences with |value| <=
    bound: the group-like set of maximal pattern classes in coordinates.
    a and b chain iff a witness of a ends where one of b starts (witness
    lists are complete), so joining witness indices decides each product."""
    elems = diff_set(ps, bound)
    values = {e.value for e in elems}
    seconds = [{j for _, j in e.witnesses} for e in elems]
    firsts = [{i for i, _ in e.witnesses} for e in elems]
    table: dict[tuple[QR, QR], QR] = {}
    for a, a_seconds in zip(elems, seconds):
        for b, b_firsts in zip(elems, firsts):
            if not a_seconds.isdisjoint(b_firsts) and (total := a.value + b.value) in values:
                table[(a.value, b.value)] = total
    return table


def max_class_of(diff: DiffElement, ps: PointSet1D) -> PatternClass:
    """The maximal pattern class of a difference y - x: the two-point
    pattern pointed out at y and in at x."""
    i, j = diff.witnesses[0]
    y, x = ps.point(i), ps.point(j)
    return pattern_class([y, x], y, x)
