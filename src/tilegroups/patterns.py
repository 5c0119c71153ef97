"""The point-set semigroup of doubly-pointed finite pattern classes.

Elements are translation classes of (out point, finite pattern, in point),
multiplied by aligning the in point of the left factor with the out point
of the right factor and embedding the union back into the point set.
Products are decided against the truncated set; an optional window oracle
(from the cut-and-project machinery) upgrades the answer to a
Defined/Undefined that is exact for the model set of the oracle's scheme.
The rational ``fibonacci_scheme()`` answers for another set than the
Fibonacci chain (ROADMAP item 3).

A class is stored in its frame, as a ``WindowSet`` is: its offsets as
sorted integer pairs (a, b) for (a + b*sqrt(d))/c in lowest terms, so
equal classes are equal tuples whichever frame built them.  An order test
is the ``QR.int_sign`` of a pair difference, and exact values are built
only as views.  The exactnum kernels join two classes' frames at the lcm,
cut a product to lowest terms and place a class in a point set's frame.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ._record import Record
from .exactnum import QuadraticRational as QR, _join, _lowest, _make, _place, common_denominator
from .pointset import DiffElement, PointSet1D, diff_set
from .sequences import TruncationError

_sign = QR.int_sign


class PatternClass(Record):
    """Canonical representative of a translation class in its frame: c, d
    and the strictly increasing offset ``pairs``, the least (0, 0), in
    lowest terms, with out/in given as positions into them; ``offsets``,
    ``out_value`` and ``in_value`` are views."""

    c: int
    d: int
    pairs: tuple[tuple[int, int], ...]
    out_index: int
    in_index: int

    def __init__(self, offsets: Sequence[QR], out_index: int, in_index: int):
        if not offsets:
            raise ValueError("pattern must be non-empty")
        c, d, pairs = common_denominator(offsets)
        if any(_sign(a2 - a, b2 - b, d) <= 0 for (a, b), (a2, b2) in zip(pairs, pairs[1:])):
            raise ValueError("offsets must be strictly increasing")
        if pairs[0] != (0, 0):
            raise ValueError("canonical form requires minimum offset 0")
        if not (0 <= out_index < len(pairs) and 0 <= in_index < len(pairs)):
            raise ValueError("pointed index out of range")
        self.__dict__.update(c=c, d=d, pairs=tuple(pairs), out_index=out_index, in_index=in_index)

    @property
    def offsets(self) -> tuple[QR, ...]:
        return tuple(_make(a, b, self.c, self.d) for a, b in self.pairs)

    @property
    def out_value(self) -> QR:
        return _make(*self.pairs[self.out_index], self.c, self.d)

    @property
    def in_value(self) -> QR:
        return _make(*self.pairs[self.in_index], self.c, self.d)


def _cut(c: int, d: int, pairs, out_index: int, in_index: int) -> PatternClass:
    """The class of increasing pairs over c with indices in range, moved to
    start at (0, 0) and cut to lowest terms."""
    a0, b0 = pairs[0]
    c, d, pairs = _lowest(c, d, [(a - a0, b - b0) for a, b in pairs])
    x = object.__new__(PatternClass)
    x.__dict__.update(c=c, d=d, pairs=pairs, out_index=out_index, in_index=in_index)
    return x


def pattern_class(values: list[QR], out_value: QR, in_value: QR) -> PatternClass:
    """Canonicalize arbitrary point values into a PatternClass."""
    pts = sorted(set(values))
    try:
        out_index, in_index = pts.index(out_value), pts.index(in_value)
    except ValueError:
        raise ValueError("pointed values must belong to the pattern") from None
    return _cut(*common_denominator(pts), out_index, in_index)


def make_element(ps: PointSet1D, indices: list[int], out: int, in_: int) -> PatternClass:
    """Pattern class from point indices of the truncated set, whose index
    order is value order."""
    if not indices:
        raise ValueError("empty point subset")
    if out not in indices or in_ not in indices:
        raise ValueError("out/in indices must belong to the subset")
    chosen = sorted(set(indices))
    for i in chosen[0], chosen[-1]:
        if not ps.min_index <= i <= ps.max_index:
            raise TruncationError(f"point index {i} outside truncation")
    c, d, pairs = ps.frame
    return _cut(c, d, [pairs[i - ps.min_index] for i in chosen], chosen.index(out), chosen.index(in_))


def inverse(x: PatternClass) -> PatternClass:
    return _cut(x.c, x.d, x.pairs, x.in_index, x.out_index)


def is_idempotent(x: PatternClass) -> bool:
    return x.out_index == x.in_index


def pointed_difference(x: PatternClass) -> QR:
    """The difference of the pointed points; the morphism onto the
    group generated by all differences."""
    (oa, ob), (ia, ib) = x.pairs[x.out_index], x.pairs[x.in_index]
    return _make(oa - ia, ob - ib, x.c, x.d)


def max_above(x: PatternClass) -> PatternClass:
    """Drop all unpointed points; the unique maximal element above x."""
    kept = sorted({x.out_index, x.in_index})
    return _cut(x.c, x.d, [x.pairs[i] for i in kept], kept.index(x.out_index), kept.index(x.in_index))


def natural_leq(x: PatternClass, y: PatternClass) -> bool:
    """x <= y iff a translate aligns the pointed pairs and y's pattern is
    contained in x's."""
    _, _, xs, ys = _join((x.c, x.d, x.pairs), (y.c, y.d, y.pairs))
    (xa, xb), (ya, yb) = xs[x.in_index], ys[y.in_index]
    sa, sb, (ya, yb), members = xa - ya, xb - yb, ys[y.out_index], set(xs)
    return xs[x.out_index] == (ya + sa, yb + sb) and all((a + sa, b + sb) in members for a, b in ys)


class ProductResult(Record):
    """Outcome of a pattern product: 'defined' carries the result; 'unknown'
    means no embedding inside this truncation; 'undefined' is an exact
    global claim (empty acceptance window)."""

    status: str
    value: Optional[PatternClass] = None

    @property
    def is_defined(self) -> bool:
        return self.status == "defined"


DEFINED, UNDEFINED, UNKNOWN = "defined", "undefined", "unknown"


def _embeds(ps: PointSet1D, x: PatternClass) -> bool:
    """Whether p + the offsets of x lies in the truncated set for some
    point p: a pair past either end of the truncation is simply not a key
    of the pair index.  Offsets whose frame does not divide the set's are
    no differences of its points."""
    c, d, pairs = ps.frame
    offsets, index = _place((x.c, x.d, x.pairs[1:]), c, d), ps._index_of
    return offsets is not None and any(all((pa + a, pb + b) in index for a, b in offsets) for pa, pb in pairs)


def multiply(
    x: PatternClass,
    y: PatternClass,
    ps: PointSet1D,
    embeds_oracle: Optional[Callable[[Sequence[QR]], bool]] = None,
) -> ProductResult:
    """Product in the pattern-class semigroup over the truncated set.

    Over the lcm of the two frames, the sorted pairs of x and those of y
    shifted by in(x) - out(y) are merged, one ``int_sign`` test a step,
    and the union is cut to lowest terms once.  Its offsets are the union
    less its least point, a difference of two pattern points and so a
    lattice vector; "embeds anywhere" does not change under such a
    translation, so the truncated search and embeds_oracle both take them.
    embeds_oracle, when given, decides whether a sequence of pattern values
    embeds anywhere in the model set of its scheme (cut-and-project window
    calculus); it turns a failed truncated search into a Defined or
    Undefined answer, exact when that model set is the point set (ROADMAP
    item 3: not so for the rational ``fibonacci_scheme()`` and the chain).
    """
    c, d, xs, ys = _join((x.c, x.d, x.pairs), (y.c, y.d, y.pairs))
    (xa, xb), (ya, yb) = xs[x.in_index], ys[y.out_index]
    ys = [(a + xa - ya, b + xb - yb) for a, b in ys]
    merged, at_x, at_y, i, j, nx, ny = [], [], [], 0, 0, len(xs), len(ys)
    while i < nx or j < ny:
        # the sign of the next y less the next x; an exhausted side never wins
        s = 1 if j == ny else -1 if i == nx else _sign(ys[j][0] - xs[i][0], ys[j][1] - xs[i][1], d)
        if s >= 0:
            at_x.append(len(merged))
        if s <= 0:
            at_y.append(len(merged))
        merged.append(xs[i] if s >= 0 else ys[j])
        i, j = i + (s >= 0), j + (s <= 0)
    result = _cut(c, d, merged, at_x[x.out_index], at_y[y.in_index])
    if _embeds(ps, result) or (embeds_oracle is not None and embeds_oracle(result.offsets)):
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
    return make_element(ps, [i, j], i, j)
