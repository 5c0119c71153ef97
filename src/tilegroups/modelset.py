"""Cut-and-project machinery with 1-D physical and 1-D internal space.

A scheme embeds the lattice Z^2 into R x R through two basis vectors with
exact coordinates; the star map sends a physical lattice value to its
internal one.  Acceptance windows are finite unions of closed intervals
with exact endpoints, so pattern windows P* = intersection of K - x* and
the empire congruence (equality of pattern windows, which is the kernel
of the projection functor) are decided exactly.  The same window calculus
drives the semigroup of window triples, the generator/relation harvest of
a partial group action, and the nearest-integer obstruction example.

The calculus runs in an integer frame: the least common denominator c and
the one field d of a group basis and a window's ends (a scheme builds its
frame once).  There a value (a + b*sqrt(d))/c is the integer pair (a, b),
a star n*i1 + m*i2 an integer combination of two pairs, and a window a
sorted tuple of disjoint components (lo_a, lo_b, hi_a, hi_b).  Pairs over
one c are canonical, so equal windows are equal tuples and a component has
interior iff its end pairs differ; a translation is an integer addition.
Ends are ordered only in ``_meet`` and the ``WindowSet`` input checks,
each test one ``QR.int_sign``, so containment is a meet with a point.  A
``WindowSet`` stores its frame; the exactnum kernels join frames at their
lcm, cut a window to lowest terms and place a value in a frame.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from operator import and_, itemgetter
from typing import Optional

from ._record import Record
from .exactnum import QuadraticRational as QR, _framed, _join, _lowest, _make, _place, common_denominator, golden_ratio
from .patterns import PatternClass


# ---------------------------------------------------------------------------
# windows

_sign = QR.int_sign


def _window_set(c: int, d: int, w: tuple) -> "WindowSet":
    """The WindowSet of a window of the frame (c, d) in lowest terms,
    unchecked: the calculus keeps components sorted, disjoint, lo <= hi."""
    out = object.__new__(WindowSet)
    out.__dict__.update(zip(("c", "d", "ends"), _lowest(c, d, w)))
    return out


def _shifted(w: tuple, a: int, b: int) -> tuple:
    return tuple((la + a, lb + b, ha + a, hb + b) for la, lb, ha, hb in w)


def _meet(w1: tuple, w2: tuple, d: int) -> tuple:
    """The intersection: one merge pass over the sorted components, past the
    one that ends first at each step; the overlaps come out sorted and
    disjoint."""
    parts, i, j = [], 0, 0
    while i < len(w1) and j < len(w2):
        (la, lb, ha, hb), (la2, lb2, ha2, hb2) = w1[i], w2[j]
        if _sign(la - la2, lb - lb2, d) < 0:
            la, lb = la2, lb2
        if _sign(ha - ha2, hb - hb2, d) < 0:
            i += 1
        else:
            ha, hb, j = ha2, hb2, j + 1
        if _sign(ha - la, hb - lb, d) >= 0:
            parts.append((la, lb, ha, hb))
    return tuple(parts)


def _has_interior(w: tuple) -> bool:
    # every window tuple here (validated WindowSet ends, _meet output, _shifted
    # of either) has lo <= hi as pairs over one c, so unequal ends mean lo < hi
    return any(e[:2] != e[2:] for e in w)


def _holds(w: tuple, a: int, b: int, d: int) -> bool:
    return bool(_meet(w, ((a, b, a, b),), d))


def _solve(a: int, b: int, basis: list[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """The integers n, m with (a, b) = n*(a1, b1) + m*(a2, b2) for the basis
    pairs, or None (Cramer's rule); in an irrational field, the coordinates
    of a value in the group the basis spans."""
    (a1, b1), (a2, b2) = basis
    det = a1 * b2 - a2 * b1
    if det == 0:
        raise ValueError("basis vectors are rationally dependent")
    n, n_rem = divmod(a * b2 - a2 * b, det)
    m, m_rem = divmod(a1 * b - a * b1, det)
    return None if n_rem or m_rem else (n, m)


class WindowSet(Record):
    """A finite union of disjoint closed intervals [lo, hi], sorted and
    merged (degenerate ones, lo == hi, arise from intersections), stored in
    its frame: c the lcm of the ends' denominators, d their field (0 if all
    are rational) and the sorted ``ends`` (lo_a, lo_b, hi_a, hi_b) in lowest
    terms, so equal windows have equal fields; ``components`` is a view."""

    c: int
    d: int
    ends: tuple[tuple[int, int, int, int], ...]

    def __init__(self, components: tuple[tuple[QR, QR], ...]):
        c, d, pairs = common_denominator([e for comp in components for e in comp])
        ends = tuple((*lo, *hi) for lo, hi in zip(pairs[::2], pairs[1::2]))
        if any(_sign(ha - la, hb - lb, d) < 0 for la, lb, ha, hb in ends):
            raise ValueError("interval needs lo <= hi")
        if any(_sign(la - ha, lb - hb, d) <= 0 for (_, _, ha, hb), (la, lb, _, _) in zip(ends, ends[1:])):
            raise ValueError("components must be sorted and disjoint")
        self.__dict__.update(c=c, d=d, ends=ends)

    @property
    def frame(self) -> tuple:
        return self.c, self.d, self.ends

    @property
    def components(self) -> tuple[tuple[QR, QR], ...]:
        c, d = self.c, self.d
        return tuple((_make(la, lb, c, d), _make(ha, hb, c, d)) for la, lb, ha, hb in self.ends)

    @staticmethod
    def interval(lo: QR, hi: QR) -> "WindowSet":
        return WindowSet(((lo, hi),))

    @staticmethod
    def empty() -> "WindowSet":
        return WindowSet(())

    @staticmethod
    def normalized(parts: list[tuple[QR, QR]]) -> "WindowSet":
        """The union of closed intervals (lo, hi) in any order; lo > hi is an error."""
        merged: list[tuple[QR, QR]] = []
        for lo, hi in sorted(parts, key=itemgetter(0)):
            if hi < lo:
                raise ValueError("interval needs lo <= hi")
            if merged and lo <= merged[-1][1]:
                last_lo, last_hi = merged[-1]
                merged[-1] = (last_lo, max(last_hi, hi))
            else:
                merged.append((lo, hi))
        return WindowSet(tuple(merged))

    def is_empty(self) -> bool:
        return not self.ends

    def has_interior(self) -> bool:
        return _has_interior(self.ends)

    def contains(self, x: QR) -> bool:
        _, d, w, (p,) = _join(self.frame, _framed(x))
        return _holds(w, *p, d)

    def translate(self, shift: QR) -> "WindowSet":
        c, d, w, (p,) = _join(self.frame, _framed(shift))
        return _window_set(c, d, _shifted(w, *p))

    def intersect(self, other: "WindowSet") -> "WindowSet":
        c, d, w1, w2 = _join(self.frame, other.frame)
        return _window_set(c, d, _meet(w1, w2, d))

    def issubset(self, other: "WindowSet") -> bool:
        _, d, w1, w2 = _join(self.frame, other.frame)
        return _meet(w1, w2, d) == w1

    def hull(self) -> tuple[QR, QR]:
        if self.is_empty():
            raise ValueError("empty window has no hull")
        return self.components[0][0], self.components[-1][1]

    def to_json_list(self) -> list:
        return [[str(lo), str(hi)] for lo, hi in self.components]

    @staticmethod
    def from_json_list(data: list) -> "WindowSet":
        """[lo, hi] strings in any order, overlaps merged; lo > hi is an error."""
        if not isinstance(data, list) or not all(isinstance(c, list) and len(c) == 2 for c in data):
            raise ValueError("a window is a list of [lo, hi] pairs")
        parts = [(QR.from_string(lo), QR.from_string(hi)) for lo, hi in data]
        for (lo, hi), text in zip(parts, data):
            if hi < lo:
                raise ValueError(f"window component [{', '.join(text)}] has lo > hi")
        return WindowSet.normalized(parts)


def window_meets_group(window: WindowSet, b1: QR, b2: QR) -> bool:
    """Does the window contain a point of the dense subgroup Z*b1 + Z*b2?
    Components with interior always do; degenerate points are solved
    exactly."""
    _, _, w, basis = _join(window.frame, common_denominator((b1, b2)))
    return _has_interior(w) or any(_solve(la, lb, basis) is not None for la, lb, _, _ in w)


# ---------------------------------------------------------------------------
# schemes


class LatticeVector(Record):
    phys: QR
    internal: QR


class CutProjectScheme(Record):
    """Lattice basis (two vectors with physical and internal coordinates)
    plus the acceptance window.

    Validation certifies the standard cut-and-project conditions constructively: both
    projections injective (irrational coordinate ratios), internal image
    dense (again the irrational ratio), and the window a finite union of
    non-degenerate closed intervals.
    """

    v1: LatticeVector
    v2: LatticeVector
    window: WindowSet

    def __init__(self, v1: LatticeVector, v2: LatticeVector, window: WindowSet):
        self.__dict__.update(v1=v1, v2=v2, window=window)
        det = self.v1.phys * self.v2.internal - self.v2.phys * self.v1.internal
        if det.sign() == 0:
            raise ValueError("embedding matrix is singular")
        for a, b, name in ((self.v1.phys, self.v2.phys, "physical"),
                           (self.v1.internal, self.v2.internal, "internal")):
            if a.sign() == 0 or b.sign() == 0:
                raise ValueError(f"{name} coordinates must be nonzero")
            if (b / a).is_rational():
                raise ValueError(f"{name} projection not injective: rational coordinate ratio")
        if self.window.is_empty():
            raise ValueError("acceptance window is empty")
        if any(e[:2] == e[2:] for e in self.window.ends):
            raise ValueError("acceptance window must be the closure of its interior")
        field = (self.v2.internal / self.v1.internal).disc
        if self.window.d not in (0, field):
            raise ValueError(f"acceptance window in Q(sqrt({self.window.d})), lattice basis in Q(sqrt({field}))")
        # (c, d, K, [i1, i2, p1, p2]): the window and both bases in one frame
        object.__setattr__(self, "_frame", _join(self.window.frame, common_denominator(
            (*self.internal_group_basis(), self.v1.phys, self.v2.phys))))

    def physical_coordinates(self, y: QR) -> tuple[int, int]:
        # a lattice value fits the frame: its denominator divides c, its field is d
        c, d, _, pairs = self._frame
        p = _place(_framed(y), c, d)
        if not p or not (coords := _solve(*p[0], pairs[2:])):
            raise ValueError(f"{y} is not in the physical lattice image")
        return coords

    def _star_at(self, n: int, m: int) -> tuple[int, int]:
        """star(n*p1 + m*p2) = n*i1 + m*i2 as a pair of the scheme's frame."""
        (a1, b1), (a2, b2) = self._frame[3][:2]
        return a1 * n + a2 * m, b1 * n + b2 * m

    def star_of_coords(self, n: int, m: int) -> QR:
        return _make(*self._star_at(n, m), *self._frame[:2])

    def internal_group_basis(self) -> tuple[QR, QR]:
        return self.v1.internal, self.v2.internal

    def _star_pair(self, y: QR) -> tuple[int, int]:
        """star(y) as a pair of the scheme's frame."""
        return self._star_at(*self.physical_coordinates(y))

    def to_json_dict(self) -> dict:
        return {
            "v1": {"phys": str(self.v1.phys), "int": str(self.v1.internal)},
            "v2": {"phys": str(self.v2.phys), "int": str(self.v2.internal)},
            "window": self.window.to_json_list(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CutProjectScheme":
        def get(*path: str):
            obj = data
            for i, key in enumerate(path, 1):
                if not isinstance(obj, dict) or key not in obj:
                    raise ValueError(f"scheme JSON has no {'.'.join(path[:i])}")
                obj = obj[key]
            return obj

        vec = lambda v: LatticeVector(QR.from_string(get(v, "phys")), QR.from_string(get(v, "int")))
        return cls(vec("v1"), vec("v2"), WindowSet.from_json_list(get("window")))


def star(scheme: CutProjectScheme, y: QR) -> QR:
    """The internal coordinate of a physical lattice value."""
    return scheme.star_of_coords(*scheme.physical_coordinates(y))


def fibonacci_scheme() -> CutProjectScheme:
    """Reference scheme for the Fibonacci chain: v1 = (1, 1),
    v2 = (tau, 1-tau), window [-99/100, 63/100].

    No lattice star n + m*(1-tau) equals an endpoint: a star is rational
    only when m = 0, and the endpoints are not integers.  The chain's own
    window is (-1, tau-1], so the model set equals the chain only out to
    radius 121; the first difference is 61+27*sqrt(5) vs 121/2+55/2*sqrt(5).
    """
    tau = golden_ratio()
    return CutProjectScheme(
        LatticeVector(QR(1), QR(1)),
        LatticeVector(tau, QR(1) - tau),
        WindowSet.interval(QR(Fraction(-99, 100)), QR(Fraction(63, 100))),
    )


# ---------------------------------------------------------------------------
# lattice strips and model-set generation


def _strip_rows(ns, bands):
    """Yield (n, m_lo, m_hi) for each n in ns whose strip is non-empty: the
    integers m_lo..m_hi are exactly the m with lo <= c1*n + c2*m <= hi for
    every band (lo, hi, c1, c2) of QuadraticRationals with c2 != 0 (at
    least one band).

    A band holds iff m lies in sorted(lo/c2, hi/c2) - n*c1/c2.  Those three
    values of every band are put over one denominator once, so each row's
    ends are exact integer floors and no value is built per row.
    """
    values = []
    for lo, hi, c1, c2 in bands:
        values.extend((*sorted((lo / c2, hi / c2)), c1 / c2))
    c, d, pairs = common_denominator(values)
    # the first band starts each row's ends, the others narrow them
    (la, lb), (ha, hb), (sa, sb), *rest = pairs
    rest = [(*rest[k], *rest[k + 1], *rest[k + 2]) for k in range(0, len(rest), 3)]
    int_floor = QR.int_floor
    for n in ns:
        # m >= lo' - n*s  iff  m >= -floor(n*s - lo'), and m <= floor(hi' - n*s)
        m_lo = -int_floor(n * sa - la, n * sb - lb, c, d)
        m_hi = int_floor(ha - n * sa, hb - n * sb, c, d)
        for la2, lb2, ha2, hb2, sa2, sb2 in rest:
            m_lo = max(m_lo, -int_floor(n * sa2 - la2, n * sb2 - lb2, c, d))
            m_hi = min(m_hi, int_floor(ha2 - n * sa2, hb2 - n * sb2, c, d))
        if m_lo <= m_hi:
            yield n, m_lo, m_hi


def modelset_points(scheme: CutProjectScheme, radius: QR) -> list[QR]:
    """All physical values y with |y| <= radius and star(y) in the window,
    sorted.

    The n range comes from the corners of the physical range times the
    window hull under the inverse embedding matrix.  For each window
    component [lo, hi] and each n, the points form one strip
    (``_strip_rows``): the m with lo <= i1*n + i2*m <= hi and
    |p1*n + p2*m| <= radius.  Both bands are exact, so every strip point of
    a component is a point, and the disjoint components give disjoint
    strips.  The cost is O(radius) per component rather than the area of
    the bounding box.  Each point is built once from the integer pairs of
    p1 and p2 over their common denominator.
    """
    if radius.sign() <= 0:
        raise ValueError("radius must be positive")
    p1, p2 = scheme.v1.phys, scheme.v2.phys
    i1, i2 = scheme.v1.internal, scheme.v2.internal
    det = p1 * i2 - p2 * i1
    klo, khi = scheme.window.hull()
    corners_n = [(i2 * x - p2 * y) / det for x in (radius, -radius) for y in (klo, khi)]
    n_lo = min(c.floor() for c in corners_n)
    n_hi = max(c.floor() + 1 for c in corners_n)
    # CutProjectScheme guarantees i2 != 0 and p2 != 0
    c, d, _, (_, _, (a1, b1), (a2, b2)) = scheme._frame
    out = []
    for lo, hi in scheme.window.components:
        bands = ((lo, hi, i1, i2), (-radius, radius, p1, p2))
        for n, m_lo, m_hi in _strip_rows(range(n_lo, n_hi + 1), bands):
            an, bn = a1 * n, b1 * n
            out.extend(_make(an + a2 * m, bn + b2 * m, c, d) for m in range(m_lo, m_hi + 1))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# pattern windows and the empire congruence


def _window_of_stars(scheme: CutProjectScheme, stars) -> tuple:
    """The intersection over the iterable star pairs (a, b) of K - x*, in
    the scheme's frame, stopping at the first empty intersection."""
    _, d, k, _ = scheme._frame
    out = None
    for a, b in stars:
        moved = _shifted(k, -a, -b)
        out = moved if out is None else _meet(out, moved, d)
        if not out:
            break
    if out is None:
        raise ValueError("pattern must be non-empty")
    return out


def pattern_window(scheme: CutProjectScheme, points: list[QR]) -> WindowSet:
    """P* = intersection over the pattern of K - x*: the lattice translate
    by g places the pattern inside the model set iff g* lies in P*.  A point
    off the physical lattice image has no x*, and no lattice translate of
    the pattern fits, so P* is empty."""
    try:
        stars = [scheme._star_pair(y) for y in points]
    except ValueError:  # a point off the lattice
        return WindowSet.empty()
    return _window_set(*scheme._frame[:2], _window_of_stars(scheme, stars))


def pattern_embeds(scheme: CutProjectScheme, points: list[QR]) -> bool:
    """Exact decision: some lattice translate places the pattern inside the
    model set iff the pattern window contains an internal lattice value (a
    point off the lattice gives the empty window)."""
    return window_meets_group(pattern_window(scheme, points), *scheme.internal_group_basis())


def embeds_oracle(scheme: CutProjectScheme):
    """Adapter handed to the pattern-class product search, exact for the
    model set of this scheme only: the rational ``fibonacci_scheme()``
    answers for another set than the Fibonacci chain (ROADMAP item 3)."""
    return lambda values: pattern_embeds(scheme, values)


def _modelset_stars(scheme: CutProjectScheme, points: list[QR]) -> list[tuple[int, int]]:
    """The star pairs of the points, raising ValueError at the first point
    outside the model set."""
    _, d, k, _ = scheme._frame
    stars = []
    for p in points:
        s = scheme._star_pair(p)
        if not _holds(k, *s, d):
            raise ValueError(f"pattern point {p} is not in the model set")
        stars.append(s)
    return stars


def empire_equal(scheme: CutProjectScheme, pat_p: list[QR], pat_q: list[QR]) -> bool:
    """Same empire iff the pattern windows coincide (kernel of the
    projection functor), decided on the star pairs once both patterns are
    checked: in the scheme's frame equal windows are equal tuples."""
    p_stars, q_stars = _modelset_stars(scheme, pat_p), _modelset_stars(scheme, pat_q)
    return _window_of_stars(scheme, p_stars) == _window_of_stars(scheme, q_stars)


class EmpireScan:
    """Independent empire oracle over a pool of lattice points: compare,
    for every lattice g with coefficients in [-box_bound, box_bound],
    whether g + P and g + Q land inside the model set, for patterns P and Q
    drawn from the pool.

    Only a g whose star lies in the band [min K - max x*, max K - min x*]
    over the pool can carry a pool point into the window; elsewhere every
    membership is False.  The scan numbers those band cells of the box in
    scan order, n ascending and then m ascending (``_strip_rows`` on the
    band and on the box band |m| <= box_bound), and gives each pool point
    x = (a, b) a membership mask, built with the scan: bit i is set iff
    g_i + x lies in the model set.  That is read off the window's own
    lattice-row strips, one band per window component over the rows
    -box_bound + min a .. box_bound + max a, kept in a list by row: g + x
    is a model-set point iff row n + a of a component's strip holds
    m + b.  ``compare`` ANDs the masks of each pattern and XORs the two
    results; the lowest set bit is the first separator of the box scan in
    its order, reported as its lattice coordinates (n, m), and no bit set
    means agree (None).

    A mask costs O(box_bound * k) for band rows of k cells, once per pool
    point; a comparison is then a few integer ANDs and XORs over those
    bits, instead of a membership test of every band cell per pair.
    Everything is integer work on exact strip ends, independent of the
    window calculus of empire_equal.  One pair P, Q is compared by
    ``EmpireScan(scheme, box_bound, P + Q).compare(P, Q)``; the answer, None
    or the first separator, is that of a scan of the full
    (2*box_bound + 1)^2 box.
    """

    def __init__(self, scheme: CutProjectScheme, box_bound: int, points: list[QR]):
        if box_bound < 0:
            raise ValueError("box_bound must be >= 0")
        if not points:
            raise ValueError("the point pool must be non-empty")
        coords = {x: scheme.physical_coordinates(x) for x in points}
        # i2 != 0 is guaranteed by CutProjectScheme
        i1, i2 = scheme.internal_group_basis()
        stars = [scheme.star_of_coords(a, b) for a, b in coords.values()]
        klo, khi = scheme.window.hull()
        bands = ((klo - max(stars), khi - min(stars), i1, i2), (QR(-box_bound), QR(box_bound), QR(0), QR(1)))
        # the band cells row by row: (index of the row's first cell, n, m_lo, m_hi)
        self._rows = []
        size = 0
        for n, m_lo, m_hi in _strip_rows(range(-box_bound, box_bound + 1), bands):
            self._rows.append((size, n, m_lo, m_hi))
            size += m_hi - m_lo + 1
        a_values = [a for a, _ in coords.values()]
        n0 = -box_bound + min(a_values)
        ns = range(n0, box_bound + max(a_values) + 1)
        # each component's strip ends by row n - n0, None where it is empty
        strips = []
        for lo, hi in scheme.window.components:
            rows = [None] * len(ns)
            for n, m_lo, m_hi in _strip_rows(ns, ((lo, hi, i1, i2),)):
                rows[n - n0] = (m_lo, m_hi)
            strips.append(rows)
        self._masks: dict[QR, int] = {}
        for x, (a, b) in coords.items():
            mask, shift = 0, a - n0
            for first, n, m_lo, m_hi in self._rows:
                for rows in strips:
                    strip = rows[n + shift]
                    if strip is not None:
                        lo, hi = strip[0] - b, strip[1] - b
                        lo, hi = lo if lo > m_lo else m_lo, hi if hi < m_hi else m_hi
                        if lo <= hi:
                            mask |= ((1 << (hi - lo + 1)) - 1) << (first + lo - m_lo)
            self._masks[x] = mask

    def _mask(self, x: QR) -> int:
        if x not in self._masks:
            raise ValueError(f"pattern point {x} is not in the scan's point pool")
        return self._masks[x]

    def compare(self, pat_p: list[QR], pat_q: list[QR]) -> Optional[tuple[int, int]]:
        """None if the patterns agree, else the lattice coordinates (n, m) of
        the first g of the scan order that places exactly one of them."""
        if not pat_p or not pat_q:
            raise ValueError("pattern must be non-empty")
        diff = reduce(and_, map(self._mask, pat_p)) ^ reduce(and_, map(self._mask, pat_q))
        if not diff:
            return None
        i = (diff & -diff).bit_length() - 1
        first, n, m_lo, _ = self._rows[bisect_right(self._rows, i, key=itemgetter(0)) - 1]
        return n, m_lo + i - first


# ---------------------------------------------------------------------------
# the semigroup of window triples


class WindowTriple(Record):
    """Translation class of a window triple, stored in left-anchored
    coordinates: (shift, window) stands for the class of (0, window, shift).

    The window is a finite intersection of group translates of the
    acceptance window; the class is inhabited iff the window contains an
    internal lattice value (dense components always do), which the factory
    checks.
    """

    shift: QR
    window: WindowSet


def window_triple(scheme: CutProjectScheme, a: QR, window: WindowSet, b: QR) -> WindowTriple:
    """Canonicalize a triple (a, window, b) by translating a to 0."""
    shift = b - a
    canon = window.translate(-a)
    bound = scheme.window.intersect(scheme.window.translate(shift))
    if not canon.issubset(bound):
        raise ValueError("window exceeds the two-translate intersection for this shift")
    if not window_meets_group(canon, *scheme.internal_group_basis()):
        raise ValueError("window carries no lattice value; the class is empty")
    return WindowTriple(shift, canon)


def triple_identity(scheme: CutProjectScheme) -> WindowTriple:
    return WindowTriple(QR(0), scheme.window)


def triple_inverse(x: WindowTriple) -> WindowTriple:
    return WindowTriple(-x.shift, x.window.translate(-x.shift))


def triple_is_idempotent(x: WindowTriple) -> bool:
    return x.shift.sign() == 0


def triple_multiply(scheme: CutProjectScheme, x: WindowTriple, y: WindowTriple) -> Optional[WindowTriple]:
    """Product of window-triple classes: align the right anchor of x with
    the left anchor of y; defined iff the combined window still contains an
    internal lattice value (checked exactly, including degenerate points)."""
    window = x.window.intersect(y.window.translate(x.shift))
    if not window_meets_group(window, *scheme.internal_group_basis()):
        return None
    return WindowTriple(x.shift + y.shift, window)


def triple_max_above(scheme: CutProjectScheme, x: WindowTriple) -> WindowTriple:
    """The unique maximal element above x: its shift, the group image of x,
    with the full two-translate window."""
    return WindowTriple(x.shift, scheme.window.intersect(scheme.window.translate(x.shift)))


def triple_natural_leq(x: WindowTriple, y: WindowTriple) -> bool:
    return x.shift == y.shift and x.window.issubset(y.window)


def project_functor(scheme: CutProjectScheme, pattern: PatternClass, placement: QR) -> WindowTriple:
    """Image of a placed pattern class under the window functor, once the
    placement puts the pattern inside the model set.  It is translation
    invariant: the shift star(out - in) and the pattern window of the
    pattern re-anchored at its out point (P* translated by the out star).
    The star map is additive on the lattice, so both are read off the star
    pairs of the placed points: the shift is the out star minus the in
    star, the window that of the placed stars minus the out star."""
    stars = _modelset_stars(scheme, [o + placement for o in pattern.offsets])
    (oa, ob), (ia, ib) = stars[pattern.out_index], stars[pattern.in_index]
    c, d = scheme._frame[:2]
    window = _window_of_stars(scheme, [(a - oa, b - ob) for a, b in stars])
    return WindowTriple(_make(oa - ia, ob - ib, c, d), _window_set(c, d, window))


# ---------------------------------------------------------------------------
# generators and relations of a partial action


class PartialActionData(Record):
    """Truncated generator/relation harvest of a partial action of the
    group Z*g1 + Z*g2 on a window: the elements whose shifted window still
    meets the window, in ascending order, and one relation triple
    (g, g', g+g') per composable pair (g, g'), so the composable pairs are
    the first two entries of the relations."""

    basis: tuple[QR, QR]
    bound: int
    elements: tuple[QR, ...]
    relations: tuple[tuple[QR, QR, QR], ...]

    def items(self):
        """The harvest as a partial product table: ((g, g'), g + g') per
        relation, in relation order."""
        return (((g, gp), total) for g, gp, total in self.relations)


def partial_action_data(basis: tuple[QR, QR], window: WindowSet, coeff_bound: int) -> PartialActionData:
    """Elements are the boxed group values g with V and V - g overlapping;
    pairs (g, g') are composable when the triple overlap of V, g+V and
    g+g'+V is non-empty with all three members boxed; each composable pair
    contributes the relation equating the formal product with the sum.

    Overlaps are overlaps of interiors (the open-subset setting): windows
    that touch in one point do not overlap.  V and V - g meet only if
    |g| <= w, the width of V's hull, so each n visits the strip of m with
    |n*g1 + m*g2| <= w and |m| <= coeff_bound (``_strip_rows``, two bands).
    The basis is independent, so each element is keyed by its coordinates
    (n, m).  O_g = V meet (V + g) meets V + t in an interior exactly when t
    is in a span (p - h, q - l) of components [p, q] of O_g and [l, h] of V
    with interior, so g bisects the elements once per span and looks up
    g' = t - g at (n_t - n, m_t - m) for each t inside, ascending in t and
    so in g'.  The overlaps are decided in the frame of the basis and window.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    g1, g2 = basis
    c, d, w, pairs = _join(window.frame, common_denominator(basis))
    _solve(0, 0, pairs)  # raises on a rationally dependent basis, so g2 != 0
    found: list[tuple[QR, int, int, tuple]] = []
    if w:
        (a1, b1), (a2, b2) = pairs
        lo, hi = window.hull()
        bands = ((lo - hi, hi - lo, g1, g2), (QR(-coeff_bound), QR(coeff_bound), QR(0), QR(1)))
        for n, m_lo, m_hi in _strip_rows(range(-coeff_bound, coeff_bound + 1), bands):
            for m in range(m_lo, m_hi + 1):
                a, b = a1 * n + a2 * m, b1 * n + b2 * m
                if _has_interior(overlap := _meet(w, _shifted(w, -a, -b), d)):
                    found.append((_make(a, b, c, d), n, m, _shifted(overlap, a, b)))
    found.sort(key=itemgetter(0))
    elements = tuple(g for g, _, _, _ in found)
    position = {(n, m): k for k, (_, n, m, _) in enumerate(found)}
    relations: list[tuple[QR, QR, QR]] = []
    for g, n, m, overlap in found:
        spans, done = [], 0
        for pa, pb, qa, qb in overlap:
            for la, lb, ha, hb in w:
                if (pa, pb) != (qa, qb) and (la, lb) != (ha, hb):
                    spans.append((bisect_right(elements, _make(pa - ha, pb - hb, c, d)),
                                  bisect_left(elements, _make(qa - la, qb - lb, c, d))))
        for i, j in sorted(spans):
            for t in range(max(i, done), j):
                k = position.get((found[t][1] - n, found[t][2] - m))
                if k is not None:
                    relations.append((g, elements[k], elements[t]))
            done = max(done, j)
    return PartialActionData(basis, coeff_bound, elements, tuple(relations))


# ---------------------------------------------------------------------------
# the nearest-integer obstruction


def obstruction_grade(r: QR, s: QR, x: QR) -> int:
    """Nearest integer to x/s, for x drawn from the difference harvest of
    the two-component window (0, r) union (s, s+r) with |s| > 8r.

    Well-defined because x/s then lies within 1/4 of one of -1, 0, 1; a
    value within 1/4 of a half-integer signals a precondition violation.
    """
    if (abs(s) - r * 8).sign() <= 0:
        raise ValueError("requires |s| > 8r")
    q = x / s
    try:
        nearest = q.nearest_int()
    except ValueError as exc:
        raise ValueError(f"{x}/{s} sits exactly between two integers") from exc
    # q = (a + b*sqrt(d))/c is within 1/4 of n iff c -+ 4*(a - n*c + b*sqrt(d)) > 0
    a, b, c = q.triple
    p = 4 * (a - nearest * c)
    if QR.int_sign(c - p, -4 * b, q.disc) <= 0 or QR.int_sign(c + p, 4 * b, q.disc) <= 0:
        raise ValueError(f"{x}/{s} is not within 1/4 of an integer; x outside the harvest range")
    return nearest
