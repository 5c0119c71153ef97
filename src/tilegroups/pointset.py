"""1-D point sets from symbolic windows and their difference sets.

Every membership answer is relative to the materialised truncation, never
a global claim.  Witness index pairs travel with every difference, so
chained differences are decided by joining them (``patterns.maxset_table``)
and decompositions can be replayed in tests.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType

from ._record import Record
from .exactnum import QuadraticRational as QR, _framed, _join, _make, _place, common_denominator, frame_text
from .presentation import hnf
from .sequences import IndexedWord, TruncationError


class LengthFunction(Record):
    """Letter -> strictly positive exact length; distinct letters get
    distinct lengths.  The lengths are kept as a read-only copy."""

    lengths: Mapping[str, QR]

    def __init__(self, lengths: Mapping[str, QR]):
        vals = list(lengths.values())
        for v in vals:
            if v.sign() <= 0:
                raise ValueError("tile lengths must be strictly positive")
        if len(set(vals)) != len(vals):
            raise ValueError("length function must be injective")
        self.__dict__.update(lengths=MappingProxyType(dict(lengths)))

    def __getitem__(self, letter: str) -> QR:
        return self.lengths[letter]


class PointSet1D:
    """Points r_i with r_i - r_{i-1} = |T(i)| over a finite window of T.

    The window covers indices [start, start+n), so points r_{start-1}
    through r_{start+n-1} are materialised, with r_0 = 0.  They are kept
    in one integer frame ``(c, d, [(a, b), ...])``, the point r_i being
    (a + b*sqrt(d))/c; ``points`` builds the exact values on first read,
    so a dump, ``len``, ``diff_set`` and the pattern-class search, which
    looks pairs up in a pair -> index map, build none.
    """

    def __init__(self, window: IndexedWord, lengths: LengthFunction):
        if len(window) == 0:
            raise ValueError("window must be non-empty")
        lo, hi = window.start_index - 1, window.end_index - 1
        if not lo <= 0 <= hi:
            raise ValueError("window must cover the anchor index 0")
        self.window = window
        self.lengths = lengths
        # T(i) sits at letters[i - start_index]; one integer running sum over
        # the letters that occur, from r_{start-1} = -(|T(start)| + ... + |T(0)|)
        used = sorted(set(window.letters))
        c, d, steps = common_denominator([lengths[x] for x in used])
        step, left = dict(zip(used, steps)), window.letters[:1 - window.start_index]
        a = -sum(left.count(x) * step[x][0] for x in used)
        b = -sum(left.count(x) * step[x][1] for x in used)
        pairs = [(a, b)]
        for letter in window.letters:
            da, db = step[letter]
            a, b = a + da, b + db
            pairs.append((a, b))
        self.min_index, self.max_index = lo, hi
        self.frame: tuple[int, int, list[tuple[int, int]]] = (c, d, pairs)

    @cached_property
    def points(self) -> list[QR]:
        c, d, pairs = self.frame
        return [_make(a, b, c, d) for a, b in pairs]

    @cached_property
    def _index_of(self) -> dict[tuple[int, int], int]:
        """Point pair -> index, built on the first lookup."""
        return {p: i for i, p in enumerate(self.frame[2], self.min_index)}

    def __len__(self):
        return len(self.frame[2])

    def __contains__(self, value: QR) -> bool:
        if value < self.points[0] or value > self.points[-1]:
            raise TruncationError(f"{value} outside the materialised range")
        # a value of another field raised in the comparison
        p = _place(_framed(value), *self.frame[:2])
        return p is not None and p[0] in self._index_of

    def point(self, index: int) -> QR:
        if not self.min_index <= index <= self.max_index:
            raise TruncationError(f"point index {index} outside truncation")
        return self.points[index - self.min_index]

    def max_gap(self) -> QR:
        """The longest tile the window uses: every gap r_i - r_{i-1} is |T(i)|."""
        return max(self.lengths[x] for x in set(self.window.letters))

    def to_json_dict(self) -> dict:
        return {"anchor": "0", "points": frame_text(*self.frame)}


def build_pointset(window: IndexedWord, lengths: LengthFunction) -> PointSet1D:
    return PointSet1D(window, lengths)


class DiffElement(Record):
    """A value of D - D together with every witnessing index pair (i, j),
    r_i - r_j = value, inside the truncation."""

    value: QR
    witnesses: tuple[tuple[int, int], ...]

    def __init__(self, value: QR, witnesses: tuple[tuple[int, int], ...]):
        if not witnesses:
            raise ValueError("a difference needs at least one witness")
        self.__dict__.update(value=value, witnesses=witnesses)


def diff_set(ps: PointSet1D, bound: QR) -> list[DiffElement]:
    """All differences r_i - r_j with |value| <= bound, with complete
    witness lists (i ascending, then j ascending), sorted by value.  One
    two-pointer pass over the sorted points: O(N*k), k points per bound."""
    if bound.sign() <= 0:
        raise ValueError("bound must be positive")
    base = ps.min_index
    # the point set's integer pairs, joined with the bound's; one value per
    # distinct difference
    c, d, pts, ((ba, bb),) = _join(ps.frame, _framed(bound))
    sign = QR.int_sign
    found: dict[tuple[int, int], list[tuple[int, int]]] = {}
    lo = hi = 0
    last = len(pts) - 1
    for i, (pa, pb) in enumerate(pts):
        while sign(pts[lo][0] - pa + ba, pts[lo][1] - pb + bb, d) < 0:
            lo += 1
        while hi < last and sign(pa + ba - pts[hi + 1][0], pb + bb - pts[hi + 1][1], d) >= 0:
            hi += 1
        for j in range(lo, hi + 1):
            qa, qb = pts[j]
            found.setdefault((pa - qa, pb - qb), []).append((i + base, j + base))
    elems = [DiffElement(_make(a, b, c, d), tuple(ws)) for (a, b), ws in found.items()]
    elems.sort(key=attrgetter("value"))
    return elems


def bounded_generator_set(ps: PointSet1D, radius: QR) -> list[DiffElement]:
    """The generating set of differences with |value| <= radius; requires
    radius at least the largest gap, which makes every truncated difference
    a chain of consecutive-point steps in the set (decompose_into_bounded)."""
    if radius < ps.max_gap():
        raise ValueError("radius below the maximal gap; set not relatively dense at this scale")
    return diff_set(ps, radius)


def decompose_into_bounded(ps: PointSet1D, elem: DiffElement, radius: QR) -> list[DiffElement]:
    """Write elem as a chain of consecutive-point steps, each of absolute
    value <= radius; the chain composes under the partial sum by
    construction."""
    i, j = elem.witnesses[0]
    if i == j:
        return [DiffElement(QR(0), ((i, i),))]
    step = 1 if i > j else -1
    chain = []
    for k in range(j, i, step):
        value = ps.point(k + step) - ps.point(k)
        if abs(value) > radius:
            raise ValueError(f"gap {value} exceeds radius {radius}")
        chain.append(DiffElement(value, ((k + step, k),)))
    return chain


def difference_group_invariants(values: list[QR]) -> tuple[int, list[QR]]:
    """Rank and basis of the subgroup of R generated by the values.

    Each value is written over the Q-basis {sqrt(d), 1}, denominators are
    cleared, and a Hermite basis of the resulting integer row lattice is
    rescaled back.  The group is free abelian of the returned rank.
    Values from two quadratic fields raise DiscriminantMismatch, a
    ValueError.
    """
    vals = [v for v in values if v.sign() != 0]
    if not vals:
        return 0, []
    denom, disc, pairs = common_denominator(vals)
    rank, basis_rows = hnf([[b, a] for a, b in pairs])
    basis = [_make(p, q, denom, disc) for q, p in basis_rows]
    return rank, basis
