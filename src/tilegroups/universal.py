"""Universal-group computations: the equal-length relation harvest for
1-D point sets, the connected tiling semigroup of a factorial language
(strings with in/out accents), and the universal-group presentation of
a partial operation, from a difference table or a partial-action
harvest.  Where one pass over the table certifies that the group is
abelian on a few values P, the presentation is <P | commutators, Hermite
rows>; otherwise one generator per value and one relation x y = z per
entry, built by ``presentation_from_pairs``.

The harvest keeps its sorted length classes u0 < u1 < ..., not the pairs
of equal-length factors: those are built from the classes only when read.
It presents each class by the path of its neighbours, one relator
u_i u_{i+1}^-1 per step: the same normal closure as all the pairs, since
u_i u_j^-1 telescopes along the path.  Where sorted neighbours share a
long prefix and suffix, as in a Sturmian window, their cyclic cores are
short and repeat from class to class, so the presentation does not grow
with the window.

Truncation stamps travel with every result: a harvest knows the window
and factor length it was computed from, and accent products that would
leave the materialised language raise instead of guessing.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter, mul

from ._record import Record
from .exactnum import QuadraticRational as QR, _make, common_denominator
from .pointset import LengthFunction
from .presentation import Presentation, hnf, presentation_from_pairs, reduce_word
from .sequences import FactorLanguage, IndexedWord, factor_language


# ---------------------------------------------------------------------------
# equal-length relation harvest


class HarvestReport(Record):
    """Harvest from one window: the classes of two or more distinct factors
    of one exact length, as (length, sorted words) in ascending length, and
    the presentation that relates each class along the path of its
    neighbours (see ``harvest_equal_length_relations``)."""

    presentation: Presentation
    window_start: int
    window_len: int
    max_len: int
    classes: tuple[tuple[QR, tuple[str, ...]], ...]

    @property
    def pairs(self) -> tuple[tuple[str, str, QR], ...]:
        """Every pair u < v of one class as (u, v, length), class by class:
        sum C(k, 2) triples over the class sizes k, built on each read."""
        return tuple((u, v, length) for length, words in self.classes for u, v in combinations(words, 2))


def harvest_equal_length_relations(
    window: IndexedWord,
    lengths: LengthFunction,
    max_len: int,
) -> HarvestReport:
    """Scan the factor language of the window and group its factors by
    exact length, keeping each class of two or more factors sorted.  The
    length is computed once per Parikh vector (count of each letter), as
    the sum of count times letter length, not per factor or per letter: an
    integer pair over the letters' common denominator, so equal lengths are
    equal pairs.  Only a class of two or more factors has its exact length
    built, to order the classes.  No relation pair is built here; the
    report's ``pairs`` builds them from the classes when read.

    The presentation takes one relator u_i u_{i+1}^-1 per pair of
    neighbours in each sorted length class u0 < u1 < ...: a spanning path,
    linear in the class where the pairs are quadratic.  It has the same
    normal closure as the relators of all the pairs, since for i < j
    u_i u_j^-1 = (u_i u_{i+1}^-1)(u_{i+1} u_{i+2}^-1) ... (u_{j-1} u_j^-1).
    Sorted neighbours often differ only in a short stretch (in the
    Fibonacci chain, one swap ab -> ba), so after the cyclic-core cut of
    ``presentation_from_pairs`` their relators coincide and the duplicates
    go."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    lang = factor_language(window, max_len)
    generators = sorted(set(window.letters))
    by_parikh: dict[tuple[int, ...], list[str]] = {}
    for w in lang.words:
        by_parikh.setdefault(tuple(map(w.count, generators)), []).append(w)
    c, d, letter_pairs = common_denominator([lengths[x] for x in generators])
    la, lb = [a for a, _ in letter_pairs], [b for _, b in letter_pairs]
    by_length: dict[tuple[int, int], list[str]] = {}
    for counts, words in by_parikh.items():
        by_length.setdefault((sum(map(mul, counts, la)), sum(map(mul, counts, lb))), []).extend(words)
    classes = tuple(sorted(((_make(a, b, c, d), tuple(sorted(words)))
                            for (a, b), words in by_length.items() if len(words) > 1), key=itemgetter(0)))
    pres = presentation_from_pairs(generators, [spoke for _, group in classes for spoke in zip(group, group[1:])])
    return HarvestReport(pres, window.start_index, len(window), max_len, classes)


# ---------------------------------------------------------------------------
# the connected tiling semigroup of a factorial language


class AccentString(Record):
    """A word carrying an out accent and an in accent (same position:
    check accent).  The underlying word must belong to the language the
    string is used with; operations take the language explicitly."""

    word: str
    out_pos: int
    in_pos: int

    def __init__(self, word: str, out_pos: int, in_pos: int):
        if not word:
            raise ValueError("accent string needs a non-empty word")
        for pos in (out_pos, in_pos):
            if not 0 <= pos < len(word):
                raise ValueError("accent position out of range")
        self.__dict__.update(word=word, out_pos=out_pos, in_pos=in_pos)


def accent_inverse(p: AccentString) -> AccentString:
    return AccentString(p.word, p.in_pos, p.out_pos)


def accent_is_idempotent(p: AccentString) -> bool:
    return p.out_pos == p.in_pos


def accent_multiply(p: AccentString, q: AccentString, lang: FactorLanguage):
    """Place p above q with p's in-letter over q's out-letter; match on the
    overlap ignoring accents, glue, keep p's out accent and q's in accent.
    None if the words mismatch or the glued word is not in the language."""
    offset = p.in_pos - q.out_pos  # q's frame shifted into p's frame
    lo = min(0, offset)
    over_lo, over_hi = max(0, offset), min(len(p.word), offset + len(q.word))
    if p.word[over_lo:over_hi] != q.word[over_lo - offset:over_hi - offset]:
        return None
    # q's letters left of p, p, then q's letters right of p
    word = q.word[:-lo] + p.word + q.word[len(p.word) - offset:]
    if word not in lang:  # may raise TruncationError beyond the stamp
        return None
    return AccentString(word, p.out_pos - lo, q.in_pos + offset - lo)


def accent_natural_leq(s: AccentString, t: AccentString) -> bool:
    """s <= t iff t's word embeds in s's word with both accents aligned."""
    shift = s.out_pos - t.out_pos
    if shift < 0 or shift + len(t.word) > len(s.word):
        return False
    return (s.word[shift:shift + len(t.word)] == t.word
            and s.in_pos == t.in_pos + shift)


def accent_max_above(s: AccentString) -> AccentString:
    """Strip the context outside the accent span; the unique maximal
    element above s."""
    lo, hi = min(s.out_pos, s.in_pos), max(s.out_pos, s.in_pos)
    return AccentString(s.word[lo:hi + 1], s.out_pos - lo, s.in_pos - lo)


def enumerate_language_semigroup(lang: FactorLanguage) -> list[AccentString]:
    out = []
    for w in sorted(lang.words):
        for i in range(len(w)):
            for j in range(len(w)):
                out.append(AccentString(w, i, j))
    return out


def enumerate_end_accented_and_max(lang: FactorLanguage) -> tuple[list[AccentString], list[AccentString]]:
    """C = out accent on the first letter, in accent on the last; the
    maximal elements are C together with its inverses.  Only the inverse
    of a one-letter string lies in C, and distinct words have distinct
    inverses, so the maximal elements are C and then the inverses of its
    strings of length >= 2."""
    c_elems = [AccentString(w, 0, len(w) - 1) for w in sorted(lang.words)]
    return c_elems, c_elems + [accent_inverse(e) for e in c_elems if len(e.word) > 1]


def decompose_into_two_letter(c: AccentString) -> list[AccentString]:
    """The unique factorization of an end-accented string into overlapping
    two-letter end-accented strings."""
    if not (c.out_pos == 0 and c.in_pos == len(c.word) - 1):
        raise ValueError("decomposition applies to end-accented strings")
    if len(c.word) < 2:
        raise ValueError("length-1 strings do not decompose")
    return [AccentString(c.word[i:i + 2], 0, 1) for i in range(len(c.word) - 1)]


def compose_chain(parts: list[AccentString], lang: FactorLanguage) -> AccentString:
    out = parts[0]
    for nxt in parts[1:]:
        out = accent_multiply(out, nxt, lang)
        if out is None:
            raise ValueError("chain does not compose")
    return out


def universal_group_of_language(lang: FactorLanguage) -> tuple[Presentation, int]:
    """Free presentation on the two-letter factors of the language; its
    rank is the number of such factors."""
    if lang.max_len < 2:
        raise ValueError("language must be computed to length >= 2")
    two = lang.of_length(2)
    return Presentation(tuple(two), ()), len(two)


# ---------------------------------------------------------------------------
# presentations from partial-operation tables


def _abelian_certificate(values: list, index: dict, entries: dict, order: list[int]):
    """(P, rows) such that the group of the table is Z^|P| on the value ids
    P modulo the lattice of ``rows``, or None.  ``entries`` maps (x, y) to z
    on the ids that ``values`` and ``index`` give, ``order`` is the ids in
    ascending value order.  0 0 = 0 makes 0 the identity.  P takes the least
    positive value p not yet reached: an unreached -p with p (-p) = 0 is its
    inverse, and s p = p s as entries for each earlier s in P.  Every other
    value y is reached along an entry x (+-p) = y, which eliminates y as the
    word vec(x) +- e_p (a Tietze move).  P commutes, so each entry x y = z
    is exactly the relation vec(x) + vec(y) - vec(z) = 0."""
    zero = index.get(QR(0))
    if zero is None or entries.get((zero, zero)) != zero:
        return None
    reached = {zero}
    gens: list[int] = []
    cols: list[list[int]] = []  # coordinate k of vec(v), per value v
    steps: list[tuple[int, int, int]] = []  # (id of +-p, coordinate of p, +-1)
    for p in order[order.index(zero) + 1:]:  # the positive values
        if p in reached:
            continue
        q = index.get(-values[p])
        if q is None or q in reached or entries.get((p, q)) != zero:
            return None
        if any(entries.get((s, p), -1) != entries.get((p, s), -2) for s in gens):  # a missing entry never matches
            return None
        k = len(gens)
        gens.append(p)
        cols.append([0] * len(values))
        cols[k][p], cols[k][q] = 1, -1
        new = [(p, k, 1), (q, k, -1)]
        steps += new
        stack = [(x, new) for x in reached] + [(p, steps), (q, steps)]
        reached.update((p, q))
        while stack:
            x, moves = stack.pop()
            for g, j, sign in moves:
                y = entries.get((x, g))
                if y is not None and y not in reached:
                    reached.add(y)
                    for c in cols:
                        c[y] = c[x]
                    cols[j][y] += sign
                    stack.append((y, steps))
    if len(reached) < len(values):
        return None
    rows = dict.fromkeys(zip(*([c[x] + c[y] - c[z] for (x, y), z in entries.items()] for c in cols)))
    return gens, [list(row) for row in rows if any(row)]


def maxset_presentation(source) -> Presentation:
    """Presentation of the universal group of a finite partial operation,
    given as its table ``((x, y), z)`` per defined product x y = z: a
    chained-difference table (``maxset_table``) or a partial-action harvest
    (``PartialActionData.items``).  Where ``_abelian_certificate`` holds, the
    generators are P, labelled by the exact value, and the relators the
    commutators of P, then the Hermite basis of its rows as words (<p, q |
    [p, q]> for ``fib``'s table).  Otherwise one generator per value, in
    ascending order, and one relation x y = z per entry, in table order."""
    index: dict = {}  # value -> id, each value hashed once per occurrence
    entries = {(index.setdefault(x, len(index)), index.setdefault(y, len(index))): index.setdefault(z, len(index))
               for (x, y), z in source.items()}
    values = list(index)
    order = sorted(range(len(values)), key=values.__getitem__)
    certificate = _abelian_certificate(values, index, entries, order)
    if certificate is not None:
        gens, rows = certificate
        label = [str(values[p]) for p in gens]
        relators = [reduce_word([(a, 1), (b, 1), (a, -1), (b, -1)]) for a, b in combinations(label, 2)]
        relators += [reduce_word((g, 1 if e > 0 else -1) for g, e in zip(label, row) for _ in range(abs(e)))
                     for row in hnf(rows)[1]]
        return Presentation(tuple(label), tuple(relators))
    label = [str(v) for v in values]
    return presentation_from_pairs(
        [label[i] for i in order], [([label[x], label[y]], [label[z]]) for (x, y), z in entries.items()])
