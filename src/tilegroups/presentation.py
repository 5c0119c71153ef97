"""Free-group words, finite presentations and exact integer linear algebra.

Relators are stored as freely reduced words.  Abelianization works over
arbitrary-precision integers on the sparse exponent-sum rows: unit pivots
first, each eliminating one generator, then the invariant factors of the
small dense remainder from alternating Hermite forms.
No general isomorphism testing is attempted: reports state abelian
invariants plus the two named certificates (empty relator set => free;
commutators present and all relators in the commutator subgroup => free
abelian), which is exactly the level of argument the computations need.
"""

from __future__ import annotations

from bisect import insort
from itertools import compress, repeat
from math import gcd
from typing import Callable, Iterable, Optional, Sequence

from ._record import Record


# ---------------------------------------------------------------------------
# free words


def reduce_word(letters: Iterable[tuple[str, int]]) -> "FreeWord":
    """Freely reduce a sequence of (generator, +-1) letters."""
    stack: list[tuple[str, int]] = []
    for gen, exp in letters:
        if exp not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {exp}")
        if stack and stack[-1][0] == gen and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append((gen, exp))
    return _word(tuple(stack))


class FreeWord(Record):
    """A freely reduced word; letters are (generator label, +-1)."""

    letters: tuple[tuple[str, int], ...]

    def __init__(self, letters: tuple[tuple[str, int], ...] = ()):
        for (g, e), (g2, e2) in zip(letters, letters[1:]):
            if g == g2 and e == -e2:
                raise ValueError("word is not freely reduced")
        self.__dict__.update(letters=letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return reduce_word(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return _word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def generators(self) -> set[str]:
        return {g for g, _ in self.letters}

    def substitute(self, gen: str, image: "FreeWord") -> "FreeWord":
        out: list[tuple[str, int]] = []
        for g, e in self.letters:
            if g != gen:
                out.append((g, e))
            elif e == 1:
                out.extend(image.letters)
            else:
                out.extend(image.inverse().letters)
        return reduce_word(out)

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(g if e == 1 else f"{g}-" for g, e in self.letters)


def _word(letters: tuple[tuple[str, int], ...]) -> FreeWord:
    """A FreeWord from letters already freely reduced: skips the check."""
    w = object.__new__(FreeWord)
    object.__setattr__(w, "letters", letters)
    return w


# ---------------------------------------------------------------------------
# presentations


class Presentation(Record):
    generators: tuple[str, ...]
    relators: tuple[FreeWord, ...]

    def __init__(self, generators: tuple[str, ...], relators: tuple[FreeWord, ...]):
        gens = set(generators)
        if len(gens) != len(generators):
            raise ValueError("duplicate generator labels")
        unknown = {g for rel in relators for g, _ in rel.letters} - gens
        if unknown:
            raise ValueError(f"relator uses unknown labels {sorted(unknown)}")
        self.__dict__.update(generators=generators, relators=relators)

    def __str__(self):
        rels = "; ".join(str(r) for r in self.relators)
        return f"gens: {' '.join(self.generators)}; rel: {rels}"


def _presentation(generators: tuple[str, ...], relators: tuple[FreeWord, ...]) -> Presentation:
    """A Presentation whose relators are known to use only its distinct
    generators: skips the check."""
    p = object.__new__(Presentation)
    object.__setattr__(p, "generators", generators)
    object.__setattr__(p, "relators", relators)
    return p


def presentation_from_pairs(
    generators: Sequence[str],
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
) -> Presentation:
    """Relators u * v^-1 from ordered pairs of positive words, cut to their
    cyclic core: free reduction cancels the common suffix, and the common
    prefix p goes too, since p u' v'^-1 p^-1 is a conjugate of u' v'^-1 and
    has the same normal closure.  Trivial ones dropped, duplicates kept once."""
    relators: list[FreeWord] = []
    seen = set()
    for u, v in pairs:
        i, j = len(u), len(v)
        while i and j and u[i - 1] == v[j - 1]:
            i, j = i - 1, j - 1
        k = 0
        while k < i and k < j and u[k] == v[k]:
            k += 1
        key = (tuple(u[k:i]), tuple(v[k:j]))
        if any(key) and key not in seen:
            seen.add(key)
            relators.append(_word(tuple(zip(key[0], repeat(1))) + tuple(zip(reversed(key[1]), repeat(-1)))))
    return Presentation(tuple(generators), tuple(relators))


# ---------------------------------------------------------------------------
# exact integer matrices

IntMatrix = list[list[int]]


def smith_invariants(matrix: IntMatrix) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of the matrix.

    Kannan and Bachem's route: Hermite forms of the rows and of the
    transposed basis alternate until the basis is diagonal.  The loop ends
    because each form's leading pivot is the gcd of the first row of the
    form before, which holds the previous pivot, so it never grows.  Once
    it stops shrinking it divides that row, the form clears the row, and
    the first row and column stay clean; the rest of the basis then goes
    the same way.  Pairwise (gcd, lcm) swaps order the diagonal by
    divisibility without changing the group it presents.
    """
    _, d = hnf(matrix)
    while any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
        _, d = hnf([list(col) for col in zip(*d)])
    factors = [d[i][i] for i in range(len(d))]  # full row rank: no zero diagonal
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return factors


def hnf(matrix: IntMatrix) -> tuple[int, IntMatrix]:
    """Row Hermite normal form over Z: returns (rank, basis rows).

    Basis rows generate the same row lattice as the input; pivots are
    positive and entries above each pivot are reduced into [0, pivot).
    """
    rows = [row[:] for row in matrix if any(row)]
    if not rows:
        return 0, []
    cols = len(rows[0])
    basis: list[list[int]] = []
    r = 0
    for c in range(cols):
        # euclidean elimination in column c over rows r..
        while True:
            live = [i for i in range(r, len(rows)) if rows[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i0] = rows[i0], rows[r]
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
            done = True
            for i in range(r + 1, len(rows)):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if r < len(rows) and rows[r][c] != 0:
            for b in basis:
                if b[c] != 0:
                    q = b[c] // rows[r][c]
                    b[:] = [x - q * y for x, y in zip(b, rows[r])]
            basis.append(rows[r])
            r += 1
    return len(basis), basis


def _exponent_rows(pres: Presentation) -> IntMatrix:
    """One row of exponent sums per relator, one column per generator,
    built in one pass over each relator's letters."""
    column = {g: j for j, g in enumerate(pres.generators)}
    matrix = []
    for rel in pres.relators:
        row = [0] * len(column)
        for g, e in rel.letters:
            row[column[g]] += e
        matrix.append(row)
    return matrix


def abelian_invariants(pres: Presentation) -> tuple[int, list[int]]:
    """(free rank, torsion factors > 1) of the abelianized group.

    Sparse unit pivots first: while some exponent sum is +-1, that
    generator is eliminated (the abelian shadow of a Tietze move), which
    splits off one invariant factor 1.  Columns held by the fewest rows go
    first, and zero rows and rows equal to a live row are dropped as they
    appear.  What is left is a small dense remainder, whose invariant
    factors :func:`smith_invariants` finds.
    """
    n = len(pres.generators)
    if not pres.relators:
        return n, []
    rows: dict[int, dict[int, int]] = {}  # row id -> {column: nonzero coefficient}
    keys: set[frozenset] = set()  # contents of the live rows
    holders: list[set[int]] = [set() for _ in range(n)]  # column -> ids of rows with it
    touched = set(range(n))  # columns that may hold a unit

    def place(i: int, row: dict[int, int]) -> None:
        key = frozenset(row.items())
        if row and key not in keys:
            rows[i] = row
            keys.add(key)
            for c in row:
                holders[c].add(i)
            touched.update(row)

    def drop(i: int) -> dict[int, int]:
        row = rows.pop(i)
        keys.remove(frozenset(row.items()))
        for c in row:
            holders[c].discard(i)
        return row

    for i, row in enumerate(dict.fromkeys(map(tuple, _exponent_rows(pres)))):
        place(i, dict(compress(enumerate(row), row)))
    units = 0
    while touched:
        c = min(touched, key=lambda c: (len(holders[c]), c))
        touched.discard(c)
        pivots = [i for i in holders[c] if rows[i][c] in (1, -1)]
        if not pivots:
            continue
        pivot = drop(min(pivots, key=lambda i: (len(rows[i]), i)))
        units += 1
        for i in list(holders[c]):
            row = drop(i)
            q = row[c] * pivot[c]  # the pivot is +-1, its own inverse
            for j, x in pivot.items():
                y = row.get(j, 0) - q * x
                if y:
                    row[j] = y
                else:
                    del row[j]
            place(i, row)
    columns = sorted({c for row in rows.values() for c in row})
    factors = smith_invariants([[row.get(c, 0) for c in columns] for row in rows.values()])
    free_rank = n - units - len(factors)
    torsion = [f for f in factors if f > 1]
    return free_rank, torsion


# ---------------------------------------------------------------------------
# Tietze simplification


def tietze_simplify(pres: Presentation) -> Presentation:
    """Drop empty/duplicate relators and eliminate generators defined by
    relators of length <= 2, until no relator defines a generator.  Output
    presents an isomorphic group.  Each round eliminates one generator by
    the earliest defining relator, so there are at most as many rounds as
    generators, and keeps the earliest of relators equal up to inversion;
    it touches only the relators that hold the eliminated generator."""
    gens = list(pres.generators)
    live: dict[int, tuple[FreeWord, tuple]] = {}  # input position -> (relator, dedup key)
    kept: dict[tuple, int] = {}  # dedup key -> position
    uses: dict[str, set[int]] = {g: set() for g in gens}
    short: list[int] = []  # sorted positions placed with length <= 2; lengths never grow

    def drop(p: int) -> None:
        rel, key = live.pop(p)
        del kept[key]
        for g in rel.generators():
            uses[g].discard(p)

    def place(p: int, rel: FreeWord) -> None:
        letters = rel.letters
        inv = tuple((g, -e) for g, e in reversed(letters))
        key = letters if letters <= inv else inv
        if not rel or kept.get(key, p) < p:
            return
        if key in kept:
            drop(kept[key])
        live[p], kept[key] = (rel, key), p
        for g in rel.generators():
            uses[g].add(p)
        if len(rel) <= 2:
            insort(short, p)

    def definition(p: int) -> Optional[tuple[str, FreeWord]]:
        if p not in live:
            return None
        letters = live[p][0].letters
        if len(letters) == 1:
            return letters[0][0], FreeWord()
        (g1, e1), (g2, e2) = letters
        # g1^e1 g2^e2 = 1  =>  g1 = g2^(-e2*e1)
        return (g1, FreeWord(((g2, -e2 * e1),))) if g1 != g2 else None

    for p, rel in enumerate(pres.relators):
        place(p, rel)
    while short:
        step = definition(short.pop(0))
        if step is None:
            continue
        gen, image = step
        gens.remove(gen)
        changed = [(p, live[p][0]) for p in uses[gen]]
        for p, _ in changed:
            drop(p)
        del uses[gen]
        for p, rel in changed:
            place(p, rel.substitute(gen, image))
    return _presentation(tuple(gens), tuple(live[p][0] for p in sorted(live)))


# ---------------------------------------------------------------------------
# homomorphism checking


def check_homomorphism(
    pres: Presentation,
    images: dict[str, FreeWord],
    target_is_trivial: Callable[[FreeWord], bool],
) -> bool:
    """True iff mapping each generator to its image kills every relator."""
    missing = set(pres.generators) - set(images)
    if missing:
        raise ValueError(f"no image for generators {sorted(missing)}")
    for rel in pres.relators:
        # free reduction is confluent, so one pass reduces the whole image
        image = (images[g] if e == 1 else images[g].inverse() for g, e in rel.letters)
        if not target_is_trivial(reduce_word(x for word in image for x in word.letters)):
            return False
    return True


# ---------------------------------------------------------------------------
# named certificates


def certificate_free(pres: Presentation) -> Optional[int]:
    """Empty relator set certifies a free group; returns its rank."""
    if any(pres.relators):
        return None
    return len(pres.generators)


def certificate_free_abelian(pres: Presentation) -> Optional[int]:
    """Certify the group is Z^n.

    Conditions: every relator lies in the commutator subgroup (all exponent
    sums zero), and for each generator pair some relator is the plain
    commutator (up to inversion and cyclic rotation).  The relations then
    force commutativity, and abelianized they impose nothing, so the group
    is Z^n exactly.
    """
    if any(any(row) for row in _exponent_rows(pres)):
        return None
    needed = {frozenset((a, b)) for i, a in enumerate(pres.generators)
              for b in pres.generators[i + 1:]}
    # exponent sums are zero, so a reduced 4-letter relator reads
    # x^e y^f x^-e y^-f with x != y: a commutator up to inversion and rotation
    found = {frozenset(rel.generators()) for rel in pres.relators if len(rel) == 4}
    if needed <= found:
        return len(pres.generators)
    return None
