"""Bi-infinite symbolic sequences and their factor languages.

A sequence is described by a :class:`SequenceSpec` (substitution fixed
point, periodic word, or two spliced half-infinite periodic words) and is
only ever materialised through a finite window, so every downstream
result carries its truncation.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from types import MappingProxyType
from typing import Optional

from ._record import Record


class TruncationError(ValueError):
    """A query reached beyond the materialised window."""


class IndexedWord(Record):
    """A finite window of a bi-infinite sequence: letters at indices
    [start_index, start_index + len)."""

    start_index: int
    letters: str

    def __len__(self):
        return len(self.letters)

    @property
    def end_index(self) -> int:
        return self.start_index + len(self.letters)

    def at(self, i: int) -> str:
        if not self.start_index <= i < self.end_index:
            raise TruncationError(f"index {i} outside window [{self.start_index}, {self.end_index})")
        return self.letters[i - self.start_index]


def expand_substitution(rule: dict[str, str], seed: str, iterations: int) -> str:
    """Iterate a non-erasing substitution on a seed letter."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    for letter, image in rule.items():
        if not image:
            raise ValueError(f"erasing rule {letter!r} -> '' rejected")
    word = seed
    for _ in range(iterations):
        word = "".join(rule[c] for c in word)
    return word


def _windows_of_iterate(rule: dict[str, str], word: str, iterations: int, m: int) -> set[str]:
    """The factors of length m of sigma^iterations(word) (the iterate itself
    if shorter), a step at a time: sigma is non-erasing, so each factor of
    length m of sigma(w) lies in the image of one of w, and no word longer
    than |sigma| * m is built."""

    def windows(text: str) -> set[str]:
        return {text[i:i + m] for i in range(max(len(text) - m, 0) + 1)}

    found = windows(word)
    for _ in range(iterations):
        step = set().union(*(windows(expand_substitution(rule, w, 1)) for w in found))
        if step == found:  # a fixed point of the step stays one
            break
        found = step
    return found


def _resolve_seed_pair(rule: dict[str, str], seed: str, seed_left: Optional[str]) -> tuple[str, int]:
    """Find (u, k): sigma^k(seed) starts with seed, sigma^k(u) ends with u,
    and u+seed occurs in sigma^max(4k, 8)(seed); the least such k, then the
    first such u (seed_left, else the letters in order).

    sigma is non-erasing, so the first len(seed) letters of sigma(w) depend
    only on those of w, and the last len(u) likewise: each step keeps just
    those, and the probe its factors of length len(u + seed)
    (``_windows_of_iterate``).  No iterate sigma^k is built.
    """
    candidates = [seed_left] if seed_left else sorted(rule)
    head, tails = seed, candidates
    for k in range(1, 9):
        head = expand_substitution(rule, head, 1)[:len(seed)]
        tails = [expand_substitution(rule, t, 1)[-len(u):] for u, t in zip(candidates, tails)]
        ends = [u for u, tail in zip(candidates, tails) if tail == u]
        if head != seed or not ends:
            continue
        probe = _windows_of_iterate(rule, seed, max(k * 4, 8), len(candidates[0]) + len(seed))
        for u in ends:
            if u + seed in probe:
                return u, k
    raise ValueError(f"no legal two-sided seed pair for seed {seed!r}"
                     + (f" with left letter {seed_left!r}" if seed_left else ""))


# the fields each kind of SequenceSpec reads, in field order
_KIND_FIELDS = {"substitution": ("rule", "seed", "seed_left"), "periodic": ("word",), "spliced": ("left", "right")}


class SequenceSpec(Record):
    """One of: substitution(rule, seed[, seed_left]), periodic(word),
    spliced(left, right); a field that its kind does not read is an error.

    For substitutions the two-sided fixed point is seeded from the legal
    pair seed_left | seed; when seed_left is omitted it is resolved once
    and recorded so runs are reproducible.  The power k of the pair is
    kept too, for two_sided_window.
    """

    kind: str
    rule: Optional[Mapping[str, str]]
    seed: Optional[str]
    seed_left: Optional[str]
    word: Optional[str]
    left: Optional[str]
    right: Optional[str]

    def __init__(self, kind: str, rule: Optional[Mapping[str, str]] = None, seed: Optional[str] = None,
                 seed_left: Optional[str] = None, word: Optional[str] = None, left: Optional[str] = None,
                 right: Optional[str] = None):
        self.__dict__.update(kind=kind, rule=rule, seed=seed, seed_left=seed_left, word=word, left=left, right=right)
        for name in self._fields:
            value = getattr(self, name)
            if name != "rule" and value is not None and not isinstance(value, str):
                raise ValueError(f"spec field {name!r} must be a string")
        if self.rule is not None:
            if not (isinstance(self.rule, Mapping) and all(
                    isinstance(k, str) and len(k) == 1 and isinstance(v, str) for k, v in self.rule.items())):
                raise ValueError("spec rule must map letters to words")
            # a read-only copy: no later change to the caller's mapping reaches the spec
            object.__setattr__(self, "rule", MappingProxyType(dict(self.rule)))
        if self.kind not in _KIND_FIELDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        unread = [name for name in self._fields[1:]
                  if name not in _KIND_FIELDS[self.kind] and getattr(self, name) is not None]
        if unread:
            raise ValueError(f"{self.kind} spec does not take {', '.join(unread)}")
        if self.kind == "substitution":
            if not self.rule or not self.seed:
                raise ValueError("substitution spec needs rule and seed")
            unruled = set(self.seed + (self.seed_left or "") + "".join(self.rule.values())) - self.rule.keys()
            if unruled:
                raise ValueError(f"substitution rule has no image for letter {', '.join(map(repr, sorted(unruled)))}")
            u, k = _resolve_seed_pair(self.rule, self.seed, self.seed_left)
            object.__setattr__(self, "seed_left", u)
            object.__setattr__(self, "_power", k)
        elif self.kind == "periodic":
            if not self.word:
                raise ValueError("periodic spec needs a word")
        elif not self.left or not self.right:
            raise ValueError("spliced spec needs left and right words")

    # JSON form, e.g. {"kind":"substitution","rule":{"a":"ab","b":"a"},"seed":"a"}
    def to_json(self) -> str:
        # a built spec has every field of its kind set, and no other; the
        # read-only rule is written as the dict it copies
        return json.dumps({"kind": self.kind} | {name: getattr(self, name) for name in _KIND_FIELDS[self.kind]},
                          default=dict)

    @classmethod
    def from_json(cls, text: str) -> "SequenceSpec":
        data = json.loads(text)
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError('a sequence spec is a JSON object with a "kind"')
        unknown = data.keys() - cls._fields
        if unknown:
            raise ValueError(f"unknown sequence spec keys {sorted(unknown)}")
        return cls(**data)


def two_sided_window(spec: SequenceSpec, half_width: int) -> IndexedWord:
    """Letters of the bi-infinite sequence at indices [-half_width, half_width].

    Conventions: T(0) is the first letter of the periodic word (periodic),
    the last letter of the left word (spliced), or the last letter of the
    left fixed-point half (substitution); indices >= 1 continue with the
    right half.
    """
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    h = half_width
    if spec.kind == "periodic":
        w = spec.word
        letters = "".join(w[i % len(w)] for i in range(-h, h + 1))
        return IndexedWord(-h, letters)
    if spec.kind == "spliced":
        nl, nr = len(spec.left), len(spec.right)
        left = "".join(spec.left[(i - 1) % nl] for i in range(-h, 1))
        right = "".join(spec.right[(i - 1) % nr] for i in range(1, h + 1))
        return IndexedWord(-h, left + right)
    u, k = spec.seed_left, spec._power
    # each half is read off its own fixed point in O(h), the left one backwards
    left = _fixed_prefix({x: image[::-1] for x, image in spec.rule.items()}, k, u[::-1], h + 1)
    return IndexedWord(-h, left[h::-1] + _fixed_prefix(spec.rule, k, spec.seed, h)[:h])


def _fixed_prefix(rule: dict[str, str], k: int, word: str, n: int) -> str:
    """The first n or more letters of the fixed point w = tau(w) of
    tau = sigma^k that starts with word, read off w itself; each tau-image
    is cut to n letters, as a longer one ends w."""
    images = {x: x for x in rule}
    for _ in range(k):
        images = {x: expand_substitution(rule, image, 1)[:n] for x, image in images.items()}
    read = end = 0
    while len(word) < n:
        if read == len(word):
            raise ValueError("substitution does not grow; two-sided extension undefined")
        grown = "".join(map(images.__getitem__, word[read:]))
        read = len(word)
        word += grown[read - end:]
        end += len(grown)
    return word


class FactorLanguage(Record):
    """All factors of a window up to max_len, stamped with the truncation
    they were computed from.  Factorial by construction."""

    words: frozenset[str]
    max_len: int
    window_start: int
    window_len: int

    def __contains__(self, word: str) -> bool:
        if len(word) > self.max_len:
            raise TruncationError(f"word of length {len(word)} beyond max_len {self.max_len}")
        return word in self.words

    def of_length(self, n: int) -> list[str]:
        return sorted(w for w in self.words if len(w) == n)


def factor_language(word: IndexedWord, max_len: int) -> FactorLanguage:
    """All distinct non-empty factors of length <= max_len in the window.

    A factor of length L <= max_len starting at index i is a prefix of
    text[i:i + max_len] (the slice clamps at the end of the window), so the
    language is the set of prefixes of those n slices.  Collecting the
    slices into a set first leaves F distinct ones (a Sturmian window has
    max_len + 1 of full length, and the clamped ones add at most
    max_len - 1), so the cost is O(n + F*max_len) Python-level steps
    instead of the n*max_len slices of a scan over every (start, length).
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    text = word.letters
    n = len(text)
    heads = {text[i:i + max_len] for i in range(n)}
    found = frozenset(h[:k] for h in heads for k in range(1, len(h) + 1))
    return FactorLanguage(found, max_len, word.start_index, n)
