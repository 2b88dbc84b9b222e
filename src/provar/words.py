"""Reduced words of a finitely generated free group.

Letters are signed 1-based generator indices: +i is the i-th generator,
-i its inverse.  Text syntax uses lowercase letters a..z for generators
and the matching uppercase letter for the inverse; an optional power
suffix is accepted, so "aba^-3 B^2" parses fine.

Every metabelian image of a word is read off one walk over its letters:
``fox`` gives its Fox derivatives over Z[Z^n] (the flows of
``metabelian`` and the free objects of ``apd`` reduce them), and
``height_counts`` gives the a-counts per b-height of a rank-2 word
(read by ``bs.bs_eval`` and the witness search of ``metabelian``).
"""

from __future__ import annotations

import re
import string
from array import array
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from operator import add

from .errors import CapExceededError
from .permgroup import DEFAULT_ELEMENT_CAP

# the whole text: letters, each with an optional power
_WORD = re.compile(r"(?:[a-zA-Z](?:\s*\^\s*-?\d+)?)*")
_POWERED = re.compile(r"([a-zA-Z])\s*\^\s*(-?\d+)")


def _code_table(rank: int) -> bytes:
    """The bytes.translate table of a rank-``rank`` word text, rank <= 26:
    each of its letters to the letter as a signed byte (array("b") reads
    them back), every other byte to 0."""
    table = bytearray(256)
    for i, c in enumerate(string.ascii_lowercase[:rank]):
        table[ord(c)], table[ord(c.upper())] = i + 1, 255 - i
    return bytes(table)


_CODES = [_code_table(rank) for rank in range(27)]
# _CANCELLING[rank]: the cancelling pairs x x^-1 of a rank-``rank`` text, as
# signed bytes
_CANCELLING = [tuple(bytes([x % 256, -x % 256]) for i in range(1, rank + 1) for x in (i, -i))
               for rank in range(27)]


def reduce_letters(letters) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent x, x^-1 pairs)."""
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word over the rank-``rank`` free group."""

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        letters = self.letters
        _check_range(letters, self.rank)
        # a == -b exactly when a + b == 0
        if 0 in map(add, letters, letters[1:]):
            raise ValueError("word is not freely reduced")

    @classmethod
    def trusted(cls, letters: tuple[int, ...], rank: int) -> "Word":
        """A Word from letters its caller has already checked: rank >= 1,
        every letter in range for it and the tuple freely reduced.
        Neither check of ``__post_init__`` is made again, so it costs
        nothing per letter; ``Word(...)`` makes both."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        object.__setattr__(w, "rank", rank)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        """Both factors are reduced, so letters cancel only where they meet."""
        self._check_rank(other)
        left, right = self.letters, other.letters
        n, most = 0, min(len(left), len(right))
        while n < most and left[-1 - n] == -right[n]:
            n += 1
        return Word(left[: len(left) - n] + right[n:], self.rank)

    def inverse(self) -> "Word":
        return Word(tuple(-letter for letter in reversed(self.letters)), self.rank)

    def conjugate(self, by: "Word") -> "Word":
        """hgh^-1 for g = self, h = by."""
        self._check_rank(by)
        return by * self * by.inverse()

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word(reduce_letters(base.letters * abs(n)), self.rank)

    def is_identity(self) -> bool:
        return not self.letters

    def abelianization(self) -> tuple[int, ...]:
        """Exponent-sum vector."""
        counts = [0] * self.rank
        for letter in self.letters:
            counts[abs(letter) - 1] += 1 if letter > 0 else -1
        return tuple(counts)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        if self.rank > 26:
            return " ".join(f"g{abs(l)}^{'-1' if l < 0 else '1'}" for l in self.letters)
        chars = []
        for letter in self.letters:
            c = chr(ord("a") + abs(letter) - 1)
            chars.append(c if letter > 0 else c.upper())
        return "".join(chars)

    def _check_rank(self, other: "Word") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")


def _check_range(letters, rank: int) -> None:
    """Raise ValueError naming the first letter of the sequence that is 0
    or beyond ``rank`` in absolute value."""
    if letters and (0 in letters or min(letters) < -rank or max(letters) > rank):
        letter = next(l for l in letters if l == 0 or abs(l) > rank)
        raise ValueError(f"letter {letter} out of range for rank {rank}")


def word(letters, rank: int) -> Word:
    """Build a Word from a raw letter sequence, freely reducing it.

    Every letter is checked before reduction, which could cancel a bad
    pair such as 3, -3."""
    _check_range(letters, rank)
    return Word(reduce_letters(letters), rank)


def identity(rank: int) -> Word:
    return Word((), rank)


def parse(text: str, rank: int) -> Word:
    """Parse word text ("abA", "a^-3 b^2", "1" or "" for the identity).

    Spaces and "·" are dropped; whitespace may also surround "^".  The
    text is read left to right, one run of bare letters or one letter
    with a power at a time.  Each is checked against ``rank``
    (ValueError) and, before it is expanded, against the default cap on
    the number of letters before free reduction (CapExceededError).
    Text that does not go on with a letter raises ValueError where it
    stops.  Text of ASCII letters alone is one run and needs no regular
    expression.  Each run is checked and turned into letters by one byte
    table, and the letters are freely reduced only when some adjacent
    pair cancels.  Both facts are then known, so the word is built by
    ``Word.trusted``; a text with a letter needs a rank of at least 1,
    as every letter is beyond rank 0.
    """
    stripped = text.replace("·", "").replace(" ", "")
    if stripped in ("", "1"):
        return identity(rank)
    if "^" not in stripped and stripped.isascii() and stripped.isalpha():
        end, parts = len(stripped), [stripped]
    else:
        end = _WORD.match(stripped).end()
        # with its two groups, _POWERED splits the text into bare runs
        # alternating with (letter, power) pairs
        parts = _POWERED.split(stripped[:end]) if "^" in stripped else [stripped[:end]]
    data = bytearray()
    for i in range(0, len(parts), 3):
        codes = _letter_codes(parts[i], rank)
        _check_count(len(data) + len(codes))
        data += codes
        if i + 1 < len(parts):
            char = parts[i + 1]
            code = _letter_codes(char, rank)
            power = int(parts[i + 2])
            _check_count(len(data) + abs(power))
            data += (code if power > 0 else _letter_codes(char.swapcase(), rank)) * abs(power)
    if end < len(stripped):
        raise ValueError(f"cannot parse word at ...{stripped[end:]!r}")
    letters = array("b", data)
    if any(pair in data for pair in _CANCELLING[min(max(rank, 0), 26)]):
        return Word.trusted(reduce_letters(letters), rank)
    return Word.trusted(tuple(letters), rank)


def _letter_codes(run: str, rank: int) -> bytes:
    """A run of ASCII letters as signed bytes, one per letter; ValueError
    names the first letter beyond ``rank``."""
    codes = run.encode().translate(_CODES[min(max(rank, 0), 26)])
    if 0 in codes:
        raise ValueError(f"letter {run[codes.index(0)]!r} exceeds rank {rank}")
    return codes


def _check_count(count: int) -> None:
    if count > DEFAULT_ELEMENT_CAP:
        raise CapExceededError(f"word text expands to more than {DEFAULT_ELEMENT_CAP} letters")


def substitute(u: Word, images) -> Word:
    """u's image under a_i -> images[i - 1], freely reduced.  Letters are
    kept in runs x^n, so a run cancels in one step however long it is: the
    work is linear in |u| times the runs per image, plus the result's length."""
    if len(images) != u.rank:
        raise ValueError(f"{len(images)} images for a word of rank {u.rank}")
    runs = [None] * (2 * u.rank + 1)  # runs[-i]: the runs of images[i - 1]^-1
    for i, w in enumerate(images, 1):
        runs[i] = [(x, len(list(g))) for x, g in groupby(w.letters)]
        runs[-i] = [(-x, n) for x, n in reversed(runs[i])]
    stack = [[0, 0]]  # [letter, count] runs, over an empty run of the non-letter 0
    for letter in u.letters:
        for x, n in runs[letter]:
            top = stack[-1]
            if top[0] == x:
                top[1] += n
            elif top[0] != -x:
                stack.append([x, n])
            elif top[1] > n:
                top[1] -= n
            else:
                stack.pop()
                if top[1] < n:
                    stack.append([x, n - top[1]])
    return Word(tuple(chain.from_iterable(repeat(x, n) for x, n in stack)), images[0].rank)


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


def fox(u: Word) -> tuple[tuple[int, ...], list[dict[tuple[int, ...], int]]]:
    """The Fox derivatives of u over Z[Z^n], read in one pass.

    Returns (e, parts): e is the exponent-sum vector, the endpoint of u's
    path in Z^n, and parts[i] maps each point t of Z^n to the nonzero
    coefficient of t in du/da_i.  A letter a_i read at point t adds 1
    at t; a letter a_i^-1 read at t adds -1 at t minus the i-th unit
    vector.  So fox(uv) = fox(u) + e(u).fox(v), where e(u).fox(v) is
    fox(v) translated by e(u).
    """
    pos = [0] * u.rank
    parts: list[dict[tuple[int, ...], int]] = [{} for _ in range(u.rank)]
    for letter in u.letters:
        i = abs(letter) - 1
        if letter < 0:
            pos[i] -= 1
        t, part = tuple(pos), parts[i]
        part[t] = part.get(t, 0) + (1 if letter > 0 else -1)
        if letter > 0:
            pos[i] += 1
    return tuple(pos), [{t: c for t, c in part.items() if c} for part in parts]


def height_counts(u: Word) -> tuple[dict[int, int], int]:
    """The net a-count of a rank-2 word at each b-height, and its final
    height: a letter a^(+-1) read after a net j letters b counts +-1 at
    height j.  Heights with a zero count are left out."""
    if u.rank != 2:
        raise ValueError("rank-2 word required")
    counts: dict[int, int] = {}
    j = 0
    for letter in u.letters:
        if letter == 2 or letter == -2:
            j += letter // 2
        else:
            counts[j] = counts.get(j, 0) + letter
    return {h: c for h, c in counts.items() if c}, j
