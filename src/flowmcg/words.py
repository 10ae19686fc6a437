"""Finite words, languages, cylinder sets, sliding block codes.

Symbols are arbitrary strings; internally every word is a tuple of integer
indices into an Alphabet. Words render as plain strings when every symbol is a
single character, and as comma-joined lists otherwise.

Block codes compose (`compose_codes`), are checked against a language
(`language_violation`) and are inverted with both round trips verified
(`inverse_code`); flow codes and the automorphism search share these.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InternalCheckError, ValidationError

# symbols of each overlap that shift_offsets compares before copying the rest
_HEAD = 16
# largest radius tried for the inverse of a block code
INVERSE_RADIUS_BUDGET = 6
# block length to which languages are checked: automorphism candidates,
# flow codes and their inverses
CHECK_DEPTH = 12


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValidationError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet symbols must be distinct")
        for s in self.symbols:
            if not isinstance(s, str) or not s:
                raise ValidationError("alphabet symbols must be nonempty strings")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})
        object.__setattr__(self, "_single_char", all(len(s) == 1 for s in self.symbols))

    @classmethod
    def of(cls, symbols: Iterable[str]) -> "Alphabet":
        return cls(tuple(symbols))

    @classmethod
    def labels(cls, count: int) -> "Alphabet":
        """Letters for a recoded alphabet: A, B, ... up to 26, else r0, r1, ..."""
        if count <= 26:
            return cls.of(chr(ord("A") + i) for i in range(count))
        return cls.of(f"r{i}" for i in range(count))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]  # type: ignore[attr-defined]
        except KeyError:
            raise ValidationError(f"symbol {symbol!r} not in alphabet {self.symbols}")

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index  # type: ignore[attr-defined]

    @property
    def single_char(self) -> bool:
        return self._single_char  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Word:
    alphabet: Alphabet
    idx: tuple[int, ...]

    def __post_init__(self) -> None:
        d = len(self.alphabet)
        for i in self.idx:
            if not (0 <= i < d):
                raise ValidationError(f"letter index {i} out of range")

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str | Sequence[str]) -> "Word":
        """Parse from a string (per character when symbols are single chars,
        else comma separated) or from a sequence of symbols."""
        if isinstance(text, str):
            if alphabet.single_char and "," not in text:
                parts: Sequence[str] = text
            else:
                parts = [p for p in text.split(",") if p != ""]
        else:
            parts = list(text)
        return cls(alphabet, tuple(map(alphabet.index, parts)))

    @property
    def text(self) -> str:
        syms = [self.alphabet.symbols[i] for i in self.idx]
        if self.alphabet.single_char:
            return "".join(syms)
        return ",".join(syms)

    def __len__(self) -> int:
        return len(self.idx)

    def __add__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise ValidationError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.idx + other.idx)

    def __repr__(self) -> str:
        return f"Word({self.text!r})"


def word_idx(alphabet: Alphabet, item) -> tuple[int, ...]:
    """Letter indices of a word given as a Word over `alphabet`, a string
    (read by Word.parse) or a sequence of letter indices."""
    if isinstance(item, Word):
        if item.alphabet != alphabet:
            raise ValidationError("word is over a different alphabet")
        return item.idx
    if isinstance(item, str):
        return Word.parse(alphabet, item).idx
    try:
        idx = tuple(operator.index(a) for a in item)
    except TypeError:
        raise ValidationError(f"not a word: {item!r}")
    return Word(alphabet, idx).idx


def section_word(alphabet: Alphabet, section) -> tuple[int, ...] | None:
    """The word of a cross section given as None, a CylinderSet (the whole
    space or one cylinder) or a word `word_idx` reads; None stands for the
    whole space, and so does the empty word."""
    if section is None:
        return None
    if isinstance(section, CylinderSet):
        if section.alphabet != alphabet:
            raise ValidationError("section is over a different alphabet")
        if section.is_whole_space:
            return None
        if len(section.cylinders) != 1:
            raise ValidationError("sections must be the whole space or one cylinder")
        return section.cylinders[0].word.idx
    return word_idx(alphabet, section) or None


def windows(seq: Sequence[int], n: int) -> Iterator[tuple[int, ...]]:
    """All length-n windows of an index sequence."""
    t = tuple(seq)
    for i in range(len(t) - n + 1):
        yield t[i : i + n]


def shift_offsets(
    x: tuple[int, ...], y: tuple[int, ...], shifts: Iterable[int], min_overlap: int
) -> Iterator[int]:
    """Every offset j in `shifts`, in order, with x[i] == y[i + j] wherever
    both sides are defined and at least `min_overlap` such positions.  The
    first _HEAD positions of an overlap are compared before the rest is
    copied, since most offsets fail there."""
    for j in shifts:
        start = max(0, -j)
        stop = min(len(x), len(y) - j)
        head = min(stop, start + _HEAD)
        if (
            stop - start >= min_overlap
            and x[start:head] == y[start + j : head + j]
            and x[head:stop] == y[head + j : stop + j]
        ):
            yield j


@dataclass
class LanguageTable:
    """Admissible blocks of a subshift, complete for every n <= n_max.

    With a `source`, a length missing from `blocks` is generated by it on
    first use and stored there.
    """

    alphabet: Alphabet
    blocks: dict[int, frozenset[tuple[int, ...]]]
    n_max: int
    source: Callable[[int], frozenset[tuple[int, ...]]] | None = None

    def blocks_of(self, n: int) -> frozenset[tuple[int, ...]]:
        if n == 0:
            return frozenset({()})
        if n > self.n_max:
            raise ValidationError(
                f"language table only complete to length {self.n_max}, asked for {n}"
            )
        found = self.blocks.get(n)
        if found is None:
            found = self.blocks[n] = self.source(n)
        return found

    def admissible(self, w: tuple[int, ...] | Word) -> bool:
        idx = w.idx if isinstance(w, Word) else tuple(w)
        if len(idx) == 0:
            return True
        return idx in self.blocks_of(len(idx))

    def complexity(self, n: int) -> int:
        return len(self.blocks_of(n))


@dataclass(frozen=True)
class Cylinder:
    """Points whose coordinates starting at `offset` spell `word`."""

    word: Word
    offset: int = 0


@dataclass(frozen=True)
class CylinderSet:
    """A finite union of cylinders, used as a cross section or a test set."""

    cylinders: tuple[Cylinder, ...]

    def __post_init__(self) -> None:
        if not self.cylinders:
            raise ValidationError("cylinder set must be a nonempty union")
        alphs = {c.word.alphabet for c in self.cylinders}
        if len(alphs) != 1:
            raise ValidationError("cylinders must share one alphabet")

    @classmethod
    def single(cls, word: Word, offset: int = 0) -> "CylinderSet":
        return cls((Cylinder(word, offset),))

    @classmethod
    def whole_space(cls, alphabet: Alphabet) -> "CylinderSet":
        return cls((Cylinder(Word(alphabet, ()), 0),))

    @property
    def alphabet(self) -> Alphabet:
        return self.cylinders[0].word.alphabet

    @property
    def is_whole_space(self) -> bool:
        return any(len(c.word) == 0 for c in self.cylinders)

    def check_admissible(self, language: LanguageTable) -> None:
        for c in self.cylinders:
            if not language.admissible(c.word):
                raise ValidationError(f"cylinder word {c.word.text!r} is not admissible")

    def check_disjoint(self, language: LanguageTable) -> None:
        """Pairwise disjointness, decided inside the language."""
        cs = self.cylinders
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                if _cylinders_overlap(cs[i], cs[j], language):
                    raise ValidationError(
                        f"cylinders {cs[i]} and {cs[j]} overlap inside the language"
                    )


def _cylinders_overlap(c1: Cylinder, c2: Cylinder, language: LanguageTable) -> bool:
    lo = min(c1.offset, c2.offset)
    hi = max(c1.offset + len(c1.word), c2.offset + len(c2.word))
    n = hi - lo
    template: list[int | None] = [None] * n
    for c in (c1, c2):
        for k, a in enumerate(c.word.idx):
            pos = c.offset - lo + k
            if template[pos] is not None and template[pos] != a:
                return False
            template[pos] = a
    # joint satisfiability: some admissible n-block fills the template
    for block in language.blocks_of(n):
        if all(t is None or t == b for t, b in zip(template, block)):
            return True
    return False


@dataclass(frozen=True)
class SlidingBlockCode:
    """A block map: the output at position i is rule[input window i-r .. i+r].

    The rule need only cover admissible windows of the intended domain.
    """

    in_alphabet: Alphabet
    out_alphabet: Alphabet
    radius: int
    rule: Mapping[tuple[int, ...], int]

    def __post_init__(self) -> None:
        width = 2 * self.radius + 1
        for win, out in self.rule.items():
            if len(win) != width:
                raise ValidationError("rule window of wrong width")
            if not (0 <= out < len(self.out_alphabet)):
                raise ValidationError("rule output out of range")

    @classmethod
    def from_symbol_map(
        cls,
        in_alphabet: Alphabet,
        out_alphabet: Alphabet,
        mapping: Mapping[str, str],
    ) -> "SlidingBlockCode":
        rule = {
            (in_alphabet.index(a),): out_alphabet.index(b) for a, b in mapping.items()
        }
        return cls(in_alphabet, out_alphabet, 0, rule)

    @classmethod
    def shift_power(cls, alphabet: Alphabet, language: LanguageTable, k: int) -> "SlidingBlockCode":
        """The code realizing the k-th shift power at radius |k|."""
        r = abs(k)
        rule = {w: w[r + k] for w in language.blocks_of(2 * r + 1)}
        return cls(alphabet, alphabet, r, rule)

    def apply(self, seq: Sequence[int]) -> tuple[int, ...]:
        """Slide over an index sequence; output is 2*radius shorter."""
        r = self.radius
        n = len(seq)
        if n < 2 * r + 1:
            return ()
        out = []
        t = tuple(seq)
        for i in range(r, n - r):
            win = t[i - r : i + r + 1]
            try:
                out.append(self.rule[win])
            except KeyError:
                raise ValidationError(
                    f"window {win} not covered by the code rule"
                )
        return tuple(out)


def compose_codes(
    outer: SlidingBlockCode,
    inner: SlidingBlockCode,
    domain_language: LanguageTable,
) -> SlidingBlockCode:
    """Code computing outer(inner(x)) on the windows of domain_language;
    radius is the sum of radii.

    A window whose inner image is not covered by the outer rule is a
    language mismatch and raises.
    """
    if inner.out_alphabet != outer.in_alphabet:
        raise ValidationError("codes not composable: alphabet mismatch")
    r = outer.radius + inner.radius
    rule: dict[tuple[int, ...], int] = {}
    for win in domain_language.blocks_of(2 * r + 1):
        mid = inner.apply(win)  # length 2*outer.radius + 1
        try:
            rule[win] = outer.rule[tuple(mid)]
        except KeyError:
            raise ValidationError(
                "language mismatch: inner image window not covered by outer rule"
            )
    return SlidingBlockCode(inner.in_alphabet, outer.out_alphabet, r, rule)


def language_violation(
    code: SlidingBlockCode,
    domain: LanguageTable,
    codomain: LanguageTable,
    n_max: int,
) -> tuple[int, ...] | None:
    """The first admissible block whose image, of length 1..n_max, is not
    admissible (or not covered by the rule), else None."""
    r = code.radius
    for n in range(1, n_max + 1):
        for w in domain.blocks_of(n + 2 * r):
            try:
                img = code.apply(w)
            except ValidationError:
                return w
            if not codomain.admissible(img):
                return w
    return None


def inverse_code(
    code: SlidingBlockCode, domain: LanguageTable, codomain: LanguageTable
) -> SlidingBlockCode:
    """The inverse block code of least radius (at most INVERSE_RADIUS_BUDGET)
    on the domain's windows, checked onto the codomain's blocks, with both
    round trips checked to be the identity on admissible windows.

    Raises ValidationError when no inverse exists within the budget, the
    code is not onto, or a language is too shallow for a round trip, and
    InternalCheckError when a round trip fails.
    """
    r = code.radius
    witness = None
    for rho in range(INVERSE_RADIUS_BUDGET + 1):
        width = 2 * rho + 1 + 2 * r
        if width > domain.n_max:
            break
        rule: dict[tuple[int, ...], int] = {}
        ok = True
        for u in domain.blocks_of(width):
            v = code.apply(u)
            c = u[r + rho]
            prev = rule.get(v)
            if prev is None:
                rule[v] = c
            elif prev != c:
                witness = v
                ok = False
                break
        if not ok:
            continue
        if 2 * rho + 1 <= codomain.n_max:
            missing = [
                v for v in codomain.blocks_of(2 * rho + 1) if v not in rule
            ]
            if missing:
                raise ValidationError(
                    f"code misses the target block {missing[0]}; not onto"
                )
        inverse = SlidingBlockCode(code.out_alphabet, code.in_alphabet, rho, rule)
        _check_roundtrip(code, inverse, domain)
        _check_roundtrip(inverse, code, codomain)
        return inverse
    raise ValidationError(
        f"no inverse code within radius {INVERSE_RADIUS_BUDGET}; ambiguous block {witness}"
    )


def _check_roundtrip(
    fwd: SlidingBlockCode,
    inv: SlidingBlockCode,
    domain: LanguageTable,
) -> None:
    width = 2 * (fwd.radius + inv.radius) + 1
    if width > domain.n_max:
        raise ValidationError(
            f"roundtrip check needs language depth {width}; the language "
            f"reaches {domain.n_max}"
        )
    composite = compose_codes(inv, fwd, domain)
    for win, out in composite.rule.items():
        if out != win[composite.radius]:
            raise InternalCheckError(
                f"inverse does not undo the code on window {win}"
            )


def code_preserves_language(
    code: SlidingBlockCode,
    domain: LanguageTable,
    codomain: LanguageTable,
    n_max: int,
) -> bool:
    """Images of admissible blocks are admissible, for outputs up to n_max."""
    usable = max(0, min(n_max, domain.n_max - 2 * code.radius))
    if language_violation(code, domain, codomain, usable) is not None:
        return False
    if usable < n_max:
        need = usable + 1 + 2 * code.radius
        raise ValidationError(f"domain language too short: need blocks of length {need}")
    return True
