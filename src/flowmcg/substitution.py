"""Substitutions on finite alphabets and the languages they generate."""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, Sequence, TypeVar

from .errors import Record, ResourceLimitError, ValidationError
from .words import Alphabet, LanguageTable, Word, windows

if TYPE_CHECKING:
    from .numberfield import AlgebraicNumber

# total symbols the images sigma^k(ab) built for one power may hold
SYMBOL_BUDGET = 2_000_000
# highest power of the substitution taken to make images long enough
_MAX_POWER = 64
# longest block length of the complexity screen for rational lambda
APERIODICITY_WINDOW = 50

T = TypeVar("T")


class Substitution(Record):
    """A map letter -> nonempty word, extended to words by concatenation."""

    alphabet: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != len(self.alphabet):
            raise ValidationError("one image word required per letter")
        for w in self.images:
            if w.alphabet != self.alphabet:
                raise ValidationError("image words must live over the same alphabet")
            if len(w) == 0:
                raise ValidationError("image words must be nonempty")
        object.__setattr__(self, "_blocks", {})
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_iter_cache", {})

    @classmethod
    def from_rules(cls, rules: Mapping[str, str | Sequence[str]],
                   alphabet: Sequence[str] | None = None) -> "Substitution":
        if alphabet is None:
            alphabet = sorted(rules.keys())
        alph = Alphabet.of(alphabet)
        missing = [s for s in alph if s not in rules]
        if missing:
            raise ValidationError(f"no image given for letters {missing}")
        images = tuple(Word.parse(alph, rules[s]) for s in alph)
        return cls(alph, images)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Substitution":
        try:
            alphabet = data["alphabet"]
            rules = data["rules"]
        except (KeyError, TypeError):
            raise ValidationError('expected {"alphabet": [...], "rules": {...}}')
        return cls.from_rules(rules, alphabet)

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet.symbols),
            "rules": {s: self.images[i].text for i, s in enumerate(self.alphabet.symbols)},
        }

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def image_idx(self, letter: int) -> tuple[int, ...]:
        return self.images[letter].idx

    def apply_idx(self, seq: Sequence[int]) -> tuple[int, ...]:
        out: list[int] = []
        for a in seq:
            out.extend(self.images[a].idx)
        return tuple(out)

    def apply(self, w: Word) -> Word:
        if w.alphabet != self.alphabet:
            raise ValidationError("word alphabet mismatch")
        return Word(self.alphabet, self.apply_idx(w.idx))

    def iterate_idx(self, letter: int, k: int) -> tuple[int, ...]:
        """Image of a letter under the k-th power, memoized."""
        cache: dict = self._iter_cache  # type: ignore[attr-defined]
        if k == 0:
            return (letter,)
        key = (letter, k)
        if key not in cache:
            prev = self.iterate_idx(letter, k - 1)
            cache[key] = self.apply_idx(prev)
        return cache[key]

    def power(self, k: int) -> "Substitution":
        if k < 1:
            raise ValidationError("power must be >= 1")
        images = tuple(
            Word(self.alphabet, self.iterate_idx(a, k)) for a in range(self.size)
        )
        return Substitution(self.alphabet, images)

    def compose(self, other: "Substitution") -> "Substitution":
        """self after other: letter -> self(other(letter))."""
        if other.alphabet != self.alphabet:
            raise ValidationError("alphabet mismatch")
        images = tuple(
            Word(self.alphabet, self.apply_idx(other.images[a].idx))
            for a in range(self.size)
        )
        return Substitution(self.alphabet, images)

    def first_letter_map(self) -> tuple[int, ...]:
        return tuple(self.images[a].idx[0] for a in range(self.size))

    def last_letter_map(self) -> tuple[int, ...]:
        return tuple(self.images[a].idx[-1] for a in range(self.size))

    def is_left_proper(self) -> bool:
        return len(set(self.first_letter_map())) == 1

    def is_right_proper(self) -> bool:
        return len(set(self.last_letter_map())) == 1

    def language(self, n_max: int) -> LanguageTable:
        """Language table to n_max.  Each length is built when first asked
        for and kept on the substitution for every later table.  For a
        primitive substitution a length below one already kept is read off
        the shortest such length as its prefixes, since every block of the
        language extends to the right; otherwise, and for a length above
        every kept one, it is generated.  Ask for the longest length first
        to generate once.  The source is a bound method, so two tables of
        one substitution to one length are equal."""
        if n_max < 1:
            raise ValidationError("n_max must be >= 1")
        return LanguageTable(
            self.alphabet,
            self._blocks,  # type: ignore[attr-defined]
            n_max,
            self._generate,
        )

    def _generate(self, n: int) -> frozenset[tuple[int, ...]]:
        held: dict = self._blocks  # type: ignore[attr-defined]
        longer = [m for m in held if m > n]
        if longer and is_primitive(self):
            return frozenset(w[:n] for w in held[min(longer)])
        return generate_language(self, n)

    def cached(self, key: Hashable, build: Callable[[], T]) -> T:
        """Data derived from this substitution, built on first use."""
        memo: dict = self._memo  # type: ignore[attr-defined]
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def two_blocks(self) -> tuple[tuple[int, int], ...]:
        """L_2, sorted: the 2-blocks of the letter images, closed under
        taking the 2-blocks of sigma(ab) for every ab found."""
        return self.cached("two_blocks", self._close_two_blocks)

    def _close_two_blocks(self) -> tuple[tuple[int, int], ...]:
        found = {w for a in range(self.size) for w in windows(self.images[a].idx, 2)}
        if self.size == 1:  # the one point 0^oo, also for 0 -> 0, whose image has no 2-block
            found.add((0, 0))
        todo = list(found)
        while todo:
            a, b = todo.pop()
            # the blocks inside sigma(a) and sigma(b) are in already
            w = (self.images[a].idx[-1], self.images[b].idx[0])
            if w not in found:
                found.add(w)
                todo.append(w)
        return tuple(sorted(found))

    def image_lengths(self, k: int) -> tuple[int, ...]:
        """|sigma^k(c)| for every letter c, without building the images."""
        lengths = (1,) * self.size
        for _ in range(k):
            lengths = tuple(sum(lengths[b] for b in w.idx) for w in self.images)
        return lengths

    def growth_power(self, reach: int) -> int:
        """The least k with every image sigma^k(c) at least `reach` long."""
        for k in range(_MAX_POWER + 1):
            lengths = self.image_lengths(k)
            if sum(lengths) > SYMBOL_BUDGET:
                break
            if min(lengths) >= reach:
                return k
        raise ResourceLimitError("image growth too slow to reach the block length")

    def two_block_images(self, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """For every ab in L_2, in order, the word sigma^k(ab) and the length
        of sigma^k(a).

        With min |sigma^k(c)| >= n - 1, every length-n window of the
        subshift is a window of some sigma^k(ab) that starts inside
        sigma^k(a), and each occurrence of it in a point is counted by
        exactly one such start."""
        lengths = self.image_lengths(k)
        if sum(lengths[a] + lengths[b] for a, b in self.two_blocks()) > SYMBOL_BUDGET:
            raise ResourceLimitError(
                f"language generation exceeded budget of {SYMBOL_BUDGET} symbols"
            )
        return self.cached(
            ("two_block_images", k),
            lambda: tuple(
                (self.iterate_idx(a, k) + self.iterate_idx(b, k), len(self.iterate_idx(a, k)))
                for a, b in self.two_blocks()
            ),
        )


def incidence_matrix(sub: Substitution) -> tuple[tuple[int, ...], ...]:
    """Row i, column j: occurrences of letter j in the image of letter i."""
    d = sub.size
    rows = []
    for i in range(d):
        counts = [0] * d
        for a in sub.images[i].idx:
            counts[a] += 1
        rows.append(tuple(counts))
    return tuple(rows)


def is_primitive(obj: Substitution | Sequence[Sequence[int]]) -> bool:
    """Some power of the incidence matrix of a substitution (which keeps the
    verdict) or of a square nonnegative integer matrix is strictly positive.

    Boolean powers up to the Wielandt bound d^2 - 2d + 2 decide this.
    """
    if isinstance(obj, Substitution):
        return obj.cached("primitive", lambda: is_primitive(incidence_matrix(obj)))
    d = len(obj)
    m = [[bool(x) for x in row] for row in obj]
    bound = d * d - 2 * d + 2
    acc = m
    for _ in range(bound - 1):
        if all(all(row) for row in acc):
            return True
        acc = [
            [any(acc[i][k] and m[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]
    return all(all(row) for row in acc)


def dominant_eigenvalue(sub: Substitution) -> tuple[tuple[int, ...], tuple, AlgebraicNumber]:
    """`numberfield.dominant_root` of the incidence matrix, memoised: the
    characteristic polynomial, its factors and lambda, which `pf.pf_data`
    and `is_aperiodic` share.  This is the module's only use of the
    number-field layer, so languages and complexities never load it."""
    from .numberfield import dominant_root

    return sub.cached("dominant_root", lambda: dominant_root(incidence_matrix(sub)))


def generate_language(sub: Substitution, n: int) -> frozenset[tuple[int, ...]]:
    """L_n: the length-n windows of sigma^k(ab) that start inside
    sigma^k(a), over ab in L_2, with the least k making min |sigma^k| >= n - 1.
    For primitive substitutions this is the language of the subshift."""
    if n < 1:
        raise ValidationError("block length must be >= 1")
    if sub.size == 1:  # the one point 0^oo, also for 0 -> 0, which does not grow
        return frozenset({(0,) * n})
    return span_windows(sub.two_block_images(sub.growth_power(n - 1)), n)


def span_windows(spans, n: int) -> frozenset[tuple[int, ...]]:
    """The length-n windows of `two_block_images` spans sigma^k(ab) that
    start inside sigma^k(a): L_n when min |sigma^k| >= n - 1."""
    return frozenset(image[i : i + n] for image, cut in spans for i in range(cut))


def complexity(sub: Substitution, n: int) -> int:
    return sub.language(n).complexity(n)


def complexity_profile(sub: Substitution, n_max: int) -> tuple[int, ...]:
    """p(1), ..., p(n_max), memoised, from the one build of L_{n_max}.

    Every block of the language extends to the right, so L_n is the set of
    length-n prefixes of L_{n_max}.  In sorted order, a block sharing exactly
    l leading symbols with its predecessor starts a new length-n prefix for
    every n > l.  Without primitivity the windows built need not extend, so
    the profile is refused."""
    return sub.cached(("complexity_profile", n_max), lambda: _prefix_counts(sub, n_max))


def _prefix_counts(sub: Substitution, n_max: int) -> tuple[int, ...]:
    if not is_primitive(sub):
        raise ValidationError("complexity profile expects a primitive substitution")
    blocks = sorted(sub.language(n_max).blocks_of(n_max))
    # starts[l]: neighbours whose longest common prefix has length l; the
    # first block, if any, starts a prefix of every length
    starts = [0] * n_max
    for u, v in zip(blocks, blocks[1:]):
        starts[next(i for i, (a, b) in enumerate(zip(u, v)) if a != b)] += 1
    return tuple(accumulate(starts, initial=min(1, len(blocks))))[1:]


class PeriodicityVerdict(Record):
    periodic: bool
    window: int
    period: int | None = None
    periodic_word: Word | None = None


def is_aperiodic(sub: Substitution) -> PeriodicityVerdict:
    """Aperiodicity of the subshift, kept on the substitution.

    An irrational dominant eigenvalue lambda certifies it, with no language
    built: a periodic minimal shift has rational letter frequencies
    (Queffelec, LNM 1294, ch. 5), and a rational positive eigenvector of an
    integer matrix has a rational eigenvalue.  For rational lambda a
    complexity screen decides: p(n) <= n for some n <= W = APERIODICITY_WINDOW
    forces periodicity.  As p(1) >= 2 and p is nondecreasing, that n forces
    p(m) = p(m+1) for some m < n, so p is constant from m on and p(W) <= W;
    the converse is n = W.  So p(W) > W is the aperiodic verdict, and only a
    periodic one reads p(1..W) off the sorted L_W to find the period.

    A periodic verdict exhibits a word w with the subshift equal to the orbit
    closure of w repeated. An aperiodic verdict of the screen is certified
    to the window.
    """
    return sub.cached("aperiodic", lambda: _periodicity(sub))


def _periodicity(sub: Substitution) -> PeriodicityVerdict:
    if not is_primitive(sub):
        raise ValidationError("aperiodicity check expects a primitive substitution")
    if sub.size == 1:
        # the single point 0^oo, with no language to build
        return PeriodicityVerdict(
            periodic=True,
            window=APERIODICITY_WINDOW,
            period=1,
            periodic_word=Word(sub.alphabet, (0,)),
        )
    _chi, _factors, lam = dominant_eigenvalue(sub)
    window = APERIODICITY_WINDOW
    if not lam.is_rational or len(sub.language(window).blocks_of(window)) > window:
        return PeriodicityVerdict(periodic=False, window=window)
    # the first n with p(n) = q <= n: p is nondecreasing and p(q) = p(q+1) = q
    # there, so the period is q
    q = next(q for n, q in enumerate(complexity_profile(sub, window), start=1) if q <= n)
    lang_q = sub.language(2 * q)
    for w in sorted(lang_q.blocks_of(q)):
        if lang_q.admissible(w + w):
            return PeriodicityVerdict(
                periodic=True, window=window, period=q, periodic_word=Word(sub.alphabet, w)
            )
    raise ValidationError("complexity bound hit but no periodic word found")


def fixed_point(
    sub: Substitution, seed: int, length: int, left: bool = False
) -> tuple[int, ...]:
    """The first `length` symbols of the one-sided fixed point grown from
    `seed`; with `left`, the last `length` symbols of the left fixed point,
    which ends in the seed.  The seed lies on a cycle of length c of the
    first-letter map (the last-letter map with `left`), and the point is
    fixed by sigma^c and so by every power of sigma that c divides.  Grown
    by u -> sigma^c(u), read only as far as `length` needs; the longest
    prefix built (with `left`, the longest suffix, reversed) is kept on the
    substitution, one per seed and side."""

    def first() -> list:
        letter_map = sub.last_letter_map() if left else sub.first_letter_map()
        c = cycle_lengths(letter_map).get(seed)
        if c is None:
            end = "end" if left else "start"
            raise ValidationError(f"seed letter does not {end} its own image")
        return [sub.iterate_idx(seed, c)[:: -1 if left else 1], c]

    # a list, so that a longer prefix replaces the kept one
    kept = sub.cached(("fixed_point", seed, left), first)
    u, c = kept
    if len(u) < length:
        # sigma^c(seed) starts with the seed, so each pass grows u unless
        # that image is the seed alone
        if len(u) == 1:
            raise ValidationError("seed does not grow; substitution not expanding here")
        step = [sub.iterate_idx(a, c)[:: -1 if left else 1] for a in range(sub.size)]
        while len(u) < length:
            u = tuple(image_prefix(step, u, length))
        kept[0] = u
    return u[:length][::-1] if left else u[:length]


def image_prefix(
    images: Sequence[tuple[int, ...]], seq: Sequence[int], length: int
) -> list[int]:
    """The images of the letters of `seq`, concatenated, up to the first
    image that brings the total to `length` symbols (all of them if the
    whole image is shorter)."""
    out: list[int] = []
    for a in seq:
        if len(out) >= length:
            break
        out += images[a]
    return out


def cycle_lengths(f: tuple[int, ...]) -> dict[int, int]:
    """For each element on a cycle of the map i -> f(i), its cycle length."""
    d = len(f)
    out: dict[int, int] = {}
    for start in range(d):
        seen: dict[int, int] = {}
        cur = start
        step = 0
        while cur not in seen:
            seen[cur] = step
            cur = f[cur]
            step += 1
        # cur closed a loop; the loop members are those from seen[cur] on
        loop_len = step - seen[cur]
        cur2 = cur
        for _ in range(loop_len):
            out.setdefault(cur2, loop_len)
            cur2 = f[cur2]
    return out
