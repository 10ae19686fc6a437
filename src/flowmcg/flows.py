"""Return systems on cross sections, flow codes between them, and the
exact measure-scaling invariant.

A cross section of the shift is recoded on its return words; a flow code is
a conjugacy between two such recodings, carried as a sliding block code with
an inverse found and checked by `words.inverse_code`.  The substitution's
own code, on the whole space or on a cylinder, maps a section to its
substituted copy: return words sigma(r), measures scaled by 1/lambda.
Everything downstream (restriction, composition, slope profiles, the
scaling factor mu(C)/mu(D)) works on that presentation.  A cylinder's
recoded language is built when a flow code first reads it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import chain, islice

from .errors import InternalCheckError, Record, ResourceLimitError, ValidationError
from .numberfield import FieldElement, NumberField
from .pf import cylinder_measure, occurrence_measures, pf_data
from .substitution import SYMBOL_BUDGET, Substitution, cycle_lengths, fixed_point, is_primitive, span_windows
from .words import (
    CHECK_DEPTH,
    Alphabet,
    LanguageTable,
    SlidingBlockCode,
    Word,
    compose_codes,
    inverse_code,
    language_violation,
    section_word,
    word_idx,
)

# exponent bounds of the relations alpha^p = lam^q that lambda_relation_search tries
RELATION_P_MAX = 6
RELATION_Q_MAX = 12


class ReturnSystem(Record):
    """A cross section recoded on its return words.

    The section is the whole space (`is_whole_space`), the cylinder of
    `base_word`, or, with neither, the target of a substitution code (the
    substituted copy of a section, which is clopen but not presented as a
    cylinder here).  `weights` are the exact measures
    of the entry cylinders, one per return word, in the ambient invariant
    measure.  A system keeps what its section measured; the substitution
    that generates `recoded_language`, where there is one, is
    `derived_substitution(sub, base_word)`.  On a cylinder the return
    words, weights and `recoded_language` (built when first read) come from
    one return-word pass (`_first_returns`) and `base_measure` from
    `pf.cylinder_measure`, so the checks below compare two computations.
    """

    is_whole_space: bool
    base_word: tuple[int, ...] | None
    return_words: tuple[Word, ...]
    weights: tuple[FieldElement, ...]
    base_measure: FieldElement
    recoded_language: LanguageTable

    def __post_init__(self) -> None:
        field = self.field
        kac = field.zero()
        for w, t in zip(self.weights, self.return_times):
            kac = kac + w * t
        if kac != field.one():
            raise InternalCheckError("return-time expectation is not 1/measure")
        total = field.zero()
        for w in self.weights:
            total = total + w
        if total != self.base_measure:
            raise InternalCheckError("entry measures do not sum to the base measure")

    @property
    def size(self) -> int:
        return len(self.return_words)

    @property
    def return_times(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.return_words)

    @property
    def alphabet(self) -> Alphabet:
        return self.recoded_language.alphabet

    @property
    def field(self) -> NumberField:
        return self.base_measure.field


def return_words(sub: Substitution, w: tuple[int, ...] | None) -> tuple[tuple[int, ...], ...]:
    """All return words of the cylinder [w] of a primitive substitution, in
    order of first occurrence along the one-sided fixed point u grown from
    the least letter s on a cycle of the first-letter map; memoised.  The
    whole space, w None, is tiled by its letters, in alphabet order.

    Let c be the cycle length of s and p the least multiple of c with w
    inside every sigma^p(b).  Every point is a shift of some sigma^p(y), and
    every sigma^p(b) holds a whole occurrence of w, so the gap after each
    occurrence of w that starts inside sigma^p(a) ends inside sigma^p(ab),
    ab in L_2; these gaps are the whole set.  As u = sigma^p(u), the 2-blocks
    of u are the fixed point of ab -> the 2-blocks of sigma^p(ab) that start
    inside sigma^p(a), and a 2-block first occurs inside the image of the
    earliest 2-block whose image holds it.  Visiting the 2-blocks breadth
    first from the first 2-block of u lists them in order of first
    occurrence, and their gaps, each kept at its first appearance, are the
    return words in order of first occurrence along u.
    """
    if w is None:
        return tuple((a,) for a in range(sub.size))
    return _first_returns(sub, w)[0]


def _first_returns(sub: Substitution, w: tuple[int, ...]):
    """The return words of [w], the power p of their pass, and for every ab
    in L_2 the word tau(ab): the gaps that start inside sigma^p(a) in
    sigma^p(ab), in order, each written as the index of its return word;
    memoised.  The return words are numbered at their first appearance
    along tau, in the breadth-first 2-block order of `return_words`.

    Each tau(ab) is nonempty, as sigma^p(a) holds w.  Each gap r begins an
    occurrence of r·w that lies whole inside sigma^p(ab), and each
    occurrence of r·w in a point is counted by exactly one of them, so the
    letters of tau(ab) weigh mu[r·w] (`pf.occurrence_measures`).  As
    u = sigma^p(u), the visits of w along u read tau(u0 u1)·tau(u1 u2)·...,
    which `_recoded_language` reads."""
    return sub.cached(("return_words", w), lambda: _return_pass(sub, w))


def _return_pass(sub: Substitution, w: tuple[int, ...]):
    cycles = cycle_lengths(sub.first_letter_map())
    seed = min(cycles)
    p = cycles[seed]
    if len(sub.iterate_idx(seed, p)) == 1:
        raise ValidationError("seed does not grow; substitution not expanding here")
    while True:
        if sum(sub.image_lengths(p)) > SYMBOL_BUDGET:
            raise ResourceLimitError("base word not inside every image within the symbol budget")
        if all(_starts(sub.iterate_idx(b, p), w) for b in range(sub.size)):
            break
        p += cycles[seed]
    spans = dict(zip(sub.two_blocks(), sub.two_block_images(p)))
    order = [sub.iterate_idx(seed, p)[:2]]
    index: dict[tuple[int, ...], int] = {}
    tau = {}
    for ab in order:
        image, cut = spans[ab]
        order.extend(b for b in dict.fromkeys(zip(image[:cut], image[1:])) if b not in order)
        occ = _starts(image, w)
        gaps = (image[a:b] for a, b in zip(occ, occ[1:]) if a < cut)
        tau[ab] = tuple(index.setdefault(r, len(index)) for r in gaps)
    return tuple(index), p, tau


def derived_substitution(sub: Substitution, u: tuple[int, ...] | None) -> Substitution:
    """The substitution that presents the section u on the tiles
    `return_words(sub, u)`, letter i standing for tile i.  On the whole
    space, u None, that is sub itself, not memoised, as a memo entry would
    refer back to sub.  Otherwise it is Durand's derived substitution of
    sigma^c on the return words of u, a prefix of the sigma^c-fixed point
    grown from u[0], c the length of u[0]'s cycle under the first-letter
    map; a letter is the case |u| = 1; memoised per word.  Any other word
    raises ValidationError.

    Each return word r begins with u, so sigma^c(r) begins with
    sigma^c(u), which begins with u, and in every point sigma^c(r) is
    followed by sigma^c(u).  So the starts of u in sigma^c(r)·u cut
    sigma^c(r) into return words, by the gap rule of the return pass."""
    if u is None:
        return sub
    fault = _prefix_fault(sub, u)
    if fault is not None:
        raise ValidationError(fault)
    return sub.cached(("derived_substitution", u), lambda: _derive(sub, u))


def _prefix_fault(sub: Substitution, u: tuple[int, ...]) -> str | None:
    """Why u is not a prefix of the sigma^c-fixed point grown from u[0], or
    None when it is."""
    if u[0] not in cycle_lengths(sub.first_letter_map()):
        return "letter does not begin its own image under any power"
    if fixed_point(sub, u[0], len(u)) != u:
        return "word is not a prefix of the fixed point grown from its first letter"
    return None


def _derive(sub: Substitution, u: tuple[int, ...]) -> Substitution:
    c = cycle_lengths(sub.first_letter_map())[u[0]]
    returns = return_words(sub, u)
    index = {r: i for i, r in enumerate(returns)}
    labels = Alphabet.labels(len(returns))
    images = []
    for r in returns:
        image = tuple(chain.from_iterable(sub.iterate_idx(a, c) for a in r)) + u
        cuts = _starts(image, u)
        # the first piece starts at 0: it is a return word only if u does
        pieces = [image[a:b] for a, b in zip([0, *cuts[1:]], cuts[1:])]
        if any(p not in index for p in pieces):
            raise InternalCheckError("decomposition hit an unknown return word")
        images.append(Word(labels, tuple(index[p] for p in pieces)))
    return Substitution(labels, tuple(images))


def _starts(block: tuple[int, ...], w: tuple[int, ...]) -> list[int]:
    """Every start of the nonempty word w in block, in order; the slice is
    compared only at the positions that hold w[0]."""
    k = len(w)
    stop = len(block) - k + 1
    found = []
    i = -1
    while True:
        try:
            i = block.index(w[0], i + 1, stop)
        except ValueError:
            return found
        if block[i : i + k] == w:
            found.append(i)


def _recoded_language(sub: Substitution, w: tuple[int, ...]) -> LanguageTable:
    """Language of the induced system on [w] to n = `CHECK_DEPTH`, built on
    first read from tau and the spans of L_(n+1), taken now (a symbol budget
    fails here) in place of sub; shorter lengths are prefixes of length n."""
    returns, _, tau = _first_returns(sub, w)
    n = CHECK_DEPTH
    built = cache(partial(_recoded_windows, tau, sub.two_block_images(sub.growth_power(n)), n))
    return LanguageTable(
        Alphabet.labels(len(returns)), {}, n, lambda m: built() if m == n else frozenset(v[:m] for v in built())
    )


def _recoded_windows(tau, spans, n: int) -> frozenset[tuple[int, ...]]:
    """The recoded n-blocks: as every tau(ab) is nonempty and the visits along
    u read tau(u0 u1)·tau(u1 u2)·..., the length-n windows of tau(y0 y1)·...·
    tau(y(n-1) yn) that start inside tau(y0 y1), over y in L_(n+1)."""
    distinct: set[tuple[int, ...]] = set()
    for y in span_windows(spans, n + 1):
        head = len(tau[y[:2]])
        visits = tuple(islice(chain.from_iterable(tau[ab] for ab in zip(y, y[1:])), head + n - 1))
        for start in range(head):
            window = visits[start : start + n]
            if len(window) < n:
                raise InternalCheckError("visits too short for the recoded length")
            distinct.add(window)
    return frozenset(distinct)


def induce(sub: Substitution, section) -> ReturnSystem:
    """The return system of a cross section: return words in order of first
    occurrence, exact entry measures, and the recoded language.

    The section is None or a word in any form `words.word_idx` reads; None
    and the empty word are the whole space.  A cylinder's system is
    memoised per section word.  The whole space's is built on each call: it
    is d letters and one Kac sum, and its language table refers back to
    sub, so a memo entry would pin sub.
    """
    if not is_primitive(sub):
        raise ValidationError("substitution must be primitive")
    word = section_word(sub.alphabet, section)
    if word is None:
        data = pf_data(sub)
        return ReturnSystem(
            is_whole_space=True,
            base_word=None,
            return_words=tuple(Word(sub.alphabet, r) for r in return_words(sub, None)),
            weights=data.left,
            base_measure=data.field.one(),
            recoded_language=sub.language(2 * CHECK_DEPTH),
        )
    return sub.cached(("induce", word), lambda: _induced_system(sub, word))


def _induced_system(sub: Substitution, word: tuple[int, ...]) -> ReturnSystem:
    if not sub.language(len(word)).admissible(word):
        raise ValidationError("section word is not admissible")
    returns, p, tau = _first_returns(sub, word)
    entry = occurrence_measures(sub, p, {ab: Counter(visits) for ab, visits in tau.items()})
    return ReturnSystem(
        is_whole_space=False,
        base_word=word,
        return_words=tuple(Word(sub.alphabet, r) for r in returns),
        weights=tuple(entry[i] for i in range(len(returns))),
        base_measure=cylinder_measure(sub, word),
        recoded_language=_recoded_language(sub, word),
    )


class FlowCode(Record):
    """A conjugacy between two recoded cross sections, with verified
    inverse.  Validation is bounded: `verified_depth` records how far the
    language checks ran; it is a certificate depth, not a proof."""

    kind: str
    sub: Substitution
    source: ReturnSystem
    target: ReturnSystem
    conjugacy: SlidingBlockCode
    inverse: SlidingBlockCode
    verified_depth: int


def make_flow_code(
    sub: Substitution,
    code: SlidingBlockCode,
    source: ReturnSystem,
    target: ReturnSystem,
    *,
    kind: str,
) -> FlowCode:
    """Validate a sliding block code as a conjugacy of recoded sections.

    Checks, to `CHECK_DEPTH`: the code maps the source language into the
    target language, an inverse code exists within the radius budget with
    both roundtrips the identity on admissible windows (`inverse_code`), and
    the inverse maps back.  Failures carry a witness block.
    """
    if code.in_alphabet != source.alphabet:
        raise ValidationError("code input alphabet differs from the source section")
    if code.out_alphabet != target.alphabet:
        raise ValidationError("code output alphabet differs from the target section")
    dom = source.recoded_language
    cod = target.recoded_language
    n_fwd = min(CHECK_DEPTH, dom.n_max - 2 * code.radius, cod.n_max)
    if n_fwd < 1:
        raise ValidationError("source language too shallow for the code radius")
    bad = language_violation(code, dom, cod, n_fwd)
    if bad is not None:
        raise ValidationError(
            f"code image leaves the target language within depth {n_fwd}; "
            f"witness block {bad}"
        )
    inverse = inverse_code(code, dom, cod)
    n_bwd = min(CHECK_DEPTH, cod.n_max - 2 * inverse.radius, dom.n_max)
    if n_bwd >= 1:
        bad = language_violation(inverse, cod, dom, n_bwd)
        if bad is not None:
            raise ValidationError(
                f"inverse image leaves the source language within depth "
                f"{n_bwd}; witness block {bad}"
            )
    return FlowCode(
        kind=kind,
        sub=sub,
        source=source,
        target=target,
        conjugacy=code,
        inverse=inverse,
        verified_depth=min(n_fwd, n_bwd if n_bwd >= 1 else n_fwd),
    )


def identity_code(sub: Substitution) -> FlowCode:
    sys0 = induce(sub, None)
    code = SlidingBlockCode(
        sub.alphabet, sub.alphabet, 0, {(a,): a for a in range(sub.size)}
    )
    return make_flow_code(sub, code, sys0, sys0, kind="identity")


def automorphism_code(sub: Substitution, code: SlidingBlockCode) -> FlowCode:
    """Wrap a shift automorphism (given as a block code on letters) as a
    flow code from the space to itself."""
    sys0 = induce(sub, None)
    return make_flow_code(sub, code, sys0, sys0, kind="automorphism")


def substitution_code(sub: Substitution) -> FlowCode:
    """The canonical flow code of the substitution itself: the space,
    recoded on letters, against its image under one application, recoded
    on image tiles."""
    return _substitution_code(sub, induce(sub, None))


def _substitution_code(sub: Substitution, source: ReturnSystem) -> FlowCode:
    """The substitution's flow code from a section to its substituted copy.
    The target has return words sigma(r), entry and base measures scaled by
    1/lambda, and the source's alphabet and recoded data; the conjugacy
    relabels each return word as its image, exact by construction."""
    lam_inv = source.field.generator_inverse()
    images = tuple(
        Word(sub.alphabet, sub.apply_idx(r.idx)) for r in source.return_words
    )
    target = source.replace(
        is_whole_space=False,
        base_word=None,
        return_words=images,
        weights=tuple(w * lam_inv for w in source.weights),
        base_measure=source.base_measure * lam_inv,
    )
    relabel = SlidingBlockCode(
        source.alphabet, source.alphabet, 0, {(i,): i for i in range(source.size)}
    )
    return FlowCode(
        kind="substitution",
        sub=sub,
        source=source,
        target=target,
        conjugacy=relabel,
        inverse=relabel,
        verified_depth=0,
    )


def r_mu(fc: FlowCode) -> FieldElement:
    """The measure-scaling factor mu(source base)/mu(target base), exact."""
    return fc.source.base_measure / fc.target.base_measure


def restrict_flow_code(fc: FlowCode, section) -> FlowCode:
    """Restrict a flow code to a smaller cross section inside its source.

    The section must be a cylinder contained in the source base (equal base
    returns the code unchanged).  Radius-0 conjugacies restrict exactly:
    visits to the small section correspond letterwise, so each new return
    word maps to a single return word on the image side.
    """
    word = section_word(fc.sub.alphabet, section)
    if word == fc.source.base_word or (word is None and fc.source.base_word is None):
        return fc
    if word is None:
        raise ValidationError("restriction target must be a proper sub-section")
    if fc.source.base_word is not None:
        k = len(fc.source.base_word)
        if word[:k] != fc.source.base_word:
            raise ValidationError("section does not sit inside the source base")

    if fc.kind == "substitution":
        return _substitution_code(fc.sub, induce(fc.sub, word))
    if fc.conjugacy.radius != 0:
        raise ValidationError(
            "restriction implemented for radius-0 conjugacies only"
        )
    return _restrict_radius0(fc, word)


def _ambient_word(
    system: ReturnSystem, recoded: tuple[int, ...], close: bool
) -> tuple[int, ...]:
    """Spell a recoded word in ambient letters; `close` appends the base
    word, turning a visit sequence into the ambient cylinder that asserts
    the final visit."""
    out: list[int] = []
    for v in recoded:
        out.extend(system.return_words[v].idx)
    if close and system.base_word is not None:
        out.extend(system.base_word)
    return tuple(out)


def _restrict_radius0(fc: FlowCode, word: tuple[int, ...]) -> FlowCode:
    sub = fc.sub
    if not fc.source.is_whole_space:
        raise ValidationError(
            "restriction of an already-induced code is not supported"
        )
    if fc.target.base_word is None and not fc.target.is_whole_space:
        raise ValidationError("cannot restrict onto an abstract section")
    # the source is recoded on letters, so the section word is ambient;
    # the image section is spelled out ambiently so its measures stay in
    # the transverse measure of the common flow
    sys_e = induce(sub, word)
    image_recoded = fc.conjugacy.apply(word)
    sys_f = induce(sub, _ambient_word(fc.target, image_recoded, close=True))
    if sys_e.size != sys_f.size:
        raise InternalCheckError("restricted sections disagree on return counts")
    f_index = {w.idx: i for i, w in enumerate(sys_f.return_words)}
    rule = {}
    for i, r in enumerate(sys_e.return_words):
        img = _ambient_word(fc.target, fc.conjugacy.apply(r.idx), close=False)
        j = f_index.get(img)
        if j is None:
            raise InternalCheckError("image of a return word is not a return word")
        rule[(i,)] = j
    if len(set(rule.values())) != sys_f.size:
        raise InternalCheckError("return words of the image section not all hit")
    code = SlidingBlockCode(sys_e.alphabet, sys_f.alphabet, 0, rule)
    return make_flow_code(sub, code, sys_e, sys_f, kind=fc.kind)


def compose_flow_codes(fc1: FlowCode, fc2: FlowCode) -> FlowCode:
    """The flow code applying fc1 and then fc2.

    Supported: an identity code on the other code's middle section (fc1's
    target, fc2's source), two automorphism codes with matching middle
    sections (spliced block codes), and, on whole-space sources, two
    canonical substitution codes (their composite substitution) and a
    radius-0 automorphism against a substitution code (absorbed into the
    rules).  Anything else raises ValidationError.
    """
    middle_ok = (
        fc1.target.base_word == fc2.source.base_word
        and fc1.target.alphabet == fc2.source.alphabet
    )
    whole = fc1.source.is_whole_space and fc2.source.is_whole_space
    kinds = {fc1.kind, fc2.kind}
    if "identity" in kinds:
        if not middle_ok:
            raise ValidationError("identity code off the middle section")
        return fc2 if fc1.kind == "identity" else fc1
    if kinds == {"substitution"} and whole:
        if fc1.sub.alphabet != fc2.sub.alphabet:
            raise ValidationError("substitution codes over different alphabets")
        return substitution_code(fc2.sub.compose(fc1.sub))
    if kinds == {"automorphism"}:
        if not middle_ok:
            raise ValidationError("automorphism codes with mismatched sections")
        composite = compose_codes(fc2.conjugacy, fc1.conjugacy, fc1.source.recoded_language)
        return make_flow_code(fc1.sub, composite, fc1.source, fc2.target, kind="automorphism")
    if kinds == {"automorphism", "substitution"} and whole:
        aut, tilde = (fc1, fc2) if fc1.kind == "automorphism" else (fc2, fc1)
        if aut.conjugacy.radius != 0:
            raise ValidationError(
                "only radius-0 automorphisms compose with substitution codes"
            )
        perm = {
            w[0]: out for w, out in aut.conjugacy.rule.items()
        }
        sub = tilde.sub
        if fc1.kind == "substitution":
            # substitute, then permute symbols: letter a -> perm(xi(a))
            images = tuple(
                Word(sub.alphabet, tuple(perm[x] for x in sub.images[a].idx))
                for a in range(sub.size)
            )
        else:
            # permute, then substitute: letter a -> xi(perm(a))
            images = tuple(
                Word(sub.alphabet, sub.images[perm[a]].idx) for a in range(sub.size)
            )
        return substitution_code(Substitution(sub.alphabet, images))
    raise ValidationError(
        f"composition of kinds {fc1.kind!r} and {fc2.kind!r} with these "
        "sections is not supported"
    )


class CocycleProfile(Record):
    """Per-step slopes of the orbit-equivalence cocycle along one orbit:
    the ratio of the landing return time to the departing return time."""

    slopes: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        for _, s in self.slopes:
            if s <= 0:
                raise InternalCheckError("cocycle slopes must be positive")


def cocycle_slopes(fc: FlowCode, x0=None, k_range=range(0, 24)) -> CocycleProfile:
    """Exact slope profile of fc along an orbit of the recoded source.

    `x0` is a word over the source's recoded alphabet giving enough of the
    orbit; by default a fixed-point presentation of the recoded substitution
    is used.  Negative indices in `k_range` need a two-sided presentation
    and are only available for the default.
    """
    ks = sorted(k_range)
    if not ks:
        raise ValidationError("empty index range")
    if fc.conjugacy.radius != 0:
        raise ValidationError("slope profiles implemented for radius-0 codes")
    rule = {w[0]: out for w, out in fc.conjugacy.rule.items()}
    t_src = fc.source.return_times
    t_tgt = fc.target.return_times
    if x0 is not None:
        seq = word_idx(fc.source.alphabet, x0)
        if ks[0] < 0:
            raise ValidationError("explicit presentations support k >= 0 only")
        if ks[-1] >= len(seq):
            raise ValidationError("presentation too short for the index range")
        get = seq.__getitem__
    else:
        source = fc.source
        word = source.base_word
        if not source.is_whole_space and (word is None or _prefix_fault(fc.sub, word)):
            raise ValidationError("no recoded substitution; pass a presentation")
        get = _two_sided_point(derived_substitution(fc.sub, word), ks[0], ks[-1])
    out = []
    for k in ks:
        a = get(k)
        slope = Fraction(t_tgt[rule[a]], t_src[a])
        out.append((k, slope))
    return CocycleProfile(tuple(out))


def _two_sided_point(sub: Substitution, k_lo: int, k_hi: int):
    """Coordinate access for a substitution-periodic two-sided point with a
    legal seed pair around the origin."""
    fl_cycles = cycle_lengths(sub.first_letter_map())
    ll_cycles = cycle_lengths(sub.last_letter_map())
    lang2 = sub.language(2)
    seeds = [(a, b) for b in sorted(fl_cycles) for a in sorted(ll_cycles)]
    seed = next((ab for ab in seeds if lang2.admissible(ab)), None)
    if seed is None:
        raise InternalCheckError("no admissible periodic seed pair")
    a, b = seed
    right = fixed_point(sub, b, max(1, k_hi + 1))
    left = fixed_point(sub, a, max(1, -k_lo + 1), left=True)

    def get(k: int) -> int:
        if k >= 0:
            return right[k]
        return left[len(left) + k]

    return get


def lambda_relation_search(alpha: FieldElement) -> tuple[int, int] | None:
    """Smallest exact relation alpha^p = lam^q with 1 <= p <= RELATION_P_MAX
    and |q| <= RELATION_Q_MAX (q may be negative for contracting factors),
    or None."""
    if alpha.sign() <= 0:
        raise ValidationError("relation search needs a positive element")
    lam = alpha.field.generator()
    lam_inv = alpha.field.generator_inverse()
    for p in range(1, RELATION_P_MAX + 1):
        ap = alpha ** p
        for q_abs in range(0, RELATION_Q_MAX + 1):
            for q in ((q_abs,) if q_abs == 0 else (q_abs, -q_abs)):
                base = lam if q >= 0 else lam_inv
                if ap == base ** abs(q):
                    return (p, q)
    return None
