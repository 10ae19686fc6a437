"""A computable presentation of the coinvariants group of a primitive
aperiodic substitution shift.

The group is presented as a stationary direct limit over N = M^e, M the
incidence matrix of a derived substitution zeta (return words of a
well-chosen letter) and zeta^e, never built, its least left-proper power.
Cylinder indicator classes, the exact trace, its image lattice,
infinitesimals, restrictions to cross sections, and the automorphisms
induced by flow codes are all computed in this presentation.  Elements
are kept reduced modulo the eventual kernel K = ker N^m, m the multiplicity
of 0 in det(x - N), so two are equal when their difference reduces to 0.
The invariant factors are those of one Smith form, of the transition
matrix beside its eventual-kernel basis.
Membership in the trace image is a bounded orbit of multiplication by lam
on a finite quotient of Z^d, d the degree of lam.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from .errors import InternalCheckError, Record, ValidationError
from .flows import derived_substitution, return_words
from .intlat import (
    IntMatrix,
    Lattice,
    echelon_reduce,
    eventual_kernel,
    hnf_rows,
    identity,
    invariant_factors,
    mat_mul,
    mat_vec,
    row_reduce,
    transpose,
)
from .numberfield import FieldElement, NumberField, integer_charpoly
from .pf import PFData, pf_data, positive_eigenvector
from .substitution import (
    Substitution,
    cycle_lengths,
    incidence_matrix,
    is_aperiodic,
    is_primitive,
)
from .words import section_word, word_idx

class DerivedData(Record):
    """Left-proper presentation extracted from a substitution.

    ``section`` is the word of the cross section whose return words present
    the shift, None for the whole space (as in ``ReturnSystem.base_word``).
    ``zeta`` is ``flows.derived_substitution`` on that section (the
    substitution itself on the whole space), zeta^power (never built) its
    least left-proper power, with every image beginning with
    ``head_letter``; return words realize zeta's letters inside the shift.
    """

    source: Substitution
    section: tuple[int, ...] | None
    cycle_length: int
    zeta: Substitution
    power: int
    head_letter: int
    kappa: int
    return_words: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]


def derived_proper(sub: Substitution, base: int | str | None = None) -> DerivedData:
    """Recode a primitive aperiodic substitution on the return words of a
    base letter so the result is left proper.

    The base letter must begin its own image under a power of the
    substitution (it lies on a cycle of the first-letter map); by default the
    candidate with the fewest return words wins, ties to the earliest letter.
    By default a substitution already proper on both sides is presented on
    the whole space: its return words are its letters and zeta is itself.
    """
    if not is_primitive(sub):
        raise ValidationError("substitution must be primitive")
    verdict = is_aperiodic(sub)
    if verdict.periodic:
        raise ValidationError("substitution generates a periodic shift")

    cycles = cycle_lengths(sub.first_letter_map())
    if base is None and sub.is_left_proper() and sub.is_right_proper():
        section = None
    elif base is None:
        section = (min(sorted(cycles), key=lambda a: len(return_words(sub, (a,)))),)
    elif isinstance(base, str):
        section = (sub.alphabet.index(base),)
    else:
        section = word_idx(sub.alphabet, (base,))
    zeta = derived_substitution(sub, section)
    returns = return_words(sub, section)

    # the first letters of the images of zeta^e
    first = zeta.first_letter_map()
    e, heads = 1, set(first)
    while len(heads) > 1:
        e += 1
        if e > zeta.size + 2:
            raise InternalCheckError(
                "first-letter map of the derived substitution never stabilizes"
            )
        heads = {first[a] for a in heads}
    c_b = cycles[section[0]] if section else 1
    return DerivedData(
        source=sub,
        section=section,
        cycle_length=c_b,
        zeta=zeta,
        power=e,
        head_letter=heads.pop(),
        kappa=c_b * e,
        return_words=returns,
        lengths=tuple(len(r) for r in returns),
    )


class GroupElement(Record):
    """An element of the direct limit, as a vector at some level.

    The vector is stored reduced modulo the eventual kernel; equality of
    group elements still goes through :func:`element_equal` (levels differ).
    """

    group: "DirectLimitGroup"
    level: int
    vector: tuple[int, ...]
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def raised(self, levels: int) -> "GroupElement":
        v = self.vector
        for _ in range(levels):
            v = mat_vec(self.group.n_matrix, v)
        return self.group.element(self.level + levels, v)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        a, b = self.group.common_level(self, other)
        return self.group.element(
            a.level, tuple(x + y for x, y in zip(a.vector, b.vector))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        a, b = self.group.common_level(self, other)
        return self.group.element(
            a.level, tuple(x - y for x, y in zip(a.vector, b.vector))
        )

    def __neg__(self) -> "GroupElement":
        return self.group.element(self.level, tuple(-x for x in self.vector))

    def scaled(self, k: int) -> "GroupElement":
        return self.group.element(self.level, tuple(k * x for x in self.vector))

    def __repr__(self) -> str:
        return f"GroupElement(level={self.level}, vector={self.vector})"


class DirectLimitGroup:
    """Stationary direct limit of Z^d under a nonnegative integer matrix,
    with order unit and exact trace data."""

    def __init__(
        self,
        derived: DerivedData,
        n_matrix: IntMatrix,
        field: NumberField,
        u_n: tuple[FieldElement, ...],
        eventual_kernel_basis: tuple[tuple[int, ...], ...],
        base_measure: FieldElement,
    ) -> None:
        self.derived = derived
        self.n_matrix = n_matrix
        self.field = field
        self.u_n = u_n
        self.base_measure = base_measure
        self.dimension = len(n_matrix)
        self.eventual_kernel_basis = eventual_kernel_basis
        self._kernel_hnf = hnf_rows(self.eventual_kernel_basis)
        if trace(self, self.order_unit) != field.one():
            raise InternalCheckError("order unit trace is not 1")

    @property
    def order_unit(self) -> GroupElement:
        """The class of the constant function 1: the return-word lengths.
        Built on each use, as a stored element would refer back to the
        group."""
        return self.element(0, self.derived.lengths)

    # -- element plumbing -------------------------------------------------

    def element(self, level: int, vector: Sequence[int]) -> GroupElement:
        if level < 0:
            raise ValidationError("level must be nonnegative")
        if len(vector) != self.dimension:
            raise ValidationError("vector length does not match the presentation")
        return GroupElement(self, level, echelon_reduce(self._kernel_hnf, vector))

    def zero(self) -> GroupElement:
        return self.element(0, (0,) * self.dimension)

    def common_level(
        self, a: GroupElement, b: GroupElement
    ) -> tuple[GroupElement, GroupElement]:
        if a.group is not self or b.group is not self:
            raise ValidationError("elements belong to a different presentation")
        m = max(a.level, b.level)
        return a.raised(m - a.level), b.raised(m - b.level)

    # -- ranks ------------------------------------------------------------

    @property
    def free_rank(self) -> int:
        return self.dimension - len(self.eventual_kernel_basis)

    def invariant_factors(self) -> tuple[int, ...]:
        """Invariant factors of the cokernel of the map N induces on Z^d/K,
        K the eventual kernel.  That cokernel is Z^d/(N·Z^d + K), so they
        are the Smith factors of [N | E], E the kernel basis as columns,
        with the k = rank K leading 1s dropped."""
        kb = self.eventual_kernel_basis
        k = len(kb)
        stacked = tuple(row + tuple(v[i] for v in kb) for i, row in enumerate(self.n_matrix))
        factors = invariant_factors(stacked)
        if len(factors) != self.dimension or any(x != 1 for x in factors[:k]):
            raise InternalCheckError("eventual kernel basis is not saturated")
        return tuple(factors[k:])


def build_coinvariants(sub: Substitution, base: int | str | None = None) -> DirectLimitGroup:
    """Present the coinvariants group of the shift of `sub` as a stationary
    direct limit over N = M^e, M = zeta's incidence matrix.

    The trace weighs a class by the left PF eigenvector u_N of N, normalised
    to sum 1: the frequencies of the return words.  u_N is M's, and M and N
    have one eventual kernel, so both come from M.  The order unit (the class of
    the constant function 1, the length vector of the return words) then has
    trace mu(base)·sum of freq(r)·|r|, which is 1 by Kac's lemma; the
    constructor checks that it is.
    """
    derived = derived_proper(sub, base=base)
    data = pf_data(sub)
    field = data.field
    # the measure of the section: a letter's frequency, or 1
    base_measure = data.left[derived.section[0]] if derived.section else field.one()
    n_matrix = m_zeta = incidence_matrix(derived.zeta)
    for _ in range(derived.power - 1):
        n_matrix = mat_mul(m_zeta, n_matrix)
    lam_c = field.generator() ** derived.cycle_length
    chi = integer_charpoly(m_zeta)
    return DirectLimitGroup(
        derived=derived,
        n_matrix=n_matrix,
        field=field,
        u_n=positive_eigenvector(field, m_zeta, lam_c, transposed=True, charpoly=chi),
        eventual_kernel_basis=tuple(eventual_kernel(m_zeta, chi)),
        base_measure=base_measure,
    )


def element_equal(group: DirectLimitGroup, g: GroupElement, h: GroupElement) -> bool:
    """Equality in the limit: g and h are equal when N^m kills their
    difference at a common level, i.e. when it lies in K = ker N^m.  Elements
    are kept reduced modulo K, so that is when the reduced g - h is 0."""
    if g.group is not group or h.group is not group:
        raise ValidationError("elements belong to a different presentation")
    return not any((g - h).vector)


def trace(group: DirectLimitGroup, g: GroupElement) -> FieldElement:
    """Exact trace lam^{-m kappa} * mu(base) * (u_N . v)."""
    if g.group is not group:
        raise ValidationError("element belongs to a different presentation")
    field = group.field
    acc = field.zero()
    for coef, x in zip(g.vector, group.u_n):
        if coef:
            acc = acc + x * coef
    value = group.base_measure * acc
    if g.level == 0:
        return value
    return value * field.generator_inverse() ** (g.level * group.derived.kappa)


# -- cylinder classes -----------------------------------------------------


def cylinder_class(group: DirectLimitGroup, word) -> GroupElement:
    """The class of the indicator of the cylinder of a word, in any form
    `words.word_idx` reads, in the presentation.  A shift of the cylinder
    changes the indicator by a coboundary, so its class is the same.  The
    empty word gives the order unit.
    """
    derived = group.derived
    idx = word_idx(derived.source.alphabet, word)
    if len(idx) == 0:
        return group.order_unit
    if not derived.source.language(len(idx)).admissible(idx):
        raise ValidationError("cylinder word is not admissible")
    weights = _block_weights(derived.zeta, derived.return_words, [(idx, 1)])
    return _combine_block_weights(group, weights)


def _block_weights(
    tiling: Substitution,
    tiles: Sequence[tuple[int, ...]],
    terms: Sequence[tuple[tuple[int, ...], int]],
) -> tuple[int, dict[tuple[int, ...], int]]:
    """Weights h(v) over the admissible s-blocks v of a substitution whose
    letter i stands for the tile tiles[i]: the sum over the (word,
    coefficient) terms of the coefficient times the number of occurrences
    of the word that start inside the first tile of the window spelled by
    v.  The s - 1 tiles after the first are at least (longest word) - 1
    long together, so the window holds each such occurrence whole.  Every
    block gets its weight, zero included."""
    min_len = min(len(t) for t in tiles)
    reach = max((len(c) for c, _ in terms), default=0)
    s = 1 + max(0, -((1 - reach) // min_len))  # 1 + ceil((reach-1)/min_len)
    out: dict[tuple[int, ...], int] = {}
    for v in sorted(tiling.language(s).blocks_of(s)):
        window: list[int] = []
        for letter in v:
            window.extend(tiles[letter])
        first_len = len(tiles[v[0]])
        if first_len - 1 + reach > len(window):
            raise InternalCheckError("weight window too short for the block")
        out[v] = sum(
            coeff * sum(tuple(window[p : p + len(c)]) == c for p in range(first_len))
            for c, coeff in terms
        )
    return s, out


def _combine_block_weights(
    group: DirectLimitGroup, weights: tuple[int, dict[tuple[int, ...], int]]
) -> GroupElement:
    s, h = weights
    derived = group.derived
    d = group.dimension
    if s == 1:
        vec = [0] * d
        for v, cnt in h.items():
            vec[v[0]] += cnt
        return group.element(0, vec)
    # the least eta^m = zeta^(e m) with images s long; images never shrink
    zeta, e = derived.zeta, derived.power
    m = -(-zeta.growth_power(s) // e)
    b_weight: dict[tuple[int, int], int] = {}
    for ij, (joined, cut) in zip(zeta.two_blocks(), zeta.two_block_images(e * m)):
        total = sum(h.get(joined[p : p + s], 0) for p in range(cut))
        if total:
            b_weight[ij] = total
    # the 2-blocks of eta(l) in a point: its consecutive pairs, the last
    # closed by the head letter that begins the next image
    head = (derived.head_letter,)
    vec = [0] * d
    for l in range(d):
        img = zeta.iterate_idx(l, e)
        vec[l] = sum(b_weight.get(ij, 0) for ij in zip(img, img[1:] + head))
    return group.element(m + 1, vec)


# -- trace image ----------------------------------------------------------


class TraceImage(Record):
    """The Z[1/lam]-module generated by the letter frequencies: the union of
    lam^-k·L over k >= 0, with L the lattice spanned by the u·lam^j, u a
    frequency and j below the degree.  L has full rank, and lam, an
    algebraic integer, maps L into itself."""

    field: NumberField
    degree: int
    base_lattice: Lattice
    description: str

    def contains(self, target) -> bool:
        """Exact membership of a rational or field element in the module.

        Over one denominator D, t lies in the module when lam^k·D·t lies in
        D·L for some k.  Multiplication by lam is an endomorphism of the
        finite group Z^d/D·L, and the kernels of its powers stop growing
        within log2 of the group's order steps (each growth at least doubles
        them), so the orbit of D·t, reduced modulo D·L, reaches 0 within
        that many steps or never."""
        coeffs = self._coeff_row(target)
        lattice = self.base_lattice
        if lattice.rank != self.degree:
            raise InternalCheckError("trace-image lattice is not of full rank")
        s, lam_rows = self.field.multiplication_rows(self.field.generator())
        if s != 1:
            raise InternalCheckError("lam is not an algebraic integer")
        den = lcm(lattice.den, *(x.denominator for x in coeffs))
        rows = [[x * (den // lattice.den) for x in row] for row in lattice.rows]
        index = prod(row[k] for k, row in enumerate(rows))
        lam_cols = transpose(lam_rows)
        v = echelon_reduce(rows, [x.numerator * (den // x.denominator) for x in coeffs])
        for _ in range(index.bit_length()):
            if not any(v):
                return True
            v = echelon_reduce(rows, mat_vec(lam_cols, v))
        return not any(v)

    def _coeff_row(self, target) -> list[Fraction]:
        if isinstance(target, FieldElement):
            self.field._check(target)
            coeffs = list(target.coeffs)
        elif isinstance(target, (int, Fraction)):
            coeffs = [Fraction(target)]
        else:
            coeffs = [Fraction(x) for x in target]
        if len(coeffs) > self.degree:
            raise ValidationError("target has too many coordinates for the field")
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return coeffs

    @property
    def rank(self) -> int:
        return self.base_lattice.rank


def trace_image(sub: Substitution) -> TraceImage:
    """The image of the trace: the Z[1/lam]-module generated by the letter
    frequencies, with exact membership testing."""
    data = pf_data(sub)
    field = data.field
    deg = data.lam.degree
    rows = []
    for u in data.left:
        el = u
        for _ in range(deg):
            rows.append(list(el.coeffs))
            el = el * field.generator()
    lattice = Lattice.from_fraction_rows(rows, deg)
    return TraceImage(
        field=field,
        degree=deg,
        base_lattice=lattice,
        description=_describe_trace_image(data, lattice),
    )


def _describe_trace_image(data: PFData, lattice: Lattice) -> str:
    deg = data.lam.degree
    if deg == 1:
        lam_int = data.lam.as_fraction()
        assert lam_int.denominator == 1
        n = int(lam_int)
        g = lattice.rows[0][0]
        den = lattice.den
        # absorb prime factors of lam into the scalar front factor
        while (p := gcd(g, n)) > 1:
            g //= p
        while (p := gcd(den, n)) > 1:
            den //= p
        front = Fraction(g, den)
        if front == 1:
            return f"Z[1/{n}]"
        return f"({front})*Z[1/{n}]"
    gens = ", ".join(
        "(" + ", ".join(f"{Fraction(x, lattice.den)}" for x in row) + ")"
        for row in lattice.rows
    )
    return (
        f"rank-{lattice.rank} Z[1/lam]-module in Q(lam), lam of degree {deg}; "
        f"Z-basis rows in the power basis: {gens}"
    )


def infinitesimal_rank(sub: Substitution) -> int:
    """Free rank of the kernel of the trace in the presented group."""
    group = build_coinvariants(sub)
    return _infinitesimal_rank_of(group)


def _infinitesimal_rank_of(group: DirectLimitGroup) -> int:
    d = group.dimension
    deg = group.field.degree
    rows = []
    for k in range(deg):
        rows.append([group.u_n[i].coeffs[k] for i in range(d)])
    null_dim = d - len(row_reduce(rows)[1])
    inf = null_dim - len(group.eventual_kernel_basis)
    if inf < 0:
        raise InternalCheckError("eventual kernel escapes the trace kernel")
    return inf


class CoinvariantsReport(Record):
    free_rank: int
    invariant_factors: tuple[int, ...]
    trace_image_description: str
    infinitesimal_rank: int
    caveats: tuple[str, ...]


def coinvariants_report(sub: Substitution) -> CoinvariantsReport:
    group = build_coinvariants(sub)
    image = trace_image(sub)
    inf = _infinitesimal_rank_of(group)
    if group.free_rank != image.rank + inf:
        raise InternalCheckError(
            "free rank does not split into trace-image rank plus infinitesimals"
        )
    return CoinvariantsReport(
        free_rank=group.free_rank,
        invariant_factors=group.invariant_factors(),
        trace_image_description=image.description,
        infinitesimal_rank=inf,
        caveats=(
            "invariant factors are read off this presentation's stabilized "
            "transition and are not validated against an independent model",
        ),
    )


# -- restriction to a cross section ---------------------------------------


class RestrictedClass(Record):
    """A class expressed on the return-word basis of a cross section, whose
    word is `section` (None for the whole space)."""

    section: tuple[int, ...] | None
    return_words: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]

    def as_group_element(self, group: DirectLimitGroup) -> GroupElement:
        if self.section != group.derived.section:
            raise ValidationError("cross section differs from the presentation base")
        if self.return_words != group.derived.return_words:
            raise InternalCheckError("return-word bases disagree")
        return group.element(0, self.weights)


def _normalize_gamma(
    sub: Substitution, gamma: Mapping
) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for key, coeff in gamma.items():
        try:
            value = operator.index(coeff)
        except TypeError:
            raise ValidationError(f"weight {coeff!r} is not an integer") from None
        out.append((word_idx(sub.alphabet, key), value))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def restrict_class(sub: Substitution, gamma: Mapping, section) -> RestrictedClass:
    """Express the class of a cylinder-weight function on the return-word
    basis of a cross section.

    `gamma` maps words to integer coefficients; the weight of a return word
    is the gamma-weight summed along it.  Occurrence counts that straddle
    the end of a return word are read off every block of return words that
    may follow it: the blocks of `flows.derived_substitution` on the
    section, σ itself on the whole space and Durand's derived substitution
    on a prefix section.  Disagreement between two blocks with the same
    first return word is an error.  Supported sections: the whole space and
    every prefix u of the σ^c-fixed point grown from u[0], c the length of
    u[0]'s cycle under the first-letter map.
    """
    terms = _normalize_gamma(sub, gamma)
    word = section_word(sub.alphabet, section)
    tiling = derived_substitution(sub, word)
    returns = return_words(sub, word)

    weights: dict[int, int] = {}
    for v, total in _block_weights(tiling, returns, terms)[1].items():
        if weights.setdefault(v[0], total) != total:
            raise ValidationError(
                "weight of a return word depends on the continuation; "
                "the class does not restrict to this basis"
            )
    return RestrictedClass(
        section=word,
        return_words=returns,
        weights=tuple(weights[i] for i in range(len(returns))),
    )


# -- induced action of flow codes -----------------------------------------


class ActionReport(Record):
    """The action of a flow code on the coinvariants presentation.

    `matrix` columns are the images of the level-0 basis classes, written in
    level-`level` coordinates (for a level-preserving action, `level` is 0
    and the matrix is square in the usual sense).
    """

    kind: str
    level: int
    matrix: IntMatrix
    fixes_order_unit: bool
    basis_images: tuple[GroupElement, ...]
    unit_image: GroupElement
    letter_permutation: tuple[int, ...] | None
    trace_scale: FieldElement | None


def induced_action(flow_code, group: DirectLimitGroup | None = None) -> ActionReport:
    """Compute the automorphism of the coinvariants presentation induced by
    a flow code.

    Supported codes: the identity, automorphism codes of the shift (pushing
    basis cylinders through the inverse block code), and the canonical
    substitution self-code (multiplication by the one-step derived incidence
    matrix; requires the base letter to begin its own image directly).
    """
    kind = getattr(flow_code, "kind", None)
    sub = getattr(flow_code, "sub", None)
    if kind is None or sub is None:
        raise ValidationError("object does not look like a flow code")
    if group is None:
        group = build_coinvariants(sub)
    if kind == "identity":
        d = group.dimension
        basis = tuple(
            group.element(0, tuple(int(i == j) for i in range(d))) for j in range(d)
        )
        return ActionReport(
            kind=kind,
            level=0,
            matrix=identity(d),
            fixes_order_unit=True,
            basis_images=basis,
            unit_image=group.order_unit,
            letter_permutation=tuple(range(sub.size)),
            trace_scale=group.field.one(),
        )
    if kind == "substitution":
        derived = group.derived
        if derived.cycle_length != 1:
            raise ValidationError(
                "substitution action needs a base letter fixed by the "
                "first-letter map itself"
            )
        c_mat = incidence_matrix(derived.zeta)
        d = group.dimension
        basis = tuple(
            group.element(0, tuple(c_mat[i][j] for i in range(d))) for j in range(d)
        )
        unit_image = group.element(0, mat_vec(c_mat, derived.lengths))
        fixes = element_equal(group, unit_image, group.order_unit)
        return ActionReport(
            kind=kind,
            level=0,
            matrix=c_mat,
            fixes_order_unit=fixes,
            basis_images=basis,
            unit_image=unit_image,
            letter_permutation=None,
            trace_scale=group.field.generator(),
        )
    if kind == "automorphism":
        return _automorphism_action(flow_code, group)
    raise ValidationError(f"induced action not implemented for kind {kind!r}")


def _automorphism_action(flow_code, group: DirectLimitGroup) -> ActionReport:
    sub: Substitution = flow_code.sub
    # the image of a cylinder under the homeomorphism is the preimage of
    # that cylinder under its inverse block code
    code = getattr(flow_code, "inverse", None)
    if code is None:
        raise ValidationError("automorphism flow code carries no inverse block code")
    derived = group.derived
    d = group.dimension
    # basis class i: the cylinder of return word i followed by the section
    images = [
        _pushforward_class(group, code, r + (derived.section or ()))
        for r in derived.return_words
    ]
    m_level = max(g.level for g in images)
    lifted = [g.raised(m_level - g.level) for g in images]
    matrix = tuple(
        tuple(lifted[j].vector[i] for j in range(d)) for i in range(len(lifted[0].vector))
    )
    unit_image = group.zero()
    for l, g in zip(derived.lengths, images):
        unit_image = unit_image + g.scaled(l)
    fixes = element_equal(group, unit_image, group.order_unit)

    permutation = _letter_permutation(group, code, sub)

    return ActionReport(
        kind="automorphism",
        level=m_level,
        matrix=matrix,
        fixes_order_unit=fixes,
        basis_images=tuple(images),
        unit_image=unit_image,
        letter_permutation=permutation,
        trace_scale=group.field.one() if fixes else None,
    )


def _letter_permutation(
    group: DirectLimitGroup, code, sub: Substitution
) -> tuple[int, ...] | None:
    """How the homeomorphism permutes one-letter cylinders, when it does.

    A radius-0 code gives the permutation exactly at the level of sets;
    otherwise the image class of each letter cylinder is matched against the
    letter classes.  Each image must match exactly one class, and no other
    image that class: classes that coincide in the group name no letter.
    """
    d = sub.size
    if code.radius == 0:
        perm: list[int | None] = [None] * d
        for window, out in code.rule.items():
            if len(window) != 1:
                return None
            if perm[out] is not None:
                return None
            perm[out] = window[0]
        if any(p is None for p in perm):
            return None
        return tuple(perm)
    letter_classes = [cylinder_class(group, (a,)) for a in range(d)]
    out_perm: list[int] = []
    for a in range(d):
        img = _pushforward_class(group, code, (a,))
        matches = [t for t, cls in enumerate(letter_classes) if element_equal(group, img, cls)]
        if len(matches) != 1 or matches[0] in out_perm:
            return None
        out_perm.append(matches[0])
    return tuple(out_perm)


def _pushforward_class(
    group: DirectLimitGroup, code, word: tuple[int, ...]
) -> GroupElement:
    """Class of the image of [word] under the homeomorphism whose inverse is
    the given sliding block code: sum the classes of all admissible preimage
    windows."""
    sub = group.derived.source
    radius = code.radius
    n = len(word) + 2 * radius
    language = sub.language(max(n, 2))
    total = group.zero()
    found = False
    for block in sorted(language.blocks_of(n)):
        if code.apply(block) == word:
            total = total + cylinder_class(group, block)
            found = True
    if not found:
        raise ValidationError("no preimage window; code does not map onto the word")
    return total
