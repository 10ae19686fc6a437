"""Top-level structure reports: the scaling part and finite part of the
flow mapping group of a substitution shift, plus the closed-form families
(Sturmian shifts, odometers, and the two-measure hierarchical words, with
the permutation a block code induces on their measures).

Everything here orchestrates the computational modules; no new invariants
are computed, only assembled, cross-checked, and serialized.  The closed
forms need none of those modules, so each function imports the layers it
runs only when called.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, isqrt
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import InternalCheckError, Record, ValidationError
from .intpoly import is_perfect_power, is_prime

if TYPE_CHECKING:
    from .automorphisms import QuotientGroup
    from .numberfield import AlgebraicNumber
    from .pf import BalanceVerdict
    from .substitution import Substitution
    from .words import SlidingBlockCode


class ZPart(Record):
    """Image of the scaling homomorphism: infinite cyclic, the canonical
    substitution code mapping to the expansion factor, the report's `lam`."""

    relation: tuple[int, int]
    proper_power: bool | None
    note: str


class FinitePart(Record):
    class_count: int
    bound: int
    action: tuple[int, ...]
    action_trivial: bool
    group: QuotientGroup | None
    description: str | None


class McgReport(Record):
    lam: AlgebraicNumber
    cr: BalanceVerdict
    pisot: bool
    z_part: ZPart
    finite_part: FinitePart
    caveats: tuple[str, ...]

    def to_json_dict(self) -> dict:
        from .numberfield import algebraic_to_json

        fp = self.finite_part
        return {
            "lambda": algebraic_to_json(self.lam),
            "cr": self.cr.verdict,
            "pisot": self.pisot,
            "mcg": {
                "finite_part": fp.group.name if fp.group else None,
                "z_part": "Z",
                "product": "direct" if fp.action_trivial else "semidirect",
            },
            "z_part": {
                "r_mu": algebraic_to_json(self.lam),
                "relation": list(self.z_part.relation),
                "proper_power": self.z_part.proper_power,
                "note": self.z_part.note,
            },
            "finite_part": {
                "class_count": fp.class_count,
                "bound": fp.bound,
                "action_on_classes": list(fp.action),
                "action_trivial": fp.action_trivial,
                "group": fp.group.name if fp.group else None,
                "group_order": fp.group.order if fp.group else None,
                "description": fp.description,
            },
            "caveats": list(self.caveats),
        }


def assemble_mcg(sub: Substitution, aut_radius: int = 1) -> McgReport:
    """Full structure report for the flow mapping group of the shift.

    The scaling part records the expansion factor, by construction the
    value of the canonical self-similarity code.  The finite part
    bounds the leaf-permutation group by (class count)! and, when the
    balance check certifies the embedding, identifies it with the
    automorphism quotient found at the given radius, whose order is checked
    against the class count.
    """
    from .substitution import is_aperiodic, is_primitive

    if not is_primitive(sub):
        raise ValidationError("substitution must be primitive")
    if is_aperiodic(sub).periodic:
        raise ValidationError("shift is periodic; no report")
    from .asymptotics import action_on_classes, asymptotic_classes
    from .automorphisms import search_automorphisms, shift_quotient
    from .pf import cr_check, is_pisot, pf_data

    caveats: list[str] = []

    data = pf_data(sub)
    cr = cr_check(sub)
    pisot = is_pisot(sub)

    if data.lam.is_rational:
        lam_int = int(data.lam.as_fraction())
        proper = is_perfect_power(lam_int)
        note = (
            "expansion factor is a proper power; the scaling image may have "
            "a smaller generator"
            if proper
            else "integer expansion factor is not a proper power"
        )
    else:
        proper = None
        note = (
            "irrational expansion factor; no generator of the scaling image "
            "is identified, only the value of the canonical code"
        )
        caveats.append(note)

    classes = asymptotic_classes(sub)
    count = classes.count
    bound = factorial(count)
    action = action_on_classes(sub, classes)
    trivial = action == tuple(range(count))

    group: QuotientGroup | None = None
    description: str | None = None
    if cr.is_balanced:
        group = shift_quotient(search_automorphisms(sub, aut_radius))
        # Aut/<S> acts freely on the asymptotic classes
        # (Donoso-Durand-Maass-Petite 2016), so its order is at most their count
        if group.order > count:
            raise InternalCheckError(
                f"quotient order {group.order} exceeds the class count {count}"
            )
        if group.order == 1:
            description = "Z"
        elif trivial:
            description = f"{group.name} x Z"
        else:
            description = f"{group.name} x| Z (semidirect)"
        caveats.append(
            f"finite part identified from the automorphism search at radius "
            f"{aut_radius}; larger radii could enlarge it"
        )
    else:
        caveats.append(
            "balance not certified; the finite part is only bounded, not "
            "identified"
        )

    return McgReport(
        lam=data.lam,
        cr=cr,
        pisot=pisot,
        z_part=ZPart(
            relation=(1, 1),  # the value is lambda > 1
            proper_power=proper,
            note=note,
        ),
        finite_part=FinitePart(
            class_count=count,
            bound=bound,
            action=action,
            action_trivial=trivial,
            group=group,
            description=description,
        ),
        caveats=tuple(caveats),
    )


# ---------------------------------------------------------------------------
# Sturmian dichotomy


class Surd(Record):
    """The quadratic irrational (a + b*sqrt(d)) / c with integer entries."""

    a: int
    b: int
    d: int
    c: int

    def __post_init__(self) -> None:
        if self.c == 0:
            raise ValidationError("surd denominator must be nonzero")
        if self.b == 0:
            raise ValidationError("surd is rational: b = 0")
        if self.d < 2 or isqrt(self.d) ** 2 == self.d:
            raise ValidationError("surd radicand must be a non-square >= 2")

    def minpoly(self) -> tuple[int, int, int]:
        """Ascending integer coefficients of the quadratic with this root,
        content divided out, leading coefficient positive."""
        a, b, d, c = self.a, self.b, self.d, self.c
        coeffs = (a * a - b * b * d, -2 * a * c, c * c)
        g = gcd(*coeffs)
        return tuple(x // g for x in coeffs)


NON_QUADRATIC = "non-quadratic"


class SturmianVerdict(Record):
    kind: str  # TrivialMCG | IsomorphicToZ | NotApplicable
    reason: str
    minpoly: tuple[int, int, int] | None = None
    conjugate_in_unit_interval: bool | None = None


def _sign_surd(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d), d a non-square."""
    if b == 0:
        return (a > 0) - (a < 0)
    if b > 0:
        if a >= 0:
            return 1
        return 1 if a * a < b * b * d else -1
    return -_sign_surd(-a, -b, d)


def sturmian_classify(beta) -> SturmianVerdict:
    """Dichotomy for the rotation-number shift.

    A quadratic irrational whose algebraic conjugate leaves [0, 1] gives an
    infinite cyclic group; every other irrational gives the trivial group.
    Quadraticity cannot be read off an approximation, so inputs are exact:
    a Surd, or the tag "non-quadratic" for a declared non-quadratic
    irrational.  Rationals are rejected.
    """
    if beta == NON_QUADRATIC:
        return SturmianVerdict(
            kind="TrivialMCG",
            reason="declared non-quadratic irrational; only the quadratic "
            "case with external conjugate gives a nontrivial group",
        )
    if isinstance(beta, (int, Fraction)):
        raise ValidationError("rotation number must be irrational")
    if not isinstance(beta, Surd):
        raise ValidationError(
            "input must be a Surd, or the 'non-quadratic' tag"
        )
    a, b, d, c = beta.a, beta.b, beta.d, beta.c
    if c < 0:
        a, b, c = -a, -b, -c
    # 0 < beta < 1, strictly: equality cannot occur for an irrational
    if _sign_surd(a, b, d) <= 0 or _sign_surd(a - c, b, d) >= 0:
        raise ValidationError("rotation number must lie in (0, 1)")
    inside = _sign_surd(a, -b, d) > 0 and _sign_surd(a - c, -b, d) < 0
    if inside:
        return SturmianVerdict(
            kind="TrivialMCG",
            reason="quadratic with conjugate inside [0, 1]",
            minpoly=beta.minpoly(),
            conjugate_in_unit_interval=True,
        )
    return SturmianVerdict(
        kind="IsomorphicToZ",
        reason="quadratic with conjugate outside [0, 1]",
        minpoly=beta.minpoly(),
        conjugate_in_unit_interval=False,
    )


# ---------------------------------------------------------------------------
# Odometers


class OdometerReport(Record):
    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    coinvariants: str
    unit_rank: int
    presentation: str


def odometer_mcg(preperiod, period) -> OdometerReport:
    """Structure report for the adding machine with the given prime tower.

    The tower reads the preperiod once, then the period forever.  Only
    primes occurring infinitely often contribute multiplicative units, so
    the unit rank is the number of distinct period primes.
    """
    pre = tuple(int(p) for p in preperiod)
    per = tuple(int(p) for p in period)
    if not per:
        raise ValidationError("period must be nonempty")
    for p in pre + per:
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
    period_set = sorted(set(per))
    rank = len(period_set)
    scale = 1
    for p in pre:
        if p not in period_set:
            scale *= p
    loc = "Z[" + ", ".join(f"1/{p}" for p in period_set) + "]"
    coinv = loc if scale == 1 else f"(1/{scale}) {loc}"
    presentation = f"O_P/<(1,1,...)> x| Z^{rank}"
    return OdometerReport(
        preperiod=pre,
        period=per,
        coinvariants=coinv,
        unit_rank=rank,
        presentation=presentation,
    )


# ---------------------------------------------------------------------------
# Hierarchical two-measure words


class HierarchicalWordSpec(Record):
    """Finite stages of the two-symbol hierarchical construction.

    Level i+1 concatenates n_values[i] copies of the level-i 0-word and one
    level-i 1-word; the 1-words are the letter-swapped mirror images.  All
    statements are finite-stage statements.
    """

    n_values: tuple[int, ...]
    words0: tuple[str, ...]
    words1: tuple[str, ...]
    freqs0: tuple[Fraction, ...]
    bounds: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        swap = {"0": "1", "1": "0"}
        for w0, w1 in zip(self.words0, self.words1):
            if "".join(swap[ch] for ch in w0) != w1:
                raise InternalCheckError("letter-swap symmetry broken")
        for i, n in enumerate(self.n_values):
            if len(self.words0[i + 1]) != (n + 1) * len(self.words0[i]):
                raise InternalCheckError("length recursion broken")
        for f, b in zip(self.freqs0, self.bounds):
            if f < b:
                raise InternalCheckError("frequency fell below its bound")

    @property
    def top0(self) -> str:
        return self.words0[-1]

    @property
    def top1(self) -> str:
        return self.words1[-1]


def hierarchical_subshift(n_values) -> HierarchicalWordSpec:
    """Build all levels of the hierarchical construction for the given
    multiplicities (each at least 2)."""
    ns = tuple(int(n) for n in n_values)
    if not ns:
        raise ValidationError("need at least one multiplicity")
    if any(n < 2 for n in ns):
        raise ValidationError("multiplicities must be at least 2")
    words0 = ["0"]
    words1 = ["1"]
    for n in ns:
        prev0, prev1 = words0[-1], words1[-1]
        words0.append(prev0 * n + prev1)
        words1.append(prev1 * n + prev0)
    freqs = tuple(
        Fraction(w.count("0"), len(w)) for w in words0
    )
    # bound at level i is the product over the first i multiplicities
    bounds = [Fraction(1)]
    prod = Fraction(1)
    for n in ns:
        prod *= Fraction(n, n + 1)
        bounds.append(prod)
    return HierarchicalWordSpec(
        n_values=ns,
        words0=tuple(words0),
        words1=tuple(words1),
        freqs0=freqs,
        bounds=tuple(bounds),
    )


def cyclic_block_table(word: str, n: int) -> dict[tuple[int, ...], Fraction]:
    """Empirical n-block frequencies of the word read cyclically; exact
    fractions summing to 1."""
    if n < 1 or n > len(word):
        raise ValidationError("block length out of range for the word")
    seq = [int(ch) for ch in word]
    ext = seq + seq[: n - 1]
    table: dict[tuple[int, ...], Fraction] = {}
    step = Fraction(1, len(seq))
    for i in range(len(seq)):
        key = tuple(ext[i : i + n])
        table[key] = table.get(key, Fraction(0)) + step
    return table


def stage_measure_tables(
    spec: HierarchicalWordSpec, n: int
) -> tuple[dict, dict]:
    """The two finite-stage frequency tables at the top level."""
    return (
        cyclic_block_table(spec.top0, n),
        cyclic_block_table(spec.top1, n),
    )


# least total-variation gap between the best and the runner-up measure match
MEASURE_MATCH_THRESHOLD = Fraction(1, 10)


class MeasureActionReport(Record):
    """Permutation of frequency tables under a code's pushforward."""

    permutation: tuple[int, ...]
    margin: Fraction | None


def _marginalize(
    table: Mapping[tuple[int, ...], Fraction], m: int
) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for w, p in table.items():
        key = w[:m]
        out[key] = out.get(key, Fraction(0)) + p
    return out


def _total_variation(
    p: Mapping[tuple[int, ...], Fraction], q: Mapping[tuple[int, ...], Fraction]
) -> Fraction:
    keys = set(p) | set(q)
    return sum(
        (abs(p.get(k, Fraction(0)) - q.get(k, Fraction(0))) for k in keys),
        Fraction(0),
    ) / 2


def action_on_measures(
    code: SlidingBlockCode,
    freq_tables: Sequence[Mapping[tuple[int, ...], Fraction]],
) -> MeasureActionReport:
    """Match each pushed-forward frequency table to its nearest input table.

    Tables assign frequencies to n-blocks for one common n and must each
    sum to 1.  The pushforward of an n-block table lives on (n-2r)-blocks,
    so the inputs are marginalized to that length before comparison.  A
    best match closer than MEASURE_MATCH_THRESHOLD to the runner-up is
    refused.
    """
    if not freq_tables:
        raise ValidationError("need at least one frequency table")
    lengths = {len(w) for t in freq_tables for w in t}
    if len(lengths) != 1:
        raise ValidationError("tables must share one block length")
    n = lengths.pop()
    for t in freq_tables:
        if sum(t.values(), Fraction(0)) != 1:
            raise ValidationError("each table must sum to 1")
    m = n - 2 * code.radius
    if m < 1:
        raise ValidationError("block length too short for the code radius")

    pushed = []
    for t in freq_tables:
        img: dict[tuple[int, ...], Fraction] = {}
        for v, p in t.items():
            w = code.apply(v)
            img[w] = img.get(w, Fraction(0)) + p
        pushed.append(img)
    margins = [_marginalize(t, m) for t in freq_tables]

    distances = tuple(
        tuple(_total_variation(img, marg) for marg in margins) for img in pushed
    )
    perm = []
    margin: Fraction | None = None
    for i, row in enumerate(distances):
        best = min(range(len(row)), key=lambda j: row[j])
        if len(row) > 1:
            runner = min(row[j] for j in range(len(row)) if j != best)
            gap = runner - row[best]
            if gap < MEASURE_MATCH_THRESHOLD:
                raise InternalCheckError(
                    f"measure match for table {i} ambiguous: margin {gap} "
                    f"below threshold {MEASURE_MATCH_THRESHOLD}"
                )
            margin = gap if margin is None else min(margin, gap)
        perm.append(best)
    if sorted(perm) != list(range(len(freq_tables))):
        raise InternalCheckError("pushforward did not permute the tables")
    return MeasureActionReport(
        permutation=tuple(perm),
        margin=margin,
    )


# ---------------------------------------------------------------------------
# Virtually-abelian checklist


class VirtuallyAbelianReport(Record):
    window: tuple[int, int]
    min_ratio: Fraction
    ergodic_measure_bound: int
    asymptotic_class_count: int | None
    infinitesimal_rank: int | None
    verdict: str
    notes: tuple[str, ...]


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def virtually_abelian_report(obj, n_max: int = 24) -> VirtuallyAbelianReport:
    """Checklist for the virtually-abelian conclusion.

    Reports a window estimate of the complexity ratio p(n)/n (which bounds
    the number of ergodic measures), and for substitutions also the
    asymptotic class count and the infinitesimal rank.  The conclusion
    needs vanishing infinitesimals; nonzero rank reroutes to the
    finite-extension description instead.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    notes: list[str] = []
    if isinstance(obj, HierarchicalWordSpec):
        w0, w1 = obj.top0, obj.top1
        cap = min(n_max, len(w0))
        lo = max(1, cap // 2)
        ratios = []
        for n in range(lo, cap + 1):
            blocks = set()
            for u in (w0 + w0, w0 + w1, w1 + w0, w1 + w1):
                seq = tuple(int(ch) for ch in u)
                for i in range(len(w0)):
                    blocks.add(seq[i : i + n])
            ratios.append(Fraction(len(blocks), n))
        min_ratio = min(ratios)
        k = _ceil_fraction(min_ratio)
        notes.append(
            "finite-stage language only; class and infinitesimal data need "
            "the full construction"
        )
        return VirtuallyAbelianReport(
            window=(lo, cap),
            min_ratio=min_ratio,
            ergodic_measure_bound=k - 1,
            asymptotic_class_count=None,
            infinitesimal_rank=None,
            verdict="insufficient data",
            notes=tuple(notes),
        )
    from .asymptotics import asymptotic_classes
    from .coinvariants import infinitesimal_rank
    from .substitution import Substitution, complexity_profile

    if not isinstance(obj, Substitution):
        raise ValidationError("input must be a substitution or a word spec")
    profile = complexity_profile(obj, n_max)
    # tail of the window only: small n understate the growth rate
    lo = max(1, n_max // 2)
    ratios = [Fraction(profile[n - 1], n) for n in range(lo, n_max + 1)]
    min_ratio = min(ratios)
    k = _ceil_fraction(min_ratio)
    classes = asymptotic_classes(obj)
    inf_rank = infinitesimal_rank(obj)
    if inf_rank == 0:
        verdict = "hypotheses satisfied on the checked window"
        notes.append(
            f"complexity ratio stays near {min_ratio} on the window; "
            "infinitesimal part vanishes"
        )
    else:
        verdict = (
            "infinitesimals nonzero; the finite-extension structure "
            "applies instead of the abelian route"
        )
    return VirtuallyAbelianReport(
        window=(lo, n_max),
        min_ratio=min_ratio,
        ergodic_measure_bound=k - 1,
        asymptotic_class_count=classes.count,
        infinitesimal_rank=inf_rank,
        verdict=verdict,
        notes=tuple(notes),
    )
