"""Asymptotic pairs of a substitution shift: one-sided fixed points glued
at admissible junctions, one class per right seed.

Only forward-asymptotic structure is computed.  A point here is presented
as a left fixed point (read to minus infinity) joined to a right fixed
point at the origin; the leaves of a class share that right point.
"""

from __future__ import annotations

from math import lcm

from .errors import InternalCheckError, Record, ValidationError
from .substitution import (
    Substitution,
    cycle_lengths,
    fixed_point,
    is_aperiodic,
    is_primitive,
)
from .words import SlidingBlockCode, shift_offsets

# symbols of each tail compared when a block code's image is matched
TAIL_CHECK = 2048


class AsymptoticClassSet(Record):
    """Finitely many classes of asymptotic points, each sharing a forward
    tail; every class carries at least two leaves.  A leaf is its junction
    2-block (b, a) across the origin: the left fixed point ending in b
    joined to the right fixed point starting with a."""

    sub: Substitution
    power: int
    classes: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def stabilize_power(sub: Substitution) -> int:
    """Least power whose first- and last-letter maps fix every letter on
    their eventual cycles."""
    if not is_primitive(sub):
        raise ValidationError("substitution must be primitive")
    periods = [
        c
        for f in (sub.first_letter_map(), sub.last_letter_map())
        for c in cycle_lengths(f).values()
    ]
    return lcm(*periods) if periods else 1


def _tails_agree(
    x: tuple[int, ...], y: tuple[int, ...], max_shift: int
) -> bool:
    """Do the right-infinite expansions x and y eventually coincide up to a
    shift of at most max_shift, as far as the data reaches?"""
    shifts = range(-max_shift, max_shift + 1)
    return next(shift_offsets(x, y, shifts, max_shift + 1), None) is not None


def asymptotic_classes(sub: Substitution) -> AsymptoticClassSet:
    """Enumerate the asymptotic classes of the shift.

    With k = `stabilize_power(sub)`, a right seed is a letter a on a cycle
    of the first-letter map, and u^(a) is the σ^k-fixed right point that
    starts with a; left seeds b and their points are the same on the
    last-letter map.  There is one class per right seed a, in letter order:
    the leaves (b, a) with b a left seed and ba admissible, kept when there
    are at least two.

    No tail is compared, because no two of these points are one point up
    to a shift.  If u^(a) = p·u^(a′) with p nonempty, applying σ^k gives
    σ^k(p)·u^(a′) = p·u^(a′).  Where |σ^k(p)| ≠ |p|, one side is the other
    with a nonempty word in front, so u^(a′) is periodic; otherwise
    σ^k(p) = p and σ^k fixes a letter.  A primitive aperiodic substitution
    allows neither.  Two leaves (b, a) ≠ (b′, a) that were one point up to
    a nonzero shift would make their common tail u^(a) periodic.
    """
    if not is_primitive(sub):
        raise ValidationError("substitution must be primitive")
    if is_aperiodic(sub).periodic:
        raise ValidationError("periodic shifts have no asymptotic structure here")
    k = stabilize_power(sub)
    right_seeds = sorted(cycle_lengths(sub.first_letter_map()))
    left_seeds = sorted(cycle_lengths(sub.last_letter_map()))
    lang2 = sub.language(2)
    classes = []
    for a in right_seeds:
        bs = [b for b in left_seeds if lang2.admissible((b, a))]
        if len(bs) >= 2:
            classes.append(tuple((b, a) for b in bs))
    if not classes:
        raise InternalCheckError(
            "no asymptotic class found; enumeration should be nonempty"
        )
    return AsymptoticClassSet(sub=sub, power=k, classes=tuple(classes))


def action_on_classes(op, classes: AsymptoticClassSet) -> tuple[int, ...]:
    """The permutation the map induces on asymptotic classes.

    Position i of the result is the index of the image class of class i.
    `op` is either of:

    - a substitution over the same alphabet that commutes with σ on
      letters, op(σ(c)) = σ(op(c)).  Then op(σ^k(w)) = σ^k(op(w)) for every
      word w, so op maps u^(a) to the σ^k-fixed point that starts with the
      first letter of op(a), and the action is read off first letters.
      Any other substitution, or one that does not permute the classes,
      raises `ValidationError`;
    - a sliding block code (a verified automorphism).  Its image of each
      class tail is matched against the class tails up to a bounded shift
      on `TAIL_CHECK` symbols; failure raises instead of guessing.
    """
    sub = classes.sub
    seeds = [cls[0][1] for cls in classes.classes]
    if isinstance(op, Substitution):
        if op.alphabet != sub.alphabet:
            raise ValidationError("map alphabet does not match the shift")
        if any(
            op.apply_idx(sub.image_idx(c)) != sub.apply_idx(op.image_idx(c))
            for c in range(sub.size)
        ):
            raise ValidationError("map does not commute with the substitution")
        targets = [op.image_idx(a)[0] for a in seeds]
        if sorted(targets) != seeds:
            raise ValidationError("map does not permute the asymptotic classes")
        return tuple(seeds.index(t) for t in targets)
    if not isinstance(op, SlidingBlockCode):
        raise ValidationError("map must be a substitution or a block code")

    max_shift = max(sub.image_lengths(classes.power))
    tails = [fixed_point(sub, a, TAIL_CHECK) for a in seeds]
    r = op.radius
    perm = []
    for i, (b, a) in enumerate(cls[0] for cls in classes.classes):
        ext = fixed_point(sub, a, TAIL_CHECK + 2 * r)
        pad = fixed_point(sub, b, r, left=True)
        img = op.apply(pad + ext)[:TAIL_CHECK]
        hits = [
            t for t, tail in enumerate(tails) if _tails_agree(img, tail, max_shift)
        ]
        if len(hits) != 1:
            raise InternalCheckError(
                f"image of class {i} matched {len(hits)} classes within the "
                "tail budget"
            )
        perm.append(hits[0])
    if sorted(perm) != list(range(len(tails))):
        raise InternalCheckError("induced map on classes is not a bijection")
    return tuple(perm)


def classes_to_dot(classes: AsymptoticClassSet) -> str:
    """DOT graph of the leaves, one cluster per class."""
    lines = ["graph asymptotic_leaves {"]
    for i, cls in enumerate(classes.classes):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="class {i}";')
        for b, a in cls:
            name = f"leaf_{i}_{b}_{a}"
            text = (
                classes.sub.alphabet.symbols[b] + "." + classes.sub.alphabet.symbols[a]
            )
            lines.append(f'    {name} [label="{text}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
