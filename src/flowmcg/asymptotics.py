"""Asymptotic pairs of a substitution shift: one-sided fixed points glued
at admissible junctions, grouped by shared forward tails.

Only forward-asymptotic structure is computed.  A point here is presented
as a left fixed point (read to minus infinity) joined to a right fixed
point at the origin; two presentations are merged when their expansions
agree up to a bounded shift, and that comparison length is reported as a
certificate, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import InternalCheckError, ResourceLimitError, ValidationError
from .substitution import (
    Substitution,
    cycle_lengths,
    fixed_point,
    image_prefix,
    is_aperiodic,
    is_primitive,
)
from .words import SlidingBlockCode, shift_offsets

DEFAULT_TAIL_CHECK = 2048


@dataclass(frozen=True)
class OneSidedFixedPoint:
    """A one-sided sequence fixed by a power of the substitution.

    Right points extend from their seed letter forward; left points extend
    backward, and expansions are returned with the seed at the end.
    """

    sub: Substitution
    direction: str
    seed: int
    power: int

    def __post_init__(self) -> None:
        if self.direction not in ("left", "right"):
            raise ValidationError("direction must be 'left' or 'right'")
        self.expand(1)

    def expand(self, length: int) -> tuple[int, ...]:
        return fixed_point(
            self.sub, self.seed, length, self.power, left=self.direction == "left"
        )


@dataclass(frozen=True)
class Leaf:
    """One asymptotic point: left tail, right tail, and the junction
    2-block (last left letter, first right letter) across the origin."""

    left: OneSidedFixedPoint
    right: OneSidedFixedPoint

    @property
    def junction(self) -> tuple[int, int]:
        return (self.left.seed, self.right.seed)

    def window(self, half: int) -> tuple[int, ...]:
        """Symbols on [-half, half); the origin sits at index `half`."""
        return self.left.expand(half) + self.right.expand(half)


@dataclass(frozen=True)
class AsymptoticClassSet:
    """Finitely many classes of asymptotic points, each sharing a forward
    tail; every class carries at least two leaves."""

    sub: Substitution
    power: int
    classes: tuple[tuple[Leaf, ...], ...]
    tail_certificate: int

    @property
    def count(self) -> int:
        return len(self.classes)

    def leaves(self) -> tuple[Leaf, ...]:
        return tuple(leaf for cls in self.classes for leaf in cls)


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


def asymptotic_classes(
    sub: Substitution, tail_check_length: int = DEFAULT_TAIL_CHECK
) -> AsymptoticClassSet:
    """Enumerate the asymptotic classes of the shift.

    Candidates are junction blocks (b, a): a left fixed point ending in b
    glued to a right fixed point starting with a, with ba admissible.
    Classes group candidates sharing the right tail; classes whose tails
    agree up to a bounded shift are merged, and presentations of the same
    point are deduplicated, both verified to `tail_check_length` symbols.
    A length too short to tell the leaves of any class apart exhausts the
    budget.
    """
    if tail_check_length < 1:
        raise ValidationError("tail check length must be positive")
    if not is_primitive(sub):
        raise ValidationError("substitution must be primitive")
    if is_aperiodic(sub).periodic:
        raise ValidationError("periodic shifts have no asymptotic structure here")
    k = stabilize_power(sub)
    powered = sub.power(k)
    d = sub.size
    right_seeds = [a for a in range(d) if powered.first_letter_map()[a] == a]
    left_seeds = [b for b in range(d) if powered.last_letter_map()[b] == b]
    lang2 = sub.language(2)

    raw: list[list[Leaf]] = []
    for a in sorted(right_seeds):
        bs = [b for b in sorted(left_seeds) if lang2.admissible((b, a))]
        if len(bs) < 2:
            continue
        leaves = [
            Leaf(
                OneSidedFixedPoint(sub, "left", b, k),
                OneSidedFixedPoint(sub, "right", a, k),
            )
            for b in bs
        ]
        raw.append(leaves)
    if not raw:
        raise InternalCheckError(
            "no asymptotic class found; enumeration should be nonempty"
        )

    check = tail_check_length
    max_shift = max(len(powered.image_idx(c)) for c in range(d))

    # drop duplicate presentations of one point (same window up to shift,
    # on at least half of it)
    shifts = range(-max_shift, max_shift + 1)
    for leaves in raw:
        kept: list[tuple[Leaf, tuple[int, ...]]] = []
        for leaf in leaves:
            w = leaf.window(check)
            dup = any(
                next(shift_offsets(w, seen, shifts, len(w) // 2), None) is not None
                for _, seen in kept
            )
            if not dup:
                kept.append((leaf, w))
        leaves[:] = [leaf for leaf, _ in kept]
    raw = [leaves for leaves in raw if len(leaves) >= 2]
    if not raw:
        raise ResourceLimitError(
            f"tail check of {check} symbols leaves no class with two leaves"
        )

    # merge classes whose right tails agree up to a shift
    merged: list[list[Leaf]] = []
    tails: list[tuple[int, ...]] = []
    for leaves in raw:
        tail = leaves[0].right.expand(check)
        for i, seen in enumerate(tails):
            if _tails_agree(tail, seen, max_shift):
                merged[i].extend(leaves)
                break
        else:
            merged.append(list(leaves))
            tails.append(tail)

    classes = []
    for leaves in merged:
        leaves.sort(key=lambda l: l.junction)
        for l1 in leaves:
            for l2 in leaves:
                if l1 is not l2 and l1.junction == l2.junction:
                    raise InternalCheckError("repeated junction inside a class")
        classes.append(tuple(leaves))
    return AsymptoticClassSet(
        sub=sub, power=k, classes=tuple(classes), tail_certificate=check
    )


def action_on_classes(op, classes: AsymptoticClassSet) -> tuple[int, ...]:
    """The permutation the map induces on asymptotic classes.

    `op` is a substitution over the same alphabet (acting by application)
    or a sliding block code (a verified automorphism).  Position i of the
    result is the index of the image class of class i.  Re-identification
    compares image tails against class tails up to a bounded shift; failure
    raises instead of guessing.
    """
    sub = classes.sub
    check = classes.tail_certificate
    powered = sub.power(classes.power)
    max_shift = max(len(powered.image_idx(c)) for c in range(sub.size))
    tails = [cls[0].right.expand(check) for cls in classes.classes]

    images: list[tuple[int, ...]] = []
    if isinstance(op, Substitution):
        if op.alphabet != sub.alphabet:
            raise ValidationError("map alphabet does not match the shift")
        step = [op.image_idx(c) for c in range(op.size)]
        for tail in tails:
            images.append(tuple(image_prefix(step, tail, check)[:check]))
        max_shift = max(max_shift, max(len(w) for w in op.images))
    elif isinstance(op, SlidingBlockCode):
        r = op.radius
        for cls in classes.classes:
            ext = cls[0].right.expand(check + 2 * r)
            pad = cls[0].left.expand(r) if r else ()
            img = op.apply(pad + ext)
            images.append(img[:check])
    else:
        raise ValidationError("map must be a substitution or a block code")

    perm = []
    for i, img in enumerate(images):
        hits = [
            t
            for t, tail in enumerate(tails)
            if _tails_agree(img, tail, max_shift)
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
        for leaf in cls:
            b, a = leaf.junction
            name = f"leaf_{i}_{b}_{a}"
            text = (
                classes.sub.alphabet.symbols[b] + "." + classes.sub.alphabet.symbols[a]
            )
            lines.append(f'    {name} [label="{text}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
