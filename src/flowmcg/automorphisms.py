"""Exhaustive bounded-radius search for self-conjugacies of a substitution
shift and their identification modulo shift powers.

Completeness is per radius only: a report certifies every block code of
radius at most r that preserves the language to the checked depth and is
invertible within the inverse budget.  Nothing is claimed about larger
radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import InternalCheckError, ResourceLimitError, ValidationError
from .substitution import Substitution, cycle_lengths, fixed_point, is_aperiodic, is_primitive
from .words import (
    CHECK_DEPTH,
    INVERSE_RADIUS_BUDGET,
    LanguageTable,
    SlidingBlockCode,
    inverse_code,
    shift_offsets,
)

DEFAULT_RADIUS = 2
SHIFT_ID_WINDOW = 4096
# search nodes (window outputs tried) of the candidate search: the known
# inputs need at most 10,500 (0→01, 1→12, 2→23, 3→30 at radius 2)
CANDIDATE_BUDGET = 1_000_000
GROUP_NAME_BOUND = 12


@dataclass(frozen=True)
class AutGroupReport:
    """Automorphisms found at a fixed radius.

    `codes` lists every verified code in lexicographic rule order, paired
    with `inverses`.  `elements` are representatives modulo shift powers;
    `table` is their composition table (again modulo shift powers).
    """

    sub: Substitution
    radius: int
    window: int
    codes: tuple[SlidingBlockCode, ...]
    inverses: tuple[SlidingBlockCode, ...]
    elements: tuple[SlidingBlockCode, ...]
    table: tuple[tuple[int, ...], ...]
    identity_index: int
    certificate: str


@dataclass(frozen=True)
class QuotientGroup:
    """The automorphism group modulo shift powers, as a finite group."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    element_orders: tuple[int, ...]
    name: str
    certificate: str


def _equal_mod_shift(
    out_a: Sequence[int],
    radius_a: int,
    out_b: Sequence[int],
    radius_b: int,
    max_offset: int,
) -> int | None:
    """Offset k with a = shift^k b on the sample, or None, given each code's
    output on the same sample and its radius.

    Two matching offsets on a long aperiodic sample would mean the window
    is periodic; that is reported rather than resolved silently.
    """
    # position t of the point has index t - r in each output array, so
    # a = shift^k b reads out_a[i] == out_b[i + k + radius_a - radius_b]
    delta = radius_a - radius_b
    shifts = range(delta - max_offset, delta + max_offset + 1)
    hits = [j - delta for j in shift_offsets(out_a, out_b, shifts, max_offset + 1)]
    if len(hits) > 1:
        raise InternalCheckError(
            f"shift identification ambiguous: offsets {hits} all match"
        )
    return hits[0] if hits else None


def _enumerate_candidates(
    lang: LanguageTable, radius: int, d: int, n_check: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The admissible windows in sorted order, and every assignment of
    outputs to them (one tuple per candidate, in window order, sorted) under
    which each admissible block of length n + 2·radius, 2 <= n <= n_check,
    has an admissible image.

    One depth-first search assigns the windows in an order along the overlap
    graph and checks each block as soon as its last window is assigned.
    Raises ResourceLimitError once it visits more than CANDIDATE_BUDGET
    search nodes.
    """
    width = 2 * radius + 1
    blocks = sorted(lang.blocks_of(width))
    index = {w: i for i, w in enumerate(blocks)}
    succ: list[list[int]] = [[] for _ in blocks]
    for u in lang.blocks_of(width + 1):
        succ[index[u[:-1]]].append(index[u[1:]])
    # visit order: depth-first along overlap successors, so the windows of a
    # block tend to be assigned one after another
    order: list[int] = []
    pos = [-1] * len(blocks)
    for root in range(len(blocks)):
        stack = [root]
        while stack:
            i = stack.pop()
            if pos[i] < 0:
                pos[i] = len(order)
                order.append(i)
                stack.extend(reversed(succ[i]))
    # each block is checked at the position of its last window in the order;
    # n >= 2, so each getter reads a tuple of outputs
    closing: list[list[tuple[itemgetter, frozenset]]] = [[] for _ in blocks]
    for n in range(2, n_check + 1):
        images = lang.blocks_of(n)
        for w in lang.blocks_of(n + 2 * radius):
            wins = [index[w[i : i + width]] for i in range(n)]
            closing[max(pos[i] for i in wins)].append((itemgetter(*wins), images))

    out = [0] * len(blocks)
    found: list[tuple[int, ...]] = []
    nodes = 0

    def walk(p: int) -> None:
        nonlocal nodes
        if p == len(order):
            found.append(tuple(out))
            return
        i = order[p]
        for letter in range(d):
            nodes += 1
            if nodes > CANDIDATE_BUDGET:
                raise ResourceLimitError(
                    f"automorphism search: more than {CANDIDATE_BUDGET} "
                    f"search nodes at radius {radius}"
                )
            out[i] = letter
            if all(get(out) in images for get, images in closing[p]):
                walk(p + 1)

    walk(0)
    found.sort()
    return blocks, found


def _window_indices(
    seq: Sequence[int], width: int, index: Mapping[tuple[int, ...], int]
) -> list[int]:
    """The index of each length-`width` window of seq, in order."""
    t = tuple(seq)
    try:
        return list(map(index.__getitem__, zip(*(t[k:] for k in range(width)))))
    except KeyError as exc:
        raise InternalCheckError(
            f"sample window {exc.args[0]} is not an admissible window"
        ) from None


def search_automorphisms(sub: Substitution, radius: int = DEFAULT_RADIUS) -> AutGroupReport:
    """Every automorphism realizable at the given radius.

    Searches the output assignments on admissible windows, pruned by the
    language to `CHECK_DEPTH` (at most CANDIDATE_BUDGET search nodes), keeps
    the assignments that admit a verified two-sided inverse code, then groups
    them modulo shift powers.  Shift identification and the composition
    table read the codes' outputs at the window indices of a fixed-point
    sample and of its images.
    """
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    if CHECK_DEPTH < 2 * radius + 1:
        raise ValidationError(
            f"window width {2 * radius + 1} exceeds the check depth {CHECK_DEPTH}"
        )
    if not is_primitive(sub):
        raise ValidationError("substitution must be primitive")
    if is_aperiodic(sub).periodic:
        raise ValidationError("shift is periodic; no automorphism search")
    d = sub.size
    depth = max(CHECK_DEPTH + 2 * radius, 2 * (radius + INVERSE_RADIUS_BUDGET) + 1)
    lang = sub.language(depth)

    codes: list[SlidingBlockCode] = []
    inverses: list[SlidingBlockCode] = []
    kept: list[tuple[int, ...]] = []  # each code's outputs, in window order
    blocks, candidates = _enumerate_candidates(lang, radius, d, CHECK_DEPTH)
    for outputs in candidates:
        rule = dict(zip(blocks, outputs))
        code = SlidingBlockCode(sub.alphabet, sub.alphabet, radius, rule)
        try:
            inv = inverse_code(code, lang, lang)
        except (ValidationError, InternalCheckError):
            continue
        codes.append(code)
        inverses.append(inv)
        kept.append(outputs)

    ident = tuple(w[radius] for w in blocks)
    if ident not in kept:
        raise InternalCheckError("identity code missing from the search result")
    ident_pos = kept.index(ident)
    # all codes read the same windows: index the sample's once, and read each
    # code's image of it off the code's outputs
    width = 2 * radius + 1
    index = {w: i for i, w in enumerate(blocks)}
    seed = min(cycle_lengths(sub.first_letter_map()))
    sample = fixed_point(sub, seed, SHIFT_ID_WINDOW)
    at_sample = _window_indices(sample, width, index)
    images = [tuple(map(outputs.__getitem__, at_sample)) for outputs in kept]

    def shift_to(out: Sequence[int], out_radius: int, r: int) -> int | None:
        return _equal_mod_shift(out, out_radius, images[r], radius, out_radius + radius)

    # identity leads its shift class so the quotient identity is the real one
    reps: list[int] = [ident_pos]
    for i in range(len(codes)):
        if i == ident_pos:
            continue
        if all(shift_to(images[i], radius, r) is None for r in reps):
            reps.append(i)
    elements = tuple(codes[i] for i in reps)
    identity_index = 0

    # codes[i] after codes[j] is a code of radius 2r whose image of the
    # sample is codes[i]'s outputs read at the windows of images[j]
    at_image = {j: _window_indices(images[j], width, index) for j in reps}
    table = []
    for i in reps:
        row = []
        for j in reps:
            comp_image = tuple(map(kept[i].__getitem__, at_image[j]))
            hit = None
            for pos, r in enumerate(reps):
                if shift_to(comp_image, 2 * radius, r) is not None:
                    hit = pos
                    break
            if hit is None:
                raise InternalCheckError(
                    "composition left the searched set; radius too small"
                )
            row.append(hit)
        table.append(tuple(row))

    certificate = (
        f"complete at radius {radius}; language checked to depth {CHECK_DEPTH}; "
        f"shift identification window {SHIFT_ID_WINDOW}"
    )
    return AutGroupReport(
        sub=sub,
        radius=radius,
        window=SHIFT_ID_WINDOW,
        codes=tuple(codes),
        inverses=tuple(inverses),
        elements=elements,
        table=tuple(table),
        identity_index=identity_index,
        certificate=certificate,
    )


def _element_orders(table: Sequence[Sequence[int]], identity: int) -> tuple[int, ...]:
    orders = []
    for g in range(len(table)):
        x, n = g, 1
        while x != identity:
            x = table[x][g]
            n += 1
            if n > len(table):
                raise InternalCheckError("element order exceeds group order")
        orders.append(n)
    return tuple(orders)


def _identify_group(
    table: Sequence[Sequence[int]], identity: int, orders: Sequence[int]
) -> str:
    n = len(table)
    if n == 1:
        return "trivial"
    if n > GROUP_NAME_BOUND:
        return f"group of order {n}"
    abelian = all(
        table[i][j] == table[j][i] for i in range(n) for j in range(i + 1, n)
    )
    if max(orders) == n:
        return f"Z/{n}"
    if abelian:
        if n == 4:
            return "Z/2 x Z/2"
        if n == 8:
            return "Z/4 x Z/2" if max(orders) == 4 else "Z/2 x Z/2 x Z/2"
        if n == 9:
            return "Z/3 x Z/3"
        if n == 12:
            return "Z/6 x Z/2"
        return f"abelian of order {n}"
    two = sum(1 for o in orders if o == 2)
    if n == 6:
        return "S3"
    if n == 8:
        return "D4" if two == 5 else "Q8"
    if n == 10:
        return "D5"
    if n == 12:
        return {3: "A4", 7: "D6", 1: "Dic3"}.get(two, "group of order 12")
    return f"group of order {n}"


def shift_quotient(report: AutGroupReport) -> QuotientGroup:
    """The found automorphisms modulo shift powers as an abstract group.

    Group axioms are machine-checked on the composition table before any
    name is assigned.
    """
    table = report.table
    n = len(table)
    e = report.identity_index
    for i in range(n):
        if table[e][i] != i or table[i][e] != i:
            raise InternalCheckError("identity axiom fails in quotient table")
    for i in range(n):
        if not any(table[i][j] == e and table[j][i] == e for j in range(n)):
            raise InternalCheckError(f"element {i} has no inverse in the quotient")
    for i, j, k in product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            raise InternalCheckError("associativity fails in quotient table")
    orders = _element_orders(table, e)
    name = _identify_group(table, e, orders)
    return QuotientGroup(
        order=n,
        table=table,
        identity=e,
        element_orders=orders,
        name=name,
        certificate=report.certificate,
    )
