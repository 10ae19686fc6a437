"""Exhaustive bounded-radius search for self-conjugacies of a substitution
shift and their identification modulo shift powers.

Completeness is per radius only: a report certifies every block code of
radius at most r that preserves the language to the checked depth and is
invertible within the inverse budget.  Nothing is claimed about larger
radii.
"""

from __future__ import annotations

from itertools import accumulate, product
from operator import itemgetter
from typing import Sequence

from .errors import InternalCheckError, Record, ResourceLimitError, ValidationError
from .substitution import Substitution, is_aperiodic, is_primitive
from .words import (
    CHECK_DEPTH,
    INVERSE_RADIUS_BUDGET,
    LanguageTable,
    SlidingBlockCode,
    compose_codes,
    inverse_code,
)

# search nodes (window outputs tried) of the candidate search: the known
# inputs need at most 13,506 (0→01, 1→12, …, 5→50 at radius 1)
CANDIDATE_BUDGET = 1_000_000
GROUP_NAME_BOUND = 12


class AutGroupReport(Record):
    """Automorphisms found at a fixed radius.

    `codes` lists every verified code in lexicographic rule order, paired
    with `inverses`.  `elements` are representatives modulo shift powers,
    identity first; `table[i][j]` is the element equal to elements[i] after
    elements[j] modulo shift powers, both decided on the language.
    """

    sub: Substitution
    radius: int
    codes: tuple[SlidingBlockCode, ...]
    inverses: tuple[SlidingBlockCode, ...]
    elements: tuple[SlidingBlockCode, ...]
    table: tuple[tuple[int, ...], ...]
    certificate: str


class QuotientGroup(Record):
    """The automorphism group modulo shift powers, as a finite group."""

    order: int
    table: tuple[tuple[int, ...], ...]
    element_orders: tuple[int, ...]
    name: str


def _equal_mod_shift(
    a: SlidingBlockCode, b: SlidingBlockCode, language: LanguageTable
) -> int | None:
    """The offset k, |k| <= a.radius + b.radius, with a = shift^k b, or None.

    a = shift^k b exactly when a's rule on the window around 0 equals b's
    rule on the window around k on every admissible block spanning both
    windows.  Two matching offsets would mean the language is periodic;
    that is reported rather than resolved silently.
    """
    ra, rb = a.radius, b.radius
    hits = []
    for k in range(-ra - rb, ra + rb + 1):
        # the block spans positions lo .. hi; each window starts at its own
        # position minus lo
        lo, hi = min(-ra, k - rb), max(ra, k + rb)
        sa, sb = -ra - lo, k - rb - lo
        ea, eb = sa + 2 * ra + 1, sb + 2 * rb + 1
        if all(
            a.rule[w[sa:ea]] == b.rule[w[sb:eb]]
            for w in language.blocks_of(hi - lo + 1)
        ):
            hits.append(k)
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
    The checks are read off L_{n_check + 2·radius} alone: every shorter
    admissible block is a prefix of one of those (the language extends to
    the right) and closes at the running maximum of its windows' positions.
    Of the prefixes closing at one position only the longest is kept, since
    the image of a shorter one is a prefix of its image; so, for one visit
    order, the search prunes the same nodes as with every block of every
    length.  That order is the windows' alone, whatever the table's history:
    roots sorted, each followed depth-first along its overlap successors,
    least first.
    Raises ResourceLimitError once it visits more than CANDIDATE_BUDGET
    search nodes.
    """
    # asked first, so that a primitive substitution's table reads every
    # shorter length off it
    longest = lang.blocks_of(n_check + 2 * radius)
    width = 2 * radius + 1
    blocks = sorted(lang.blocks_of(width))
    index = {w: i for i, w in enumerate(blocks)}
    succ: list[list[int]] = [[] for _ in blocks]
    for u in sorted(lang.blocks_of(width + 1)):
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
    images = [lang.blocks_of(n) for n in range(n_check + 1)]
    checked: set[tuple[int, ...]] = set()
    for w in longest:
        wins = [index[w[i : i + width]] for i in range(n_check)]
        # closes[n - 1]: where the prefix with n windows closes
        closes = list(accumulate((pos[i] for i in wins), max))
        for n in range(2, n_check + 1):
            if n == n_check or closes[n] > closes[n - 1]:
                prefix = w[: n + 2 * radius]
                if prefix not in checked:
                    checked.add(prefix)
                    closing[closes[n - 1]].append((itemgetter(*wins[:n]), images[n]))

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


def search_automorphisms(sub: Substitution, radius: int) -> AutGroupReport:
    """Every automorphism realizable at the given radius.

    Searches the output assignments on admissible windows, pruned by the
    language to `CHECK_DEPTH` (at most CANDIDATE_BUDGET search nodes), keeps
    the assignments that admit a verified two-sided inverse code, then groups
    them modulo shift powers.  Shifts are identified by comparing rules on
    the language, and each table entry is the composite code from
    `compose_codes`, identified the same way.
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
    # a radius-2r composite meets radius-r elements at offsets up to 3r,
    # which reads blocks of length 6r + 1
    depth = max(
        CHECK_DEPTH + 2 * radius,
        2 * (radius + INVERSE_RADIUS_BUDGET) + 1,
        6 * radius + 1,
    )
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

    # identity leads its shift class so the quotient identity is the real one
    elements = [codes[ident_pos]]
    for i, code in enumerate(codes):
        if i != ident_pos and all(
            _equal_mod_shift(code, e, lang) is None for e in elements
        ):
            elements.append(code)

    table = []
    for outer in elements:
        row = []
        for inner in elements:
            comp = compose_codes(outer, inner, lang)
            for pos, e in enumerate(elements):
                if _equal_mod_shift(comp, e, lang) is not None:
                    row.append(pos)
                    break
            else:
                raise InternalCheckError(
                    "composition left the searched set; radius too small"
                )
        table.append(tuple(row))

    certificate = (
        f"complete at radius {radius}; language checked to depth {CHECK_DEPTH}; "
        "shifts identified on the language"
    )
    return AutGroupReport(
        sub=sub,
        radius=radius,
        codes=tuple(codes),
        inverses=tuple(inverses),
        elements=tuple(elements),
        table=tuple(table),
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


def _identify_group(table: Sequence[Sequence[int]], orders: Sequence[int]) -> str:
    n = len(table)
    if n == 1:
        return "trivial"
    if max(orders) == n:
        return f"Z/{n}"
    if n > GROUP_NAME_BOUND:
        return f"group of order {n}"
    abelian = all(
        table[i][j] == table[j][i] for i in range(n) for j in range(i + 1, n)
    )
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
    e = 0  # search_automorphisms lists the identity first
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
    name = _identify_group(table, orders)
    return QuotientGroup(
        order=n,
        table=table,
        element_orders=orders,
        name=name,
    )
