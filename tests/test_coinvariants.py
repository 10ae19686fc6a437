import random
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy

from flowmcg.coinvariants import (
    _infinitesimal_rank_of,
    build_coinvariants,
    coinvariants_report,
    cylinder_class,
    derived_proper,
    element_equal,
    infinitesimal_rank,
    restrict_class,
    TraceImage,
    trace,
    trace_image,
)
from flowmcg.errors import ValidationError
from flowmcg.intlat import Lattice, mat_vec
from flowmcg.pf import pf_data
from flowmcg.substitution import Substitution, cycle_lengths, incidence_matrix
from flowmcg.words import Cylinder, CylinderSet, Word

from test_cross_sections import CIRCLE
from test_one_core import IDS, RULES


def test_derived_return_words(tm, fib):
    d = derived_proper(tm)
    assert ["".join(map(str, w)) for w in d.return_words] == ["011", "01", "0"]
    assert d.lengths == (3, 2, 1)
    d = derived_proper(fib)
    assert ["".join(map(str, w)) for w in d.return_words] == ["01", "0"]


def test_thue_morse_presentation(tm):
    report = coinvariants_report(tm)
    assert report.free_rank == 2
    assert report.invariant_factors == (1, 4)
    assert report.infinitesimal_rank == 1


def test_fibonacci_presentation(fib):
    report = coinvariants_report(fib)
    assert report.free_rank == 2
    assert report.invariant_factors == (1, 1)
    assert report.infinitesimal_rank == 0


def test_constant_length_six_presentation(cyclic4):
    report = coinvariants_report(cyclic4)
    assert report.free_rank == 3
    assert report.invariant_factors == (1, 2, 6)
    assert report.trace_image_description == "Z[1/6]"
    assert report.infinitesimal_rank == 2


def test_sigma4_presentation_completes():
    # the squared derived matrix of this input made the old pivot-loop Smith
    # form grow entries past 100,000 bits without finishing
    sigma4 = Substitution.from_rules({"0": "01", "1": "12", "2": "23", "3": "30"})
    report = coinvariants_report(sigma4)
    assert report.invariant_factors == (1,) * 9 + (2, 4, 32)
    # with chi_N = x^k·g(x), the cokernel on Z^d modulo the eventual kernel
    # has order |g(0)|
    chi = sympy.Matrix(build_coinvariants(sigma4).n_matrix).charpoly().all_coeffs()
    assert prod(report.invariant_factors) == abs(next(c for c in reversed(chi) if c))


def test_order_unit_has_trace_one(tm, fib):
    for sub in (tm, fib):
        g = build_coinvariants(sub)
        assert trace(g, g.order_unit) == g.field.one()


def test_letter_cylinder_traces(tm):
    g = build_coinvariants(tm)
    half = g.field.rational(Fraction(1, 2))
    assert trace(g, cylinder_class(g, "0")) == half
    assert trace(g, cylinder_class(g, "1")) == half


def test_level_relation_respects_equality(fib):
    # raising the level rewrites the vector through the transition matrix
    g = build_coinvariants(fib)
    e = g.element(0, (1, 1))
    assert element_equal(g, e, e.raised(3))
    assert trace(g, e) == trace(g, e.raised(3))


def test_letter_classes_identified_by_symmetry(cyclic4):
    g = build_coinvariants(cyclic4)
    e = [cylinder_class(g, s) for s in "0123"]
    assert element_equal(g, e[0], e[2])
    assert element_equal(g, e[1], e[3])
    assert not element_equal(g, e[0], e[1])
    quarter = g.field.rational(Fraction(1, 4))
    for x in e:
        assert trace(g, x) == quarter


def test_trace_image_membership(tm):
    image = trace_image(tm)
    assert image.description == "Z[1/2]"
    assert image.contains(Fraction(3, 8))
    assert not image.contains(Fraction(1, 3))


def test_trace_image_refuses_an_element_of_another_field(fib):
    # the generator of Q(sqrt 13), (1 + sqrt 13)/2, is not in Q(sqrt 5)
    other = pf_data(Substitution.from_rules({"0": "0111", "1": "0"})).field
    with pytest.raises(ValidationError):
        trace_image(fib).contains(other.generator())


@pytest.mark.parametrize("rules", RULES, ids=IDS)
def test_trace_image_membership_against_its_construction(rules):
    """Z-combinations of lam^-k·u, u a letter frequency, some scaled by
    lam^j, are members.  lam^-k·L lies in Z^d/(c^k·den), c the constant
    term of lam's minimal polynomial and den the denominator of L, so 1/q
    with q > 1 prime to c·den is not, nor is any member plus 1/q."""
    sub = Substitution.from_rules(rules)
    data = pf_data(sub)
    field = data.field
    lam = field.generator()
    lam_inv = field.inv(lam)
    image = trace_image(sub)
    rng = random.Random(str(sorted(rules.items())))
    members = []
    for _ in range(12):
        member = field.zero()
        for u in data.left:
            term = field.power(lam_inv, rng.randint(0, 4)) * u * rng.randint(-6, 6)
            if rng.random() < 0.3:
                term = term * field.power(lam, rng.randint(1, 3))
            member = member + term
        members.append(member)
        assert image.contains(member)
    bad = abs(data.lam.minpoly[0]) * image.base_lattice.den
    strangers = [q for q in range(2, 200) if gcd(q, bad) == 1][:6]
    assert strangers
    for q in strangers:
        assert not image.contains(Fraction(1, q))
        assert not image.contains(rng.choice(members) + field.rational(Fraction(1, q)))


@pytest.mark.parametrize("name", ["fib", "tm", "cyclic4"])
def test_element_equality_is_death_under_the_dth_power(name, request):
    """g = h exactly when N^d·(g - h) = 0 with both written at a common
    level, checked on the unreduced vectors the elements were made from."""
    g = build_coinvariants(request.getfixturevalue(name))
    n, d = g.n_matrix, g.dimension
    rng = random.Random(name)

    def lifted(level, vec, top):
        for _ in range(top - level):
            vec = mat_vec(n, vec)
        return vec

    def dies(a, b):
        top = max(a[0], b[0])
        diff = tuple(x - y for x, y in zip(lifted(*a, top), lifted(*b, top)))
        return not any(lifted(0, diff, d))

    seen = set()
    for _ in range(200):
        a = (rng.randint(0, 2), tuple(rng.randint(-4, 4) for _ in range(d)))
        if rng.random() < 0.5:
            k = rng.randint(0, 2)
            vec = list(lifted(a[0], a[1], a[0] + k))
            for v in g.eventual_kernel_basis:
                c = rng.randint(-3, 3)
                vec = [x + c * y for x, y in zip(vec, v)]
            b = (a[0] + k, tuple(vec))
        else:
            b = (rng.randint(0, 2), tuple(rng.randint(-4, 4) for _ in range(d)))
        expected = dies(a, b)
        seen.add(expected)
        assert element_equal(g, g.element(*a), g.element(*b)) is expected
    assert seen == {True, False}


@pytest.mark.parametrize("rules", RULES + CIRCLE, ids=IDS + ["circle5", "circle3"])
def test_the_standard_orientation_has_unit_trace(rules):
    """The transition matrix is the derived incidence matrix itself, and the
    order unit has trace 1 (Kac's lemma)."""
    g = build_coinvariants(Substitution.from_rules(rules))
    assert g.n_matrix == incidence_matrix(g.derived.eta)
    assert trace(g, g.order_unit) == g.field.one()


def test_infinitesimal_ranks(tm, fib, cyclic4):
    assert infinitesimal_rank(tm) == 1
    assert infinitesimal_rank(fib) == 0
    assert infinitesimal_rank(cyclic4) == 2


def test_restricting_a_cylinder_weight(fib):
    # the indicator of [00], viewed from the section [0]: it fires exactly
    # on visits whose return word is the single letter
    rc = restrict_class(fib, {"00": 1}, "0")
    assert rc.return_words == ((0, 1), (0,))
    assert rc.weights == (0, 1)
    g = build_coinvariants(fib)
    assert element_equal(g, rc.as_group_element(g), cylinder_class(g, "00"))


@pytest.mark.parametrize("rules", RULES, ids=IDS)
def test_restricted_classes_are_the_weighted_cylinder_classes(rules):
    """Seeded integer weights on admissible words of length 0 to 4: on every
    letter section on a first-letter cycle, wherever a weight restricts, its
    restriction is the class sum of c·[w]."""
    sub = Substitution.from_rules(rules)
    rng = random.Random(RULES.index(rules))
    words = [()] + [w for n in range(1, 5) for w in sorted(sub.language(4).blocks_of(n))]
    restricted = 0
    for letter in sorted(cycle_lengths(sub.first_letter_map())):
        group = build_coinvariants(sub, base=letter)
        for _ in range(12):
            gamma = {w: rng.randint(-3, 3) for w in rng.sample(words, rng.randint(1, 3))}
            try:
                rc = restrict_class(sub, gamma, (letter,))
            except ValidationError:
                continue
            expected = group.zero()
            for w, c in gamma.items():
                expected = expected + cylinder_class(group, w).scaled(c)
            assert element_equal(group, rc.as_group_element(group), expected), gamma
            restricted += 1
    assert restricted


def test_restriction_to_whole_space_is_letterwise(fib):
    rc = restrict_class(fib, {"0": 1}, None)
    assert rc.section is None
    assert rc.weights == (1, 0)


def test_restriction_refuses_non_integer_weights(fib):
    for coeff in (1.5, 2.0, Fraction(1, 2), "1"):
        with pytest.raises(ValidationError):
            restrict_class(fib, {"0": coeff}, None)


def test_restriction_refuses_a_letter_off_every_cycle(fib):
    # 1 never begins an image of the Fibonacci substitution
    with pytest.raises(ValidationError):
        restrict_class(fib, {"0": 1}, "1")


def test_a_union_straddling_the_origin_reads_its_whole_span(fib):
    # [1] at offset -6 and [00] at offset 1 span 9 symbols
    one, zero_zero = (Word.parse(fib.alphabet, w) for w in ("1", "00"))
    union = CylinderSet((Cylinder(one, -6), Cylinder(zero_zero, 1)))
    g = build_coinvariants(fib)
    expected = cylinder_class(g, "1") + cylinder_class(g, "00")
    assert element_equal(g, cylinder_class(g, union), expected)


def _basis_traces(g):
    return [
        trace(g, g.element(0, tuple(int(i == j) for j in range(g.dimension))))
        for i in range(g.dimension)
    ]


def _trace_module(g):
    """The Z[1/lam]-module generated by the traces of the basis classes."""
    field, deg = g.field, g.field.degree
    rows = []
    for t in _basis_traces(g):
        for _ in range(deg):
            rows.append(list(t.coeffs))
            t = t * field.generator()
    return TraceImage(field, deg, Lattice.from_fraction_rows(rows, deg), "")


@pytest.mark.parametrize("rules", RULES, ids=IDS)
def test_every_base_gives_the_same_ranks_and_trace_image(rules):
    """Free rank, infinitesimal rank and the module the traces generate do
    not depend on the base letter.  Invariant factors are not compared: on
    0>1010,1>00 base 0 gives (4, 4) and base 1 gives (2, 8)."""
    sub = Substitution.from_rules(rules)
    default = build_coinvariants(sub)
    module = _trace_module(default)
    for b in sorted(cycle_lengths(sub.first_letter_map())):
        g = build_coinvariants(sub, base=b)
        assert g.free_rank == default.free_rank
        assert _infinitesimal_rank_of(g) == _infinitesimal_rank_of(default)
        assert all(module.contains(t) for t in _basis_traces(g))
        assert all(_trace_module(g).contains(t) for t in _basis_traces(default))


def test_restriction_base_mismatch_is_rejected(fib):
    rc = restrict_class(fib, {"0": 1}, None)
    g = build_coinvariants(fib)
    with pytest.raises(ValidationError):
        rc.as_group_element(g)


# -- reference copy of the cylinder-class weights -------------------------


def reference_block_weights(group, word):
    """h over eta's s-blocks as first written: the window of each block is
    closed by the head letter's return word on the whole space and by the
    base letter otherwise."""
    derived = group.derived
    min_len = min(derived.lengths)
    c = word
    s = 1 + max(0, -((1 - len(c)) // min_len))  # 1 + ceil((|c|-1)/min_len)
    blocks = sorted(derived.eta.language(s).blocks_of(s))
    out = {}
    closer = (
        derived.return_words[derived.head_letter]
        if derived.section is None
        else derived.section
    )
    for v in blocks:
        window = []
        for letter in v:
            window.extend(derived.return_words[letter])
        window.extend(closer)
        first_len = derived.lengths[v[0]]
        count = 0
        for p in range(first_len):
            assert p + len(c) <= len(window)
            if tuple(window[p : p + len(c)]) == c:
                count += 1
        if count:
            out[v] = count
    return s, out


def reference_combine_block_weights(group, weights):
    """The level-(m+1) vector as first written: a scan over every (2-block,
    letter) adjacency."""
    s, h = weights
    derived = group.derived
    d = group.dimension
    if s == 1:
        vec = [0] * d
        for v, cnt in h.items():
            vec[v[0]] += cnt
        return group.element(0, vec)
    eta = derived.eta
    m = eta.growth_power(s)
    b_weight = {}
    for ij, (joined, cut) in zip(eta.two_blocks(), eta.two_block_images(m)):
        total = sum(h.get(joined[p : p + s], 0) for p in range(cut))
        if total:
            b_weight[ij] = total
    head = derived.head_letter
    vec = [0] * d
    for (i, j), wt in b_weight.items():
        for l in range(d):
            img = eta.image_idx(l)
            adj = sum(
                1 for t in range(len(img) - 1) if img[t] == i and img[t + 1] == j
            )
            boundary = 1 if (img[-1] == i and j == head) else 0
            coeff = adj + boundary
            if coeff:
                vec[l] += wt * coeff
    return group.element(m + 1, vec)


# word lengths short enough for the test to stay within a few seconds:
# sigma4's and circle5's classes cost tens of milliseconds each
SHORT_LENGTHS = {"0>01,1>12,2>23,3>30": 3, "circle5": 2}


CASES = list(zip(IDS + ["circle5", "circle3"], RULES + CIRCLE))


@pytest.mark.parametrize("name,rules", CASES, ids=[name for name, _ in CASES])
def test_cylinder_classes_match_the_reference_copy(name, rules):
    """Every admissible word up to a length: the same (level, vector) as the
    reference copy."""
    sub = Substitution.from_rules(rules)
    group = build_coinvariants(sub)
    n_max = SHORT_LENGTHS.get(name, 6)
    language = sub.language(n_max)
    for n in range(1, n_max + 1):
        for word in sorted(language.blocks_of(n)):
            expected = reference_combine_block_weights(
                group, reference_block_weights(group, word)
            )
            got = cylinder_class(group, word)
            assert (got.level, got.vector) == (expected.level, expected.vector), word
