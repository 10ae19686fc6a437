"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v`` to get a single pass/fail line for each numbered
criterion.  Every assertion is exact unless the line says otherwise; the
only tolerances are the empirical-frequency comparison in criterion 6
(relative 1e-4, stated there) and the wall-clock budgets.
"""

import random
import time
from fractions import Fraction

from flowmcg.asymptotics import asymptotic_classes
from flowmcg.automorphisms import search_automorphisms, shift_quotient
from flowmcg.coinvariants import (
    build_coinvariants,
    cylinder_class,
    element_equal,
    induced_action,
    infinitesimal_rank,
    restrict_class,
    trace,
    trace_image,
)
from flowmcg.flows import (
    automorphism_code,
    compose_flow_codes,
    identity_code,
    induce,
    r_mu,
    substitution_code,
)
from flowmcg.intlat import (
    eventual_kernel,
    identity,
    invariant_factors,
    mat_mul,
    mat_vec,
    row_reduce,
)
from flowmcg.mcg import (
    Surd,
    action_on_measures,
    assemble_mcg,
    hierarchical_subshift,
    odometer_mcg,
    stage_measure_tables,
    sturmian_classify,
)
from flowmcg.numberfield import integer_charpoly, same_real_algebraic
from flowmcg.pf import cylinder_measure, pf_data
from flowmcg.substitution import (
    Substitution,
    complexity,
    incidence_matrix,
    is_aperiodic,
    is_primitive,
)
from flowmcg.words import Alphabet, SlidingBlockCode


def test_criterion_01_thue_morse_end_to_end(tm):
    started = time.monotonic()
    report = assemble_mcg(tm, aut_radius=1)
    assert report.lam.as_fraction() == 2
    assert report.cr.verdict == "ExactCR"
    assert report.finite_part.group.name == "Z/2"
    assert report.finite_part.class_count == 2
    assert report.finite_part.action == (0, 1)
    assert report.finite_part.action_trivial is True
    assert report.finite_part.description == "Z/2 x Z"
    payload = report.to_json_dict()
    assert payload["mcg"] == {"finite_part": "Z/2", "z_part": "Z", "product": "direct"}
    assert time.monotonic() - started < 10


def test_criterion_02_fibonacci_structure(fib):
    started = time.monotonic()
    report = assemble_mcg(fib, aut_radius=1)
    assert report.pisot is True
    assert report.cr.is_balanced  # Pisot expansion, balance proved exactly
    assert report.finite_part.group.name == "trivial"
    assert report.finite_part.description == "Z"
    assert infinitesimal_rank(fib) == 0
    assert time.monotonic() - started < 10


def test_criterion_03_quadratic_slope_dichotomy():
    # both roots of 5x^2 - 5x + 1 lie in (0, 1), so each slope has its
    # conjugate inside the unit interval
    for surd in (Surd(a=5, b=-1, d=5, c=10), Surd(a=5, b=1, d=5, c=10)):
        verdict = sturmian_classify(surd)
        assert verdict.kind == "TrivialMCG"
        assert verdict.minpoly == (1, -5, 5)
    golden = sturmian_classify(Surd(a=-1, b=1, d=5, c=2))
    assert golden.kind == "IsomorphicToZ"
    assert golden.conjugate_in_unit_interval is False


def test_criterion_04_order_four_rotation(cyclic4):
    started = time.monotonic()
    report = search_automorphisms(cyclic4, radius=0)
    quotient = shift_quotient(report)
    assert quotient.order == 4
    assert max(quotient.element_orders) == 4
    rotation = {(a,): (a + 1) % 4 for a in range(4)}
    assert rotation in [dict(code.rule) for code in report.codes]

    group = build_coinvariants(cyclic4)
    rot = SlidingBlockCode.from_symbol_map(
        cyclic4.alphabet, cyclic4.alphabet, {"0": "1", "1": "2", "2": "3", "3": "0"}
    )
    action = induced_action(automorphism_code(cyclic4, rot), group)
    assert action.letter_permutation == (1, 2, 3, 0)
    assert action.letter_permutation != tuple(range(4))
    assert action.matrix != identity(len(action.matrix))
    e0 = cylinder_class(group, "0")
    e1 = cylinder_class(group, "1")
    assert not element_equal(group, e0, e1)
    assert not element_equal(group, e0 - e1, group.zero())
    assert action.fixes_order_unit is True
    assert time.monotonic() - started < 30


def test_criterion_05_odometer_presentations():
    report = odometer_mcg((), (2, 3))
    assert report.unit_rank == 2
    assert report.presentation == "O_P/<(1,1,...)> x| Z^2"
    assert odometer_mcg((), (2,)).unit_rank == 1


def test_criterion_06_trace_lattice_and_measures():
    tm = Substitution.from_rules({"0": "01", "1": "10"})
    image = trace_image(tm)
    assert image.description == "Z[1/2]"
    assert image.contains(Fraction(3, 8)) is True
    assert image.contains(Fraction(1, 3)) is False

    fib = Substitution.from_rules({"1": "12", "2": "1"})
    data = pf_data(fib)
    lam_minus_one = data.field.generator() - data.field.one()
    assert cylinder_measure(fib, "1") == lam_minus_one

    # empirical check: letter frequency in the twelfth image of the first
    # letter, relative tolerance 1e-4
    word = fib.power(12).images[0]
    freq = Fraction(word.idx.count(0), len(word))
    exact = data.field.approx(lam_minus_one, Fraction(1, 10**9))
    assert abs(freq - exact) / exact < Fraction(1, 10**4)


def test_criterion_07_scaling_factors(tm, fib, cyclic4):
    for sub in (tm, fib):
        tilde = substitution_code(sub)
        assert r_mu(tilde) == tilde.source.field.generator()

    # multiplicativity on composable pairs, exact in each presentation
    swap = automorphism_code(tm, SlidingBlockCode.from_symbol_map(
        tm.alphabet, tm.alphabet, {"0": "1", "1": "0"}))
    pairs = [
        (identity_code(fib), substitution_code(fib)),
        (substitution_code(fib), substitution_code(fib)),
        (identity_code(tm), substitution_code(tm)),
        (swap, substitution_code(tm)),
        (substitution_code(tm), substitution_code(tm)),
        (swap, swap),
    ]
    assert len(pairs) >= 5
    for first, second in pairs:
        composite = compose_flow_codes(first, second)
        assert same_real_algebraic(r_mu(composite), r_mu(first) * r_mu(second))

    # every symmetry found by the bounded searches preserves the measure
    for sub, radius in ((tm, 1), (fib, 1), (cyclic4, 0)):
        report = search_automorphisms(sub, radius=radius)
        assert len(report.codes) > 0
        for code in report.codes:
            fc = automorphism_code(sub, code)
            assert r_mu(fc) == fc.source.field.one()


def test_criterion_08_return_time_identity(tm, fib, cyclic4, tribonacci):
    pairs = [
        (fib, "0"), (fib, "1"), (fib, "00"),
        (tm, "0"), (tm, "01"),
        (cyclic4, "0"),
        (tribonacci, "0"),
    ]
    assert len(pairs) >= 5
    for sub, word in pairs:
        system = induce(sub, word)
        total = system.field.zero()
        for weight, steps in zip(system.weights, system.return_times):
            total = total + weight * system.field.rational(steps)
        assert total == system.field.one()


def test_criterion_09_property_suite(tm, fib, cyclic4, tribonacci):
    started = time.monotonic()
    rng = random.Random(20260822)

    # ten primitive aperiodic substitutions: counting is subadditive and
    # aperiodicity forces strict block growth on the window
    pool = [
        fib, tm, tribonacci, cyclic4,
        Substitution.from_rules({"0": "01", "1": "00"}),
        Substitution.from_rules({"0": "0111", "1": "0"}),
        Substitution.from_rules({"0": "0012", "1": "12", "2": "012"}),
        Substitution.from_rules({"0": "011", "1": "01"}),
        Substitution.from_rules({"0": "01", "1": "12", "2": "23", "3": "30"}),
        Substitution.from_rules({"0": "02", "1": "01", "2": "1"}),
    ]
    assert len(pool) == 10
    for sub in pool:
        assert is_primitive(sub)
        assert not is_aperiodic(sub).periodic
        values = {n: complexity(sub, n) for n in range(1, 11)}
        for m in range(1, 10):
            for n in range(1, 11 - m):
                assert values[m + n] <= values[m] * values[n]
        for n in range(1, 11):
            assert values[n] >= n + 1

    # counting matrices reverse composition order
    symbols = ["0", "1", "2"]
    for _ in range(10):
        size = rng.choice((2, 3))
        letters = symbols[:size]
        def random_rules():
            return {
                a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
                for a in letters
            }
        outer = Substitution.from_rules(random_rules())
        inner = Substitution.from_rules(random_rules())
        composite = Substitution.from_rules(
            {a: "".join(outer.images[b].text for b in inner.images[i].idx)
             for i, a in enumerate(letters)}
        )
        lhs = incidence_matrix(composite)
        m_outer = incidence_matrix(outer)
        m_inner = incidence_matrix(inner)
        expected = tuple(
            tuple(sum(m_inner[i][k] * m_outer[k][j] for k in range(size))
                  for j in range(size))
            for i in range(size)
        )
        assert lhs == expected

    # iterated kernels stop growing within the dimension: the eventual
    # kernel is a saturated basis of ker N^(d+1), killed by N^d
    for _ in range(20):
        size = rng.choice((2, 3, 4))
        matrix = tuple(
            tuple(rng.randint(0, 2) for _ in range(size)) for _ in range(size)
        )
        basis = eventual_kernel(matrix, integer_charpoly(matrix))
        power = identity(size)
        for _ in range(size):
            power = mat_mul(power, matrix)
        assert all(not any(mat_vec(power, v)) for v in basis)
        beyond = mat_mul(power, matrix)
        assert len(basis) == size - len(row_reduce(beyond)[1])
        assert invariant_factors(tuple(basis)) == [1] * len(basis)

    # the trace does not see the level at which an element is written
    groups = [build_coinvariants(fib), build_coinvariants(tm)]
    for i in range(100):
        group = groups[i % 2]
        d = group.dimension
        element = group.element(
            rng.randint(0, 2), tuple(rng.randint(-5, 5) for _ in range(d))
        )
        lifted = element.raised(rng.randint(1, 3))
        assert trace(group, element) == trace(group, lifted)
        assert element_equal(group, element, lifted)

    # writing a basis class as an ambient weight and restricting it back
    # returns the same coordinates, and the identity extends linearly
    for sub in (fib, tm):
        group = build_coinvariants(sub)
        derived = group.derived
        base = "".join(sub.alphabet.symbols[a] for a in derived.section)
        generator_words = [
            "".join(sub.alphabet.symbols[a] for a in word) + base
            for word in derived.return_words
        ]
        d = group.dimension
        for j in range(d):
            gamma = {generator_words[j]: 1}
            restricted = restrict_class(sub, gamma, base)
            unit = tuple(int(i == j) for i in range(d))
            assert restricted.weights == unit
            assert element_equal(
                group, restricted.as_group_element(group), group.element(0, unit)
            )
        for _ in range(5):
            coeffs = tuple(rng.randint(-3, 3) for _ in range(d))
            gamma = {w: c for w, c in zip(generator_words, coeffs)}
            restricted = restrict_class(sub, gamma, base)
            assert restricted.weights == coeffs

    assert time.monotonic() - started < 120


def test_criterion_10_hierarchical_tower():
    spec = hierarchical_subshift((2, 2, 2, 2))
    assert [len(w) for w in spec.words0] == [1, 3, 9, 27, 81]
    for i, n in enumerate(spec.n_values):
        assert len(spec.words0[i + 1]) == (n + 1) * len(spec.words0[i])

    table0, table1 = stage_measure_tables(spec, 12)
    ab = Alphabet.of(["0", "1"])
    swap = SlidingBlockCode.from_symbol_map(ab, ab, {"0": "1", "1": "0"})
    action = action_on_measures(swap, (table0, table1))
    assert action.permutation == (1, 0)
    assert action.margin == Fraction(13, 81)
    assert action.margin > Fraction(1, 10)
