from fractions import Fraction

import pytest

from flowmcg.automorphisms import search_automorphisms
from flowmcg.coinvariants import build_coinvariants, cylinder_class, element_equal, induced_action, trace
from flowmcg.errors import ValidationError
from flowmcg.flows import (
    automorphism_code,
    cocycle_slopes,
    compose_flow_codes,
    identity_code,
    induce,
    lambda_relation_search,
    r_mu,
    restrict_flow_code,
    substitution_code,
)
from flowmcg.numberfield import same_real_algebraic
from flowmcg.pf import pf_data
from flowmcg.words import SlidingBlockCode


def _swap(sub):
    return SlidingBlockCode.from_symbol_map(sub.alphabet, sub.alphabet, {"0": "1", "1": "0"})


def test_induce_whole_space_is_letters(fib):
    system = induce(fib, None)
    assert system.base_word is None
    assert [w.text for w in system.return_words] == ["0", "1"]
    assert system.return_times == (1, 1)
    assert system.base_measure == system.field.one()


def test_induce_on_letter_cylinder(fib):
    system = induce(fib, "1")
    assert [w.text for w in system.return_words] == ["100", "10"]
    assert system.return_times == (3, 2)


def kac_total(system):
    total = system.field.zero()
    for w, t in zip(system.weights, system.return_times):
        total = total + w * system.field.rational(t)
    return total


def test_return_time_identity_exact(fib, tm):
    for sub, word in [(fib, "1"), (fib, "0"), (fib, "00"), (tm, "0"), (tm, "01")]:
        system = induce(sub, word)
        assert kac_total(system) == system.field.one()


def test_inadmissible_section_rejected(fib):
    with pytest.raises(ValidationError):
        induce(fib, "11")


def test_substitution_code_scales_by_expansion(tm, fib):
    for sub in (tm, fib):
        fc = substitution_code(sub)
        assert r_mu(fc) == fc.source.field.generator()


def test_identity_code_scales_by_one(fib):
    fc = identity_code(fib)
    assert r_mu(fc) == fc.source.field.one()


def test_automorphism_code_scales_by_one(tm):
    fc = automorphism_code(tm, _swap(tm))
    assert fc.kind == "automorphism"
    assert r_mu(fc) == fc.source.field.one()


def test_scaling_is_multiplicative_under_composition(fib):
    # the composite lives on the squared substitution, so its scaling factor
    # is presented in a different field; compare as algebraic numbers
    tilde = substitution_code(fib)
    fc = compose_flow_codes(tilde, tilde)
    assert same_real_algebraic(r_mu(fc), r_mu(tilde) * r_mu(tilde))


def test_restriction_preserves_scaling(fib):
    tilde = substitution_code(fib)
    small = restrict_flow_code(tilde, "0")
    assert r_mu(small) == r_mu(tilde)
    assert small.source.base_word == (0,)


def test_composition_of_restricted_substitution_codes_is_refused(tm):
    r = restrict_flow_code(substitution_code(tm), "0")
    with pytest.raises(ValidationError):
        compose_flow_codes(r, r)


def test_restricted_automorphism_does_not_absorb_into_a_substitution(tm):
    swap = restrict_flow_code(automorphism_code(tm, _swap(tm)), "0")
    with pytest.raises(ValidationError):
        compose_flow_codes(swap, substitution_code(tm))


def test_identity_off_the_middle_section_is_refused(fib):
    small = restrict_flow_code(identity_code(fib), "0")
    with pytest.raises(ValidationError):
        compose_flow_codes(small, substitution_code(fib))


def test_identity_on_the_middle_section_composes(fib, tm):
    tilde = substitution_code(fib)
    assert compose_flow_codes(identity_code(fib), tilde) is tilde
    assert compose_flow_codes(tilde, identity_code(fib)) is tilde
    swap = restrict_flow_code(automorphism_code(tm, _swap(tm)), "0")
    small = restrict_flow_code(identity_code(tm), "0")
    assert compose_flow_codes(small, swap) is swap


def test_relation_search_finds_powers(fib):
    field = pf_data(fib).field
    lam = field.generator()
    one = field.one()
    assert lambda_relation_search(lam) == (1, 1)
    assert lambda_relation_search(lam * lam) == (1, 2)
    # 2 - lam is the square of the inverse
    assert lambda_relation_search(one + one - lam) == (1, -2)
    assert lambda_relation_search(one + one) is None


def test_slope_profile_of_the_canonical_code(fib):
    tilde = substitution_code(fib)
    profile = cocycle_slopes(tilde, k_range=range(0, 200))
    values = {s for _, s in profile.slopes}
    assert values == {Fraction(1), Fraction(2)}
    mean = sum(s for _, s in profile.slopes) / len(profile.slopes)
    lam = float(pf_data(fib).lam.refined(Fraction(1, 10**6)).lo)
    assert abs(float(mean) - lam) / lam < 0.05


def test_induced_matrix_of_thue_morse_code(tm):
    g = build_coinvariants(tm)
    action = induced_action(substitution_code(tm), g)
    assert action.matrix == ((1, 1, 1), (1, 0, 1), (0, 1, 0))
    assert action.fixes_order_unit is False
    assert trace(g, action.unit_image).exact() == g.field.rational(2)


def test_induced_unit_image_for_fibonacci(fib):
    g = build_coinvariants(fib)
    action = induced_action(substitution_code(fib), g)
    assert action.unit_image.vector == (3, 2)
    assert trace(g, action.unit_image).exact() == g.field.generator()


def test_identity_action_is_trivial(fib):
    g = build_coinvariants(fib)
    action = induced_action(identity_code(fib), g)
    assert action.matrix == ((1, 0), (0, 1))
    assert action.fixes_order_unit
    assert element_equal(g, action.unit_image, g.order_unit)


def test_rotation_action_permutes_letter_classes(cyclic4):
    rot = SlidingBlockCode.from_symbol_map(
        cyclic4.alphabet, cyclic4.alphabet, {"0": "1", "1": "2", "2": "3", "3": "0"}
    )
    fc = automorphism_code(cyclic4, rot)
    action = induced_action(fc)
    assert action.letter_permutation == (1, 2, 3, 0)
    assert action.fixes_order_unit is True


def test_letter_permutation_needs_distinct_letter_classes(tm, cyclic4):
    # [0] = [1] in Thue-Morse's coinvariants, so matching classes cannot tell
    # which letter the radius-1 swap sends a letter to (it once gave (0, 0))
    g = build_coinvariants(tm)
    assert element_equal(g, cylinder_class(g, "0"), cylinder_class(g, "1"))
    swaps = [
        code
        for code in search_automorphisms(tm, 1).elements
        if any(out != window[code.radius] for window, out in code.rule.items())
    ]
    assert [code.radius for code in swaps] == [1]
    assert induced_action(automorphism_code(tm, swaps[0]), g).letter_permutation is None
    # a radius-0 code is read exactly, whatever the classes
    rot = SlidingBlockCode.from_symbol_map(
        cyclic4.alphabet, cyclic4.alphabet, {"0": "1", "1": "2", "2": "3", "3": "0"}
    )
    assert induced_action(automorphism_code(cyclic4, rot)).letter_permutation == (1, 2, 3, 0)
