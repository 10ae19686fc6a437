from fractions import Fraction

import pytest

from flowmcg.errors import ValidationError
from flowmcg.mcg import (
    NON_QUADRATIC,
    Surd,
    action_on_measures,
    assemble_mcg,
    hierarchical_subshift,
    odometer_mcg,
    stage_measure_tables,
    sturmian_classify,
    virtually_abelian_report,
)
from flowmcg.words import Alphabet, SlidingBlockCode


class TestAssembly:
    def test_thue_morse_structure(self, tm):
        report = assemble_mcg(tm, aut_radius=1)
        assert report.lam.as_fraction() == 2
        assert report.cr.verdict == "ExactCR"
        assert report.pisot is True
        assert report.finite_part.class_count == 2
        assert report.finite_part.bound == 2
        assert report.finite_part.group.name == "Z/2"
        assert report.finite_part.action_trivial is True
        assert report.finite_part.description == "Z/2 x Z"
        assert report.z_part.relation == (1, 1)
        assert report.z_part.proper_power is False

    def test_thue_morse_json_summary(self, tm):
        payload = assemble_mcg(tm, aut_radius=1).to_json_dict()
        assert payload["mcg"] == {
            "finite_part": "Z/2",
            "z_part": "Z",
            "product": "direct",
        }

    def test_fibonacci_structure(self, fib):
        report = assemble_mcg(fib, aut_radius=1)
        assert report.cr.verdict == "ProvedCR"
        assert report.pisot is True
        assert report.finite_part.class_count == 1
        assert report.finite_part.group.name == "trivial"
        assert report.finite_part.description == "Z"
        assert report.z_part.relation == (1, 1)
        assert report.z_part.proper_power is None  # irrational expansion

    def test_rotation_example_structure(self, cyclic4):
        report = assemble_mcg(cyclic4, aut_radius=0)
        assert report.lam.as_fraction() == 6
        assert report.finite_part.class_count == 4
        assert report.finite_part.bound == 24
        assert report.finite_part.group.name == "Z/4"
        assert report.finite_part.description == "Z/4 x Z"

    def test_rejects_non_primitive(self):
        from flowmcg.substitution import Substitution

        with pytest.raises(ValidationError):
            assemble_mcg(Substitution.from_rules({"0": "01", "1": "11"}))


class TestSturmian:
    def test_golden_slope_gives_z(self):
        verdict = sturmian_classify(Surd(a=-1, b=1, d=5, c=2))
        assert verdict.kind == "IsomorphicToZ"
        assert verdict.minpoly == (-1, 1, 1)
        assert verdict.conjugate_in_unit_interval is False

    def test_conjugate_inside_interval_gives_trivial(self):
        verdict = sturmian_classify(Surd(a=5, b=-1, d=5, c=10))
        assert verdict.kind == "TrivialMCG"
        assert verdict.minpoly == (1, -5, 5)
        assert verdict.conjugate_in_unit_interval is True

    def test_conjugate_symmetry(self):
        # (3 - sqrt(5))/2 has conjugate (3 + sqrt(5))/2 > 1
        verdict = sturmian_classify(Surd(a=3, b=-1, d=5, c=2))
        assert verdict.kind == "IsomorphicToZ"

    def test_non_quadratic_is_trivial(self):
        assert sturmian_classify(NON_QUADRATIC).kind == "TrivialMCG"

    def test_rational_slope_rejected(self):
        with pytest.raises(ValidationError):
            sturmian_classify(Fraction(2, 5))

    def test_slope_outside_interval_rejected(self):
        with pytest.raises(ValidationError):
            sturmian_classify(Surd(a=3, b=1, d=5, c=2))

    def test_square_discriminant_rejected(self):
        with pytest.raises(ValidationError):
            Surd(a=1, b=1, d=4, c=4)


class TestOdometer:
    def test_two_three_period(self):
        report = odometer_mcg((), (2, 3))
        assert report.unit_rank == 2
        assert report.coinvariants == "Z[1/2, 1/3]"
        assert report.presentation == "O_P/<(1,1,...)> x| Z^2"

    def test_dyadic(self):
        assert odometer_mcg((), (2,)).unit_rank == 1

    def test_preperiod_scales_the_group(self):
        report = odometer_mcg((5,), (3,))
        assert report.unit_rank == 1
        assert report.coinvariants == "(1/5) Z[1/3]"

    def test_period_rank_counts_distinct_primes(self):
        assert odometer_mcg((), (3, 2, 3)).unit_rank == 2

    def test_rejects_composite_entry(self):
        with pytest.raises(ValidationError):
            odometer_mcg((), (4,))


class TestHierarchical:
    def test_first_stage_words(self):
        spec = hierarchical_subshift((2,))
        assert spec.words0 == ("0", "001")
        assert spec.words1 == ("1", "110")

    def test_length_recursion(self):
        spec = hierarchical_subshift((2, 2, 2, 2))
        for i, n in enumerate(spec.n_values):
            assert len(spec.words0[i + 1]) == (n + 1) * len(spec.words0[i])
            assert len(spec.words1[i + 1]) == len(spec.words0[i + 1])

    def test_zero_frequencies_respect_bounds(self):
        spec = hierarchical_subshift((2, 2, 2))
        assert spec.freqs0 == (
            Fraction(1),
            Fraction(2, 3),
            Fraction(5, 9),
            Fraction(14, 27),
        )
        assert spec.bounds == (
            Fraction(1),
            Fraction(2, 3),
            Fraction(4, 9),
            Fraction(8, 27),
        )

    def test_letter_swap_symmetry(self):
        spec = hierarchical_subshift((3, 2))
        flip = str.maketrans("01", "10")
        for w0, w1 in zip(spec.words0, spec.words1):
            assert w1 == w0.translate(flip)

    def test_measure_tables_are_swapped_by_the_involution(self):
        spec = hierarchical_subshift((2, 2, 2))
        t0, t1 = stage_measure_tables(spec, 3)
        ab = Alphabet.of(["0", "1"])
        swap = SlidingBlockCode.from_symbol_map(ab, ab, {"0": "1", "1": "0"})
        action = action_on_measures(swap, (t0, t1))
        assert action.permutation == (1, 0)
        assert action.margin == Fraction(1, 9)


class TestChecklist:
    def test_fibonacci_satisfies_the_hypotheses(self, fib):
        report = virtually_abelian_report(fib, n_max=24)
        assert report.window == (12, 24)
        assert report.min_ratio == Fraction(25, 24)
        assert report.ergodic_measure_bound == 1
        assert report.asymptotic_class_count == 1
        assert report.infinitesimal_rank == 0
        assert report.verdict == "hypotheses satisfied on the checked window"

    def test_thue_morse_falls_to_the_extension_route(self, tm):
        report = virtually_abelian_report(tm, n_max=24)
        assert report.infinitesimal_rank == 1
        assert "finite-extension" in report.verdict

    def test_hierarchical_growth_is_too_fast(self):
        spec = hierarchical_subshift((2, 4, 8))
        report = virtually_abelian_report(spec, n_max=24)
        assert report.min_ratio == Fraction(11, 3)
        assert report.ergodic_measure_bound == 3
        assert report.verdict == "insufficient data"
