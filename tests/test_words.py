import pytest

from flowmcg import words
from flowmcg.errors import InternalCheckError, ValidationError
from flowmcg.words import (
    Alphabet,
    SlidingBlockCode,
    Word,
    compose_codes,
    inverse_code,
    language_violation,
)


@pytest.fixture
def ab() -> Alphabet:
    return Alphabet.of(["0", "1"])


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValidationError):
        Alphabet.of(["a", "a"])


def test_word_parse_roundtrip(ab):
    w = Word.parse(ab, "0110")
    assert w.idx == (0, 1, 1, 0)
    assert w.text == "0110"
    assert len(w) == 4


def test_word_concatenation_needs_matching_alphabet(ab):
    other = Alphabet.of(["x", "y"])
    w = Word.parse(ab, "01")
    v = Word.parse(other, "xy")
    assert (w + w).text == "0101"
    with pytest.raises(ValidationError):
        w + v


def test_word_parse_rejects_unknown_symbol(ab):
    with pytest.raises(ValidationError):
        Word.parse(ab, "012")


def test_block_code_applies_windowwise(ab):
    # radius-1 majority-of-three over {0,1}
    rule = {}
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                rule[(a, b, c)] = 1 if a + b + c >= 2 else 0
    code = SlidingBlockCode(ab, ab, 1, rule)
    assert code.apply((0, 1, 1, 1, 0)) == (1, 1, 1)


def test_radius_zero_code_from_symbol_map(ab):
    swap = SlidingBlockCode.from_symbol_map(ab, ab, {"0": "1", "1": "0"})
    assert swap.radius == 0
    assert swap.apply((0, 0, 1)) == (1, 1, 0)


def test_compose_codes_adds_radii(ab, request):
    fib = request.getfixturevalue("fib")
    lang = fib.language(12)
    swap = SlidingBlockCode.from_symbol_map(ab, ab, {"0": "1", "1": "0"})
    comp = compose_codes(swap, swap, lang)
    assert comp.radius == 0
    word = next(iter(lang.blocks_of(8)))
    assert comp.apply(word) == word


def test_shift_power_acts_as_translation(fib):
    lang = fib.language(10)
    shift = SlidingBlockCode.shift_power(fib.alphabet, lang, 1)
    assert shift.radius == 1
    assert shift.apply((0, 1, 0, 0, 1)) == (0, 0, 1)


def test_code_preserves_language_detects_violation(tm):
    lang = tm.language(10)
    # constant map collapses everything onto 000..., first leaving the
    # language at length 3
    const = SlidingBlockCode(tm.alphabet, tm.alphabet, 0, {(0,): 0, (1,): 0})
    assert len(language_violation(const, lang, lang, 4)) == 3
    swap = SlidingBlockCode.from_symbol_map(tm.alphabet, tm.alphabet, {"0": "1", "1": "0"})
    assert language_violation(swap, lang, lang, 6) is None


def test_language_table_complexity(fib):
    lang = fib.language(8)
    assert [lang.complexity(n) for n in range(1, 7)] == [2, 3, 4, 5, 6, 7]
    assert lang.admissible((0, 0)) is True
    assert lang.admissible((1, 1)) is False


def _letter_map(sub, pairs):
    return SlidingBlockCode.from_symbol_map(sub.alphabet, sub.alphabet, pairs)


def test_inverse_code_checks_both_round_trips_on_blocks(monkeypatch, tm):
    """The exchange inverts itself and the unit shift has an inverse of
    radius 1; both round trips are read on admissible blocks, with no
    composite code built."""
    monkeypatch.setattr(words, "compose_codes", None)  # a call would fail
    lang = tm.language(20)
    swap = _letter_map(tm, {"0": "1", "1": "0"})
    inv = inverse_code(swap, lang, lang)
    assert (inv.radius, inv.rule) == (0, swap.rule)
    shift = SlidingBlockCode.shift_power(tm.alphabet, lang, 1)
    back = inverse_code(shift, lang, lang)
    assert back.radius == 1
    assert all(back.apply(shift.apply(w)) == (w[2],) for w in lang.blocks_of(5))


def test_a_wrong_inverse_fails_its_round_trip(tm):
    lang = tm.language(12)
    ident = _letter_map(tm, {"0": "0", "1": "1"})
    swap = _letter_map(tm, {"0": "1", "1": "0"})
    with pytest.raises(InternalCheckError, match=r"inverse does not undo the code on window \([01],\)"):
        words._check_roundtrip(ident, swap, lang)


def test_an_uncovered_image_is_a_language_mismatch(tm):
    lang = tm.language(12)
    ident = _letter_map(tm, {"0": "0", "1": "1"})
    partial = _letter_map(tm, {"0": "0"})
    with pytest.raises(ValidationError, match="language mismatch: inner image window not covered"):
        words._check_roundtrip(ident, partial, lang)
