import pytest

from flowmcg import substitution
from flowmcg.errors import ValidationError
from flowmcg.substitution import (
    Substitution,
    complexity,
    generate_language,
    incidence_matrix,
    is_aperiodic,
    is_primitive,
)

from test_asymptotics import CORPUS


def test_from_rules_parses_images(fib):
    assert fib.alphabet.symbols == ("0", "1")
    assert [w.text for w in fib.images] == ["01", "0"]


def test_from_rules_rejects_empty_image():
    with pytest.raises(ValidationError):
        Substitution.from_rules({"0": "01", "1": ""})


def test_json_roundtrip(tm):
    data = tm.to_json_dict()
    again = Substitution.from_json_dict(data)
    assert again.to_json_dict() == data


def test_incidence_matrix_counts_letters(fib, tm):
    assert incidence_matrix(fib) == ((1, 1), (1, 0))
    assert incidence_matrix(tm) == ((1, 1), (1, 1))


def test_power_composes_rules(fib):
    sq = fib.power(2)
    assert [w.text for w in sq.images] == ["010", "01"]
    with pytest.raises(ValidationError):
        fib.power(0)


def test_primitivity():
    assert is_primitive(Substitution.from_rules({"0": "01", "1": "0"}))
    # reducible: letter 1 never reaches letter 0
    assert not is_primitive(Substitution.from_rules({"0": "01", "1": "11"}))


def test_aperiodicity_verdicts(tm):
    assert is_aperiodic(tm).periodic is False
    periodic = Substitution.from_rules({"0": "0101", "1": "01"})
    assert is_aperiodic(periodic).periodic is True


def test_thue_morse_complexity_values(tm):
    # classical block counts
    assert [complexity(tm, n) for n in range(1, 9)] == [2, 4, 6, 10, 12, 16, 20, 22]


def test_fibonacci_complexity_is_n_plus_one(fib):
    for n in range(1, 12):
        assert complexity(fib, n) == n + 1


def test_language_blocks_are_factors_of_iterates(fib):
    lang = fib.language(6)
    long_image = fib.power(8).images[0].idx
    text = "".join(str(i) for i in long_image)
    for block in lang.blocks_of(6):
        needle = "".join(str(i) for i in block)
        assert needle in text


def counted_generations(monkeypatch):
    """The lengths `generate_language` is called for, in call order."""
    calls = []
    generate = substitution.generate_language

    def counted(sub, n):
        calls.append(n)
        return generate(sub, n)

    monkeypatch.setattr(substitution, "generate_language", counted)
    return calls


MEMO_DEPTH = 50
PRIMITIVE = sorted(k for k, r in CORPUS.items() if is_primitive(Substitution.from_rules(r)))


@pytest.mark.parametrize("key", PRIMITIVE)
def test_a_shorter_length_is_read_off_a_longer_one(monkeypatch, key):
    rules = CORPUS[key]
    direct = Substitution.from_rules(rules)
    want = {n: generate_language(direct, n) for n in range(1, MEMO_DEPTH + 1)}
    calls = counted_generations(monkeypatch)
    # shortest first below a held L_m: each L_n is read off L_m
    for m in range(2, MEMO_DEPTH + 1):
        lang = Substitution.from_rules(rules).language(m)
        assert lang.blocks_of(m) == want[m]
        for n in range(1, m):
            assert lang.blocks_of(n) == want[n], (n, m)
        assert calls == [m]
        calls.clear()
    # longest first: each L_n is read off L_{n+1}
    lang = Substitution.from_rules(rules).language(MEMO_DEPTH)
    for n in range(MEMO_DEPTH, 0, -1):
        assert lang.blocks_of(n) == want[n], n
    assert calls == [MEMO_DEPTH]


def test_a_non_primitive_substitution_generates_every_length(monkeypatch):
    # 0→00, 1→01 grows, but no letter follows 1, so 01 is in L_2 and no
    # longer block extends it: a prefix read would drop it
    sub = Substitution.from_rules({"0": "00", "1": "01"})
    calls = counted_generations(monkeypatch)
    lang = sub.language(8)
    assert lang.blocks_of(8) == {(0,) * 8}
    assert lang.blocks_of(2) == {(0, 0), (0, 1)}
    assert calls == [8, 2]
