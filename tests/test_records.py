"""The value-type base `errors.Record`, and two paths that skip work it
would make dearer: `word_idx` on a string and the aperiodicity screen.

Every `Record` subclass in the package behaves as the frozen value it
stands for: fields from its own annotations in order, the hash of the
tuple of its fields, equality by class and fields, no assignment, a
`replace` that rechecks, and `TypeError` for a missing or extra argument.
`GroupElement` compares by identity and `LanguageTable` is mutable and
unhashable.  `words.word_idx` reads a string as `Word.parse` does without
building a `Word`, and `is_aperiodic` gives the verdicts of the complexity
screen that counted p(1..W) on every rational-lambda input, with no
language built.
"""

import json
import os
import random
import sys

import pytest

import flowmcg
from flowmcg.coinvariants import GroupElement
from flowmcg.errors import Record, ValidationError
from flowmcg.substitution import (
    APERIODICITY_WINDOW,
    PeriodicityVerdict,
    Substitution,
    complexity_profile,
    dominant_eigenvalue,
    is_aperiodic,
    is_primitive,
)
from flowmcg.words import Alphabet, LanguageTable, Word, word_idx

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

_saved_path = list(sys.path)
sys.path.insert(0, PERFBENCH)
try:
    import corpus
finally:
    sys.path[:] = _saved_path

with open(os.path.join(PERFBENCH, "expected.json"), encoding="utf-8") as _handle:
    POOL = json.load(_handle)["pool"]
CORPUS = {**corpus.FIXED, **corpus.INVALID, **corpus.all_pool_inputs(POOL)}

flowmcg.Substitution  # the first lookup loads every layer
RECORDS = sorted(Record.__subclasses__(), key=lambda cls: (cls.__module__, cls.__name__))
# classes that keep a dunder of their own instead of the base's
IDENTITY = {GroupElement}
MUTABLE = {LanguageTable}


def fields(cls) -> tuple:
    return tuple(vars(cls).get("__annotations__", ()))


def raw(cls, values):
    """An instance with the given field values, past `__init__` and its
    checks."""
    obj = object.__new__(cls)
    for name, value in zip(fields(cls), values):
        object.__setattr__(obj, name, value)
    return obj


def sample(cls) -> list:
    """Field values equal across calls but never the same objects."""
    return [("value", i, cls.__name__) for i in range(len(fields(cls)))]


def checks_nothing(cls) -> bool:
    return cls.__post_init__ is Record.__post_init__


def test_every_value_class_of_the_package_is_a_record():
    assert {cls.__module__ for cls in RECORDS} >= {
        "flowmcg.asymptotics", "flowmcg.automorphisms", "flowmcg.coinvariants",
        "flowmcg.flows", "flowmcg.intlat", "flowmcg.mcg", "flowmcg.numberfield",
        "flowmcg.pf", "flowmcg.substitution", "flowmcg.words",
    }
    assert all(fields(cls) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_hash_is_the_hash_of_the_fields(cls):
    x = raw(cls, sample(cls))
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(x)
    elif cls in IDENTITY:
        assert hash(x) == object.__hash__(x)
    else:
        assert hash(x) == hash(tuple(sample(cls)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_is_by_class_and_fields(cls):
    x, twin = raw(cls, sample(cls)), raw(cls, sample(cls))
    other = sample(cls)
    other[-1] = ("changed",)
    namesake = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(fields(cls), object)})
    assert x == x
    assert x != raw(cls, other)
    assert x != raw(namesake, sample(cls)) and raw(namesake, sample(cls)) != x
    assert x != tuple(sample(cls))
    assert x.__eq__(tuple(sample(cls))) is NotImplemented
    assert (x == twin) is (cls not in IDENTITY)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    x = raw(cls, sample(cls))
    for name in fields(cls):
        if cls in MUTABLE:
            setattr(x, name, ("new",))
            assert getattr(x, name) == ("new",)
            continue
        with pytest.raises(AttributeError):
            setattr(x, name, ("new",))
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) == sample(cls)[fields(cls).index(name)]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_missing_or_extra_argument_is_a_type_error(cls):
    values = sample(cls)
    names = fields(cls)
    required = [name for name in names if name not in vars(cls)]
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, ("extra",))
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**{n: v for n, v in zip(names[1:], values[1:])})
    if len(required) > 1:
        with pytest.raises(TypeError):
            cls(*values[:1], **{n: v for n, v in zip(names[2:], values[2:])})


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if checks_nothing(cls)], ids=lambda cls: cls.__name__
)
def test_construction_defaults_repr_and_replace(cls):
    names, values = fields(cls), sample(cls)
    x = cls(*values)
    assert x == raw(cls, values) or cls in IDENTITY
    assert [getattr(x, name) for name in names] == values
    assert [getattr(cls(**dict(zip(names, values))), name) for name in names] == values
    required = [name for name in names if name not in vars(cls)]
    assert names[: len(required)] == tuple(required)
    y = cls(*values[: len(required)])
    assert [getattr(y, name) for name in names] == values[: len(required)] + [
        vars(cls)[name] for name in names[len(required):]
    ]
    if cls.__repr__ is Record.__repr__:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(x) == f"{cls.__qualname__}({shown})"
    changed = x.replace(**{names[-1]: ("changed",)})
    assert type(changed) is cls and changed is not x
    assert [getattr(changed, name) for name in names] == values[:-1] + [("changed",)]
    assert [getattr(x, name) for name in names] == values
    with pytest.raises(TypeError):
        x.replace(no_such_field=1)


def test_replace_reruns_the_checks(fib):
    alphabet = Alphabet.of(["a", "b"])
    assert alphabet.replace(symbols=("a", "c")) == Alphabet.of(["a", "c"])
    with pytest.raises(ValidationError, match="distinct"):
        alphabet.replace(symbols=("a", "a"))
    with pytest.raises(ValidationError, match="out of range"):
        Word.parse(alphabet, "ab").replace(idx=(0, 2))
    with pytest.raises(ValidationError, match="one image word"):
        fib.replace(images=fib.images[:1])


def test_checked_records_hash_and_print_as_their_fields(fib, tm):
    assert hash(fib) == hash((fib.alphabet, fib.images))
    assert hash(fib.alphabet) == hash((fib.alphabet.symbols,))
    assert fib == Substitution.from_rules({"0": "01", "1": "0"}) != tm
    assert {fib: 1}[Substitution.from_rules({"0": "01", "1": "0"})] == 1
    assert repr(fib.alphabet) == "Alphabet(symbols=('0', '1'))"
    assert repr(fib) == "Substitution(alphabet=Alphabet(symbols=('0', '1')), images=(Word('01'), Word('0')))"
    with pytest.raises(AttributeError):
        fib.images = tm.images


def test_group_elements_compare_by_identity():
    assert GroupElement.__eq__ is object.__eq__
    assert GroupElement.__hash__ is object.__hash__
    g, h = raw(GroupElement, [None, 0, (1,)]), raw(GroupElement, [None, 0, (1,)])
    assert g == g and g != h and len({g, h}) == 2


def test_language_tables_are_mutable_and_unhashable(fib):
    table = fib.language(4)
    with pytest.raises(TypeError):
        hash(table)
    table.n_max = 6
    assert table.n_max == 6 and table.complexity(6) == 7
    del table.source
    assert table.source is None
    alphabet = fib.alphabet
    assert LanguageTable(alphabet, {}, 3) == LanguageTable(alphabet, {}, 3) != LanguageTable(alphabet, {}, 4)


def _parsed(alphabet, text):
    """`word_idx` and `Word.parse` on one input: value or error, each."""
    outcomes = []
    for read in (lambda: word_idx(alphabet, text), lambda: Word.parse(alphabet, text).idx):
        try:
            outcomes.append(("ok", read()))
        except ValidationError as exc:
            outcomes.append(("error", str(exc)))
    return outcomes


def test_word_idx_reads_strings_as_word_parse_does():
    for rules in CORPUS.values():
        alphabet = Alphabet.of(sorted(rules))
        words = list(rules.values()) + [w[:3] for w in rules.values()] + [
            ",".join(rules.values()), "", ",", "x", "0x1", "0,,1,", "9"
        ]
        for text in words:
            first, second = _parsed(alphabet, text)
            assert first == second, (rules, text)
            if first[0] == "ok":
                assert first[1] == Word.parse(alphabet, text).idx
    wide = Alphabet.of(["ab", "c", "d10"])
    for text in ["ab,c,d10", "ab,,c,", "c", "", "abc", "ab,x", "a,b", "d10,ab,d10"]:
        first, second = _parsed(wide, text)
        assert first == second, text
    assert _parsed(wide, "abc")[0] == ("error", "symbol 'abc' not in alphabet ('ab', 'c', 'd10')")
    assert _parsed(wide, "ab,c,d10")[0] == ("ok", (0, 1, 2))
    assert _parsed(wide, ",ab,,c,")[0] == ("ok", (0, 1))
    assert _parsed(Alphabet.of(["0", "1"]), "0,,1,")[0] == ("ok", (0, 1))


def test_word_idx_still_range_checks_index_sequences():
    alphabet = Alphabet.of(["0", "1"])
    assert word_idx(alphabet, [1, 0, 1]) == (1, 0, 1)
    with pytest.raises(ValidationError, match="letter index 2 out of range"):
        word_idx(alphabet, (0, 2))
    with pytest.raises(ValidationError, match="not a word"):
        word_idx(alphabet, [0.5])


def _screen_before(sub):
    """`is_aperiodic` as it was when it read p(1..W) for every rational
    lambda: the first n with p(n) = q <= n gives the period q."""
    window = APERIODICITY_WINDOW
    if not is_primitive(sub):
        raise ValidationError("aperiodicity check expects a primitive substitution")
    if sub.size == 1:
        return PeriodicityVerdict(True, window, 1, Word(sub.alphabet, (0,)))
    if not dominant_eigenvalue(sub)[2].is_rational:
        return PeriodicityVerdict(False, window)
    for n, q in enumerate(complexity_profile(sub, window), start=1):
        if q <= n:
            lang_q = sub.language(2 * q)
            for w in sorted(lang_q.blocks_of(q)):
                if lang_q.admissible(w + w):
                    return PeriodicityVerdict(True, window, q, Word(sub.alphabet, w))
            raise ValidationError("complexity bound hit but no periodic word found")
    return PeriodicityVerdict(False, window)


def _verdict(screen, rules):
    try:
        return screen(Substitution.from_rules(rules))
    except ValidationError as exc:
        return str(exc)


# 0^k 1 repeated has period k + 1: the window W = 50 is the last period caught
EDGES = [{"0": "0" * k + "1", "1": "0" * k + "1"} for k in (48, 49, 50)]
# primitive and aperiodic, but its fixed point starts with (01)^61: a period
# 2 within the window, with sigma(01) not a power of 01
NEAR_PERIODIC = {"0": "01" * 60 + "011", "1": "01" * 60 + "100"}


def _screened_inputs():
    """CORPUS, random draws, powers of one word, the edges of the window,
    the one-letter inputs and NEAR_PERIODIC."""
    rng = random.Random(31)
    drawn = [corpus.random_rules(rng) for _ in range(150)]
    # every image a power of one word w: the orbit of w repeated, periodic
    powers = []
    for _ in range(20):
        letters = "012"[: rng.choice((2, 3))]
        w = "".join(rng.sample(letters, len(letters))) + "".join(rng.choices(letters, k=rng.randint(0, 3)))
        powers.append({a: w * rng.randint(1, 3) for a in letters})
    return list(CORPUS.values()) + drawn + powers + EDGES + [{"0": "0"}, {"0": "00"}, NEAR_PERIODIC]


def test_the_aperiodicity_screen_gives_the_verdicts_of_the_full_count():
    periodic = 0
    for rules in _screened_inputs():
        verdict = _verdict(is_aperiodic, rules)
        assert verdict == _verdict(_screen_before, rules), rules
        periodic += isinstance(verdict, PeriodicityVerdict) and verdict.periodic
    assert periodic >= 20
    assert [_verdict(is_aperiodic, rules).period for rules in EDGES] == [49, 50, None]
    assert _verdict(is_aperiodic, NEAR_PERIODIC) == PeriodicityVerdict(False, APERIODICITY_WINDOW)
    assert _verdict(is_aperiodic, corpus.INVALID["periodic_0101_01"]) == PeriodicityVerdict(
        True, APERIODICITY_WINDOW, 2, Word.parse(Alphabet.of(["0", "1"]), "01")
    )


def test_the_aperiodicity_screen_builds_no_language():
    for rules in _screened_inputs():
        sub = Substitution.from_rules(rules)
        try:
            is_aperiodic(sub)
        except ValidationError:
            pass
        assert not sub.language(1).blocks, rules


def test_an_aperiodic_verdict_counts_no_prefixes():
    """Thue-Morse has the rational lambda 2, so its verdict comes from its
    fixed point and the counts p(1..W) are never built."""
    sub = Substitution.from_rules({"0": "01", "1": "10"})
    assert is_aperiodic(sub) == PeriodicityVerdict(False, APERIODICITY_WINDOW)

    def unbuilt():
        raise AssertionError("p(1..W) was counted")

    with pytest.raises(AssertionError, match="was counted"):
        sub.cached(("complexity_profile", APERIODICITY_WINDOW), unbuilt)
