"""One constructor for the substitution's flow code, checked against
reference copies of the two it replaced: the supertile section of the whole
space and the substituted copy of a cylinder section."""

from functools import lru_cache

import pytest

from flowmcg.flows import (
    FlowCode,
    ReturnSystem,
    derived_substitution,
    induce,
    r_mu,
    restrict_flow_code,
    substitution_code,
)
from flowmcg.pf import pf_data
from flowmcg.substitution import Substitution
from flowmcg.words import SlidingBlockCode, Word

from test_cross_sections import CIRCLE, _id
from test_one_core import RULES


def reference_supertile_section(sub):
    """The image of the space under one application, as an abstract cross
    section: one return word per letter, namely its image."""
    data = pf_data(sub)
    field = data.field
    lam_inv = field.generator().inverse()
    weights = tuple(u * lam_inv for u in data.left)
    base_measure = field.zero()
    for w in weights:
        base_measure = base_measure + w
    return ReturnSystem(
        is_whole_space=False,
        base_word=None,
        return_words=tuple(sub.images),
        weights=weights,
        base_measure=base_measure,
        recoded_language=sub.language(8),
    )


def reference_restricted_code(sub, word):
    """The substitution code restricted to the cylinder [word]: return words
    map to their images, measures scale by the expansion."""
    sys_e = induce(sub, word)
    field = sys_e.field
    lam_inv = field.generator().inverse()
    image_returns = tuple(
        Word(sub.alphabet, sub.apply_idx(r.idx)) for r in sys_e.return_words
    )
    target = ReturnSystem(
        is_whole_space=False,
        base_word=None,
        return_words=image_returns,
        weights=tuple(w * lam_inv for w in sys_e.weights),
        base_measure=sys_e.base_measure * lam_inv,
        recoded_language=sys_e.recoded_language,
    )
    relabel = SlidingBlockCode(
        sys_e.alphabet, sys_e.alphabet, 0, {(i,): i for i in range(sys_e.size)}
    )
    return FlowCode(
        kind="substitution",
        sub=sub,
        source=sys_e,
        target=target,
        conjugacy=relabel,
        inverse=relabel,
        verified_depth=0,
    )


INPUTS = {_id(r): r for r in RULES + CIRCLE}


@lru_cache(maxsize=None)
def _sub(key):
    return Substitution.from_rules(INPUTS[key])


# the whole space, then every admissible word of length 1 and 2 (induce
# accepts each of them on these inputs)
CASES = [
    (key, w)
    for key in INPUTS
    for w in [None, *(w for n in (1, 2) for w in sorted(_sub(key).language(n).blocks_of(n)))]
]


def _same_target(got, ref):
    assert got.return_words == ref.return_words
    assert got.return_times == ref.return_times
    assert got.weights == ref.weights
    assert got.base_measure == ref.base_measure
    assert got.alphabet == ref.alphabet
    assert not got.is_whole_space and got.base_word is None


@pytest.mark.parametrize(
    "key,word", CASES, ids=[f"{k}@{'' if w is None else ''.join(map(str, w))}" for k, w in CASES]
)
def test_substitution_code_matches_the_reference_constructions(key, word):
    sub = _sub(key)
    whole = substitution_code(sub)
    if word is None:
        ref = reference_supertile_section(sub)
        _same_target(whole.target, ref)
        # the whole space is presented by sub itself, on its letters
        assert derived_substitution(sub, whole.source.base_word) is sub
        assert whole.target.alphabet == sub.alphabet
        assert r_mu(whole) == whole.source.base_measure / ref.base_measure
        return
    got = restrict_flow_code(whole, word)
    ref = reference_restricted_code(sub, word)
    assert got.kind == "substitution"
    assert got.source.base_word == word
    assert got.source.return_words == ref.source.return_words
    _same_target(got.target, ref.target)
    # the target keeps the source's recoded language, that of its derived substitution
    assert got.target.recoded_language is ref.target.recoded_language
    assert got.conjugacy == ref.conjugacy
    assert r_mu(got) == r_mu(ref)

