"""Property tests: the closure oracle against the stabilizer chain, and words."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from mcgtorsion import kernels
from mcgtorsion.chain import StabilizerChain, mul_mod
from mcgtorsion.curves import lickorish_system
from mcgtorsion.symplectic import reduce_mod_p
from mcgtorsion.torsion import theorem_generators
from mcgtorsion.words import evaluate, format_word, parse_word, reduce_word, twist_assignment

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

G2_TWISTS = [u.twist for u in lickorish_system(2).curves]


@lru_cache(maxsize=None)
def _groups(subset, p):
    mats = [reduce_mod_p(G2_TWISTS[i], p) for i in subset]
    return mats, kernels.modp_closure(mats, p), StabilizerChain(mats, p)


@PROPERTY
@given(
    subset=st.sets(st.integers(0, len(G2_TWISTS) - 1), min_size=1).map(
        lambda s: tuple(sorted(s))),
    p=st.sampled_from((2, 3)),
    data=st.data(),
)
def test_closure_matches_chain_on_g2_twists(subset, p, data):
    mats, closure, chain = _groups(subset, p)
    assert not closure.exceeded
    assert closure.size == chain.order()
    word = data.draw(st.lists(st.integers(0, len(mats) - 1), max_size=12))
    prod = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    for i in word:
        prod = mul_mod(prod, mats[i], p)
    assert closure.contains(prod)
    assert chain.sift(prod) is not None


SYMBOLS = ("Ta1", "Tb1", "Ta2", "Tc1", "F1", "F2", "F3")
# the empty word prints as "<empty>", which is not a word, so words are nonempty
WORDS = st.lists(
    st.tuples(st.sampled_from(SYMBOLS), st.integers(-4, 4).filter(bool)),
    min_size=1, max_size=8,
).map(tuple)


@PROPERTY
@given(word=WORDS)
def test_parse_inverts_format(word):
    assert parse_word(format_word(word)) == word


def _g3_assignment():
    certs = theorem_generators(3)
    assignment = twist_assignment(3)
    assignment["F1"] = certs[0].matrix
    assignment["F2"] = certs[1].matrix
    assignment["F3"] = certs[3].matrix
    return assignment


G3 = _g3_assignment()


@PROPERTY
@given(word=WORDS)
def test_reduce_word_idempotent_and_preserves_value(word):
    reduced = reduce_word(word)
    assert reduce_word(reduced) == reduced
    assert evaluate(reduced, G3) == evaluate(word, G3)
