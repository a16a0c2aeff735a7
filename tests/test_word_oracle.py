"""orbkit.fpgroup's syllable words against the letter-word oracle.

Each seeded word is drawn in syllables, spelled out in letters, and put
through both forms: every function must give a word whose letters are
the oracle's, and the enumeration plan of a presentation with that one
relator must trace it in the oracle's table columns and sum it to the
oracle's exponent sums.  The words mix powers (one syllable, or several
on one generator that merge), periodic words, conjugates u r u^-1 whose
ends cancel in part or in full, words whose two ends are one generator
with one sign, and unreduced random words.
"""

import random
from functools import cache

import pytest

import letter_words as oracle
from letter_words import letters
from orbkit.fpgroup import (
    _plan,
    commutator,
    cyclic_reduce,
    free_reduce,
    inverse_word,
)

SEED = 18
PER_KIND = 500
KINDS = ("power", "periodic", "cancelling_ends", "same_sign_ends", "random")


def _syllable(rng, n, g=None, top=4):
    return (g or rng.randint(1, n)), rng.choice((1, -1)) * rng.randint(1, top)


def _random(rng, n, length):
    return tuple(_syllable(rng, n) for _ in range(length))


def _word(rng: random.Random, kind: str) -> tuple:
    n = rng.randint(1 if kind == "power" else 2, 3)
    if kind == "power":  # one syllable, or a run on one generator
        g = rng.randint(1, n)
        return tuple(_syllable(rng, n, g, top=40)
                     for _ in range(rng.randint(1, 3)))
    if kind == "periodic":
        return _random(rng, n, rng.randint(1, 3)) * rng.randint(2, 4)
    if kind == "cancelling_ends":  # u r u^-1, or x^a r x^-b
        u = _random(rng, n, rng.randint(1, 3))
        core = _random(rng, n, rng.randint(0, 3))
        if rng.random() < 0.5:
            return u + core + inverse_word(u)
        g, a = _syllable(rng, n, top=6)
        return ((g, a),) + core + ((g, -a // abs(a) * rng.randint(1, 6)),)
    if kind == "same_sign_ends":  # x^a r x^b, a and b of one sign
        g, a = _syllable(rng, n, top=6)
        sign = 1 if a > 0 else -1
        return ((g, a),) + _random(rng, n, rng.randint(0, 3)) \
            + ((g, sign * rng.randint(1, 6)),)
    return _random(rng, n, rng.randint(0, 8))


@cache
def words() -> list[tuple]:
    rng = random.Random(SEED)
    return [_word(rng, kind) for kind in KINDS for _ in range(PER_KIND)]


def test_the_draw_covers_each_shape():
    drawn = words()
    assert len(drawn) >= 2000
    reduced = [oracle.cyclic_reduce(letters(w)) for w in drawn]
    powers = [r for r in reduced if r and r.count(r[0]) == len(r)]
    cut = [w for w, r in zip(drawn, reduced)
           if len(r) < len(oracle.free_reduce(letters(w)))]
    same_sign = [w for w in map(free_reduce, drawn) if len(w) > 1
                 and w[0][0] == w[-1][0] and (w[0][1] > 0) == (w[-1][1] > 0)]
    assert min(len(powers), len(cut), len(same_sign)) >= 250


def test_letters_equal_the_oracle():
    drawn = words()
    for w in drawn:
        spelled = letters(w)
        assert letters(free_reduce(w)) == oracle.free_reduce(spelled), w
        assert letters(cyclic_reduce(w)) == oracle.cyclic_reduce(spelled), w
        assert letters(inverse_word(w)) == oracle.inverse_word(spelled), w
    for a, b in zip(drawn, drawn[1:]):
        assert (letters(commutator(a, b))
                == oracle.commutator(letters(a), letters(b))), (a, b)


def test_reduced_words_are_syllables_in_normal_form():
    # adjacent syllables name different generators, no exponent is zero,
    # and the letter form back in syllables gives the same word
    for w in words():
        for out in (free_reduce(w), cyclic_reduce(w)):
            assert all(e for _, e in out)
            assert all(a[0] != b[0] for a, b in zip(out, out[1:]))
            assert oracle.syllables(letters(out)) == out


@pytest.mark.parametrize("kind", KINDS)
def test_prepared_equals_the_oracle(kind):
    start = KINDS.index(kind) * PER_KIND
    for w in words()[start:start + PER_KIND]:
        if not w:
            continue
        width, _, _, _, checks, sums = _plan.__wrapped__(3, (w,))
        want_item, want_sums = oracle.prepared(letters(w))
        # the columns of the reduction, as the replay traces it
        assert checks == ([want_item] if want_item else []), w
        row = [0, 0, 0]
        for i, e in want_sums:
            row[i] = e
        if width < 6:  # w is x^+-1 y^+-1, whose sums vanish once x = y^-+1
            assert sums is None, w
        else:
            assert (sums.entries if sums else None) == (
                (tuple(row),) if any(row) else None), w
