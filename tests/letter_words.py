"""Words as tuples of letters: the oracle for orbkit.fpgroup's syllables.

A letter is a nonzero signed generator index (1-based; negative means
inverse), so x^n is n letters.  These are the letter forms of
free_reduce, cyclic_reduce, inverse_word and commutator that
orbkit.fpgroup used before it wrote a word as (generator, exponent)
syllables, and `prepared` spells and sums one relator as the
enumeration plan does; they share no code with it.  `syllables` and
`letters` move a word between the two forms.
"""


def syllables(w) -> tuple:
    """The syllable word whose letters are w: each run of one letter is
    one syllable, and nothing is reduced."""
    out: list[list[int]] = []
    for g in w:
        step = 1 if g > 0 else -1
        if out and out[-1][0] == abs(g) and (out[-1][1] > 0) == (g > 0):
            out[-1][1] += step
        else:
            out.append([abs(g), step])
    return tuple(map(tuple, out))


def letters(w) -> tuple:
    """The letters of a syllable word, each syllable spelled out."""
    return tuple(g if e > 0 else -g for g, e in w for _ in range(abs(e)))


def free_reduce(w) -> tuple:
    out: list[int] = []
    for g in w:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def cyclic_reduce(w) -> tuple:
    w = free_reduce(w)
    k = 0  # letters that cancel at each end
    while 2 * k + 1 < len(w) and w[k] == -w[-1 - k]:
        k += 1
    return w[k:len(w) - k]


def inverse_word(w) -> tuple:
    return tuple(-g for g in reversed(w))


def commutator(a, b) -> tuple:
    return free_reduce(a + b + inverse_word(a) + inverse_word(b))


def _is_power(w) -> bool:
    return w.count(w[0]) == len(w)


def _column(g: int) -> int:
    return 2 * abs(g) - 2 + (g < 0)


def prepared(r: tuple) -> tuple:
    """(item, sums) of a nonempty letter word: cyclic_reduce(r) as the
    enumeration traces it, and its nonzero (generator - 1, exponent sum)
    pairs."""
    w = cyclic_reduce(r)
    if not w:
        item = None
    elif _is_power(w):  # x^n: x's column and n
        item = _column(w[0]), 0, len(w) - 1, True
    else:
        cols = list(map(_column, w))
        item = cols, 0, len(cols) - 1, False
    sums: dict[int, int] = {}
    for g in set(r):
        i = abs(g) - 1
        sums[i] = sums.get(i, 0) + (r.count(g) if g > 0 else -r.count(g))
    return item, tuple((i, e) for i, e in sums.items() if e)
