"""Finitely presented groups: abelianization, Tietze moves, coset
enumeration, and the orbifold fundamental-group presentation builder.

A word is a tuple of syllables (generator, exponent): the generator is
1-based and the exponent a nonzero int, so x^n is the one syllable
(x, n) whatever n is.  Words are kept freely reduced: adjacent syllables
name different generators.  Every word is written in syllables where it
is made; a presentation's generator names only label the generators,
and nothing builds a word from them.  Coset enumeration is Felsch-style
Todd-Coxeter of the cosets of the identity: a definition is followed by
every deduction it forces, and coincidences go through a union-find
queue; a run either completes (the order of the group is certain) or
exhausts its coset budget (inconclusive, returned as a value, never an
exception).
The orbifold presentation states each torsion relation once: a power
family x^(p^i), i >= k, has the normal closure of x^(p^k) alone.

Each presentation has one enumeration plan per process, made by a
bounded cache keyed on its generator count and relators, and the plan
is the one place a relator is cyclically reduced, spelled into table
columns and summed, for the enumeration and the abelianization alike.
A relator that reduces to one syllable x^n is traced once round x's
cycle through a coset, as x's column and n; any other is spelled as
table columns.  The relators of the orbifold presentation that do not
depend on p are written once per process, and a certificate asked for
again at one prime finds its plan made.  A new table entry a^x = b is
scanned at a against the relator cycles that start with x, and the
plan lists each such word from its second letter: the scan starts it
at b, the entry's image, and not at a.  Words and powers x^n come as
two tuples and are scanned in two loops, so no cycle is asked which
kind it is.  The replay of a completed table checks a power x^n by
the length of x's cycle.

A relator x^+-1 y^+-1 on two generators identifies them: the later
one's columns read the earlier one's, swapped for an inverse, through
chains of such relators, and one that joins two generators already
identified stays a relator.  The other relators are spelled in the
columns that map gives, and a cycle equal to an earlier one or to an
earlier one read backwards is scanned once, powers and spelled words
apart.  Felsch then fills only the columns of the least generator of
each class, and the finished table is written out to every column and
replayed against every relator as given, so the result is the one the
full table gives.  The plan's classes serve the abelianization too:
each relator's exponent sums are folded onto the least generator of
each class, negated where a generator reads the inverse column, a
change of generators that turns the identifying relators into zero
rows, and those are dropped.  The orbifold presentation states
x2 = x1, y2 = y1 and z2 = z1, so its enumeration fills 16 of its 22
columns and scans 145 of its 199 cycles, and its Smith normal form is
of a 15x8 matrix, not the 18x11 one its generators give.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, lru_cache

from .abelian import AbelianGroup
from .exact import IntMatrix, smith_normal_form
from .record import field, record

Word = tuple[tuple[int, int], ...]  # (generator, exponent) syllables


class NotApplicable(ValueError):
    pass


def free_reduce(w) -> Word:
    """w with adjacent syllables on one generator merged and every
    exponent that sums to 0 dropped."""
    out: list[tuple[int, int]] = []
    for g, e in w:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append((g, e))
    return tuple(out)


def cyclic_reduce(w) -> Word:
    """free_reduce(w) with the letters that cancel at its two ends cut:
    ends x^a ... x^b of opposite signs lose min(|a|, |b|) letters each.
    Ends of one sign are not merged, since that would rotate the word."""
    w = list(free_reduce(w))
    i, j = 0, len(w) - 1
    while i < j and w[i][0] == w[j][0] and (w[i][1] > 0) != (w[j][1] > 0):
        g, e = w[i][0], w[i][1] + w[j][1]
        if e * w[i][1] > 0:  # the head outlasts the tail
            w[i], j = (g, e), j - 1
        elif e:
            w[j], i = (g, e), i + 1
        else:
            i, j = i + 1, j - 1
    return tuple(w[i:j + 1])


def inverse_word(w) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def _column(g: int, e: int) -> int:
    """The table column of generator g, 2(g - 1), or the next for e < 0."""
    return 2 * g - 2 + (e < 0)


@lru_cache(maxsize=256)
def _plan(ngens: int, relators: tuple[Word, ...]) -> tuple:
    """The enumeration plan of a presentation on ngens generators:
    (width, columns, items, conjugates, checks, sums).

    Each relator is cyclically reduced once, here, and checks lists it
    in the presentation's own columns, as the replay traces it:
    (columns, first index, last index, power), a reduction to one
    syllable x^n as (x's column, 0, n - 1, True), never spelled out,
    and any other as the list of its letters' table columns.  A relator
    that reduces to nothing has no entry.

    A relator that reduces to x^+-1 y^+-1, x != y, says that y's
    columns read x's, swapped, and joins their classes; once all such
    relators are read in order, each generator's columns read those of
    the least generator of its class, and one that joins two generators
    already in one class stays a relator.  The least generators of the
    classes, in order, own the width table columns the enumeration
    fills, and columns[c] is the table column that the presentation's
    column c reads.

    Every other relator is read through columns, and its cycles are
    listed by their first letter: items[x] holds those traced at coset
    0 and conjugates[x] those traced through an entry in column x, each
    as two tuples, words and powers.  A word is (w, i, j), the cycle
    w[i - 1..j] with w[i - 1] = x, so it starts at its second letter,
    as a scan reads its first step from the entry it is given: items
    lists each word as spelled, and conjugates each cyclic conjugate,
    a slice of the word written twice.  A power x^n is n, its own only
    conjugate, under x alone.  A word or conjugate equal to an earlier
    one, or to the earlier one read backwards from the same coset or
    through the same edge, is left out, since its scan would trace the
    same cycle again; so a word of period d keeps at most d conjugates.
    A power x^n and a word that spells x n times are kept apart, as
    they are traced differently.  sums is the matrix of the relators'
    exponent sums over the width / 2 classes, each generator's sum
    added to its class's column, negated where it reads the inverse
    column, with the rows that vanish left out (None if all do).  A pure
    function of its arguments, made once per process for each
    presentation; no caller writes to the lists it shares.
    """
    checks = []
    for r in relators:
        w = cyclic_reduce(r)
        if len(w) == 1:
            (g, e), = w
            checks.append((_column(g, e), 0, abs(e) - 1, True))
        elif w:
            cols = [c for g, e in w for c in [_column(g, e)] * abs(e)]
            checks.append((cols, 0, len(cols) - 1, False))
    reads = list(range(2 * ngens))  # column -> the column it reads
    joins = set()  # indices into checks
    for k, (w, _, j, power) in enumerate(checks):
        if power or j != 1:
            continue
        c, d = (reads[x] for x in w)
        if c >> 1 != d >> 1:  # c d = 1: the later of c, d^-1 reads the other
            low, high = sorted((c, d ^ 1))
            low ^= high & 1
            reads = [x if x >> 1 != high >> 1 else low ^ (x & 1)
                     for x in reads]
            joins.add(k)
    owners = {g: i for i, g in enumerate(sorted({x >> 1 for x in reads}))}
    columns = [2 * owners[x >> 1] + (x & 1) for x in reads]
    width = 2 * len(owners)

    # the words and powers that start with each column
    items = [([], []) for _ in range(width)]
    conjugates = [([], []) for _ in range(width)]
    # the cycles kept and the same cycles read backwards: words traced
    # from coset 0, words traced through an edge, and powers (x, n - 1)
    at_0, edges, powers = set(), set(), set()
    for k, (w, i, j, power) in enumerate(checks):
        if k in joins:
            continue
        if power:  # its own only conjugate
            x = columns[w]
            if (x, j) not in powers:
                powers.update(((x, j), (x ^ 1, j)))
                items[x][1].append(j + 1)
                conjugates[x][1].append(j + 1)
            continue
        word = tuple(map(columns.__getitem__, w))
        if word in at_0:  # an earlier word or its inverse, whose cycles
            continue  # through an edge are all kept or left out already
        back = tuple(x ^ 1 for x in reversed(word))
        at_0.update((word, back))
        n = len(word)
        items[word[0]][0].append((word, 1, n - 1))
        # the cycle from letter s is twice[s:s + n]; read backwards
        # through the same edge, it is backs[n - 1 - s:2n - 1 - s]
        twice, backs = word + word, back + back
        for s in range(n):
            cycle = twice[s:s + n]
            if cycle not in edges:
                edges.update((cycle, backs[n - 1 - s:2 * n - 1 - s]))
                conjugates[twice[s]][0].append((twice, s + 1, s + n - 1))
    items, conjugates = ([(tuple(w), tuple(p)) for w, p in cycles]
                         for cycles in (items, conjugates))

    rows = []
    for r in relators:
        row = [0] * (width // 2)
        for g, e in r:
            x = columns[2 * g - 2]
            row[x >> 1] += -e if x & 1 else e
        if any(row):
            rows.append(row)
    sums = IntMatrix.from_rows(rows) if rows else None
    return width, columns, items, conjugates, checks, sums


@record(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        gens = {g for r in self.relators for g, _ in r}
        if gens and not 1 <= min(gens) <= max(gens) <= len(self.generators):
            bad = min(gens) if min(gens) < 1 else max(gens)
            raise ValueError(f"relator generator {bad} out of range")


def commutator(a: Word, b: Word) -> Word:
    return free_reduce(a + b + inverse_word(a) + inverse_word(b))


def abelianize(p: Presentation) -> AbelianGroup:
    """Quotient by all commutators, via the exponent-sum matrix.

    The matrix is the plan's (see _plan): one column for each class of
    generators that relators x^+-1 y^+-1 identify, and one row for each
    relator whose exponent sums do not vanish there.  A commutator, or a
    relator that identifies, adds no row, so the Smith normal form of
    the orbifold presentation is of 15 of its 48 rows over 8 of its 11
    generators.
    """
    width, _, _, _, _, sums = _plan(len(p.generators), p.relators)
    if sums is None:
        return AbelianGroup(rank=width // 2)
    factors = smith_normal_form(sums).invariant_factors()
    return AbelianGroup(rank=width // 2 - len(factors),
                        invariant_factors=tuple(d for d in factors if d > 1))


def tietze_simplify(p: Presentation) -> Presentation:
    """Light presentation cleanup by Tietze transformations.

    Freely/cyclically reduces and deduplicates relators, drops empty
    ones, and eliminates any generator that some relator isolates (one
    syllable, exponent +-1, so the relator solves for it).
    """
    gens = list(p.generators)
    rels = [cyclic_reduce(r) for r in p.relators]
    changed = True
    while changed:
        changed = False
        rels = list(dict.fromkeys(r for r in rels if r))
        for ri, r in enumerate(rels):
            letters = Counter()
            for g, e in r:
                letters[g] += abs(e)
            pos = next((k for k, (g, _) in enumerate(r) if letters[g] == 1),
                       None)
            if pos is None:
                continue
            dead, e = r[pos]
            # r = prefix . g^e . suffix = 1  =>  g^e = prefix^-1 suffix^-1
            value = free_reduce(inverse_word(r[:pos])
                                + inverse_word(r[pos + 1:]))
            if e < 0:
                value = inverse_word(value)
            # renumber the generators above the eliminated one
            value = tuple((h - (h > dead), f) for h, f in value)
            new_rels = []
            for k, other in enumerate(rels):
                if k == ri:
                    continue
                out: list[tuple[int, int]] = []
                for h, f in other:
                    if h == dead:
                        out.extend((value if f > 0 else inverse_word(value))
                                   * abs(f))
                    else:
                        out.append((h - (h > dead), f))
                new_rels.append(cyclic_reduce(out))
            rels = new_rels
            gens.pop(dead - 1)
            changed = True
            break
    return Presentation(tuple(gens), tuple(rels))


@record(frozen=True)
class Complete:
    index: int


@record(frozen=True)
class Exhausted:
    bound: int


@record
class CosetTable:
    status: object  # Complete | Exhausted
    table: list = field(default_factory=list)  # live rows, column per +-gen
    defined: int = 0  # rows ever made, the count max_cosets bounds
    coincidences: int = 0  # cosets found equal to an earlier one

    def is_complete(self) -> bool:
        return isinstance(self.status, Complete)


# the cosets an enumeration may define unless told otherwise
COSET_BOUND = 10000


def coset_enumerate(p: Presentation,
                    max_cosets: int = COSET_BOUND) -> CosetTable:
    """Felsch Todd-Coxeter of the cosets of the identity alone, whose
    number is the order of the group.

    Defines the first undefined table entry in coset-then-column order
    and processes every deduction before the next definition.  A new
    entry alpha^x = beta is scanned at alpha under each distinct cyclic
    conjugate of a relator that starts with x, and at beta under those
    that start with x^-1.  A word conjugate's first step is the new
    entry itself, so its walk starts with its second letter at the
    entry's image (beta, for the scan at alpha); the words and the
    powers of a column are scanned in two loops.  The plan (see _plan)
    gives the columns the table fills, one pair for each class of
    generators that relators x^+-1 y^+-1 identify, and the cycles of
    each column, each scanned once: a cycle traced backwards, as an
    inverted relator's conjugates trace its own, adds nothing.  A scan
    fills an entry only when exactly one is missing;
    entries made by scans and by coincidences are deductions too.  A
    word that reduces to one syllable x^n is traced round x's cycle
    through the coset once: when the cycle closes after k letters, the
    whole rounds are skipped and the n mod k letters left are traced.
    Complete(n) certifies that the group has order n;
    Exhausted(max_cosets) is inconclusive.  max_cosets bounds the rows
    ever defined, dead or alive.  Completed tables are replayed against
    every relator at every coset before being returned; x^n holds at a
    coset when the length of x's cycle through it divides n; the table
    returned has a column for each generator and its inverse, those of
    an identified generator copied from its class's.  The scans trace
    the plan's cycles, and the replay traces each relator as given.
    """
    ncols, columns, relators, conjugates, checks, _ = _plan(
        len(p.generators), p.relators)
    table: list[list] = [[None] * ncols]
    parent = [0]
    deductions: list[tuple[int, int]] = []  # entries yet to be scanned
    queue: list[int] = []

    def rep(k: int) -> int:
        r = k
        while parent[r] != r:
            r = parent[r]
        while parent[k] != r:
            parent[k], k = r, parent[k]
        return r

    def merge(a: int, b: int) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            queue.append(b)

    def coincidence(a: int, b: int) -> None:
        queue.clear()
        merge(a, b)
        i = 0
        while i < len(queue):
            e = queue[i]
            i += 1
            for x in range(ncols):
                f = table[e][x]
                if f is None:
                    continue
                table[f][x ^ 1] = None
                mu, nu = rep(e), rep(f)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu
                    deductions.append((mu, x))

    def define(a: int, x: int) -> bool:
        if len(table) >= max_cosets:
            return False
        d = len(table)
        table.append([None] * ncols)
        parent.append(d)
        table[a][x] = d
        table[d][x ^ 1] = a
        deductions.append((a, x))
        return True

    def scan(a: int, x: int, cycles: tuple) -> None:
        """Trace the cycles of column x (see _plan) at coset a forwards
        and backwards, the words in one loop and then the powers in
        another, in order, until a dies.  A word's first step is a's
        entry in column x, read again for each word since a coincidence
        can move it; where it is missing, as at coset 0 before the
        first definition, the word is walked from a.  A power x^n goes
        round x's cycle at a once.  Ends that meet at two cosets make
        them coincide, and a single missing entry between the ends is
        filled; a cycle with two or more missing waits for a later
        definition."""
        rows = table  # a local, not a closure cell: read once per letter
        row = rows[a]
        words, powers = cycles
        for w, i, j in words:  # the word w[i - 1..j], w[i - 1] being x
            f = row[x]
            if f is None:
                f, i = a, i - 1
            while i <= j:
                g = rows[f][w[i]]
                if g is None:
                    break
                f = g
                i += 1
            if i > j:
                if f != a:
                    coincidence(f, a)
                    if parent[a] != a:
                        return
                continue
            y, b = w[i], a
            while j >= i:
                g = rows[b][w[j] ^ 1]
                if g is None:
                    break
                b = g
                j -= 1
            if j < i:  # the ends meet
                if f != b:
                    coincidence(f, b)
                    if parent[a] != a:
                        return
            elif j == i:  # one entry missing between the ends, in column y
                rows[f][y] = b
                rows[b][y ^ 1] = f
                deductions.append((f, y))
        inverse = x ^ 1
        for n in powers:  # x^n
            f, k = a, 0
            while k < n:  # go round x's cycle at a once
                g = rows[f][x]
                if g is None:
                    break
                f = g
                k += 1
                if f == a:  # closed after k letters: skip whole rounds
                    k = n - n % k
            i, j, b = k, n - 1, a  # every letter left is x, walked back
            while j >= i:
                g = rows[b][inverse]
                if g is None:
                    break
                b = g
                j -= 1
            if j < i:  # the ends meet
                if f != b:
                    coincidence(f, b)
                    if parent[a] != a:
                        return
            elif j == i:  # one entry missing between the ends
                rows[f][x] = b
                rows[b][inverse] = f
                deductions.append((f, x))

    def process_deductions() -> None:
        while deductions:
            a, x = deductions.pop()
            b = table[a][x]  # read before the scan at a can change it
            if parent[a] == a:
                scan(a, x, conjugates[x])
                if parent[b] == b:
                    scan(b, x ^ 1, conjugates[x ^ 1])

    def exhausted() -> CosetTable:
        dead = sum(parent[k] != k for k in range(len(table)))
        return CosetTable(Exhausted(max_cosets), defined=len(table),
                          coincidences=dead)

    # deductions scan a relator at coset 0 only after a definition there,
    # which needs a new coset; scanning each relator at coset 0 first,
    # under the column of its first letter, fills what needs none, so
    # <a | a> completes with max_cosets = 1 (every conjugate of a word,
    # scanned there, would fill the same entries with more scans)
    for x in range(ncols):
        scan(0, x, relators[x])
    process_deductions()

    a = 0
    while a < len(table):
        for x in range(ncols):
            if parent[a] != a:
                break
            if table[a][x] is None:
                if not define(a, x):
                    return exhausted()
                process_deductions()
        a += 1

    live = sorted(k for k in range(len(table)) if rep(k) == k)
    renum = {k: i for i, k in enumerate(live)}
    compact = [[renum[rep(table[k][x])] for x in columns] for k in live]

    # replay: the compacted action must satisfy every relator
    def holds(c: int, w, n: int, power: bool) -> bool:
        """The word fixes c.  A power x^n, w being x's column, does when
        x's cycle through c has a length dividing n; the walk stops after
        one round of the index, since in a corrupt table c could lie on
        no cycle."""
        f = c
        if not power:
            for x in w:
                f = compact[f][x]
            return f == c
        for k in range(1, len(compact) + 1):
            f = compact[f][w]
            if f == c:
                return n % k == 0
        return False

    for w, i, j, power in checks:
        n = j - i + 1
        for c in range(len(compact)):
            if not holds(c, w, n, power):
                raise AssertionError("completed table fails a relator scan")

    return CosetTable(Complete(len(compact)), compact, len(table),
                      len(table) - len(compact))


_PI1_GENERATORS = ("a", "b", "x1", "y1", "z1", "x2", "y2", "z2", "g1",
                   "g2", "U")


@cache
def _fixed_relators() -> tuple[Word, ...]:
    """The 45 relators of the orbifold presentation that do not depend on
    p, each written cyclically reduced, as syllables, once per process."""
    gens = range(1, len(_PI1_GENERATORS) + 1)
    a, b, x1, y1, z1, x2, y2, z2, g1, g2, u = gens
    ab = ((a, 1), (b, 1), (a, -1), (b, -1))
    rels: list[Word] = []
    # g1, g2, U are central
    for center in (g1, g2, u):
        for other in gens:
            if other != center:
                rels.append(commutator(((center, 1),), ((other, 1),)))
    # circle-bundle relation over the glued surface, Chern number -1
    rels.append(ab + ((u, 1),))
    # branched-torus relation on the second surface: [a,b] x2 y2 z2 = g2^2
    rels.append(ab + ((x2, 1), (y2, 1), (z2, 1), (g2, -2)))
    # order-2 branch loops square to the surface loop
    for g, loops in ((g1, (x1, y1, z1)), (g2, (x2, y2, z2))):
        for x in loops:
            rels.append(((x, 2), (g, -1)))
    # double-handle relation on the first surface
    rels.append(ab + ab + ((x1, 1), (y1, 1), (z1, 1), (g1, -1)))
    # lifts of the handle loops across the gluing
    rels.append(((a, 1), (y2, 1), (x2, 1), (g2, -2)))
    rels.append(((b, 1), (x2, 1), (z2, 1), (g2, -2)))
    # the two surfaces share their three branch points
    for first, second in ((x1, x2), (y1, y2), (z1, z2)):
        rels.append(((first, 1), (second, -1)))
    # section relation over the base sphere
    rels.append(((u, 8), (g1, 5), (g2, 3)))
    return tuple(rels)


def build_pi1_orb_presentation(p_prime: int,
                               max_power: int = 8) -> Presentation:
    """Presentation of the orbifold fundamental group of the glued space.

    Generators: the genus-one handle loops a, b; the three order-2 loops
    on each of the first two isotropy surfaces (x1,y1,z1 / x2,y2,z2);
    the surface loops g1, g2; and the common loop U around the remaining
    isotropy surfaces.  Torsion relators g1^p, g2^(p^2) and U^(p^3), which
    stands for the family U^(p^i), i = 3..max_power (none if max_power < 3):
    U^(p^i) = (U^(p^3))^(p^(i-3)) lies in the normal closure of U^(p^3).
    The torsion powers follow the relators that do not depend on p, each
    one syllable, so no relator grows with p.
    """
    g1, g2, u = (_PI1_GENERATORS.index(name) + 1
                 for name in ("g1", "g2", "U"))
    rels = _fixed_relators() + (((g1, p_prime),), ((g2, p_prime ** 2),))
    if max_power >= 3:
        rels += (((u, p_prime ** 3),),)
    return Presentation(_PI1_GENERATORS, rels)


def simply_connected_decision(result: CosetTable, h1_zero: bool) -> bool:
    """The simply-connected verdict: h1_zero, once the coset table
    certifies an orbifold group of order dividing 4.

    Raises NotApplicable when the enumeration did not complete or the
    index does not divide 4.  The verdict is not proved here: an order
    dividing 4 makes the orbifold group abelian, not the bundle group,
    which is a central extension of it (Q_8 is one of Z_2^2 by Z_2).
    The valid argument, pi_1 of the total space vanishes iff the
    orbifold group is trivial and H_1 = 0, belongs to ROADMAP item 10.
    """
    if not result.is_complete():
        raise NotApplicable("coset enumeration did not complete")
    if 4 % result.status.index != 0:
        raise NotApplicable(
            f"index {result.status.index} does not divide 4")
    return h1_zero
