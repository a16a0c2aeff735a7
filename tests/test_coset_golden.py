"""coset_enumerate must reproduce the recorded tables on seeded random
presentations.

Each case of goldens/coset_enumerate_random.json is a presentation on
one to three generators, with power words, periodic words, random
words, conjugates of earlier relators and commutators, sometimes an
abelian closure that makes the group finite, and a coset bound from
BOUNDS.  Each case of goldens/coset_enumerate_identified.json, drawn
from a seed of its own, is such a case with one or two more generators
and one to three relators x^+-1 y^+-1 on two generators, which identify
one generator with another or its inverse: chains and cycles of them,
identifications of two old generators that make other relators cancel,
and a power x^2 beside a two-letter word that reads the same columns.
A golden holds each case's input with its status, table, cosets
defined and coincidences, so a change to the order of definitions or
deductions shows up here even where the index stays the same.  Cases
are drawn and stored as letter words, and each word is passed to
orbkit in syllables.
Regenerate both goldens only for an intended change of output; the
script prints the index of each case it adds, removes or changes:

    PYTHONPATH=src python tests/test_coset_golden.py
"""

import json
import random
from collections import Counter
from functools import cache
from math import prod
from pathlib import Path

import pytest

from golden_changes import print_changes
from letter_words import commutator, cyclic_reduce, inverse_word, syllables
from orbkit.fpgroup import (
    Complete,
    Presentation,
    _plan,
    abelianize,
    coset_enumerate,
)

GOLDEN = Path(__file__).parent / "goldens" / "coset_enumerate_random.json"
SEED = 9
CASES = 150
BOUNDS = (1, 5, 30, 400)


def _word(rng: random.Random, n: int, length: int) -> tuple:
    return tuple(rng.choice((g, -g))
                 for g in (rng.randint(1, n) for _ in range(length)))


def _case(rng: random.Random, bound: int) -> dict:
    n = rng.randint(1, 3)
    rels: list[tuple] = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.choice(("power", "periodic", "word", "conjugate",
                           "commutator"))
        if kind == "power":
            g = rng.choice((1, -1)) * rng.randint(1, n)
            r = (g,) * rng.randint(1, 40)
        elif kind == "periodic":
            r = _word(rng, n, rng.randint(2, 3)) * rng.randint(2, 4)
        elif kind == "conjugate" and rels:
            u = _word(rng, n, rng.randint(1, 3))
            r = u + rng.choice(rels) + inverse_word(u)
        elif kind == "commutator":
            r = commutator(_word(rng, n, 2), _word(rng, n, 2))
        else:
            r = _word(rng, n, rng.randint(2, 8))
        rels.append(r)
    if rng.random() < 0.7:  # abelian closure: order at most 6^n
        rels += [(g,) * rng.randint(1, 6) for g in range(1, n + 1)]
        rels += [commutator((g,), (h,))
                 for g in range(1, n + 1) for h in range(g + 1, n + 1)]
    return {"generators": "abc"[:n], "relators": rels, "bound": bound}


@cache
def cases() -> list[dict]:
    rng = random.Random(SEED)
    return [_case(rng, BOUNDS[i % len(BOUNDS)]) for i in range(CASES)]


IDENTIFIED = (Path(__file__).parent / "goldens"
              / "coset_enumerate_identified.json")
IDENTIFIED_SEED = 41
IDENTIFIED_CASES = 160


def _identified_case(rng: random.Random, bound: int) -> dict:
    """A _case with one or two more generators and one to three relators
    x^+-1 y^+-1, each put in at a random place among the others.  A
    relator may repeat the pair before it with y's sign flipped, so the
    two say x^2 = 1 once y is read as x^+-1; then x^2 may follow too."""
    case = _case(rng, bound)
    n = len(case["generators"]) + rng.randint(1, 2)
    rels = list(case["relators"])
    r = None
    for _ in range(rng.randint(1, 3)):
        if r is not None and rng.random() < 0.25:
            r = (r[0], -r[1])
        else:
            r = tuple(rng.choice((g, -g))
                      for g in rng.sample(range(1, n + 1), 2))
        rels.insert(rng.randint(0, len(rels)), r)
    if rng.random() < 0.3:
        g = abs(r[0])
        rels.insert(rng.randint(0, len(rels)), (g, g))
    return {**case, "generators": "abcde"[:n], "relators": rels}


@cache
def identified_cases() -> list[dict]:
    rng = random.Random(IDENTIFIED_SEED)
    return [_identified_case(rng, BOUNDS[i % len(BOUNDS)])
            for i in range(IDENTIFIED_CASES)]


def result(case: dict) -> dict:
    """case with the fields of its CosetTable, in JSON's lists."""
    pres = Presentation(tuple(case["generators"]),
                        tuple(map(syllables, case["relators"])))
    res = coset_enumerate(pres, max_cosets=case["bound"])
    status = res.status
    return {"generators": case["generators"],
            "relators": [list(r) for r in case["relators"]],
            "bound": case["bound"],
            "status": ([type(status).__name__, status.index]
                       if isinstance(status, Complete)
                       else [type(status).__name__, status.bound]),
            "table": res.table, "defined": res.defined,
            "coincidences": res.coincidences}


def _dump(path: Path, drawn: list[dict]) -> None:
    new = [result(case) for case in drawn]
    old = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
           else [])
    print_changes(path.name, dict(enumerate(old)), dict(enumerate(new)))
    path.write_text(
        "[\n" + ",\n".join(json.dumps(res, separators=(",", ":"))
                           for res in new) + "\n]\n",
        encoding="utf-8")


@cache
def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@cache
def _identified_golden() -> list[dict]:
    return json.loads(IDENTIFIED.read_text(encoding="utf-8"))


def test_golden_covers_every_bound_and_both_outcomes():
    golden = _golden()
    assert len(golden) == CASES
    assert {case["bound"] for case in golden} == set(BOUNDS)
    assert {case["status"][0] for case in golden} == {"Complete", "Exhausted"}


@pytest.mark.parametrize("i", range(CASES))
def test_coset_enumerate_matches_golden(i):
    assert result(cases()[i]) == _golden()[i]


def _identifications(case: dict) -> tuple[dict, list]:
    """(value, kept) for case's relators x^+-1 y^+-1 on two generators,
    read in order: value maps each generator to the letter of the least
    generator of its class that equals it, and kept lists the relators
    whose two generators were one class already."""
    value = {g: g for g in range(1, len(case["generators"]) + 1)}
    kept = []
    for r in map(tuple, case["relators"]):
        if len(r) != 2 or abs(r[0]) == abs(r[1]):
            continue
        vx, vy = (value[abs(g)] if g > 0 else -value[abs(g)] for g in r)
        if abs(vx) == abs(vy):
            kept.append(r)
            continue
        low, high = sorted((vx, vy), key=abs)
        new = -low if high > 0 else low  # vx vy = 1: high = low^-1
        for g, v in value.items():
            if abs(v) == abs(high):
                value[g] = new if v > 0 else -new
    return value, kept


def _kinds(case: dict, golden: dict) -> set[str]:
    value, kept = _identifications(case)
    rels = [tuple(r) for r in case["relators"]]

    def read(r):
        return tuple(value[g] if g > 0 else -value[-g] for g in r)

    kinds = {golden["status"][0]}
    if max(Counter(map(abs, value.values())).values()) >= 3:
        kinds.add("chain")
    if kept:
        kinds.add("cycle")
    if any(cyclic_reduce(r) and not cyclic_reduce(read(r)) for r in rels
           if r not in kept and not (len(r) == 2 and abs(r[0]) != abs(r[1]))):
        kinds.add("cancelled")
    squares = {abs(value[abs(r[0])]) for r in rels
               if len(r) == 2 and r[0] == r[1]}
    if any(abs(read(r)[0]) in squares and read(r)[0] == read(r)[1]
           for r in kept):
        kinds.add("square beside a word")
    return kinds


def test_identified_golden_covers_each_kind():
    golden = _identified_golden()
    assert len(golden) == IDENTIFIED_CASES
    assert {case["bound"] for case in golden} == set(BOUNDS)
    kinds = Counter(kind for case, g in zip(identified_cases(), golden)
                    for kind in _kinds(case, g))
    for kind in ("Complete", "Exhausted", "chain", "cycle", "cancelled",
                 "square beside a word"):
        assert kinds[kind] >= 5, (kind, kinds)


@pytest.mark.parametrize("i", range(IDENTIFIED_CASES))
def test_coset_enumerate_matches_identified_golden(i):
    assert result(identified_cases()[i]) == _identified_golden()[i]


def _abelian(case: dict) -> bool:
    """case's relators include the commutator of each pair of generators,
    so its group is abelian."""
    n = len(case["generators"])
    rels = {tuple(r) for r in case["relators"]}
    return all(commutator((g,), (h,)) in rels
               for g in range(1, n + 1) for h in range(g + 1, n + 1))


def test_abelian_orders_against_the_abelianization():
    # a finite abelian group is its own abelianization, so the order
    # coset_enumerate certifies is the product of the invariant factors
    # that the Smith normal form of the exponent sums gives; that oracle
    # shares no code with the enumeration
    checked = 0
    for case, golden in zip(cases(), _golden()):
        if golden["status"][0] != "Complete" or not _abelian(case):
            continue
        group = abelianize(Presentation(
            tuple(case["generators"]),
            tuple(map(syllables, case["relators"]))))
        assert group.rank == 0, case
        assert golden["status"][1] == prod(group.invariant_factors), case
        checked += 1
    assert checked >= CASES // 2


def _rotated_inverse(r: tuple) -> tuple:
    inv = inverse_word(r)
    return inv[1:] + inv[:1]


# changes to the relator list that leave its normal closure, and so the
# Felsch closure, the same
RELATOR_CHANGES = {
    "reversed": lambda rels: rels[::-1],
    "rotated_inverses_appended":
        lambda rels: rels + [_rotated_inverse(r) for r in rels],
    "each_listed_twice": lambda rels: [r for r in rels for _ in range(2)],
}


@pytest.mark.parametrize("change", sorted(RELATOR_CHANGES))
def test_closure_ignores_relator_order_and_repetition(change):
    # coset_enumerate returns the unique closure of its definitions: a
    # pass that skipped a scan and lost a deduction would differ here
    fields = ("status", "table", "defined", "coincidences")
    for case, golden in zip(cases(), _golden()):
        rels = [tuple(r) for r in case["relators"]]
        res = result({**case, "relators": RELATOR_CHANGES[change](rels)})
        assert ({k: res[k] for k in fields}
                == {k: golden[k] for k in fields}), case


def test_the_plan_cache_changes_no_result():
    # each presentation's plan is made once per process; a pass with the
    # cache empty, a pass that finds every plan made and a pass after the
    # cache has evicted them all must give the golden
    def run():
        made = _plan.cache_info().misses
        out = [(result(case), str(abelianize(Presentation(
            tuple(case["generators"]),
            tuple(map(syllables, case["relators"]))))))
            for case in cases()]
        return out, _plan.cache_info().misses - made

    keys = {(len(case["generators"]), tuple(map(syllables, case["relators"])))
            for case in cases()}
    bound = _plan.cache_info().maxsize
    assert len(keys) < bound
    _plan.cache_clear()
    first, made = run()
    assert made == len(keys)
    second, made = run()
    assert made == 0
    for k in range(bound):  # as many other plans, on 4 generators
        _plan(4, (((4, k + 1), (1, 1)),))
    third, made = run()
    assert made == len(keys)
    assert [res for res, _ in first] == _golden()
    assert first == second == third


if __name__ == "__main__":
    _dump(GOLDEN, cases())
    _dump(IDENTIFIED, identified_cases())
