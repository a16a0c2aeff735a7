"""orbkit.record against the standard library's dataclasses as the oracle.

Every class marked by ``record`` gets a twin from
``dataclasses.make_dataclass`` with the same fields, defaults and flags.
On seeded instances the two must agree on repr, ==, hash, frozenness,
default factories and ``__post_init__`` validation.  Only tests import
``dataclasses``: orbkit itself must not, which the start-up guard checks.
"""

import dataclasses
import gc
import importlib
import os
import pkgutil
import random
import subprocess
import sys
import types
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import orbkit
from orbkit.exact import IntMatrix
from orbkit.record import MISSING, field, record, replace
from orbkit.seifert import compute_b_residues
from orbkit.surgery import build_block_W


def _records():
    """Every record class defined in an orbkit module, by name."""
    found = {}
    for info in pkgutil.iter_modules(orbkit.__path__):
        mod = importlib.import_module(f"orbkit.{info.name}")
        for obj in vars(mod).values():
            if (isinstance(obj, type) and obj.__module__ == mod.__name__
                    and "__record_fields__" in vars(obj)):
                found[obj.__name__] = obj
    return found


RECORDS = _records()


def _twin(cls):
    """The dataclass with cls's fields, defaults, flags and __post_init__."""
    spec = []
    for name, default in cls.__record_fields__.items():
        if default is MISSING:
            spec.append((name, object))
        elif isinstance(default, field):
            spec.append((name, object, dataclasses.field(
                default_factory=default.default_factory)))
        else:
            spec.append((name, object, dataclasses.field(default=default)))
    namespace = {}
    if "__post_init__" in vars(cls):
        # a lambda, not the function itself: the class dict stays its
        # only referrer (see test_post_init_is_referred_to_by_its_class)
        namespace["__post_init__"] = lambda self: cls.__post_init__(self)
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace,
                                      **cls.__record_flags__)


BLOCK_W = build_block_W()


def _matrix(rng):
    rows, cols = rng.randint(0, 3), rng.randint(0, 3)
    return (rows, cols, tuple(tuple(rng.randint(-5, 5) for _ in range(cols))
                              for _ in range(rows)))


def _any_value(rng):
    return rng.choice([
        rng.randint(-9, 9), f"s{rng.randint(0, 3)}", None, (),
        (rng.randint(0, 2), "x"), Fraction(rng.randint(-4, 4), 3),
        rng.random() < 0.5, {"k": rng.randint(0, 1)}])


# record name -> seeded argument tuples that its __post_init__ accepts;
# a record without an entry takes any values
VALID = {
    "AbelianGroup": lambda rng: (rng.randint(0, 3), rng.choice(
        [(), (2,), (2, 4), (3, 6, 12)])),
    "IntMatrix": _matrix,
    "Presentation": lambda rng: (("a", "b"), tuple(
        tuple((abs(g), g // abs(g)) for g in (
            rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 4))))
        for _ in range(rng.randint(0, 3)))),
    "SurfaceData": lambda rng: (
        f"S{rng.randint(0, 2)}", rng.randint(0, 2), rng.randint(1, 3),
        rng.randint(0, 2), rng.choice([0, 1, "-2", Fraction(1, 3)]),
        rng.choice([None, (1, "1/2"), (0, 0)])),
    "SingularPointData": lambda rng: (
        f"p{rng.randint(0, 2)}", rng.randint(1, 5),
        (rng.randint(-7, 7), rng.randint(-7, 7)),
        rng.choice([(), ["C"], ("C", "D")])),
    "SeifertSpec": lambda rng: (
        BLOCK_W, compute_b_residues(BLOCK_W),
        tuple(rng.randint(-2, 2) for _ in range(BLOCK_W.b2))),
}
# record name -> arguments that its __post_init__ refuses, and how
INVALID = {
    "AbelianGroup": ((0, (4, 6)), ValueError),
    "IntMatrix": ((2, 1, ((1,),)), ValueError),
    "Presentation": ((("a",), (((2, 1),),)), ValueError),
    "SurfaceData": (("S", 0, 1, 0, "x"), ValueError),
    "SingularPointData": (("p", 0, (1, 1)), ZeroDivisionError),
    "SeifertSpec": ((BLOCK_W, {}, ()), ValueError),
}


def _args(name, cls, rng):
    if name in VALID:
        return VALID[name](rng)
    required = sum(d is MISSING for d in cls.__record_fields__.values())
    return tuple(_any_value(rng)
                 for _ in range(rng.randint(required,
                                            len(cls.__record_fields__))))


def _outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared across both sides
        return type(exc)


def test_every_record_is_found():
    assert len(RECORDS) == 28
    assert set(VALID) <= set(RECORDS)
    assert set(INVALID) == {name for name, cls in RECORDS.items()
                            if "__post_init__" in vars(cls)}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_agrees_with_its_dataclass_twin(name):
    cls = RECORDS[name]
    twin = _twin(cls)
    flags = cls.__record_flags__
    rng = random.Random(name)
    for _ in range(25):
        args, other_args = _args(name, cls, rng), _args(name, cls, rng)
        rec, rec2, rec3 = cls(*args), cls(*args), cls(*other_args)
        dc, dc2, dc3 = twin(*args), twin(*args), twin(*other_args)
        assert repr(rec) == repr(dc)
        assert (rec == rec2) is (dc == dc2)
        assert (rec == rec3) is (dc == dc3)
        assert (rec != rec3) is (dc != dc3)
        assert rec != dc and rec.__eq__(dc) is NotImplemented
        if flags["eq"]:
            assert _outcome(hash, rec) == _outcome(hash, dc)
        else:  # compared and hashed by identity
            assert cls.__hash__ is twin.__hash__ is object.__hash__
        # keywords bind as positions do
        kwargs = dict(zip(cls.__record_fields__, args))
        assert repr(cls(**kwargs)) == repr(twin(**kwargs))
        for fname in cls.__record_fields__:
            if flags["frozen"]:
                with pytest.raises(AttributeError):
                    setattr(rec, fname, 0)
                with pytest.raises(AttributeError):
                    delattr(rec, fname)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(dc, fname, 0)
            else:
                setattr(rec, fname, 0)
                setattr(dc, fname, 0)
        assert repr(rec) == repr(dc)


@pytest.mark.parametrize("name", sorted(
    name for name, cls in RECORDS.items()
    if any(isinstance(d, field) for d in cls.__record_fields__.values())))
def test_default_factories_make_fresh_objects(name):
    cls = RECORDS[name]
    required = [n for n, d in cls.__record_fields__.items() if d is MISSING]
    a, b = cls(*[0] * len(required)), cls(*[0] * len(required))
    twin = _twin(cls)(*[0] * len(required))
    assert repr(a) == repr(twin)
    for fname, default in cls.__record_fields__.items():
        if isinstance(default, field):
            assert getattr(a, fname) == default.default_factory()
            assert getattr(a, fname) is not getattr(b, fname)
            assert fname not in vars(cls)  # no class attribute is left


@pytest.mark.parametrize("name", sorted(INVALID))
def test_post_init_validation_still_raises(name):
    cls = RECORDS[name]
    args, error = INVALID[name]
    with pytest.raises(error):
        cls(*args)
    with pytest.raises(error):
        _twin(cls)(*args)


def test_call_errors_match_a_plain_signature():
    @record(frozen=True)
    class Pair:
        a: int
        b: tuple = ()
        c: list = field(default_factory=list)

    assert Pair(1) == Pair(a=1) == Pair(1, ()) == Pair(1, c=[])
    assert repr(Pair(1, b=(2,))) == f"{Pair.__qualname__}(a=1, b=(2,), c=[])"
    for args, kwargs in (((), {}), ((1, 2, 3, 4), {}), ((1,), {"a": 1}),
                         ((1,), {"d": 1})):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)


def test_replace_runs_init_and_post_init():
    m = IntMatrix(1, 2, ((1, 2),))
    assert replace(m, entries=((3, 4),)) == IntMatrix(1, 2, ((3, 4),))
    assert replace(m) == m and replace(m) is not m
    with pytest.raises(ValueError):
        replace(m, cols=3)


def test_cached_property_on_a_frozen_record():
    @record(frozen=True)
    class Box:
        items: tuple

        @cached_property
        def total(self):
            return sum(self.items)

    box = Box((1, 2, 3))
    assert box.total == 6 and vars(box)["total"] == 6
    assert box == Box((1, 2, 3))  # a cached value is not a field
    with pytest.raises(AttributeError):
        box.items = ()


def test_mutable_record_with_eq_is_unhashable():
    @record
    class Cell:
        value: int

    with pytest.raises(TypeError):
        hash(Cell(1))
    assert Cell(1) == Cell(1) and Cell(1) != Cell(2)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(orbkit.__file__).resolve().parents[1]
    code = ("import sys, orbkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("name", sorted(INVALID))
def test_post_init_is_referred_to_by_its_class_alone(name):
    # a tracer that wraps __post_init__ on the class must find no other
    # reference to it, or a call could go round the wrapper
    cls = RECORDS[name]
    fn = vars(cls)["__post_init__"]
    gc.collect()
    refs = [ref for ref in gc.get_referrers(fn)
            if not isinstance(ref, types.FrameType)]
    assert len(refs) == 1
    assert isinstance(refs[0], dict) and set(refs[0]) == set(vars(cls))
