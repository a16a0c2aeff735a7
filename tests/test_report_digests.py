"""Every builtin report must keep its recorded sha256, and hold no float.

The golden maps each output of `orbkit report` on a builtin to the
sha256 of its text: glued_Z at every prime --prime takes (2 to 97) with
each --spin-target, and block_Y and block_W, each in the structured and
the human format, 154 outputs in all.  Every pipeline runs once and
both formats are emitted from its Report, as the CLI does.  The
byte-for-byte goldens in test_goldens.py show a diff; this one covers
every prime, for about 1.3 s of CPU (2 vCPUs, Python 3.11).
Regenerate it only for an intended change of output:

    PYTHONPATH=src python tests/test_report_digests.py
"""

import argparse
import hashlib
import json
from functools import cache
from pathlib import Path

import pytest

from orbkit import cli, report as report_mod
from orbkit.scenario import MAX_PRIME, SPIN_TARGETS

GOLDEN = Path(__file__).parent / "goldens" / "report_digests.json"
FORMATS = ("structured", "human")
PRIMES = [p for p in range(2, MAX_PRIME + 1)
          if all(p % d for d in range(2, p))]

# pipeline name -> (builtin, prime, spin target)
RUNS = {
    "block_Y": ("block_Y", None, "any"),
    "block_W": ("block_W", None, "any"),
    **{f"glued_Z_p{p}_{target}": ("glued_Z", p, target)
       for p in PRIMES for target in SPIN_TARGETS},
}


@cache
def reports() -> dict:
    """pipeline name -> the Report `orbkit report` would emit."""
    out = {}
    for name, (builtin, p, target) in RUNS.items():
        args = argparse.Namespace(scenario=None, builtin=builtin, prime=p)
        out[name] = report_mod.run_pipeline(cli._load_scenario(args, target))
    return out


@cache
def digests() -> dict:
    """"<pipeline name> <format>" -> sha256 of the emitted text."""
    return {f"{name} {fmt}": hashlib.sha256(
                report_mod.emit_report(rep, format=fmt).encode()).hexdigest()
            for name, rep in reports().items() for fmt in FORMATS}


@cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _walk(obj, path="report"):
    """(path, value) for every value reachable through record fields,
    lists, tuples, dicts and sets."""
    yield path, obj
    fields = getattr(type(obj), "__record_fields__", None)
    if fields is not None:
        for name in fields:
            yield from _walk(getattr(obj, name), f"{path}.{name}")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _walk(k, f"{path}[key {k!r}]")
            yield from _walk(v, f"{path}[{k!r}]")
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for k, v in enumerate(obj):
            yield from _walk(v, f"{path}[{k}]")


def test_golden_covers_every_builtin_report():
    assert len(PRIMES) == 25 and PRIMES[-1] == MAX_PRIME  # what --prime takes
    golden = _golden()
    assert len(golden) == 154
    assert sorted(golden) == sorted(f"{name} {fmt}" for name in RUNS
                                    for fmt in FORMATS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_digest(name):
    for fmt in FORMATS:
        key = f"{name} {fmt}"
        assert digests()[key] == _golden()[key], fmt


def _human_rows(text):
    """The (key, value) rows of a human report: a `head:` line opens a
    group, and each `  rest: value` line under it is the row head.rest."""
    rows = []
    for line in text.splitlines():
        key, sep, value = line.lstrip().partition(": ")
        if not sep:
            head = line.removesuffix(":")
        elif line.startswith("  "):
            rows.append((f"{head}.{key}", value))
        else:
            rows.append((key, value))
    return rows


@pytest.mark.parametrize("name", sorted(RUNS))
def test_human_report_prints_the_structured_rows(name):
    # one row list behind both formats: neither says what the other omits
    header, *lines = report_mod.emit_report(
        reports()[name], format="structured").splitlines()
    assert header == "orbkit-report v1"
    rows = [tuple(line.split(" = ", 1)) for line in lines]
    human = report_mod.emit_report(reports()[name], format="human")
    assert _human_rows(human) == rows


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_holds_no_float(name):
    floats = [path for path, value in _walk(reports()[name])
              if isinstance(value, float)]
    assert floats == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
