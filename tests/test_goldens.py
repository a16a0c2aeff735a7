"""CLI outputs must stay byte-identical to the recorded goldens.

Each golden is the stdout of one `orbkit build`, `orbkit verify`,
`orbkit report --format structured` or `orbkit enumerate --dump-table`
run; a refactor that changes any verdict, number, coset table or line
order shows up here.  Regenerate a golden
only for an intended change of output.
"""

from pathlib import Path

import pytest

from orbkit import cli

GOLDENS = Path(__file__).parent / "goldens"


def _glued_Z_exit(p):
    """At p = 2 the index-divides-4 certificate fails (exit 1) for every
    target: with nonspin no background class in range is found, which
    leaves that stage running."""
    return cli.EXIT_FAIL if p == 2 else cli.EXIT_OK


# builtin -> (its command-line arguments, the exit code of verify)
BUILTIN_ARGS = {
    "block_Y": (["--builtin", "block_Y"], cli.EXIT_OK),
    "block_W": (["--builtin", "block_W"], cli.EXIT_OK),
    **{f"glued_Z_p{p}": (["--builtin", "glued_Z", "--prime", str(p)],
                         _glued_Z_exit(p))
       for p in (2, 3)},
}

# golden name -> (command line, exit code)
CASES = {
    # the build stage's config, and verify's verdicts
    **{f"build_{name}": (["build", *args], cli.EXIT_OK)
       for name, (args, _) in BUILTIN_ARGS.items()},
    **{f"verify_{name}": (["verify", *args], code)
       for name, (args, code) in BUILTIN_ARGS.items()},
    **{f"verify_glued_Z_p3_{target}": (
        ["verify", "--builtin", "glued_Z", "--prime", "3",
         "--spin-target", target], cli.EXIT_OK)
       for target in ("spin", "nonspin")},
    "report_block_Y": (["report", "--builtin", "block_Y"], cli.EXIT_OK),
    "report_block_W": (["report", "--builtin", "block_W"], cli.EXIT_OK),
    **{f"report_glued_Z_p{p}_{target}": (
        ["report", "--builtin", "glued_Z", "--prime", str(p),
         "--spin-target", target],
        _glued_Z_exit(p))
       for p in (2, 3, 5) for target in ("any", "spin", "nonspin")},
    # the relator count, abelianization, coset table and counters; 97 is
    # the largest prime --prime takes, with U^(97^3) of 912,673 letters
    **{f"enumerate_p{p}": (
        ["enumerate", "--prime", str(p), "--dump-table"], cli.EXIT_OK)
       for p in (2, 3, 11, 13, 97)},
    # the budget runs out mid-run: pins the counters where it stops
    "enumerate_p13_bound30": (
        ["enumerate", "--prime", "13", "--coset-bound", "30"],
        cli.EXIT_INCONCLUSIVE),
}
REPORTS = sorted(name for name in CASES if name.startswith("report_"))
ENUMERATIONS = sorted(name for name in CASES if name.startswith("enumerate_"))
STAGES = sorted(name for name in CASES
                if name.startswith(("build_", "verify_")))


def _check(name, capsys):
    args, code = CASES[name]
    if args[0] == "report":
        args = [*args, "--format", "structured"]
    rc = cli.main(args)
    out = capsys.readouterr().out
    assert out == (GOLDENS / f"{name}.out").read_text(encoding="utf-8")
    assert rc == code


def test_every_golden_has_a_case():
    assert sorted(p.stem for p in GOLDENS.glob("*.out")) == sorted(CASES)
    assert sorted(REPORTS + ENUMERATIONS + STAGES) == sorted(CASES)


@pytest.mark.parametrize("name", REPORTS)
def test_structured_report_matches_golden(name, capsys):
    _check(name, capsys)


@pytest.mark.parametrize("name", ENUMERATIONS)
def test_enumerate_matches_golden(name, capsys):
    _check(name, capsys)


@pytest.mark.parametrize("name", STAGES)
def test_build_and_verify_match_golden(name, capsys):
    _check(name, capsys)
