"""Structured reports must stay byte-identical to the recorded goldens.

Each golden is the stdout of one `orbkit report --format structured`
run; a refactor that changes any verdict, number or line order shows up
here.  Regenerate a golden only for an intended change of output.
"""

from pathlib import Path

import pytest

from orbkit import cli

GOLDENS = Path(__file__).parent / "goldens"


def _glued_Z_exit(p, target):
    """At p = 2 the index-divides-4 certificate fails (exit 1), and no
    background class in range gives a non-spin total space (exit 3)."""
    if p != 2:
        return cli.EXIT_OK
    return cli.EXIT_INCONCLUSIVE if target == "nonspin" else cli.EXIT_FAIL


# golden name -> (report arguments, exit code)
CASES = {
    "report_block_Y": (["--builtin", "block_Y"], cli.EXIT_OK),
    "report_block_W": (["--builtin", "block_W"], cli.EXIT_OK),
    **{f"report_glued_Z_p{p}_{target}": (
        ["--builtin", "glued_Z", "--prime", str(p), "--spin-target", target],
        _glued_Z_exit(p, target))
       for p in (2, 3, 5) for target in ("any", "spin", "nonspin")},
}


def test_every_golden_has_a_case():
    assert sorted(p.stem for p in GOLDENS.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_structured_report_matches_golden(name, capsys):
    args, code = CASES[name]
    rc = cli.main(["report", *args, "--format", "structured"])
    out = capsys.readouterr().out
    assert out == (GOLDENS / f"{name}.out").read_text(encoding="utf-8")
    assert rc == code
