"""Mutation audit of orbkit's modules: which one-site changes do the
tests let through?

Each mutant changes one site of one module under src/orbkit:

- a comparison is negated (< and >=, > and <=, == and !=), one
  operator of a chain at a time; `in` and `is` are left alone;
- + and - swap, and so do // and %;
- an integer constant gains 1;
- a `not` is doubled, which drops its negation.

Sites are found with the standard library's ast, in ast.walk order, and
a mutant is the module unparsed with its one site changed.  Mutants run
one at a time, in a copy of the repository made once per run: the
module's file is rewritten, the tests that COVER lists for the module
run in one pytest process with a time limit, and the file is put back.
A mutant that passes them is run again against the whole suite, and
only one that passes that too is a survivor.  A mutant that runs out of
time counts as killed.  Before the first mutant, the copy runs each
module's tests and then the whole suite unchanged, and the run stops
unless they pass, so that `killed` means the mutant was caught.  These
runs are timed, and a mutant's run may take SLOWDOWN times as long as
the unmutated run of the same tests, so a mutant that loops costs a
few runs of its module's tests, not a fixed wait.  Never run two of
these at once: each pytest process is as large as the suite, and
another process would slow the runs that set the limits.

    python tests/mutate.py abelian spin        # every site of both
    python tests/mutate.py --list spin         # the sites, not run

Each mutant prints one line, `killed`, `timeout` or `SURVIVED`, with its
site as module:line:column; the last lines list the survivors.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a mutant's pytest run may take this many times as long as the same
# tests took on the unmutated copy
SLOWDOWN = 10

# the test files that a module's mutants run against first
COVER = {
    "abelian": ["test_abelian.py", "test_fpgroup.py", "test_seifert.py",
                "test_spin.py", "test_acceptance.py"],
    "spin": ["test_spin.py", "test_seifert.py", "test_acceptance.py",
             "test_glued_family.py", "test_glued_oracle.py",
             "test_f2_oracle.py"],
    "seifert": ["test_seifert.py", "test_spin.py", "test_acceptance.py",
                "test_glued_family.py", "test_glued_oracle.py",
                "test_f2_oracle.py"],
    "exact": ["test_exact.py", "test_exact_arithmetic.py",
              "test_snf_digests.py", "test_seifert.py"],
    "model": ["test_model.py", "test_surgery.py", "test_acceptance.py"],
    "fpgroup": ["test_fpgroup.py", "test_coset_golden.py",
                "test_word_oracle.py"],
}

NEGATED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE,
           ast.LtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mod,
           ast.Mod: ast.FloorDiv}


def sites(tree) -> list[tuple]:
    """(node, k) for each mutable site of tree, in ast.walk order; k is
    the operator's index in a comparison, else None."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            out.extend((node, k) for k, op in enumerate(node.ops)
                       if type(op) in NEGATED)
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPPED:
            out.append((node, None))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, None))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((node, None))
    return out


def _change(node, k) -> None:
    if isinstance(node, ast.Compare):
        node.ops[k] = NEGATED[type(node.ops[k])]()
    elif isinstance(node, ast.BinOp):
        node.op = SWAPPED[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.operand = ast.UnaryOp(ast.Not(), node.operand)


def _short(node) -> str:
    text = ast.unparse(node)
    return text if len(text) <= 60 else text[:57] + "..."


def mutant(source: str, n: int) -> tuple[str, str]:
    """(description, source) of the module source with its n-th site
    changed."""
    tree = ast.parse(source)
    node, k = sites(tree)[n]
    before = _short(node)
    _change(node, k)
    where = f"{node.lineno}:{node.col_offset}"
    return f"{where} {before} -> {_short(node)}", ast.unparse(tree)


def _pytest(repo: Path, tests: list[str], timeout: float | None) -> str:
    """killed, timeout or passed: one pytest process over tests, in its
    own process group, so that a timeout ends whatever it started; no
    timeout waits for it to end."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a rewritten module is read anew
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=repo, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    return "passed" if code == 0 else "killed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("modules", nargs="+", choices=sorted(COVER))
    ap.add_argument("--list", action="store_true",
                    help="print the sites and run nothing")
    args = ap.parse_args(argv)

    plan = []
    for module in args.modules:
        source = (ROOT / "src" / "orbkit" / f"{module}.py").read_text()
        count = len(sites(ast.parse(source)))
        print(f"{module}: {count} sites", flush=True)
        plan.extend((module, source, n) for n in range(count))
    if args.list:
        for module, source, n in plan:
            print(f"{module}:{mutant(source, n)[0]}")
        return 0

    survivors = []
    with tempfile.TemporaryDirectory(prefix="orbkit-mutate-") as work:
        repo = Path(work) / "repo"
        shutil.copytree(ROOT, repo, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".perfbench_out"))
        # the unmutated runs set the time limits, so that a timeout too
        # means the mutant was caught
        limit = {}
        for key in [*args.modules, "tests"]:
            tests = ["tests"] if key == "tests" else [
                f"tests/{name}" for name in COVER[key]]
            start = time.monotonic()
            if _pytest(repo, tests, None) != "passed":
                print("the unmutated copy fails: " + " ".join(tests),
                      file=sys.stderr)
                return 1
            limit[key] = SLOWDOWN * (time.monotonic() - start)
            print(f"{key}: {limit[key] / SLOWDOWN:.1f} s unmutated, "
                  f"limit {limit[key]:.0f} s", flush=True)
        for module, source, n in plan:
            path = repo / "src" / "orbkit" / f"{module}.py"
            what, changed = mutant(source, n)
            path.write_text(changed)
            try:
                tests = [f"tests/{name}" for name in COVER[module]]
                status = _pytest(repo, tests, limit[module])
                if status == "passed":
                    status = _pytest(repo, ["tests"], limit["tests"])
            finally:
                path.write_text(source)
            if status == "passed":
                status = "SURVIVED"
                survivors.append(f"{module}:{what}")
            print(f"{status:8} {module}:{what}", flush=True)
    print(f"{len(plan)} mutants, {len(survivors)} survived", flush=True)
    for line in survivors:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
