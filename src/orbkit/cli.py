"""Command-line driver.

Verbs:
  build      build a scenario's configuration, validate and print it,
             with its violations
  verify     run the pipeline; exit 0 only if every verdict passes
  report     run the pipeline and print the full report in the layout
             --format names (only report takes --format)
  enumerate  standalone fundamental-group tools

Exit codes: 0 all requested verdicts hold; 1 a verdict fails or a stage
errs; 2 input error: a bad flag or file, a scenario line that does not
parse or whose surgery move refuses it (`line N: <reason>`), or a stage
that lacks input the scenario cannot give; 3 inconclusive (enumeration
or search exhausted).
"""

from __future__ import annotations

import argparse
import sys

from . import fpgroup, report as report_mod, seifert
from .model import validate_config
from .scenario import (
    BUILTINS,
    ParseError,
    Scenario,
    SeifertRequest,
    SPIN_TARGETS,
    check_prime,
    parse_scenario,
)

EXIT_OK, EXIT_FAIL, EXIT_INPUT, EXIT_INCONCLUSIVE = 0, 1, 2, 3
# pipeline errors caused by data the scenario does not give (the grammar
# cannot declare an H_2 basis or pairing, and every surgery move clears
# one) or gives in a form the built configuration does not fit
INPUT_ERRORS = (seifert.MissingIntegralPairing, seifert.MissingQClass,
                report_mod.RequestError)


class InputError(ValueError):
    """Command-line input that names no line of a file: exit 2."""


def prime(text: str) -> int:
    """argparse type of --prime: a prime p, 2 <= p <= MAX_PRIME."""
    p = int(text)
    try:
        check_prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return p


def at_least(low: int):
    """argparse type of an integer flag that must be >= low."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(
                f"{text} is not an integer >= {low}")
        return n
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_input_args(sub):
    sub.add_argument("scenario", nargs="?",
                     help="scenario file (omit to use --builtin)")
    sub.add_argument("--builtin", choices=BUILTINS,
                     help="use a named builtin instead of a scenario file")
    sub.add_argument("--prime", type=prime,
                     help="isotropy prime p for glued_Z (default 3)")


def _add_pipeline_args(sub):
    _add_input_args(sub)
    sub.add_argument("--spin-target", choices=SPIN_TARGETS, default="any",
                     help="require the searched background class to give "
                          "a spin / non-spin total space")
    sub.add_argument("--coset-bound", type=at_least(1),
                     default=fpgroup.COSET_BOUND,
                     help="cosets the enumeration may define")


def _load_scenario(args, spin_target="any") -> Scenario:
    if args.scenario and args.builtin:
        raise InputError("give a scenario file or --builtin, not both")
    name = None if args.scenario else args.builtin or "glued_Z"
    for flag, given in (("--prime", args.prime is not None),
                        ("--spin-target", spin_target != "any")):
        if given and name != "glued_Z":
            raise InputError(f"{flag} applies to --builtin glued_Z only")
    if args.scenario:
        with open(args.scenario, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise InputError(f"{args.scenario}: byte {exc.start} is not "
                                 "UTF-8") from None
        return parse_scenario(text)
    if name != "glued_Z":
        return Scenario(builtin=(name, None))
    return Scenario(builtin=(name, args.prime or 3),
                    seifert=SeifertRequest(spin_target=spin_target))


def _run(args):
    scn = _load_scenario(args, args.spin_target)
    return report_mod.run_pipeline(scn, coset_bound=args.coset_bound)


def _cmd_build(args) -> int:
    cfg, _ = report_mod.built(_load_scenario(args))
    print(f"euler = {cfg.euler}")
    print(f"b1 = {cfg.b1}")
    print(f"b2 = {cfg.b2}")
    print(f"points = {len(cfg.points)}")
    for s in cfg.surfaces:
        print(f"surface {s.id}: genus {s.genus} mult {s.multiplicity} "
              f"j {s.local_j} self {s.self_intersection}")
    violations = validate_config(cfg)
    for v in violations:
        print(f"violation = {v}")
    return EXIT_FAIL if violations else EXIT_OK


def _cmd_verify(args) -> int:
    rep = _run(args)
    for name, status in rep.verdicts:
        print(f"{name}: {status}")
    return rep.exit_code()


def _cmd_report(args) -> int:
    rep = _run(args)
    sys.stdout.write(report_mod.emit_report(rep, format=args.format))
    return rep.exit_code()


def _cmd_enumerate(args) -> int:
    pres = fpgroup.build_pi1_orb_presentation(args.prime)
    print(f"generators: {' '.join(pres.generators)}")
    print(f"relators: {len(pres.relators)}")
    print(f"abelianization: {fpgroup.abelianize(pres)}")
    result = fpgroup.coset_enumerate(pres, max_cosets=args.coset_bound)
    print(f"coset enumeration: {result.status}")
    print(f"cosets defined: {result.defined}, "
          f"coincidences: {result.coincidences}")
    if args.dump_table and result.is_complete():
        for i, row in enumerate(result.table):
            print(f"  coset {i}: {row}")
    return EXIT_OK if result.is_complete() else EXIT_INCONCLUSIVE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbkit",
        description="Exact invariants of cyclic 4-orbifolds and their "
                    "Seifert circle bundles.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, add_args in (("build", _cmd_build, _add_input_args),
                               ("verify", _cmd_verify, _add_pipeline_args),
                               ("report", _cmd_report, _add_pipeline_args)):
        sub = subs.add_parser(name)
        add_args(sub)
        sub.set_defaults(fn=fn)
        if name == "report":
            sub.add_argument("--format", choices=("human", "structured"),
                             default="human")
    enum = subs.add_parser("enumerate")
    enum.add_argument("--prime", type=prime, default=3)
    enum.add_argument("--coset-bound", type=at_least(1),
                      default=fpgroup.COSET_BOUND,
                      help="cosets the enumeration may define")
    enum.add_argument("--dump-table", action="store_true")
    enum.set_defaults(fn=_cmd_enumerate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except report_mod.PipelineError as exc:
        # a cause such as MemoryError() has no message: name its type
        cause = str(exc.cause) or type(exc.cause).__name__
        print(f"error: stage {exc.stage}: {cause}", file=sys.stderr)
        bad_input = isinstance(exc.cause, INPUT_ERRORS)
        return EXIT_INPUT if bad_input else EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
