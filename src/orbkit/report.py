"""Pipeline orchestration and report emission.

run_pipeline drives a Scenario end to end: read the configuration and
surgery log the scenario built (Scenario.built), validate it, assign
local invariants, pick or search a background class, evaluate the
H_1 / H_2 / spin / classifying invariants, and (for the full glued
space) enumerate the orbifold fundamental group.  A configuration that
fails validation stops there, at `config_valid: fail` with its
violations, since every later stage assumes a valid one; a
background-class search that finds nothing in range leaves the
fundamental-group stage, which does not depend on c1(B), running.  The
Report carries every verdict together with the evidence behind it.
_rows lists it as (key, value) rows, and both formats print those rows
in that order: structured as `key = value` under an `orbkit-report v1`
header, human with the rows of each key's first dotted part under a
`head:` line, each as `  rest: value`, and a key with no dot as
`key: value`.
"""

from __future__ import annotations

from . import fpgroup, seifert, spin
from .model import (
    assign_local_invariants,
    check_compatibility,
    check_even_point_bound,
    validate_config,
)
from .record import field, record
from .scenario import Scenario, SeifertRequest

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


class RequestError(ValueError):
    """A [seifert] request that does not fit the configuration built."""


class PipelineError(Exception):
    """A stage failed; the stage name is attached."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@record
class SpinEntry:
    assignment: tuple  # sorted (name, bit) pairs
    c1B: tuple[int, ...]
    is_spin: bool
    gk_ok: bool


@record
class Report:
    scenario_label: str
    config: object
    violations: list
    local_invariants: dict
    even_bound: object  # (prime, bool) or None
    surgery_log: object
    h1: object = None
    h2: object = None
    scaled_chern: object = None
    spin_entries: list[SpinEntry] = field(default_factory=list)
    smale_barden: object = None
    pi1_status: object = None
    pi1_abelianization: object = None
    simply_connected: object = None
    verdicts: list = field(default_factory=list)

    def exit_code(self) -> int:
        statuses = [status for _, status in self.verdicts]
        if FAIL in statuses:
            return 1
        if INCONCLUSIVE in statuses:
            return 3
        return 0


def _spin_predicate(assignment, spin_target):
    """accept(lattice, c1B): c1B gives the spin type asked for, or fails
    H_1 = 0, on which no spin type is decided and the h1_zero verdict
    fails."""
    want = {"spin": True, "nonspin": False}.get(spin_target)

    def accept(lattice, c1B):
        if want is None:
            return True
        spec = lattice.spec(c1B)
        return (not spec.h1.holds
                or spin.spin_decision(spec, dict(assignment)) == want)
    return accept


def _check_request(request: SeifertRequest, b2: int, names) -> None:
    """Raise RequestError unless an explicit c1B has b2 entries and
    spin_unknowns, when given, names each unknown of w2 exactly."""
    if request.c1B != "search" and len(request.c1B) != b2:
        raise RequestError(f"c1B has {len(request.c1B)} entries, b2 = {b2}")
    given = request.spin_unknowns
    if given is not None and set(given) != set(names):
        raise RequestError(
            f"spin_unknowns names {' '.join(sorted(given)) or 'nothing'}; "
            f"the unknowns of w2 are {' '.join(names) or 'none'}")


def built(scn: Scenario):
    """scn.built, with anything its build raises as the build stage's
    PipelineError."""
    try:
        return scn.built
    except Exception as exc:  # noqa: BLE001 - stage attribution
        raise PipelineError("build", exc) from exc


def run_pipeline(scn: Scenario,
                 coset_bound: int = fpgroup.COSET_BOUND) -> Report:
    cfg, log = built(scn)
    name, p = scn.builtin or ("explicit", None)
    label = name if p is None else f"{name} p={p}"

    violations = validate_config(cfg)
    report = Report(label, cfg, violations, {}, None, log)
    report.verdicts.append(("config_valid",
                            PASS if not violations else FAIL))
    if violations:  # every later stage assumes a valid configuration
        return report
    try:
        report.local_invariants = assign_local_invariants(cfg)
    except Exception as exc:
        raise PipelineError("local_invariants", exc) from exc
    compatibility_ok = all(check_compatibility(pli, cfg.surface(sid))
                           for pli in report.local_invariants.values()
                           for sid in pli.incident)
    report.verdicts.append(("local_invariants_compatible",
                            PASS if compatibility_ok else FAIL))
    if p is not None:
        report.even_bound = (p, check_even_point_bound(cfg, p))
        report.verdicts.append(("even_point_bound",
                                PASS if report.even_bound[1] else FAIL))

    request = scn.seifert
    if request is None and p is not None:
        request = SeifertRequest()
    if request is not None:
        try:
            lattice = seifert.Lattice.of(cfg)
            names = lattice.w2.unknown_names()
            _check_request(request, cfg.b2, names)
            assignments = spin.assignments(names)
            if request.spin_unknowns is not None:
                assignments = [tuple(sorted(request.spin_unknowns.items()))]
            if request.c1B == "search":
                specs = [seifert.search_background_class(
                    lattice, _spin_predicate(a, request.spin_target))
                    for a in assignments]
            else:
                specs = [lattice.spec(request.c1B)] * len(assignments)
            # H_1 = 0 is decided first: the spin decision presumes it
            report.h1 = seifert.h1_zero_decision(specs[0])
            report.scaled_chern = seifert.scaled_chern_class(specs[0])
            entries = [(a, spec, spin.spin_decision(spec, dict(a)))
                       for a, spec in zip(assignments, specs)
                       if report.h1.holds]
        except seifert.NotFound:
            # no class in range: the pi_1 stage, which does not depend
            # on c1(B), still runs
            report.verdicts.append(("background_class", INCONCLUSIVE))
            if request.spin_target != "any":
                report.verdicts.append(("spin_target", INCONCLUSIVE))
        except Exception as exc:
            raise PipelineError("seifert", exc) from exc
        else:
            report.verdicts.append(("h1_zero",
                                    PASS if report.h1.holds else FAIL))
            if report.h1.holds:
                report.h2 = seifert.h2_of_M(specs[0])
                # H_2(M) does not depend on c1(B): the datum depends only
                # on the spin bit
                data = {}
                for assignment, spec, is_spin in entries:
                    if is_spin not in data:
                        data[is_spin] = spin.smale_barden_report(spec, is_spin)
                    report.spin_entries.append(SpinEntry(
                        assignment, spec.c1B, is_spin,
                        spin.gk_check(data[is_spin])))
                report.smale_barden = data[report.spin_entries[0].is_spin]
                gk_all = all(e.gk_ok for e in report.spin_entries)
                report.verdicts.append(("gk_condition",
                                        PASS if gk_all else FAIL))
                if request.spin_target != "any":
                    want = request.spin_target == "spin"
                    met = all(e.is_spin == want for e in report.spin_entries)
                    report.verdicts.append(("spin_target",
                                            PASS if met else FAIL))

    if p is not None:
        try:
            pres = fpgroup.build_pi1_orb_presentation(p)
            report.pi1_abelianization = fpgroup.abelianize(pres)
            result = fpgroup.coset_enumerate(pres, max_cosets=coset_bound)
        except Exception as exc:
            raise PipelineError("fundamental_group", exc) from exc
        report.pi1_status = result.status
        if result.is_complete():
            ok = 4 % result.status.index == 0
            report.verdicts.append(("pi1_index_divides_4",
                                    PASS if ok else FAIL))
            if ok and report.h1 is not None:
                report.simply_connected = fpgroup.simply_connected_decision(
                    result, report.h1.holds)
                report.verdicts.append((
                    "simply_connected",
                    PASS if report.simply_connected else FAIL))
        else:
            report.verdicts.append(("pi1_index_divides_4", INCONCLUSIVE))
    return report


# -- emission -----------------------------------------------------------


def _joined(items) -> str:
    return " ".join(str(x) for x in items)


def _rows(report: Report):
    """The (key, value) rows of a report, in the order both formats print
    them."""
    cfg = report.config
    yield "scenario", report.scenario_label
    yield "config.euler", cfg.euler
    yield "config.b1", cfg.b1
    yield "config.b2", cfg.b2
    yield "config.points", len(cfg.points)
    for s in cfg.surfaces:
        yield (f"surface.{s.id}", f"genus {s.genus} mult {s.multiplicity} "
               f"j {s.local_j} self {s.self_intersection}")
    for pid in sorted(report.local_invariants):
        pli = report.local_invariants[pid]
        yield f"local.{pid}", f"m {pli.m} j1 {pli.j1} j2 {pli.j2}"
    for name, status in report.verdicts:
        yield f"verdict.{name}", status
    yield "violations", len(report.violations)
    for v in report.violations:
        yield "violation", v
    if report.even_bound is not None:
        yield "even_bound.p", report.even_bound[0]
    if report.h1 is not None:
        for name in ("b1_zero", "surjective", "primitive", "holds"):
            yield f"h1.{name}", getattr(report.h1, name)
        yield "chern.scaled", _joined(report.scaled_chern.entries)
    if report.h2 is not None:
        yield "h2.rank", report.h2.rank
        yield "h2.invariant_factors", _joined(report.h2.invariant_factors)
    for e in report.spin_entries:
        key = ",".join(f"{n}={b}" for n, b in e.assignment) or "-"
        yield (f"spin.{key}", f"c1B {_joined(e.c1B)} | "
               f"{'spin' if e.is_spin else 'nonspin'} | "
               f"gk {PASS if e.gk_ok else FAIL}")
    sb = report.smale_barden
    if sb is not None:
        yield "smale_barden.k", sb.k
        yield "smale_barden.torsion", _joined(
            f"{p}^{i}:{c}" for (p, i), c in sb.torsion_profile)
        yield "smale_barden.t_max", sb.t_max
        yield "smale_barden.c_max", sb.c_max
    if report.pi1_status is not None:
        yield "pi1.status", report.pi1_status
        yield "pi1.abelianization", report.pi1_abelianization
    if report.simply_connected is not None:
        yield "pi1.simply_connected", report.simply_connected
    yield "surgery.steps", len(report.surgery_log.entries)
    for entry in report.surgery_log.entries:
        yield "surgery.step", f"{entry.op} {entry.before} -> {entry.after}"


def emit_report(report: Report, format: str = "human") -> str:
    """The rows of _rows in the layout of format (see the module
    docstring)."""
    if format == "structured":
        lines = ["orbkit-report v1"]
        lines += [f"{key} = {value}" for key, value in _rows(report)]
    elif format == "human":
        lines, last = [], None
        for key, value in _rows(report):
            head, dot, rest = key.partition(".")
            if dot and head != last:
                lines.append(f"{head}:")
            lines.append(f"  {rest}: {value}" if dot else f"{key}: {value}")
            last = head
    else:
        raise ValueError(f"unknown format {format!r}")
    return "\n".join(lines) + "\n"
