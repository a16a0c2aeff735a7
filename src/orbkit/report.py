"""Pipeline orchestration and report emission.

run_pipeline drives a Scenario end to end.  It reads the configuration
and surgery log the scenario built (Scenario.built) and validates the
configuration: one that fails validation stops there, at `config_valid:
fail` with its violations, since every later stage assumes a valid one.
Then one loop runs the stages in order, local_invariants, seifert and
fundamental_group.  Each fills its fields of the Report and yields its
verdicts, and the loop appends them; anything a stage raises is that
stage's PipelineError, so the loop is the one place that names a failed
stage after the build (built).  The seifert stage takes the requested
background class, or gives each 0/1 assignment of w2's unknowns the
first class that serves it, all from one walk, and evaluates the H_1 /
H_2 / spin / classifying invariants; a walk that leaves an assignment
without a class in range is the verdict `background_class:
inconclusive`, and the fundamental_group stage, which
does not depend on c1(B), still enumerates the orbifold fundamental
group of the full glued space.  It reads the H_1 decision the seifert
stage made.  The Report carries every verdict together with the
evidence behind it.
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


def _status(ok: bool) -> str:
    return PASS if ok else FAIL


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


def _local_invariants(report: Report, p):
    """The local invariants of each point, and the even-point bound at
    the isotropy prime p of a builtin."""
    cfg = report.config
    report.local_invariants = assign_local_invariants(cfg)
    yield "local_invariants_compatible", _status(all(
        check_compatibility(pli, cfg.surface(sid))
        for pli in report.local_invariants.values() for sid in pli.incident))
    if p is not None:
        report.even_bound = (p, check_even_point_bound(cfg, p))
        yield "even_point_bound", _status(report.even_bound[1])


def _seifert(report: Report, request):
    """H_1 of the total space over the requested or searched background
    class, and where it vanishes the spin type, H_2 and the Smale-Barden
    data."""
    if request is None:
        return
    cfg = report.config
    lattice = seifert.Lattice.of(cfg)
    names = lattice.w2.unknown_names()
    _check_request(request, cfg.b2, names)
    assignments = spin.assignments(names)
    if request.spin_unknowns is not None:
        assignments = [tuple(sorted(request.spin_unknowns.items()))]
    # True asks for spin, False for nonspin, None for either
    want = {"spin": True, "nonspin": False}.get(request.spin_target)
    if request.c1B != "search":
        specs = [lattice.spec(request.c1B)] * len(assignments)
    else:
        # a class serves an assignment when it gives the spin type want
        # asks for, or fails H_1 = 0, on which no spin type is decided
        # and the h1_zero verdict fails
        specs = seifert.search_background_class(lattice, assignments, (
            lambda spec, a: want is None or not spec.h1.holds
            or spin.spin_decision(spec, dict(a)) == want))
    if specs is None:
        # no class in range: the pi_1 stage, which does not depend on
        # c1(B), still runs
        yield "background_class", INCONCLUSIVE
        if want is not None:
            yield "spin_target", INCONCLUSIVE
        return
    # H_1 = 0 is decided first: the spin decision presumes it
    report.h1 = seifert.h1_zero_decision(specs[0])
    report.scaled_chern = seifert.scaled_chern_class(specs[0])
    yield "h1_zero", _status(report.h1.holds)
    if not report.h1.holds:
        return
    report.h2 = seifert.h2_of_M(specs[0])
    # H_2(M) does not depend on c1(B): the datum depends only on the spin
    # bit
    data = {}
    for a, spec in zip(assignments, specs):
        is_spin = spin.spin_decision(spec, dict(a))
        if is_spin not in data:
            data[is_spin] = spin.smale_barden_report(spec, is_spin)
        report.spin_entries.append(SpinEntry(
            a, spec.c1B, is_spin, spin.gk_check(data[is_spin])))
    report.smale_barden = data[report.spin_entries[0].is_spin]
    yield "gk_condition", _status(all(e.gk_ok for e in report.spin_entries))
    if want is not None:
        yield "spin_target", _status(
            all(e.is_spin == want for e in report.spin_entries))


def _fundamental_group(report: Report, p, coset_bound):
    """The coset enumeration of the orbifold fundamental group of glued_Z
    at p, and with the H_1 decision whether the total space is simply
    connected."""
    if p is None:
        return
    pres = fpgroup.build_pi1_orb_presentation(p)
    report.pi1_abelianization = fpgroup.abelianize(pres)
    result = fpgroup.coset_enumerate(pres, max_cosets=coset_bound)
    report.pi1_status = result.status
    if not result.is_complete():
        yield "pi1_index_divides_4", INCONCLUSIVE
        return
    ok = 4 % result.status.index == 0
    yield "pi1_index_divides_4", _status(ok)
    if ok and report.h1 is not None:
        report.simply_connected = fpgroup.simply_connected_decision(
            result, report.h1.holds)
        yield "simply_connected", _status(report.simply_connected)


def run_pipeline(scn: Scenario,
                 coset_bound: int = fpgroup.COSET_BOUND) -> Report:
    cfg, log = built(scn)
    name, p = scn.builtin or ("explicit", None)
    label = name if p is None else f"{name} p={p}"

    violations = validate_config(cfg)
    report = Report(label, cfg, violations, {}, None, log)
    report.verdicts.append(("config_valid", _status(not violations)))
    if violations:  # every later stage assumes a valid configuration
        return report
    request = scn.seifert
    if request is None and p is not None:
        request = SeifertRequest()
    # in this order: the pi_1 stage reads the H_1 decision of the Seifert
    # stage
    for stage, run, args in (("local_invariants", _local_invariants, (p,)),
                             ("seifert", _seifert, (request,)),
                             ("fundamental_group", _fundamental_group,
                              (p, coset_bound))):
        try:
            report.verdicts.extend(run(report, *args))
        except Exception as exc:  # noqa: BLE001 - stage attribution
            raise PipelineError(stage, exc) from exc
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
               f"gk {_status(e.gk_ok)}")
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
