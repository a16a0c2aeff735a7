"""Pipeline orchestration and report emission.

run_pipeline drives a Scenario end to end: build the configuration
(builtin or script), validate it, assign local invariants, pick or
search a background class, evaluate the H_1 / H_2 / spin / classifying
invariants, and (for the full glued space) enumerate the orbifold
fundamental group.  The Report carries every verdict together with the
evidence behind it and renders deterministically in a human or a
golden-file-friendly structured format.
"""

from __future__ import annotations

from . import fpgroup, seifert, spin, surgery
from .model import (
    assign_local_invariants,
    check_compatibility,
    check_even_point_bound,
    validate_config,
)
from .record import field, record
from .scenario import SCRIPT_OPS, Scenario, SeifertRequest

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
    compatibility_ok: bool
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


def _run_script(cfg, script, log):
    for op in script:
        rule = SCRIPT_OPS[op.op]
        cfg = getattr(surgery, rule.move)(cfg, log=log,
                                          **rule.kwargs(op.args))
    return cfg


def build(scn: Scenario, log=None):
    """The build stage: (config, label, prime or None) of a scenario."""
    try:
        if scn.builtin is not None:
            name, p = scn.builtin
            if name == "block_Y":
                return surgery.build_block_Y(), "block_Y", None
            if name == "block_W":
                return surgery.build_block_W(log=log), "block_W", None
            return surgery.build_Z(p, log=log), f"glued_Z p={p}", p
        return (_run_script(scn.config.copy(), scn.script, log), "explicit",
                None)
    except Exception as exc:  # noqa: BLE001 - stage attribution
        raise PipelineError("build", exc) from exc


def _spin_predicate(assignment, spin_target):
    """accept(lattice, c1B): c1B gives the spin type asked for."""
    want = {"spin": True, "nonspin": False}.get(spin_target)
    return lambda lattice, c1B: want is None or spin.spin_decision(
        lattice.spec(c1B), dict(assignment)) == want


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


def run_pipeline(scn: Scenario, coset_bound: int = 10000,
                 search_bound: int = 4, max_l1: int = 2) -> Report:
    log = surgery.SurgeryLog()
    cfg, label, p = build(scn, log)

    violations = validate_config(cfg)
    try:
        invariants = assign_local_invariants(cfg)
    except Exception as exc:
        raise PipelineError("local_invariants", exc) from exc
    compatibility_ok = all(
        not pli.violations()
        and all(check_compatibility(pli, cfg.surface(sid))
                for sid in pli.incident)
        for pli in invariants.values())
    even_bound = (p, check_even_point_bound(cfg, p)) if p else None

    report = Report(label, cfg, violations, invariants, compatibility_ok,
                    even_bound, log)
    report.verdicts.append(("config_valid",
                            PASS if not violations else FAIL))
    report.verdicts.append(("local_invariants_compatible",
                            PASS if compatibility_ok else FAIL))
    if even_bound is not None:
        report.verdicts.append(("even_point_bound",
                                PASS if even_bound[1] else FAIL))

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
                    lattice, _spin_predicate(a, request.spin_target),
                    search_bound, max_l1) for a in assignments]
            else:
                specs = [lattice.spec(request.c1B)] * len(assignments)
            # H_1 = 0 is decided first: the spin decision presumes it
            report.h1 = seifert.h1_zero_decision(specs[0])
            report.scaled_chern = seifert.scaled_chern_class(specs[0])
            entries = [(a, spec, spin.spin_decision(spec, dict(a)))
                       for a, spec in zip(assignments, specs)
                       if report.h1.holds]
        except seifert.NotFound:
            report.verdicts.append(("background_class", INCONCLUSIVE))
            if request.spin_target != "any":
                report.verdicts.append(("spin_target", INCONCLUSIVE))
            return report
        except Exception as exc:
            raise PipelineError("seifert", exc) from exc

        report.verdicts.append(("h1_zero",
                                PASS if report.h1.holds else FAIL))
        if report.h1.holds:
            report.h2 = seifert.h2_of_M(specs[0])
            for assignment, spec, is_spin in entries:
                sb = spin.smale_barden_report(spec, is_spin)
                report.spin_entries.append(SpinEntry(
                    assignment, spec.c1B, is_spin, spin.gk_check(sb)))
                if report.smale_barden is None:
                    report.smale_barden = sb
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


def _surface_rows(cfg):
    for s in cfg.surfaces:
        yield (s.id, s.genus, s.multiplicity, s.local_j,
               str(s.self_intersection))


def emit_report(report: Report, format: str = "human") -> str:
    if format == "structured":
        return _emit_structured(report)
    if format == "human":
        return _emit_human(report)
    raise ValueError(f"unknown format {format!r}")


def _emit_structured(report: Report) -> str:
    lines = ["orbkit-report v1",
             f"scenario = {report.scenario_label}"]
    cfg = report.config
    lines += [f"config.euler = {cfg.euler}", f"config.b1 = {cfg.b1}",
              f"config.b2 = {cfg.b2}",
              f"config.points = {len(cfg.points)}"]
    for row in _surface_rows(cfg):
        lines.append("surface.%s = genus %d mult %d j %d self %s" % row)
    for pid in sorted(report.local_invariants):
        pli = report.local_invariants[pid]
        lines.append(f"local.{pid} = m {pli.m} j1 {pli.j1} j2 {pli.j2}")
    for name, status in report.verdicts:
        lines.append(f"verdict.{name} = {status}")
    lines.append(f"violations = {len(report.violations)}")
    for v in report.violations:
        lines.append(f"violation = {v}")
    if report.even_bound is not None:
        lines.append(f"even_bound.p = {report.even_bound[0]}")
    if report.h1 is not None:
        lines += [f"h1.b1_zero = {report.h1.b1_zero}",
                  f"h1.surjective = {report.h1.surjective}",
                  f"h1.primitive = {report.h1.primitive}",
                  f"h1.holds = {report.h1.holds}"]
        lines.append("chern.scaled = " + " ".join(
            str(x) for x in report.scaled_chern.entries))
    if report.h2 is not None:
        lines.append(f"h2.rank = {report.h2.rank}")
        lines.append("h2.invariant_factors = " + " ".join(
            str(d) for d in report.h2.invariant_factors))
    for e in report.spin_entries:
        key = ",".join(f"{n}={b}" for n, b in e.assignment) or "-"
        lines.append(
            f"spin.{key} = c1B {' '.join(str(x) for x in e.c1B)} | "
            f"{'spin' if e.is_spin else 'nonspin'} | "
            f"gk {'pass' if e.gk_ok else 'fail'}")
    if report.smale_barden is not None:
        sb = report.smale_barden
        lines.append(f"smale_barden.k = {sb.k}")
        lines.append("smale_barden.torsion = " + " ".join(
            f"{p}^{i}:{c}" for (p, i), c in sb.torsion_profile))
        lines.append(f"smale_barden.t_max = {sb.t_max}")
        lines.append(f"smale_barden.c_max = {sb.c_max}")
    if report.pi1_status is not None:
        lines.append(f"pi1.status = {report.pi1_status}")
        lines.append(f"pi1.abelianization = {report.pi1_abelianization}")
    if report.simply_connected is not None:
        lines.append(f"pi1.simply_connected = {report.simply_connected}")
    lines.append(f"surgery.steps = {len(report.surgery_log.entries)}")
    for entry in report.surgery_log.entries:
        lines.append(f"surgery.step = {entry.op} "
                     f"{entry.before} -> {entry.after}")
    return "\n".join(lines) + "\n"


def _emit_human(report: Report) -> str:
    cfg = report.config
    lines = [f"Scenario: {report.scenario_label}",
             f"  euler {cfg.euler}, b1 {cfg.b1}, b2 {cfg.b2}, "
             f"{len(cfg.points)} singular point(s)", "",
             "  id     genus mult      j  self"]
    for sid, g, m, j, sq in _surface_rows(cfg):
        lines.append(f"  {sid:<8} {g:>3} {m:>6} {j:>4}  {sq}")
    if report.local_invariants:
        lines += ["", "Local invariants:"]
        for pid in sorted(report.local_invariants):
            pli = report.local_invariants[pid]
            lines.append(f"  {pid}: (m, j1, j2) = "
                         f"({pli.m}, {pli.j1}, {pli.j2})")
    if report.violations:
        lines += ["", "Violations:"]
        lines += [f"  {v}" for v in report.violations]
    if report.h1 is not None:
        lines += ["", f"H1 = 0 criteria: b1_zero={report.h1.b1_zero} "
                      f"surjective={report.h1.surjective} "
                      f"primitive={report.h1.primitive} "
                      f"=> holds={report.h1.holds}"]
    if report.h2 is not None:
        lines.append(f"H2(M) = {report.h2}")
    if report.spin_entries:
        lines += ["", "Spin (per unknown assignment):"]
        for e in report.spin_entries:
            key = ", ".join(f"{n}={b}" for n, b in e.assignment) or "-"
            lines.append(f"  [{key}] c1B={list(e.c1B)} -> "
                         f"{'spin' if e.is_spin else 'non-spin'}"
                         f" (gk {'ok' if e.gk_ok else 'FAIL'})")
    if report.smale_barden is not None:
        sb = report.smale_barden
        lines += ["", f"Classifying data: b2(M)={sb.k}, t_max={sb.t_max}, "
                      f"c_max={sb.c_max}"]
    if report.pi1_status is not None:
        lines += ["", f"Orbifold fundamental group: {report.pi1_status}, "
                      f"abelianization {report.pi1_abelianization}"]
    if report.simply_connected is not None:
        lines.append(f"Total space simply connected: "
                     f"{report.simply_connected}")
    lines += ["", "Verdicts:"]
    lines += [f"  {name}: {status}" for name, status in report.verdicts]
    return "\n".join(lines) + "\n"
