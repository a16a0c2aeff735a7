import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

from orbkit import surgery
from orbkit.exact import IntMatrix, congruence_diagonal
from orbkit.model import (
    IntersectionEvent,
    OrbifoldConfig,
    SingularPointData,
    SurfaceData,
    UnsupportedGeometry,
    validate_config,
)
from orbkit.record import FrozenRecordError, replace
from orbkit.report import run_pipeline
from orbkit.scenario import (
    SCRIPT_OPS,
    ParseError,
    Scenario,
    emit_scenario,
    parse_scenario,
)
from orbkit.surgery import (
    GenusMismatch,
    GluingPlan,
    MeetsSingularPoint,
    NormalBundleObstruction,
    NotMinusTwoSphere,
    NotSingleIntersection,
    NotSmoothPoint,
    NotTorus,
    PlanInconsistent,
    SurgeryLog,
    UnmatchedSingularPoint,
    assign_isotropy,
    blow_down_minus2,
    blow_up,
    build_block_W,
    build_block_Y,
    build_Z,
    gompf_fiber_sum,
    replay,
    resolve_torus_pair,
)
from test_cli_verify_outputs import SEEDS, workloads
from test_exact import _inertia


def _add(cfg, **records):
    """cfg with these records after its own, by kind: surfaces=[...],
    points=[...] or events=[...]."""
    return replace(cfg, **{kind: (*getattr(cfg, kind), *added)
                           for kind, added in records.items()})


def _crossings(cfg, *pairs):
    """[events=...] of _add: one smooth crossing of each (a, b), with the
    ids ev1, ev2, ... after cfg's own events."""
    n = len(cfg.events)
    return [IntersectionEvent(f"ev{n + k}", a, b)
            for k, (a, b) in enumerate(pairs, start=1)]


def _edit(cfg, rid, **changes):
    """cfg with these fields changed in its surface, point or event
    whose id is rid."""
    return replace(cfg, **{kind: tuple(
        replace(r, **changes) if r.id == rid else r for r in getattr(cfg, kind))
        for kind in ("surfaces", "points", "events")})


def _cp2_with_cubic():
    return OrbifoldConfig(
        (SurfaceData("C", 1, self_intersection=Fraction(9)),), b1=0, b2=1)


def _cp2_with_lines():
    """The P^2 that build_block_W starts from: the cubic C and two lines
    L, L' through a common point of C."""
    return _add(_cp2_with_cubic(), surfaces=[
        SurfaceData("L", 0, self_intersection=Fraction(1)),
        SurfaceData("Lp", 0, self_intersection=Fraction(1))], events=[
        *(IntersectionEvent(f"{name}_{k}", "C", other) for k in range(3)
          for name, other in (("cl", "L"), ("clp", "Lp"))),
        IntersectionEvent("llp_0", "L", "Lp")])


# each stage of block W -> the number of steps of build_block_W's log
# that lead to it from P^2
BLOCK_W_STEPS = {"P2": 0, "X1": 1, "X2": 2, "X3": 4, "X4": 5, "Wp": 7,
                 "W": 15}


def block_W_stages():
    """[(label, config)] of block W's stages in order, each replayed from
    _cp2_with_lines over its prefix of build_block_W's log."""
    log = SurgeryLog()
    build_block_W(log=log)
    return [(label, replay(_cp2_with_lines(), SurgeryLog(log.entries[:k])))
            for label, k in BLOCK_W_STEPS.items()]


class TestBlowUp:
    def test_point_on_cubic(self):
        cfg = blow_up(_cp2_with_cubic(), through=["C"])
        assert (cfg.b2, cfg.euler) == (2, 4)
        assert cfg.surface("C").self_intersection == 8
        e = [s for s in cfg.surfaces if s.id != "C"][0]
        assert (e.genus, e.self_intersection) == (0, Fraction(-1))
        assert len(cfg.events_between("C", e.id)) == 1

    def test_free_point(self):
        cfg = blow_up(_cp2_with_cubic(), through=[])
        assert cfg.surface("C").self_intersection == 9
        assert (cfg.b2, cfg.euler) == (2, 4)

    def test_separates_triple_point(self):
        stages = dict(block_W_stages())
        p2, x1 = stages["P2"], stages["X1"]
        assert len(p2.events_between("L", "Lp")) == 1
        assert len(x1.events_between("L", "Lp")) == 0
        assert x1.surface("L").self_intersection == 0
        assert x1.surface("Lp").self_intersection == 0

    def test_requires_smooth_crossing(self):
        cfg = _add(_cp2_with_cubic(), surfaces=[SurfaceData("D", 1)])
        with pytest.raises(NotSmoothPoint):
            blow_up(cfg, through=["C", "D"])


class TestBlowDown:
    def test_trajectory(self):
        got = [(label, cfg.surface("C").self_intersection)
               for label, cfg in block_W_stages()]
        assert got == [("P2", 9), ("X1", 8), ("X2", 8),
                       ("X3", Fraction(17, 2)), ("X4", Fraction(15, 2)),
                       ("Wp", 8), ("W", 0)]

    def test_creates_half_intersections(self):
        x3 = dict(block_W_stages())["X3"]
        assert x3.surface("Lp").self_intersection == Fraction(1, 2)
        assert x3.point("s1").order == 2
        assert x3.point("s1").exponents == (1, 1)
        assert set(x3.point("s1").incident) == {"C", "Lp"}

    def test_isolated_sphere(self):
        cfg = OrbifoldConfig((SurfaceData("S", 0,
                                          self_intersection=Fraction(-2)),),
                             b1=0, b2=1)
        out = blow_down_minus2(cfg, "S")
        assert (out.b2, out.euler) == (0, 2)
        assert out.surfaces == () and len(out.points) == 1

    def test_rejects_wrong_square(self):
        cfg = OrbifoldConfig((SurfaceData("S", 0,
                                          self_intersection=Fraction(-1)),),
                             b2=1)
        with pytest.raises(NotMinusTwoSphere):
            blow_down_minus2(cfg, "S")

    def test_rejects_singular_contact(self):
        cfg = OrbifoldConfig(
            (SurfaceData("S", 0, self_intersection=Fraction(-2)),),
            (SingularPointData("x", 2, (1, 1), ("S",)),), b2=1)
        with pytest.raises(MeetsSingularPoint):
            blow_down_minus2(cfg, "S")

    @pytest.mark.parametrize("others, message", [
        (("C", "C"), "S meets C more than once"),
        (("A", "B", "C"), "S meets 3 surfaces; the double point would lie "
                          "on more than two of them"),
    ], ids=["one_surface_twice", "three_surfaces"])
    def test_rejects_what_the_double_point_cannot_hold(self, others,
                                                       message):
        cfg = OrbifoldConfig((
            *(SurfaceData(sid, 1) for sid in sorted(set(others))),
            SurfaceData("S", 0, self_intersection=Fraction(-2))), b2=4)
        cfg = _add(cfg, events=_crossings(cfg, *(("S", sid)
                                                 for sid in others)))
        with pytest.raises(UnsupportedGeometry, match=f"^{message}$"):
            blow_down_minus2(cfg, "S")

    def test_rejects_a_sphere_that_meets_itself(self):
        # the sphere would be its own neighbour on the double point
        cfg = OrbifoldConfig(
            (SurfaceData("C", 1),
             SurfaceData("S", 0, self_intersection=Fraction(-2))),
            events=(IntersectionEvent("e", "S", "S"),
                    IntersectionEvent("f", "C", "S")), b2=2)
        with pytest.raises(UnsupportedGeometry,
                           match="^S meets itself at event e$"):
            blow_down_minus2(cfg, "S")

    def test_rejects_point_id_in_use(self):
        # blowing up a point of the (-1)-sphere E makes E a (-2)-sphere;
        # block_W already has the double point s1
        w = blow_up(blow_up(build_block_W(), ["C"], exceptional_id="E"),
                    ["E"])
        with pytest.raises(ValueError, match="point id 's1' already in use"):
            blow_down_minus2(w, "E", point_id="s1")
        assert [p.id for p in blow_down_minus2(w, "E").points] == \
            ["s1", "s2", "dp1"]


class TestResolveTorusPair:
    def _pair(self, s1, s2):
        cfg = OrbifoldConfig((SurfaceData("T1", 1, self_intersection=s1),
                              SurfaceData("T2", 1, self_intersection=s2)),
                             b1=0, b2=2)
        return _add(cfg, events=_crossings(cfg, ("T1", "T2")))

    def test_zero_squares(self):
        out = resolve_torus_pair(self._pair(Fraction(0), Fraction(0)),
                                 "T1", "T2", new_id="S")
        sq = {s.id: s.self_intersection for s in out.surfaces}
        assert sq == {"T1": -1, "T2": -1, "S": 1}
        assert out.surface("S").genus == 2
        assert out.events == ()
        assert (out.b2, out.euler) == (3, 5)

    def test_mixed_squares(self):
        out = resolve_torus_pair(self._pair(Fraction(1), Fraction(0)),
                                 "T1", "T2", new_id="S")
        sq = {s.id: s.self_intersection for s in out.surfaces}
        assert sq == {"T1": 0, "T2": -1, "S": 2}

    def test_rejects_sphere(self):
        cfg = _edit(self._pair(Fraction(0), Fraction(0)), "T1", genus=0)
        with pytest.raises(NotTorus):
            resolve_torus_pair(cfg, "T1", "T2", new_id="S")

    def test_rejects_double_crossing(self):
        cfg = self._pair(Fraction(0), Fraction(0))
        cfg = _add(cfg, events=_crossings(cfg, ("T1", "T2")))
        with pytest.raises(NotSingleIntersection):
            resolve_torus_pair(cfg, "T1", "T2", new_id="S")


class TestBlockY:
    def test_global_invariants(self):
        y = build_block_Y()
        assert (y.euler, y.b1, y.b2) == (4, 2, 6)
        assert len(y.points) == 8
        assert all(p.order == 2 for p in y.points)
        assert validate_config(y) == []

    def test_pairings(self):
        y = build_block_Y()
        assert y.pairing_of("U1", "U2") == 1
        assert y.pairing_of("U3", "U4") == 1
        assert y.pairing_of("U1", "U3") == 0
        assert y.pairing_of("S1", "T1") == Fraction(1, 2)
        assert y.pairing_of("T3", "T1") == 1
        assert y.pairing_of("T1", "T1") == 0

    def test_double_cover_euler(self):
        y = build_block_Y()
        assert 2 * y.euler - len(y.points) == 0  # chi of the covering product


class TestBlockW:
    def test_final_invariants(self):
        w = build_block_W()
        wp = dict(block_W_stages())["Wp"]
        assert (wp.b2, wp.euler) == (2, 4)
        assert (w.b2, w.euler) == (10, 12)
        assert w.surface("C").self_intersection == 0
        assert w.surface("A1").self_intersection == Fraction(1, 2)
        assert w.surface("A2").self_intersection == -Fraction(1, 2)
        assert len(w.points) == 2
        assert validate_config(w) == []

    def test_log_replays_bit_exactly(self):
        log = SurgeryLog()
        w = build_block_W(log=log)
        assert replay(_cp2_with_lines(), log) == w


class TestGompfSum:
    def test_euler_of_sum(self):
        z = build_Z(3)
        assert z.euler == 18  # 16 for the sum plus two resolutions
        assert (z.b1, z.b2) == (0, 16)

    def test_joined_surfaces(self):
        z = build_Z(3)
        genus = Counter(s.genus for s in z.surfaces)
        assert genus == {1: 13, 2: 3}
        squares = [z.surface(f"V{i}").self_intersection
                   for i in range(1, 17)]
        assert squares == [Fraction(1, 2), Fraction(-1, 2)] \
            + [-1] * 12 + [1, 1]
        assert z.events == ()  # all sixteen surfaces disjoint

    def test_six_leftover_double_points(self):
        z = build_Z(3)
        assert len(z.points) == 6
        incident = Counter(p.incident for p in z.points)
        assert incident == {("V1",): 3, ("V2",): 3}

    def test_genus_mismatch(self):
        y = build_block_Y()
        w = build_block_W()
        plan = GluingPlan("S1", "C", (), (), b1=0, b2=14)
        with pytest.raises(GenusMismatch):
            gompf_fiber_sum(y, w, plan)

    def test_normal_bundle_obstruction(self):
        y = build_block_Y()
        w = _edit(build_block_W(), "C", self_intersection=Fraction(1))
        plan = GluingPlan("T1", "C", (), (), b1=0, b2=14)
        with pytest.raises(NormalBundleObstruction):
            gompf_fiber_sum(y, w, plan)

    def test_unmatched_singular_point(self):
        y = build_block_Y()
        w = build_block_W()
        # pair the two singular events with smooth ones
        ev_a = sorted(e.id for e in y.events_on("T1"))
        ev_b = sorted(e.id for e in w.events_on("C"))
        plan = GluingPlan("T1", "C", tuple(zip(ev_a, ev_b)),
                          (("V", tuple()),), b1=0, b2=14)
        with pytest.raises(UnmatchedSingularPoint):
            gompf_fiber_sum(y, w, plan)

    def test_betti_euler_cross_check(self):
        y, w, plan = _z_fiber_sum()
        with pytest.raises(PlanInconsistent,
                           match="^declared b1=0, b2=13 disagree with "
                                 "euler characteristic 16$"):
            gompf_fiber_sum(y, w, replace(plan, b2=13))

    def test_full_log_replay(self):
        log = SurgeryLog()
        z = build_Z(3, log=log)
        assert replay(build_block_Y(), log) == z

    @pytest.mark.parametrize("taken", ["U1", "V1"])
    def test_rejects_join_id_in_use(self, taken):
        # build_Z's plan with the V3 join renamed: U1 survives from
        # block_Y, and V1 is an earlier join
        log = SurgeryLog()
        build_Z(3, log=log)
        kwargs = log.entries[0].kwargs
        plan = kwargs["plan"]
        joins = tuple((taken if out_id == "V3" else out_id, pieces)
                      for out_id, pieces in plan.surface_joins)
        with pytest.raises(ValueError,
                           match=f"surface id '{taken}' already in use"):
            gompf_fiber_sum(build_block_Y(), kwargs["cfg_b"],
                            replace(plan, surface_joins=joins))


def _z_fiber_sum():
    """block_Y, block_W and the plan that build_Z glues them by, as its
    log holds them."""
    log = SurgeryLog()
    build_Z(3, log=log)
    kwargs = log.entries[0].kwargs
    return build_block_Y(), kwargs["cfg_b"], kwargs["plan"]


def _with_joins(plan, joins):
    return replace(plan, surface_joins=tuple(joins))


def _extra_join(pieces):
    return lambda y, w, plan: (y, w, _with_joins(
        plan, plan.surface_joins + (("X", pieces),)))


def _first_join_named(out_id):
    """A case whose plan names the first join out_id: join ids meet
    OrbifoldConfig.check_new_id, as every other new surface id does."""
    return lambda y, w, plan: (y, w, _with_joins(
        plan, ((out_id, plan.surface_joins[0][1]),
               *plan.surface_joins[1:])))


def _split_pair(y, w, plan):
    # T3 and E3 meet at the matched pair (f_T3, ev4) but go to V4 and V3
    swap = {"V3": ("E3", "T4"), "V4": ("E4", "T3")}
    return y, w, _with_joins(plan, ((out_id, swap.get(out_id, pieces))
                                    for out_id, pieces in plan.surface_joins))


def _two_free_spheres_joined(y, w, plan):
    # two spheres meeting nothing glue to a surface of euler char 4
    w = _add(w, surfaces=[SurfaceData("Q1", 0), SurfaceData("Q2", 0)])
    return _extra_join(("Q1", "Q2"))(y, w, plan)


# the signature step of each move (ROADMAP item 13); the other moves keep
# sigma, and a fibre sum adds its two sides' signatures
SIGNATURE_STEP = {"blow_up": -1, "blow_down_minus2": 1,
                  "resolve_torus_pair": -1}


def _signature_after(start, log):
    return start + sum(SIGNATURE_STEP.get(e.op, 0) for e in log.entries)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_glued_pairing_has_the_signature_of_the_moves(p):
    """Gompf (Ann. of Math. 142, 1995): sigma(X #_F Y) = sigma(X) +
    sigma(Y).  sigma(W) follows block_W's logged moves from P^2
    (sigma 1), sigma(Y) is read off block_Y's pairing, and glued_Z's
    pairing must then have b+ - b- = sigma(Y) + sigma(W) plus the steps
    of the moves after the sum: 0 - 8 - 2 = -10, inertia (3, 13)."""
    log_w = SurgeryLog()
    build_block_W(log=log_w)
    sigma_w = _signature_after(1, log_w)
    assert sigma_w == 1 - 11 + 2
    pos, neg = _inertia(congruence_diagonal(build_block_Y().pairing_matrix()))
    assert pos + neg == 6
    log_z = SurgeryLog()
    z = build_Z(p, log=log_z)
    assert [e.op for e in log_z.entries].count("gompf_fiber_sum") == 1
    sigma_z = _signature_after(pos - neg + sigma_w, log_z)
    assert sigma_z == -10
    pos, neg = _inertia(congruence_diagonal(z.pairing_matrix()))
    assert (pos + neg, pos - neg) == (z.b2, sigma_z)


@pytest.mark.parametrize("case, error, message", [
    (lambda y, w, plan: (y, _add(w, surfaces=[SurfaceData("U1", 1)]), plan),
     ValueError, "surface id collision: ['U1']"),
    (lambda y, w, plan: (y, _edit(w, "s1", order=3), plan),
     UnmatchedSingularPoint, "orders 2 != 3 at p1q1 / s1"),
    (lambda y, w, plan: (_add(y, points=[
        SingularPointData("px", 2, (1, 1), ("T1",))]), w, plan),
     UnmatchedSingularPoint, "singular point px on T1 is not matched"),
    (_extra_join(("A1",)), PlanInconsistent, "A1 appears in two joins"),
    (_extra_join(("nope",)), PlanInconsistent,
     "join references unknown surface 'nope'"),
    (_extra_join(("T1",)), PlanInconsistent,
     "a fiber surface cannot be a join piece"),
    (_split_pair, PlanInconsistent,
     "matched pair (f_T3, ev4) joins T3 with E3, which do not share an "
     "output surface"),
    (lambda y, w, plan: (_edit(y, "T3", multiplicity=2, local_j=1), w, plan),
     UnsupportedGeometry, "join piece T3 has multiplicity 2"),
    (_two_free_spheres_joined, PlanInconsistent,
     "join X has non-surface euler characteristic 4"),
    (lambda y, w, plan: (_add(y, events=[
        IntersectionEvent("zz", "S1", "U1", "p1q1")]), w, plan),
     UnsupportedGeometry, "event zz sits at consumed point p1q1"),
    (lambda y, w, plan: (_add(y, events=[
        IntersectionEvent("zz", "S1", "T1a")]), w, plan),
     UnsupportedGeometry, "event zz would join V1 to itself"),
    (_first_join_named(""), ValueError, "empty surface id"),
    *((_first_join_named(sid), ValueError,
       f"surface id {sid!r} contains whitespace, ',' or '#'")
      for sid in (" ", "V 1", "V,1")),
], ids=["id_collision", "unequal_orders", "unmatched_point_on_fiber",
        "piece_in_two_joins", "unknown_piece", "fiber_as_piece",
        "pair_split_across_joins", "isotropic_piece", "non_surface_join",
        "event_at_consumed_point", "event_joins_a_surface_to_itself",
        "join_id_empty", "join_id_space", "join_id_inner_space",
        "join_id_comma"])
def test_fiber_sum_refusals(case, error, message):
    # build_Z's own gluing with one fault each, refused by its own check
    # and with both inputs as they were, however late the refusal; a
    # case returns the inputs and the plan with its fault
    y, w, plan = case(*_z_fiber_sum())
    inputs = copy.deepcopy((y, w))
    with pytest.raises(error) as info:
        gompf_fiber_sum(y, w, plan)
    assert type(info.value) is error
    assert str(info.value) == message
    assert (y, w) == inputs


def _one_surface(sid, genus, square, b1=0, b2=1):
    return OrbifoldConfig(
        (SurfaceData(sid, genus, self_intersection=Fraction(square)),),
        b1=b1, b2=b2)


def test_fiber_sum_of_the_plane_and_its_mirror_along_lines_is_s4():
    # chi(X #_F Y) = chi(X) + chi(Y) - 2 chi(F) = 3 + 3 - 4
    cp2, mirror = _one_surface("L", 0, 1), _one_surface("M", 0, -1)
    s4 = gompf_fiber_sum(cp2, mirror, GluingPlan("L", "M", (), (), 0, 0))
    assert (s4.euler, s4.b1, s4.b2) == (2, 0, 0)
    assert (s4.surfaces, s4.points, s4.events) == ((), (), ())
    with pytest.raises(PlanInconsistent,
                       match="^declared b1=0, b2=2 disagree with euler "
                             "characteristic 2$"):
        gompf_fiber_sum(cp2, mirror, GluingPlan("L", "M", (), (), 0, 2))


def test_fiber_sum_along_a_genus_two_fiber():
    # two copies of Sigma_2 x S^2 summed along Sigma_2 x {pt} give
    # Sigma_2 x S^2 again: chi = -4 - 4 + 4
    a = _one_surface("F", 2, 0, b1=4, b2=2)
    b = _one_surface("G", 2, 0, b1=4, b2=2)
    out = gompf_fiber_sum(a, b, GluingPlan("F", "G", (), (), 4, 2))
    assert (out.euler, out.b1, out.b2) == (-4, 4, 2)
    with pytest.raises(PlanInconsistent,
                       match="^declared b1=4, b2=0 disagree with euler "
                             "characteristic -4$"):
        gompf_fiber_sum(a, b, GluingPlan("F", "G", (), (), 4, 0))


def _cubic_tori_and_sphere():
    """The cubic, two tori T1 and T2 that cross once, and a (-2)-sphere S."""
    cfg = _add(_cp2_with_cubic(), surfaces=[
        SurfaceData("T1", 1), SurfaceData("T2", 1),
        SurfaceData("S", 0, self_intersection=Fraction(-2))])
    return _add(cfg, events=_crossings(cfg, ("T1", "T2")))


@pytest.mark.parametrize("name, kwargs, message", [
    ("blow_up", {"through": ["C", "C"]}, "blow_up names surface 'C' twice"),
    ("resolve_torus_pair", {"t1": "T1", "t2": "T1", "new_id": "N"},
     "resolve_torus_pair names surface 'T1' twice"),
    ("blow_up", {"through": ["C"], "exceptional_id": ""}, "empty surface id"),
    ("rename", {"old": "C", "new": ""}, "empty surface id"),
    ("resolve_torus_pair", {"t1": "T1", "t2": "T2", "new_id": ""},
     "empty surface id"),
    ("blow_down_minus2", {"sphere": "S", "point_id": ""}, "empty point id"),
], ids=["blow_up_twice", "resolve_twice", "blow_up_empty", "rename_empty",
        "resolve_empty", "blow_down_empty"])
def test_moves_refuse_a_surface_named_twice_and_an_empty_id(name, kwargs,
                                                            message):
    # the rule a [script] line meets, for callers of the moves themselves
    cfg = _cubic_tori_and_sphere()
    with pytest.raises(ValueError, match=f"^{message}$"):
        getattr(surgery, name)(cfg, **kwargs)


@pytest.mark.parametrize("sid", ["E 1", "E\t1", "E,1"])
def test_blow_up_refuses_an_id_no_scenario_can_name(sid):
    # a config built with it emitted a file that the parser refused
    with pytest.raises(ValueError) as info:
        blow_up(_cp2_with_cubic(), ["C"], exceptional_id=sid)
    assert str(info.value) == \
        f"surface id {sid!r} contains whitespace, ',' or '#'"


@pytest.mark.parametrize("name, kwargs, kind", [
    ("blow_up", {"through": ["C"], "exceptional_id": "X#Y"}, "surface"),
    ("blow_down_minus2", {"sphere": "S", "point_id": "X#Y"}, "point"),
    ("resolve_torus_pair", {"t1": "T1", "t2": "T2", "new_id": "X#Y"},
     "surface"),
    ("rename", {"old": "C", "new": "X#Y"}, "surface"),
], ids=["blow_up", "blow_down", "resolve", "rename"])
def test_moves_refuse_an_id_a_comment_would_cut(name, kwargs, kind):
    # '[surface X#Y]' reads as '[surface X', so a config holding such an
    # id would emit a file that does not parse
    cfg = _cubic_tori_and_sphere()
    before = copy.deepcopy(cfg)
    with pytest.raises(ValueError) as info:
        getattr(surgery, name)(cfg, **kwargs)
    assert str(info.value) == \
        f"{kind} id 'X#Y' contains whitespace, ',' or '#'"
    assert cfg == before


def test_discard_refuses_a_surface_the_declared_lattice_names():
    # discarding V16 of build_Z(3) left a basis naming an untracked
    # surface and an integral pairing with one column too many
    with pytest.raises(ValueError, match="^surface 'V16' is in the "
                                         "declared basis$"):
        surgery.discard(build_Z(3), "V16")
    cfg = _add(_cp2_with_cubic(), surfaces=[SurfaceData("D", 0)])
    cfg = surgery.declare_lattice(cfg, ["C"], {"C": (1,)},
                                  IntMatrix.from_rows([[9, 0]]))
    with pytest.raises(ValueError, match="^surface 'D' has a column of the "
                                         "declared integral pairing$"):
        surgery.discard(cfg, "D")
    # a surface outside the basis may go when no pairing is declared
    y = build_block_Y()
    assert validate_config(surgery.discard(y, "T3")) == validate_config(y) \
        == []


def test_mod5_isotropy():
    z = build_Z(5)
    mults = [s.multiplicity for s in z.surfaces]
    assert mults == [5 ** i for i in range(1, 17)]
    assert validate_config(z) == []


# -- moves leave their inputs alone -------------------------------------


def _records(cfg):
    return [*cfg.surfaces, *cfg.points, *cfg.events]


def _check_pure(move, *inputs):
    """Run move(); no input may change, whether it returns or raises: each
    equals a deep copy taken before, and hashes as it did."""
    snapshots = [copy.deepcopy(c) for c in inputs]
    hashes = list(map(hash, inputs))
    try:
        out = move()
    except (ValueError, KeyError):
        out = None
    assert list(inputs) == snapshots
    assert list(map(hash, inputs)) == hashes
    return out


def _assert_frozen(cfg):
    """Every field of cfg and of each of its surfaces, points and events
    refuses assignment, and cfg is a value: a no-op replace equals it."""
    for rec in (cfg, *_records(cfg)):
        for name in rec.__record_fields__:
            with pytest.raises(FrozenRecordError):
                setattr(rec, name, getattr(rec, name))
    assert replace(cfg) == cfg and hash(replace(cfg)) == hash(cfg)


def _assert_immutable_log(log):
    for entry in log.entries:
        hash(tuple(entry.kwargs.values()))


def _random_step(rng, cfg, kinds=7):
    """(move name, keywords) of a random move on cfg, often one that
    applies, sometimes one that raises.  The first five kinds are the
    moves a [script] line can name."""
    ids = [s.id for s in cfg.surfaces] or ["X"]
    smooth = [(e.a, e.b) for e in cfg.events if e.location is None]
    spheres = [s.id for s in cfg.surfaces
               if s.genus == 0 and s.self_intersection == -2]
    fresh = f"N{rng.randrange(40)}"
    kind = rng.randrange(kinds)
    if kind == 0:
        through = rng.choice([[], [rng.choice(ids)],
                              list(rng.choice(smooth)) if smooth else []])
        return "blow_up", {"through": through,
                           "exceptional_id": rng.choice([None, fresh])}
    if kind == 1:
        return "blow_down_minus2", {
            "sphere": rng.choice(spheres or ids),
            "point_id": rng.choice([None, f"q{rng.randrange(40)}"])}
    if kind == 2:
        t1, t2 = rng.choice(smooth) if smooth else (ids[0], ids[-1])
        return "resolve_torus_pair", {"t1": t1, "t2": t2, "new_id": fresh}
    if kind == 3:
        return "discard", {"surface": rng.choice(ids)}
    if kind == 4:
        return "rename", {"old": rng.choice(ids), "new": fresh}
    if kind == 5:
        return "assign_isotropy", {"assignment": {
            rng.choice(ids): (rng.randrange(1, 10), rng.randrange(10))}}
    basis = rng.sample(ids, rng.randrange(1, len(ids) + 1))
    n = len(basis)
    qclasses = {sid: [int(i == k) for i in range(n)]
                for k, sid in enumerate(basis)}
    # the rows of qclasses, in basis order, are the identity matrix's
    pairing = rng.choice([None, IntMatrix.from_rows(list(qclasses.values()))])
    return "declare_lattice", {"basis": basis, "qclasses": qclasses,
                               "integral_pairing": pairing}


def _assert_unique_ids(cfg):
    for kind in ("surfaces", "points", "events"):
        ids = cfg.ids(kind)
        assert len(set(ids)) == len(ids), (kind, ids)


def _random_move(rng, cfg, log):
    name, kwargs = _random_step(rng, cfg)
    return lambda: getattr(surgery, name)(cfg, **kwargs, log=log)


# (euler, b2) change of each move _random_move makes: a blow-up and the
# resolution of a torus pair each add one class, a -2 blow-down removes
# one, and the rest only relabel or annotate
_EULER_B2_STEP = {"blow_up": (1, 1), "resolve_torus_pair": (1, 1),
                  "blow_down_minus2": (-1, -1), "discard": (0, 0),
                  "rename": (0, 0), "assign_isotropy": (0, 0),
                  "declare_lattice": (0, 0)}


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("start", [build_block_Y, build_block_W,
                                   lambda: build_Z(3), _cp2_with_lines],
                         ids=["block_Y", "block_W", "glued_Z", "P2"])
def test_seeded_scripts_leave_inputs_unchanged_and_replay(start, seed):
    rng = random.Random(seed)
    first = start()
    _assert_frozen(first)
    cfg, log = first, SurgeryLog()
    for _ in range(12):
        logged = len(log.entries)
        out = _check_pure(_random_move(rng, cfg, log), cfg)
        if out is None:  # a move that raises logs nothing
            assert len(log.entries) == logged
            continue
        # each logged step changes (euler, b2) as its move does, b1 never
        (entry,) = log.entries[logged:]
        d_euler, d_b2 = _EULER_B2_STEP[entry.op]
        assert entry.before == (cfg.euler, cfg.b1, cfg.b2)
        assert entry.after == (out.euler, out.b1, out.b2) \
            == (cfg.euler + d_euler, cfg.b1, cfg.b2 + d_b2)
        _assert_unique_ids(out)
        # and it emits a file that parses: no move adds an id that a
        # scenario file cannot declare
        parsed = parse_scenario(emit_scenario(Scenario(config=out))).config
        assert [parsed.ids(k) for k in ("surfaces", "points", "events")] \
            == [out.ids(k) for k in ("surfaces", "points", "events")]
        _assert_frozen(out)
        cfg = out
    assert replay(first, log) == cfg
    assert hash(replay(first, log)) == hash(cfg)
    _assert_immutable_log(log)


def test_logged_moves_leave_inputs_unchanged():
    # every move of the glued build, replayed one at a time, with the
    # arguments the build gave it
    log = SurgeryLog()
    z = build_Z(3, log=log)
    assert {e.op for e in log.entries} == {
        "gompf_fiber_sum", "resolve_torus_pair", "rename",
        "assign_isotropy", "declare_lattice"}
    cfg = build_block_Y()
    for entry in log.entries:
        step = SurgeryLog([entry])
        cfg = _check_pure(lambda: replay(cfg, step), cfg,
                          *[v for v in entry.kwargs.values()
                            if isinstance(v, OrbifoldConfig)])
    assert cfg == z


def test_failing_fiber_sum_leaves_inputs_unchanged():
    y, w = build_block_Y(), build_block_W()
    plan = GluingPlan("T1", "C", (), (), b1=0, b2=13)
    assert _check_pure(lambda: gompf_fiber_sum(y, w, plan), y, w) is None


def _unlatticed_Z():
    # discard refuses a surface while a lattice is declared
    return replace(build_Z(3), basis=None, integral_pairing=None)


@pytest.mark.parametrize("start, name, kwargs", [
    (lambda: build_Z(3), "rename", {"old": "V1", "new": "X"}),
    (lambda: build_Z(3), "assign_isotropy", {"assignment": {"V3": (7, 2)}}),
    (_unlatticed_Z, "discard", {"surface": "V2"}),
    (build_block_Y, "rename", {"old": "T1", "new": "X"}),
    (build_block_Y, "discard", {"surface": "T3"}),
], ids=["rename_Z", "assign_isotropy_Z", "discard_Z", "rename_Y",
        "discard_Y"])
def test_moves_share_the_records_they_leave_alone(start, name, kwargs):
    # each surface, point and event the move did not change is the very
    # record of the input, and the move did change some
    cfg = start()
    out = getattr(surgery, name)(cfg, **kwargs)
    kept = {r: r for r in _records(out)}
    shared = [r for r in _records(cfg) if r in kept]
    assert all(kept[r] is r for r in shared)
    assert 0 < len(shared) < len(_records(cfg))


# -- the move protocol --------------------------------------------------


def _script_line(name, kwargs):
    """The [script] line that calls move `name` with kwargs."""
    (op, rule), = [(op, rule) for op, rule in SCRIPT_OPS.items()
                   if rule.move == name]
    args = [f"{key}={','.join(v) if key == rule.listed else v}"
            for key, kw in rule.keywords.items()
            if (v := kwargs[kw]) is not None]
    return " ".join([op, *args])


def _scripted(cfg, lines):
    """Scenario text that starts from cfg and runs the script lines."""
    text = emit_scenario(Scenario(config=cfg))
    return text + "[script]\n" + "".join(f"{line}\n" for line in lines)


def test_every_logged_op_replays_through_its_public_move(monkeypatch):
    log = SurgeryLog()
    build_block_W(log=log)
    build_Z(3, log=log)
    # the block_W chain as a script, then a torus pair to resolve
    cfg = _add(_cp2_with_lines(),
               surfaces=[SurfaceData("U1", 1), SurfaceData("U2", 1)])
    cfg = _add(cfg, events=_crossings(cfg, ("U1", "U2")))
    text = _scripted(cfg, [
        "blow_up through=C,L,Lp id=E", "blow_up through=E,L id=Ep",
        "discard id=Ep", "blow_down sphere=E point=s1",
        "blow_up through=C,L id=A2", "blow_down sphere=L point=s2",
        "rename old=Lp new=A1", "resolve t1=U1 t2=U2 id=V"])
    log.entries += parse_scenario(text).built[1].entries
    ops = {e.op for e in log.entries}
    assert ops == {rule.move for rule in SCRIPT_OPS.values()} | {
        "gompf_fiber_sum", "assign_isotropy", "declare_lattice"}
    # replay calls the move the module binds under each name, so a
    # rebinding there (as the benchmark's tracer makes) is what runs
    called = []
    for op in ops:
        move = getattr(surgery, op)
        assert move.__name__ == op

        def counted(*args, move=move, **kwargs):
            called.append(move.__name__)
            return move(*args, **kwargs)
        monkeypatch.setattr(surgery, op, counted)
    scn = parse_scenario(text)
    w, script = BLOCK_W_STEPS["W"], len(scn.built[1].entries)
    for start, entries, end in [
            (_cp2_with_lines(), log.entries[:w], build_block_W()),
            (build_block_Y(), log.entries[w:-script], build_Z(3)),
            (scn.config, log.entries[-script:], scn.built[0])]:
        called.clear()
        assert replay(start, SurgeryLog(entries)) == end
        assert called == [entry.op for entry in entries]


@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("start", [build_block_Y, build_block_W,
                                   _cp2_with_lines],
                         ids=["block_Y", "block_W", "P2"])
def test_seeded_scripts_build_as_the_moves_they_name(start, seed):
    # a step joins the script when the script still parses and the move
    # applies
    rng = random.Random(seed)
    first = parse_scenario(_scripted(start(), [])).config
    cfg, log, lines = first, SurgeryLog(), []
    for _ in range(12):
        name, kwargs = _random_step(rng, cfg, kinds=len(SCRIPT_OPS))
        line = _script_line(name, kwargs)
        try:
            parse_scenario(_scripted(first, [*lines, line]))
            cfg = getattr(surgery, name)(cfg, **kwargs, log=log)
        except (ParseError, ValueError, KeyError):
            continue
        _assert_unique_ids(cfg)
        lines.append(line)
    scn = parse_scenario(_scripted(first, lines))
    built, scripted = scn.built
    assert (built, scn.builtin) == (cfg, None)
    assert run_pipeline(scn).scenario_label == "explicit"
    assert scripted.entries == log.entries


def _protocol_calls():
    """(move name, starting config, keywords) of each of the eight moves,
    and once more without the optional arguments of the moves that have
    them."""
    cfg = _add(_cp2_with_lines(), surfaces=[
        SurfaceData("T1", 1), SurfaceData("T2", 1),
        SurfaceData("S", 0, self_intersection=Fraction(-2))])
    cfg = _add(cfg, events=_crossings(cfg, ("T1", "T2"), ("S", "C")))
    y, w, plan = _z_fiber_sum()
    return [
        ("blow_up", cfg, {"through": ["C", "L", "Lp"],
                          "exceptional_id": "E"}),
        ("blow_up", cfg, {"through": ["C"]}),
        ("blow_down_minus2", cfg, {"sphere": "S", "point_id": "q"}),
        ("blow_down_minus2", cfg, {"sphere": "S"}),
        ("resolve_torus_pair", cfg, {"t1": "T1", "t2": "T2", "new_id": "N"}),
        ("discard", cfg, {"surface": "Lp"}),
        ("rename", cfg, {"old": "C", "new": "D"}),
        ("assign_isotropy", cfg, {"assignment": {"C": (3, 1), "L": (2, 1)}}),
        ("declare_lattice", cfg, {"basis": ["C", "L"],
                                  "qclasses": {"C": (3, 0), "L": (0, 1)},
                                  "integral_pairing": IntMatrix.from_rows(
                                      [[9, 3], [3, 1]])}),
        ("declare_lattice", cfg, {"basis": ["C"], "qclasses": {"C": (1,)}}),
        ("gompf_fiber_sum", y, {"cfg_b": w, "plan": plan}),
    ]


@pytest.mark.parametrize("name, start, kwargs", _protocol_calls(), ids=[
    "blow_up", "blow_up_drawn_id", "blow_down", "blow_down_drawn_point",
    "resolve", "discard", "rename", "assign_isotropy", "declare_lattice",
    "declare_lattice_no_pairing", "gompf_fiber_sum"])
def test_positional_and_keyword_calls_log_and_replay_alike(name, start,
                                                          kwargs):
    move = getattr(surgery, name)
    by_position, by_keyword = SurgeryLog(), SurgeryLog()
    out = move(start, *kwargs.values(), log=by_position)
    assert move(start, **kwargs, log=by_keyword) == out
    assert by_position.entries == by_keyword.entries
    (entry,) = by_position.entries
    assert entry.op == name
    assert replay(start, by_position) == replay(start, by_keyword) == out


def test_a_log_entry_is_the_call_as_given():
    # with the default of what the caller left out, each argument an
    # immutable value; the drawn sphere id is drawn again on replay
    cfg, through, log = _cp2_with_cubic(), ["C"], SurgeryLog()
    out = blow_up(cfg, through, log=log)
    (entry,) = log.entries
    assert entry.kwargs == {"through": ("C",), "exceptional_id": None}
    assert entry.kwargs["through"] is not through  # a tuple, see below
    assert [s.id for s in replay(cfg, log).surfaces] == ["C", "E1"]
    assert replay(cfg, log) == out


def test_a_log_entry_is_a_snapshot_of_the_call():
    # a caller that changes an argument after a logged move changes no
    # logged step: replay makes what the move made
    cfg = _cp2_with_lines()
    assignment = {"C": (3, 1)}
    log = SurgeryLog()
    out = assign_isotropy(cfg, assignment, log=log)
    assignment["C"] = (5, 1)
    assert out.surface("C").multiplicity == 3
    assert replay(cfg, log) == out

    through = ["C", "L"]
    log = SurgeryLog()
    out = blow_up(cfg, through, exceptional_id="E", log=log)
    through.pop()
    assert replay(cfg, log) == out

    # and a config cannot be changed at all
    y, w, plan = _z_fiber_sum()
    log = SurgeryLog()
    out = gompf_fiber_sum(y, w, plan, log=log)
    with pytest.raises(FrozenRecordError):
        w.surface("E3").self_intersection -= 1
    assert replay(y, log) == out


@pytest.mark.parametrize("build, start", [
    (build_block_W, _cp2_with_lines),
    *((lambda log, p=p: build_Z(p, log=log), build_block_Y)
      for p in (2, 3, 5))], ids=["block_W", "Z_p2", "Z_p3", "Z_p5"])
def test_builder_logs_replay_to_what_they_built(build, start):
    log = SurgeryLog()
    built = build(log=log)
    assert log.entries
    assert replay(start(), log) == built
    assert hash(replay(start(), log)) == hash(built)
    _assert_frozen(built)
    _assert_immutable_log(log)


@pytest.mark.parametrize("seed", SEEDS)
def test_benchmark_scripts_replay_to_what_they_built(seed):
    # the seeded scenarios of cli_verify, drawn as the benchmark draws
    # them: each script's log replays from the declared config
    rng = random.Random(f"cli_verify:{seed}")
    for k in range(workloads.SCENARIOS_PER_RUN):
        scn = parse_scenario(workloads.scripted_config(rng).text())
        built, log = scn.built
        assert log.entries, k
        assert replay(scn.config, log) == built, k
        _assert_immutable_log(log)
