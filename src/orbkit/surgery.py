"""Surgery calculus on orbifold configurations.

Four geometric moves — blow-up, blow-down of a (-2)-sphere to an
ordinary double point, fiber connected sum along matched genus-g
surfaces, and resolution of a transverse torus pair into a genus-2
surface — each implemented as a pure config -> config transform with
exact Euler / Betti / intersection bookkeeping.  Builders at the bottom
assemble the two standard blocks and their fiber sum.

The move protocol: a move takes its config positionally, then its own
arguments, then an optional `log=` keyword, and never changes its input:
configurations and their surfaces, points and events are frozen records
(model.py).  Every move is written under @_move as a function that
builds the new config with record.replace, and the result shares every
record the move leaves alone; the fiber sum shares the surviving
records of both its configs.  The decorator makes each argument an
immutable value before the move runs (a list a tuple, a dict the tuple
of its (key, value) pairs), and records the call in the log under the
move's own name: the move's parameters after the config, by name, as
the caller gave them in that form, with the signature's default where
the caller gave none.  So a caller that changes a list or dict after
the call changes no logged step.  Every new config is built in a move
here; model.py keeps the records, lookups, id rules and checks.
replay() calls the module's move of each logged name with the logged
keywords, the lookup scenario.OpRule.apply makes, so replaying a log
from the same starting config reproduces the final config exactly: an
id the caller left out is drawn again.

Ids: the moves are the only statement of what a [script] line may
name, add and drop; the scenario parser runs them.  A move checks its
ids before its geometry, in this order: each surface it names exists
(OrbifoldConfig.surface), each id it adds passes
OrbifoldConfig.check_new_id (model.py's one id rule), and no surface is
named twice (blow_up, resolve_torus_pair).  gompf_fiber_sum passes each
join id through check_new_id against the surviving surfaces and the
earlier joins as it builds that join, after its checks of the plan's
matching and Euler number.  A move that adds a surface, point or event
without a given id draws it with OrbifoldConfig.fresh_id from the ids
the config holds, so a replay draws the same id.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .exact import IntMatrix
from .model import (
    IntersectionEvent,
    OrbifoldConfig,
    SingularPointData,
    SurfaceData,
    UnsupportedGeometry,
)
from .record import field, record, replace


class NotSmoothPoint(ValueError):
    """Blow-up requested at a singular location."""


class NotMinusTwoSphere(ValueError):
    pass


class MeetsSingularPoint(ValueError):
    pass


class GenusMismatch(ValueError):
    pass


class NormalBundleObstruction(ValueError):
    pass


class UnmatchedSingularPoint(ValueError):
    pass


class PlanInconsistent(ValueError):
    pass


class NotTorus(ValueError):
    pass


class NotSingleIntersection(ValueError):
    pass


@record(frozen=True)
class GluingPlan:
    """Recipe for a fiber connected sum.

    point_matching pairs event ids (one on fiber_a, one on fiber_b);
    surface_joins names each output surface and lists the pieces (from
    either side) glued into it.  b1/b2 of the result are declared here
    and validated against Euler-characteristic consistency.
    """

    fiber_a: str
    fiber_b: str
    point_matching: tuple[tuple[str, str], ...]
    surface_joins: tuple[tuple[str, tuple[str, ...]], ...]
    b1: int
    b2: int


@record
class LogEntry:
    op: str
    kwargs: dict
    before: tuple[int, int, int]  # (euler, b1, b2)
    after: tuple[int, int, int]


@record
class SurgeryLog:
    entries: list[LogEntry] = field(default_factory=list)

    def record(self, op: str, kwargs: dict, before: OrbifoldConfig,
               after: OrbifoldConfig) -> None:
        self.entries.append(LogEntry(
            op, kwargs, (before.euler, before.b1, before.b2),
            (after.euler, after.b1, after.b2)))


# the prefixes of the ids that blow_up and blow_down_minus2 draw for the
# sphere and the point they add unnamed
SPHERE_PREFIX = "E"
DOUBLE_POINT_PREFIX = "dp"


def _immutable(value):
    """value with each list or tuple made a tuple, and each dict the
    tuple of its (key, value) pairs, all the way down."""
    if not isinstance(value, (list, tuple, dict)):
        return value
    items = value.items() if isinstance(value, dict) else value
    return tuple(map(_immutable, items))


def _move(edit):
    """The public move made from edit(cfg, ...), which returns the new
    configuration.  Each argument reaches edit, and the log, as an
    immutable value (_immutable), so a mapping arrives as its pairs.
    The parameters after cfg and their defaults are read off edit's code
    object, as importing inspect would cost every command start-up
    time."""
    name = edit.__name__
    code = edit.__code__
    params = code.co_varnames[1:code.co_argcount]
    defaults = dict(zip(reversed(params), reversed(edit.__defaults__ or ())))

    def move(cfg: OrbifoldConfig, *args, log: SurgeryLog | None = None,
             **kwargs) -> OrbifoldConfig:
        args = tuple(map(_immutable, args))
        kwargs = {key: _immutable(value) for key, value in kwargs.items()}
        out = edit(cfg, *args, **kwargs)
        if log is not None:
            given = {**defaults, **dict(zip(params, args)), **kwargs}
            log.record(name, {p: given[p] for p in params}, cfg, out)
        return out

    move.__name__ = move.__qualname__ = name
    move.__doc__ = edit.__doc__
    return move


def replay(initial: OrbifoldConfig, log: SurgeryLog) -> OrbifoldConfig:
    """Re-apply a recorded operation sequence to a starting config."""
    cfg = initial
    for entry in log.entries:
        cfg = globals()[entry.op](cfg, **entry.kwargs)
    return cfg


def _edit(rec, **changes):
    """rec with these fields changed, or rec itself if they change
    nothing."""
    same = all(getattr(rec, key) == value for key, value in changes.items())
    return rec if same else replace(rec, **changes)


def _invalidate_basis(cfg: OrbifoldConfig, **changes) -> OrbifoldConfig:
    """cfg with changes and no declared H_2 coordinates: every move that
    calls it changes H_2, so they go stale."""
    surfaces = changes.pop("surfaces", cfg.surfaces)
    return replace(cfg, **changes, basis=None, integral_pairing=None,
                   surfaces=tuple(_edit(s, qclass=None) for s in surfaces))


def _with_events(events, pairs, location=None):
    """events and one more event per (a, b) of pairs, each with the id
    OrbifoldConfig.fresh_id draws from the ids before it."""
    for a, b in pairs:
        eid = OrbifoldConfig.fresh_id("ev", [e.id for e in events])
        events = (*events, IntersectionEvent(eid, a, b, location))
    return events


@_move
def blow_up(cfg: OrbifoldConfig, through=(), exceptional_id=None):
    """Blow up a smooth point met pairwise-transversely by `through`.

    Adds the exceptional (-1)-sphere, drops each listed surface's
    self-intersection by 1, separates their pairwise intersections at
    the point, and meets each of them once.
    """
    for sid in through:
        cfg.surface(sid)
    if exceptional_id is not None:
        cfg.check_new_id("surfaces", exceptional_id)
    for k, sid in enumerate(through):
        if sid in through[:k]:
            raise ValueError(f"blow_up names surface {sid!r} twice")
    events = cfg.events
    for a, b in combinations(through, 2):
        smooth = [e for e in cfg.events_between(a, b) if e.location is None]
        if not smooth:
            raise NotSmoothPoint(
                f"{a} and {b} have no smooth intersection point to blow up")
        events = tuple(e for e in events if e is not smooth[0])
    eid = exceptional_id or cfg.fresh_id(SPHERE_PREFIX, cfg.ids("surfaces"))
    surfaces = (*(replace(s, self_intersection=s.self_intersection - 1)
                  if s.id in through else s for s in cfg.surfaces),
                SurfaceData(eid, genus=0, self_intersection=Fraction(-1)))
    return _invalidate_basis(
        cfg, surfaces=surfaces, b2=cfg.b2 + 1,
        events=_with_events(events, ((sid, eid) for sid in through)))


@_move
def blow_down_minus2(cfg: OrbifoldConfig, sphere: str, point_id=None):
    """Collapse a (-2)-sphere to an ordinary double point of order 2.

    Surfaces that met the sphere become incident to the new point; each
    gains +1/2 of self-intersection, and each pair of them gains a +1/2
    intersection through the point.
    """
    s = cfg.surface(sphere)
    if point_id is not None:
        cfg.check_new_id("points", point_id)
    if s.genus != 0 or s.multiplicity != 1 or s.self_intersection != -2:
        raise NotMinusTwoSphere(
            f"{sphere}: genus {s.genus}, multiplicity {s.multiplicity}, "
            f"self-intersection {s.self_intersection}")
    if cfg.points_on(sphere) or any(e.location is not None
                                    for e in cfg.events_on(sphere)):
        raise MeetsSingularPoint(f"{sphere} passes through a singular point")
    neighbors: list[str] = []
    for e in cfg.events_on(sphere):
        other = e.b if e.a == sphere else e.a
        if other == sphere:
            raise UnsupportedGeometry(f"{sphere} meets itself at event {e.id}")
        if other in neighbors:
            raise UnsupportedGeometry(
                f"{sphere} meets {other} more than once")
        neighbors.append(other)
    if len(neighbors) > 2:
        raise UnsupportedGeometry(
            f"{sphere} meets {len(neighbors)} surfaces; the double point "
            "would lie on more than two of them")
    pid = point_id or cfg.fresh_id(DOUBLE_POINT_PREFIX, cfg.ids("points"))
    surfaces = tuple(replace(t, self_intersection=t.self_intersection
                             + Fraction(1, 2)) if t.id in neighbors else t
                     for t in cfg.surfaces if t is not s)
    events = tuple(e for e in cfg.events if sphere not in (e.a, e.b))
    return _invalidate_basis(
        cfg, surfaces=surfaces, b2=cfg.b2 - 1,
        points=(*cfg.points, SingularPointData(
            pid, order=2, exponents=(1, 1), incident=tuple(neighbors))),
        events=_with_events(events, combinations(neighbors, 2), pid))


@_move
def resolve_torus_pair(cfg: OrbifoldConfig, t1: str, t2: str, new_id: str):
    """Resolve a transverse torus pair into a disjoint genus-2 surface.

    Smooths the crossing into a genus-2 surface of square t1^2+t2^2+2,
    then blows up the common point, leaving the three surfaces disjoint
    with squares (t1^2-1, t2^2-1, t1^2+t2^2+1); the exceptional sphere
    is not tracked afterwards.
    """
    tori = cfg.surface(t1), cfg.surface(t2)
    cfg.check_new_id("surfaces", new_id)
    if t1 == t2:
        raise ValueError(f"resolve_torus_pair names surface {t1!r} twice")
    for t in tori:
        if t.genus != 1 or t.multiplicity != 1:
            raise NotTorus(f"{t.id}: genus {t.genus}, "
                           f"multiplicity {t.multiplicity}")
    mutual = [e for e in cfg.events_between(t1, t2) if e.location is None]
    if len(cfg.events_between(t1, t2)) != 1 or len(mutual) != 1:
        raise NotSingleIntersection(
            f"{t1} and {t2} must meet in exactly one smooth point")
    square = tori[0].self_intersection + tori[1].self_intersection + 1
    surfaces = (*(replace(s, self_intersection=s.self_intersection - 1)
                  if s.id in (t1, t2) else s for s in cfg.surfaces),
                SurfaceData(new_id, genus=2, self_intersection=square))
    return _invalidate_basis(
        cfg, surfaces=surfaces, b2=cfg.b2 + 1,
        events=tuple(e for e in cfg.events if e is not mutual[0]))


@_move
def discard(cfg: OrbifoldConfig, surface: str):
    """Stop tracking a surface (topology and Betti numbers unchanged).

    Refused while the declared basis names the surface, or while an
    integral pairing is declared, since its columns follow the surface
    list.
    """
    surf = cfg.surface(surface)
    if cfg.basis is not None and surface in cfg.basis:
        raise ValueError(f"surface {surface!r} is in the declared basis")
    if cfg.integral_pairing is not None:
        raise ValueError(f"surface {surface!r} has a column of the "
                         "declared integral pairing")
    return replace(
        cfg, surfaces=tuple(s for s in cfg.surfaces if s is not surf),
        events=tuple(e for e in cfg.events if surface not in (e.a, e.b)),
        points=tuple(_edit(p, incident=tuple(s for s in p.incident
                                             if s != surface))
                     for p in cfg.points))


@_move
def rename(cfg: OrbifoldConfig, old: str, new: str):
    """Relabel a surface; the new id passes check_new_id."""
    surf = cfg.surface(old)
    cfg.check_new_id("surfaces", new)

    def moved(sid):
        return new if sid == old else sid

    return replace(
        cfg, surfaces=tuple(replace(s, id=new) if s is surf else s
                            for s in cfg.surfaces),
        points=tuple(_edit(p, incident=tuple(map(moved, p.incident)))
                     for p in cfg.points),
        events=tuple(_edit(e, a=moved(e.a), b=moved(e.b))
                     for e in cfg.events),
        basis=cfg.basis and tuple(map(moved, cfg.basis)))


@_move
def assign_isotropy(cfg: OrbifoldConfig, assignment: dict):
    """Declare multiplicities and local invariants: id -> (m, j)."""
    declared = {}
    for sid, (m, j) in assignment:  # the dict's pairs, as _move passes it
        cfg.surface(sid)
        declared[sid] = m, j if m > 1 else 0  # SurfaceData takes j mod m
    return replace(cfg, surfaces=tuple(
        replace(s, multiplicity=declared[s.id][0], local_j=declared[s.id][1])
        if s.id in declared else s for s in cfg.surfaces))


@_move
def declare_lattice(cfg: OrbifoldConfig, basis, qclasses: dict,
                    integral_pairing: IntMatrix | None = None):
    """Declare an H_2 basis, surface coordinates and the integral pairing.

    Reorders the surface list to follow the basis when the basis lists
    every surface.
    """
    declared = dict(qclasses)  # from its pairs, as _move passes it
    for sid in (*basis, *declared):
        cfg.surface(sid)
    surfaces = [replace(s, qclass=declared[s.id]) if s.id in declared else s
                for s in cfg.surfaces]
    if set(basis) == {s.id for s in surfaces}:
        order = {sid: k for k, sid in enumerate(basis)}
        surfaces.sort(key=lambda s: order[s.id])
    return replace(cfg, surfaces=tuple(surfaces), basis=basis,
                   integral_pairing=integral_pairing)


@_move
def gompf_fiber_sum(cfg_a: OrbifoldConfig, cfg_b: OrbifoldConfig,
                    plan: GluingPlan):
    """Fiber connected sum of two configs along matched surfaces.

    Both fiber surfaces are consumed; matched intersection points are
    used up by the gluing (matched singular points disappear from the
    result); each surface join becomes one output surface whose genus
    follows from Euler-characteristic additivity of the glued pieces.
    The plan's b1 and b2 must give the sum's Euler characteristic,
    chi(X) + chi(Y) - 2 chi(F); the result takes them.
    """
    fa = cfg_a.surface(plan.fiber_a)
    fb = cfg_b.surface(plan.fiber_b)
    if fa.genus != fb.genus:
        raise GenusMismatch(f"fiber genera {fa.genus} != {fb.genus}")
    if fa.self_intersection + fb.self_intersection != 0:
        raise NormalBundleObstruction(
            f"{fa.self_intersection} + {fb.self_intersection} != 0")

    for kind in ("surfaces", "events", "points"):
        clash = set(cfg_a.ids(kind)) & set(cfg_b.ids(kind))
        if clash:
            raise ValueError(f"{kind[:-1]} id collision: {sorted(clash)}")

    on_a = {e.id: e for e in cfg_a.events_on(plan.fiber_a)}
    on_b = {e.id: e for e in cfg_b.events_on(plan.fiber_b)}
    matched_a = [m[0] for m in plan.point_matching]
    matched_b = [m[1] for m in plan.point_matching]
    if sorted(matched_a) != sorted(on_a) or sorted(matched_b) != sorted(on_b):
        raise PlanInconsistent(
            "point_matching must pair every fiber intersection exactly once")

    consumed_points: set[str] = set()
    for ea_id, eb_id in plan.point_matching:
        la, lb = on_a[ea_id].location, on_b[eb_id].location
        if (la is None) != (lb is None):
            raise UnmatchedSingularPoint(
                f"{ea_id} ({la}) matched with {eb_id} ({lb})")
        if la is not None:
            da, db = cfg_a.point(la).order, cfg_b.point(lb).order
            if da != db:
                raise UnmatchedSingularPoint(
                    f"orders {da} != {db} at {la} / {lb}")
            consumed_points.update((la, lb))
    sides = ((cfg_a, plan.fiber_a), (cfg_b, plan.fiber_b))
    for cfg, fiber in sides:
        for pt in cfg.points_on(fiber):
            if pt.id not in consumed_points:
                raise UnmatchedSingularPoint(
                    f"singular point {pt.id} on {fiber} is not matched")

    piece_of: dict[str, str] = {}
    for out_id, pieces in plan.surface_joins:
        for sid in pieces:
            if sid in piece_of:
                raise PlanInconsistent(f"{sid} appears in two joins")
            piece_of[sid] = out_id
    by_id = {s.id: s for s in cfg_a.surfaces + cfg_b.surfaces}
    for sid in piece_of:
        if sid not in by_id:
            raise PlanInconsistent(f"join references unknown surface {sid!r}")
    if plan.fiber_a in piece_of or plan.fiber_b in piece_of:
        raise PlanInconsistent("a fiber surface cannot be a join piece")

    matched_in_join = {out_id: 0 for out_id, _ in plan.surface_joins}
    for ea_id, eb_id in plan.point_matching:
        ea, eb = on_a[ea_id], on_b[eb_id]
        pa = ea.b if ea.a == plan.fiber_a else ea.a
        pb = eb.b if eb.a == plan.fiber_b else eb.a
        ja, jb = piece_of.get(pa), piece_of.get(pb)
        if ja is None or ja != jb:
            raise PlanInconsistent(
                f"matched pair ({ea_id}, {eb_id}) joins {pa} with {pb}, "
                "which do not share an output surface")
        matched_in_join[ja] += 1

    euler = cfg_a.euler + cfg_b.euler - 2 * (2 - 2 * fa.genus)
    if euler != 2 - 2 * plan.b1 + plan.b2:
        raise PlanInconsistent(
            f"declared b1={plan.b1}, b2={plan.b2} disagree with "
            f"euler characteristic {euler}")

    # the surviving surfaces of both sides, then the joins, each with an
    # id new among them and the earlier joins
    out = replace(cfg_a, b1=plan.b1, b2=plan.b2, surfaces=tuple(
        s for s in cfg_a.surfaces + cfg_b.surfaces
        if s.id not in (plan.fiber_a, plan.fiber_b) and s.id not in piece_of))
    for out_id, pieces in plan.surface_joins:
        out.check_new_id("surfaces", out_id)
        chi = -2 * matched_in_join[out_id]
        square = Fraction(0)
        for sid in pieces:
            s = by_id[sid]
            if s.multiplicity != 1:
                raise UnsupportedGeometry(
                    f"join piece {sid} has multiplicity {s.multiplicity}")
            chi += 2 - 2 * s.genus
            square += s.self_intersection
        if chi % 2 != 0 or chi > 2:
            raise PlanInconsistent(
                f"join {out_id} has non-surface euler characteristic {chi}")
        out = replace(out, surfaces=(*out.surfaces, SurfaceData(
            out_id, genus=(2 - chi) // 2, self_intersection=square)))

    # surviving events and points keep their records, with their ends and
    # incident surfaces moved from the join pieces to the joins
    matched_ids = set(matched_a) | set(matched_b)
    events, points = [], []
    for cfg, fiber in sides:
        for e in cfg.events:
            if e.id in matched_ids or fiber in (e.a, e.b):
                continue
            if e.location in consumed_points:
                raise UnsupportedGeometry(
                    f"event {e.id} sits at consumed point {e.location}")
            e = _edit(e, a=piece_of.get(e.a, e.a), b=piece_of.get(e.b, e.b))
            if e.a == e.b:
                raise UnsupportedGeometry(
                    f"event {e.id} would join {e.a} to itself")
            events.append(e)
        points += [_edit(p, incident=tuple(piece_of.get(s, s)
                                           for s in p.incident if s != fiber))
                   for p in cfg.points if p.id not in consumed_points]
    return _invalidate_basis(out, events=tuple(events), points=tuple(points))


# -- builders -----------------------------------------------------------

# Fractions are immutable, so every unit coordinate shares these two
_ONE, _ZERO = Fraction(1), Fraction(0)


def _unit(i: int, n: int) -> tuple[Fraction, ...]:
    """The i-th of the n unit coordinate vectors."""
    return tuple(_ONE if k == i else _ZERO for k in range(n))


def build_block_Y() -> OrbifoldConfig:
    """First building block: a torus-fibered orbifold with 8 double points.

    b1 = 2, b2 = 6, euler 4.  Carries the multiplicity-one skeleton:
    a horizontal torus T1 through two of the double points, two spheres
    S1/S2 through four double points each, eleven generic torus fibers,
    and four tori U1..U4 meeting in the pairs (U1,U2), (U3,U4).
    Rational classes: [S2] = [S1], [fiber] = 2[S1].
    """
    fiber_ids = ["T1a", "T1b", "T2a"] + [f"T{i}" for i in range(3, 11)]
    twice_s1 = tuple(2 * x for x in _unit(1, 6))
    surfaces = (SurfaceData("T1", 1, qclass=_unit(0, 6)),
                SurfaceData("S1", 0, qclass=_unit(1, 6)),
                SurfaceData("S2", 0, qclass=_unit(1, 6)),
                *(SurfaceData(fid, 1, qclass=twice_s1) for fid in fiber_ids),
                *(SurfaceData(f"U{k}", 1, qclass=_unit(1 + k, 6))
                  for k in range(1, 5)))
    points = tuple(SingularPointData(f"p{i}q{j}", 2, (1, 1), (
        (f"S{i}", "T1") if j == 1 else (f"S{i}",)))
        for i in (1, 2) for j in range(1, 5))
    events = (*(IntersectionEvent(f"f_{fid}", fid, "T1") for fid in fiber_ids),
              IntersectionEvent("yp1", "S1", "T1", "p1q1"),
              IntersectionEvent("yp2", "S2", "T1", "p2q1"),
              IntersectionEvent("u12", "U1", "U2"),
              IntersectionEvent("u34", "U3", "U4"))
    return OrbifoldConfig(surfaces, points, events, b1=2, b2=6,
                          basis=("T1", "S1", "U1", "U2", "U3", "U4"))


def build_block_W(log: SurgeryLog | None = None) -> OrbifoldConfig:
    """Second building block, from the projective plane by surgery.

    Cubic C and lines L, L' through a common triple point: two blow-ups,
    a blow-down, a blow-up, a blow-down (yielding the half-integer
    surfaces A1, A2 and double points s1, s2), then eight blow-ups along
    C to kill its square.  The log's first 0, 1, 2, 4, 5, 7 and 15 steps
    lead from P^2 to the stages P2, X1, X2, X3, X4, Wp and W.
    """
    cfg = OrbifoldConfig(
        (SurfaceData("C", 1, self_intersection=Fraction(9)),
         SurfaceData("L", 0, self_intersection=Fraction(1)),
         SurfaceData("Lp", 0, self_intersection=Fraction(1))),
        events=(*(IntersectionEvent(f"{name}_{k}", "C", other)
                  for k in range(3)
                  for name, other in (("cl", "L"), ("clp", "Lp"))),
                IntersectionEvent("llp_0", "L", "Lp")),
        b1=0, b2=1)

    # the triple point: one C.L, one C.L', one L.L' crossing consumed
    cfg = blow_up(cfg, ["C", "L", "Lp"], exceptional_id="E", log=log)
    cfg = blow_up(cfg, ["E", "L"], exceptional_id="Ep", log=log)
    cfg = discard(cfg, "Ep", log=log)
    cfg = blow_down_minus2(cfg, "E", point_id="s1", log=log)
    cfg = blow_up(cfg, ["C", "L"], exceptional_id="A2", log=log)
    cfg = blow_down_minus2(cfg, "L", point_id="s2", log=log)
    cfg = rename(cfg, "Lp", "A1", log=log)
    for i in range(3, 11):
        cfg = blow_up(cfg, ["C"], exceptional_id=f"E{i}", log=log)
    return cfg


def build_Z(p: int, log: SurgeryLog | None = None) -> OrbifoldConfig:
    """Fiber sum of the two blocks, with isotropy multiplicities p^i.

    Result: 16 disjoint surfaces V1..V16 (genus 2,1,...,1,2,2) of
    multiplicity p^i and local invariant j = 1, six double points of
    order 2 (three each on V1 and V2), b1 = 0, b2 = 16, euler 18, with
    the shipped integral lattice model (2V1, 2V2, V3..V16).
    """
    y = build_block_Y()
    w = build_block_W()

    def only(events):
        (e,) = events
        return e.id

    s1_ev = only([e for e in w.events_between("C", "A1")
                  if e.location == "s1"])
    a1_smooth = sorted(e.id for e in w.events_between("C", "A1")
                       if e.location is None)
    s2_ev = only([e for e in w.events_between("C", "A2")
                  if e.location == "s2"])
    a2_smooth = only([e for e in w.events_between("C", "A2")
                      if e.location is None])

    matching = [("yp1", s1_ev), ("f_T1a", a1_smooth[0]),
                ("f_T1b", a1_smooth[1]),
                ("yp2", s2_ev), ("f_T2a", a2_smooth)]
    joins = [("V1", ("A1", "S1", "T1a", "T1b")),
             ("V2", ("A2", "S2", "T2a"))]
    for i in range(3, 11):
        matching.append((f"f_T{i}", only(w.events_between("C", f"E{i}"))))
        joins.append((f"V{i}", (f"E{i}", f"T{i}")))

    plan = GluingPlan("T1", "C", tuple(matching), tuple(joins), b1=0, b2=14)
    z = gompf_fiber_sum(y, w, plan, log=log)
    z = resolve_torus_pair(z, "U1", "U2", new_id="V15", log=log)
    z = resolve_torus_pair(z, "U3", "U4", new_id="V16", log=log)
    for k in range(1, 5):
        z = rename(z, f"U{k}", f"V{10 + k}", log=log)

    z = assign_isotropy(z, {f"V{i}": (p ** i, 1) for i in range(1, 17)},
                        log=log)
    basis = tuple(f"V{i}" for i in range(1, 17))
    qclasses = {f"V{i}": _unit(i - 1, 16) for i in range(1, 17)}
    # integral basis 2V1, 2V2, V3..V16 pairs diagonally against the V's
    diag = [1, -1] + [-1] * 12 + [1, 1]
    pairing = IntMatrix.from_rows(
        [[diag[r] if r == i else 0 for i in range(16)] for r in range(16)])
    z = declare_lattice(z, basis, qclasses, integral_pairing=pairing, log=log)
    return z
