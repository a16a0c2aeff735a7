"""Surgery calculus on orbifold configurations.

Four geometric moves — blow-up, blow-down of a (-2)-sphere to an
ordinary double point, fiber connected sum along matched genus-g
surfaces, and resolution of a transverse torus pair into a genus-2
surface — each implemented as a pure config -> config transform with
exact Euler / Betti / intersection bookkeeping.  Builders at the bottom
assemble the two standard blocks and their fiber sum.

The move protocol: a move takes its config positionally, then its own
arguments, then an optional `log=` keyword, and never changes its input.
Every move is written under @_move as an edit of a copy of the config,
which returns nothing; the decorator returns the copy and records the
call in the log under the move's own name: the move's parameters after
the config, by name, as the caller gave them, with the signature's
default where the caller gave none.  The log holds a deep copy of them,
taken before the edit runs, so a caller that changes a list, dict or
config after the call changes no logged step.  The fiber sum edits
copies too: it copies its second config once and moves the surviving
records of that copy into its own, so only the joined surfaces are new
records.  Every edit of a config is written in a move here; model.py
keeps the records, lookups, id rules and checks.  replay() calls the
module's move of each logged name with the logged keywords, the lookup
scenario.OpRule.apply makes, so replaying a log from the same starting
config reproduces the final config exactly: an id the caller left out
is drawn again.

Ids: the moves are the only statement of what a [script] line may
name, add and drop; the scenario parser runs them.  A move checks its
ids before its geometry, in this order: each surface it names exists
(OrbifoldConfig.surface), each id it adds passes
OrbifoldConfig.check_new_id (model.py's one id rule), and no surface is
named twice (blow_up, resolve_torus_pair).  gompf_fiber_sum passes each
join id through check_new_id against the surviving surfaces and the
earlier joins.  A move that adds a surface, point or event without a
given id draws it with OrbifoldConfig.fresh_id from the ids the config
holds, so a replay draws the same id.
"""

from __future__ import annotations

import copy
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
from .record import field, record


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


def _move(edit):
    """The public move made from edit(cfg, ...), which changes cfg, a
    copy of the caller's config, and returns nothing.  The parameters
    after cfg and their defaults are read off edit's code object, as
    importing inspect would cost every command start-up time."""
    name = edit.__name__
    code = edit.__code__
    params = code.co_varnames[1:code.co_argcount]
    defaults = dict(zip(reversed(params), reversed(edit.__defaults__ or ())))

    def move(cfg: OrbifoldConfig, *args, log: SurgeryLog | None = None,
             **kwargs) -> OrbifoldConfig:
        if log is not None:  # what the caller gave, before anything runs
            given = copy.deepcopy({**defaults, **dict(zip(params, args)),
                                   **kwargs})
        out = cfg.copy()
        edit(out, *args, **kwargs)
        if log is not None:
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


def _invalidate_basis(cfg: OrbifoldConfig) -> None:
    # every move changes H_2, so declared coordinates go stale
    cfg.basis = None
    cfg.integral_pairing = None
    for s in cfg.surfaces:
        s.qclass = None


@_move
def blow_up(cfg: OrbifoldConfig, through=(), exceptional_id=None) -> None:
    """Blow up a smooth point met pairwise-transversely by `through`.

    Adds the exceptional (-1)-sphere, drops each listed surface's
    self-intersection by 1, separates their pairwise intersections at
    the point, and meets each of them once.
    """
    through = list(through)
    for sid in through:
        cfg.surface(sid)
    if exceptional_id is not None:
        cfg.check_new_id("surfaces", exceptional_id)
    for k, sid in enumerate(through):
        if sid in through[:k]:
            raise ValueError(f"blow_up names surface {sid!r} twice")
    for a, b in combinations(through, 2):
        smooth = [e for e in cfg.events_between(a, b) if e.location is None]
        if not smooth:
            raise NotSmoothPoint(
                f"{a} and {b} have no smooth intersection point to blow up")
        cfg.events.remove(smooth[0])
    eid = exceptional_id or cfg.fresh_id(SPHERE_PREFIX, cfg.ids("surfaces"))
    for sid in through:
        cfg.surface(sid).self_intersection -= 1
    cfg.surfaces.append(SurfaceData(eid, genus=0, multiplicity=1, local_j=0,
                                    self_intersection=Fraction(-1)))
    for sid in through:
        cfg.add_event(sid, eid)
    cfg.b2 += 1
    _invalidate_basis(cfg)


@_move
def blow_down_minus2(cfg: OrbifoldConfig, sphere: str, point_id=None) -> None:
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
    cfg.surfaces.remove(s)
    cfg.events = [e for e in cfg.events if sphere not in (e.a, e.b)]
    pid = point_id or cfg.fresh_id(DOUBLE_POINT_PREFIX, cfg.ids("points"))
    cfg.points.append(SingularPointData(pid, order=2, exponents=(1, 1),
                                        incident=tuple(neighbors)))
    for sid in neighbors:
        cfg.surface(sid).self_intersection += Fraction(1, 2)
    for a, b in combinations(neighbors, 2):
        cfg.add_event(a, b, location=pid)
    cfg.b2 -= 1
    _invalidate_basis(cfg)


@_move
def resolve_torus_pair(cfg: OrbifoldConfig, t1: str, t2: str,
                       new_id: str) -> None:
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
    cfg.events.remove(mutual[0])
    square = tori[0].self_intersection + tori[1].self_intersection + 1
    for t in tori:
        t.self_intersection -= 1
    cfg.surfaces.append(SurfaceData(new_id, genus=2, multiplicity=1,
                                    local_j=0, self_intersection=square))
    cfg.b2 += 1
    _invalidate_basis(cfg)


@_move
def discard(cfg: OrbifoldConfig, surface: str) -> None:
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
    cfg.surfaces.remove(surf)
    cfg.events = [e for e in cfg.events if surface not in (e.a, e.b)]
    for p in cfg.points:
        p.incident = tuple(s for s in p.incident if s != surface)


@_move
def rename(cfg: OrbifoldConfig, old: str, new: str) -> None:
    """Relabel a surface; the new id passes check_new_id."""
    surf = cfg.surface(old)
    cfg.check_new_id("surfaces", new)
    surf.id = new
    for p in cfg.points:
        p.incident = tuple(new if s == old else s for s in p.incident)
    for e in cfg.events:
        e.a, e.b = (new if s == old else s for s in (e.a, e.b))
    if cfg.basis is not None:
        cfg.basis = tuple(new if s == old else s for s in cfg.basis)


@_move
def assign_isotropy(cfg: OrbifoldConfig, assignment: dict) -> None:
    """Declare multiplicities and local invariants: id -> (m, j)."""
    for sid, (m, j) in assignment.items():
        s = cfg.surface(sid)
        s.multiplicity = m
        s.local_j = j % m if m > 1 else 0


@_move
def declare_lattice(cfg: OrbifoldConfig, basis, qclasses: dict,
                    integral_pairing: IntMatrix | None = None) -> None:
    """Declare an H_2 basis, surface coordinates and the integral pairing.

    Reorders the surface list to follow the basis when the basis lists
    every surface.
    """
    cfg.basis = tuple(basis)
    for sid in cfg.basis:
        cfg.surface(sid)
    for sid, q in qclasses.items():
        cfg.surface(sid).qclass = tuple(Fraction(x) for x in q)
    if set(cfg.basis) == {s.id for s in cfg.surfaces}:
        order = {sid: k for k, sid in enumerate(cfg.basis)}
        cfg.surfaces.sort(key=lambda s: order[s.id])
    cfg.integral_pairing = integral_pairing


@_move
def gompf_fiber_sum(cfg_a: OrbifoldConfig, cfg_b: OrbifoldConfig,
                    plan: GluingPlan) -> None:
    """Fiber connected sum of two configs along matched surfaces.

    Both fiber surfaces are consumed; matched intersection points are
    used up by the gluing (matched singular points disappear from the
    result); each surface join becomes one output surface whose genus
    follows from Euler-characteristic additivity of the glued pieces.
    The plan's b1 and b2 must give the sum's Euler characteristic,
    chi(X) + chi(Y) - 2 chi(F); the result takes them.
    """
    b = cfg_b.copy()  # its records move into cfg_a, the move's copy
    fa = cfg_a.surface(plan.fiber_a)
    fb = b.surface(plan.fiber_b)
    if fa.genus != fb.genus:
        raise GenusMismatch(f"fiber genera {fa.genus} != {fb.genus}")
    if fa.self_intersection + fb.self_intersection != 0:
        raise NormalBundleObstruction(
            f"{fa.self_intersection} + {fb.self_intersection} != 0")

    for kind in ("surfaces", "events", "points"):
        clash = set(cfg_a.ids(kind)) & set(b.ids(kind))
        if clash:
            raise ValueError(f"{kind[:-1]} id collision: {sorted(clash)}")

    on_a = {e.id: e for e in cfg_a.events_on(plan.fiber_a)}
    on_b = {e.id: e for e in b.events_on(plan.fiber_b)}
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
            da, db = cfg_a.point(la).order, b.point(lb).order
            if da != db:
                raise UnmatchedSingularPoint(
                    f"orders {da} != {db} at {la} / {lb}")
            consumed_points.update((la, lb))
    sides = ((cfg_a, plan.fiber_a), (b, plan.fiber_b))
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
    by_id = {s.id: s for s in cfg_a.surfaces + b.surfaces}
    for sid in piece_of:
        if sid not in by_id:
            raise PlanInconsistent(f"join references unknown surface {sid!r}")
    if plan.fiber_a in piece_of or plan.fiber_b in piece_of:
        raise PlanInconsistent("a fiber surface cannot be a join piece")
    # the surviving surfaces of both sides, then the joins, whose genus
    # and square are set below
    cfg_a.surfaces = [s for s in cfg_a.surfaces + b.surfaces
                      if s.id not in (plan.fiber_a, plan.fiber_b)
                      and s.id not in piece_of]
    joins = []
    for out_id, _ in plan.surface_joins:
        cfg_a.check_new_id("surfaces", out_id)
        joins.append(SurfaceData(out_id, genus=0))
        cfg_a.surfaces.append(joins[-1])

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

    euler = cfg_a.euler + b.euler - 2 * (2 - 2 * fa.genus)
    if euler != 2 - 2 * plan.b1 + plan.b2:
        raise PlanInconsistent(
            f"declared b1={plan.b1}, b2={plan.b2} disagree with "
            f"euler characteristic {euler}")

    for (out_id, pieces), join in zip(plan.surface_joins, joins):
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
        join.genus, join.self_intersection = (2 - chi) // 2, square

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
            e.a, e.b = piece_of.get(e.a, e.a), piece_of.get(e.b, e.b)
            if e.a == e.b:
                raise UnsupportedGeometry(
                    f"event {e.id} would join {e.a} to itself")
            events.append(e)
        for p in cfg.points:
            if p.id not in consumed_points:
                p.incident = tuple(piece_of.get(s, s) for s in p.incident
                                   if s != fiber)
                points.append(p)
    cfg_a.events, cfg_a.points = events, points
    cfg_a.b1, cfg_a.b2 = plan.b1, plan.b2
    _invalidate_basis(cfg_a)


# -- builders -----------------------------------------------------------


def build_block_Y() -> OrbifoldConfig:
    """First building block: a torus-fibered orbifold with 8 double points.

    b1 = 2, b2 = 6, euler 4.  Carries the multiplicity-one skeleton:
    a horizontal torus T1 through two of the double points, two spheres
    S1/S2 through four double points each, eleven generic torus fibers,
    and four tori U1..U4 meeting in the pairs (U1,U2), (U3,U4).
    Rational classes: [S2] = [S1], [fiber] = 2[S1].
    """
    cfg = OrbifoldConfig(b1=2, b2=6)

    def unit(i):
        return tuple(Fraction(1 if k == i else 0) for k in range(6))

    fiber_ids = ["T1a", "T1b", "T2a"] + [f"T{i}" for i in range(3, 11)]
    cfg.surfaces.append(SurfaceData("T1", 1, qclass=unit(0)))
    cfg.surfaces.append(SurfaceData("S1", 0, qclass=unit(1)))
    cfg.surfaces.append(SurfaceData("S2", 0, qclass=unit(1)))
    twice_s1 = tuple(2 * x for x in unit(1))
    for fid in fiber_ids:
        cfg.surfaces.append(SurfaceData(fid, 1, qclass=twice_s1))
    for k in range(1, 5):
        cfg.surfaces.append(SurfaceData(f"U{k}", 1, qclass=unit(1 + k)))

    for j in range(1, 5):
        cfg.points.append(SingularPointData(
            f"p1q{j}", 2, (1, 1), ("S1", "T1") if j == 1 else ("S1",)))
    for j in range(1, 5):
        cfg.points.append(SingularPointData(
            f"p2q{j}", 2, (1, 1), ("S2", "T1") if j == 1 else ("S2",)))

    for fid in fiber_ids:
        cfg.events.append(IntersectionEvent(f"f_{fid}", fid, "T1"))
    cfg.events.append(IntersectionEvent("yp1", "S1", "T1", "p1q1"))
    cfg.events.append(IntersectionEvent("yp2", "S2", "T1", "p2q1"))
    cfg.events.append(IntersectionEvent("u12", "U1", "U2"))
    cfg.events.append(IntersectionEvent("u34", "U3", "U4"))

    cfg.basis = ("T1", "S1", "U1", "U2", "U3", "U4")
    return cfg


def build_block_W(log: SurgeryLog | None = None) -> OrbifoldConfig:
    """Second building block, from the projective plane by surgery.

    Cubic C and lines L, L' through a common triple point: two blow-ups,
    a blow-down, a blow-up, a blow-down (yielding the half-integer
    surfaces A1, A2 and double points s1, s2), then eight blow-ups along
    C to kill its square.  The log's first 0, 1, 2, 4, 5, 7 and 15 steps
    lead from P^2 to the stages P2, X1, X2, X3, X4, Wp and W.
    """
    cfg = OrbifoldConfig(b1=0, b2=1)
    cfg.surfaces.append(SurfaceData("C", 1, self_intersection=Fraction(9)))
    cfg.surfaces.append(SurfaceData("L", 0, self_intersection=Fraction(1)))
    cfg.surfaces.append(SurfaceData("Lp", 0, self_intersection=Fraction(1)))
    for k in range(3):
        cfg.events.append(IntersectionEvent(f"cl_{k}", "C", "L"))
        cfg.events.append(IntersectionEvent(f"clp_{k}", "C", "Lp"))
    cfg.events.append(IntersectionEvent("llp_0", "L", "Lp"))

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
    qclasses = {f"V{i}": tuple(Fraction(1 if k == i - 1 else 0)
                               for k in range(16))
                for i in range(1, 17)}
    # integral basis 2V1, 2V2, V3..V16 pairs diagonally against the V's
    diag = [1, -1] + [-1] * 12 + [1, 1]
    pairing = IntMatrix.from_rows(
        [[diag[r] if r == i else 0 for i in range(16)] for r in range(16)])
    z = declare_lattice(z, basis, qclasses, integral_pairing=pairing, log=log)
    return z
