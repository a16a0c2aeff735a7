"""Combinatorial model of a cyclic 4-orbifold.

An OrbifoldConfig is the arithmetic shadow of the geometry: isotropy
surfaces with genus / multiplicity / self-intersection, isolated cyclic
singular points with their weights, transverse positive intersection
events, the Betti numbers b1 and b2, and (optionally) a declared
homology basis with its pairing data.  What follows from these is
derived, not stored: the Euler number is 2 - 2*b1 + b2, and a point's
local invariant (m; j1, j2) is read off its (m1, m2, d, e1, e2), so no
copy can disagree with what it follows from.

Intersection numbers between distinct surfaces are derived from events:
a smooth transverse point (an event whose location is None) contributes
1, a shared singular point of order d (an event located at that point's
id) contributes 1/d.  No id is reserved: a point may be named "smooth".

The four records are frozen, and their sequences are tuples: a
configuration is a value.  The edits of a configuration are written in
the surgery moves (surgery.py), each of which builds a new one that
shares every record it leaves alone; this module keeps the records,
their lookups, the id rules and the checks.

Ids are unique within each kind.  OrbifoldConfig.check_new_id is the
one rule for a given new id, which the surgery moves and the scenario
parser's section headers both call: it is not empty, holds no
whitespace, ',' or '#' and is not in use.  What a move adds without a
given id gets the id OrbifoldConfig.fresh_id draws: the first of E1,
E2, ... (surfaces), dp1, dp2, ... (points) or ev1, ev2, ... (events)
that the config does not hold, so a drawn id depends only on the
config's contents.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exact import (IntMatrix, congruence_diagonal, mod_inverse,
                    radical_quotient)
from .record import record


class UnsupportedGeometry(ValueError):
    """Input outside the scope of the implemented constructions."""


class NotIncident(ValueError):
    """The named surface does not pass through the named point."""


@record(frozen=True)
class SurfaceData:
    """A closed surface tracked in the configuration.

    multiplicity 1 marks a plain (non-isotropy) surface kept for
    bookkeeping; then local_j must be 0.  Above 1, it is stored mod m.
    """

    id: str
    genus: int
    multiplicity: int = 1
    local_j: int = 0
    self_intersection: Fraction = Fraction(0)
    qclass: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        # past the frozen record's __setattr__, as dataclasses does
        if self.multiplicity > 1:
            object.__setattr__(self, "local_j",
                               self.local_j % self.multiplicity)
        # a replace passes the Fractions it read: keep those objects
        if not isinstance(self.self_intersection, Fraction):
            object.__setattr__(self, "self_intersection",
                               Fraction(self.self_intersection))
        if self.qclass is not None:
            object.__setattr__(self, "qclass", tuple(
                x if isinstance(x, Fraction) else Fraction(x)
                for x in self.qclass))


@record(frozen=True)
class SingularPointData:
    """Isolated cyclic quotient singularity of order d with weights (e1, e2)."""

    id: str
    order: int
    exponents: tuple[int, int]
    incident: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "exponents",
                           (self.exponents[0] % self.order,
                            self.exponents[1] % self.order))
        object.__setattr__(self, "incident", tuple(self.incident))


@record(frozen=True)
class IntersectionEvent:
    """One transverse positive intersection point of two distinct surfaces.

    location is the id of the singular point it lies at, or None at a
    smooth point; sign is always +1.
    """

    id: str
    a: str
    b: str
    location: str | None = None

    def surfaces(self) -> frozenset[str]:
        return frozenset((self.a, self.b))


@record(frozen=True)
class Violation:
    kind: str
    locus: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.locus}: {self.message}"


@record(frozen=True)
class OrbifoldConfig:
    surfaces: tuple[SurfaceData, ...] = ()
    points: tuple[SingularPointData, ...] = ()
    events: tuple[IntersectionEvent, ...] = ()
    b1: int = 0
    b2: int = 0
    basis: tuple[str, ...] | None = None
    integral_pairing: IntMatrix | None = None

    # -- lookup helpers -------------------------------------------------

    def surface(self, sid: str) -> SurfaceData:
        for s in self.surfaces:
            if s.id == sid:
                return s
        raise KeyError(f"undefined surface {sid!r}")

    def has_surface(self, sid: str) -> bool:
        return any(s.id == sid for s in self.surfaces)

    def point(self, pid: str) -> SingularPointData:
        for p in self.points:
            if p.id == pid:
                return p
        raise KeyError(f"no singular point {pid!r}")

    def events_on(self, sid: str) -> list[IntersectionEvent]:
        return [e for e in self.events if sid in (e.a, e.b)]

    def events_between(self, a: str, b: str) -> list[IntersectionEvent]:
        want = frozenset((a, b))
        return [e for e in self.events if e.surfaces() == want]

    def points_on(self, sid: str) -> list[SingularPointData]:
        return [p for p in self.points if sid in p.incident]

    def ids(self, kind: str) -> list[str]:
        """The ids of the config's "surfaces", "points" or "events"."""
        return [x.id for x in getattr(self, kind)]

    def check_new_id(self, kind: str, new: str) -> None:
        """Raise ValueError unless new can name one more of the config's
        "surfaces", "points" or "events": it is not empty, holds no
        whitespace or ',' (a scenario file splits ids there) and no '#'
        (a comment starts there), so that a later line can name it, and
        is not in use."""
        if not new:
            raise ValueError(f"empty {kind[:-1]} id")
        if any(c.isspace() or c in ",#" for c in new):
            raise ValueError(
                f"{kind[:-1]} id {new!r} contains whitespace, ',' or '#'")
        if new in self.ids(kind):
            raise ValueError(f"{kind[:-1]} id {new!r} already in use")

    @staticmethod
    def fresh_id(prefix: str, taken) -> str:
        """The id a move gives what it adds unnamed: the first of
        <prefix>1, <prefix>2, ... not in `taken`."""
        return next(f"{prefix}{k}" for k in range(1, len(taken) + 2)
                    if f"{prefix}{k}" not in taken)

    # -- derived quantities --------------------------------------------

    @property
    def euler(self) -> int:
        """chi = 2 - 2*b1 + b2 of the underlying rational homology
        4-manifold: Poincare duality over Q gives b3 = b1 and b4 = b0 = 1.
        gompf_fiber_sum checks its plan against the same identity."""
        return 2 - 2 * self.b1 + self.b2

    def event_contribution(self, ev: IntersectionEvent) -> Fraction:
        if ev.location is None:
            return Fraction(1)
        return Fraction(1, self.point(ev.location).order)

    def pairing_of(self, a: str, b: str) -> Fraction:
        """Rational intersection number of two tracked surfaces."""
        if a == b:
            return self.surface(a).self_intersection
        return sum((self.event_contribution(e)
                    for e in self.events_between(a, b)), Fraction(0))

    def pairing_matrix(self) -> list[list[Fraction]]:
        """Intersection matrix over the declared basis surfaces."""
        if self.basis is None:
            raise ValueError("no declared basis")
        return [[self.pairing_of(r, c) for c in self.basis]
                for r in self.basis]


@record
class PointLocalInvariant:
    """Weights (m, j1, j2) of the cyclic action at a singular point, read
    off derived = (m1, m2, d, e1, e2): m = m1*m2*d, j1 = m1*e1 and
    j2 = m2*e2 mod m."""

    point_id: str
    derived: tuple[int, int, int, int, int]  # (m1, m2, d, e1, e2)
    incident: tuple[str, ...] = ()

    @property
    def m(self) -> int:
        m1, m2, d, _, _ = self.derived
        return m1 * m2 * d

    @property
    def j1(self) -> int:
        m1, _, _, e1, _ = self.derived
        return m1 * e1 % self.m

    @property
    def j2(self) -> int:
        _, m2, _, _, e2 = self.derived
        return m2 * e2 % self.m

    def violations(self) -> list[str]:
        """The coprimality conditions on (m1, m2, d, e1, e2).  They give
        gcd(j1, m) = m1 and gcd(j2, m) = m2, since gcd(m1*e1, m1*m2*d) =
        m1*gcd(e1, m2*d), and likewise for j2."""
        m1, m2, d, e1, e2 = self.derived
        out = []
        if gcd(m1, m2) != 1:
            out.append("gcd(m1, m2) != 1")
        if gcd(e1, m2 * d) != 1:
            out.append("gcd(e1, m2*d) != 1")
        if gcd(e2, m1 * d) != 1:
            out.append("gcd(e2, m1*d) != 1")
        return out


# -- operations ---------------------------------------------------------


def validate_config(cfg: OrbifoldConfig) -> list[Violation]:
    """Check every structural invariant; returns violations, not errors."""
    out: list[Violation] = []

    for name, betti in (("b1", cfg.b1), ("b2", cfg.b2)):
        if betti < 0:
            out.append(Violation("NegativeBetti", name, f"{name} = {betti}"))

    for kind in ("surfaces", "points", "events"):
        ids = cfg.ids(kind)
        if len(set(ids)) != len(ids):
            out.append(Violation("DuplicateId", kind,
                                 f"{kind[:-1]} ids repeat"))

    for s in cfg.surfaces:
        if s.genus < 0:
            out.append(Violation("NegativeGenus", s.id, f"genus {s.genus}"))
        if s.multiplicity < 1:
            out.append(Violation("BadMultiplicity", s.id,
                                 f"multiplicity {s.multiplicity}"))
        elif s.multiplicity == 1:
            if s.local_j != 0:
                out.append(Violation("LocalInvariantNotZero", s.id,
                                     "multiplicity 1 requires j = 0"))
        elif gcd(s.local_j, s.multiplicity) != 1:
            out.append(Violation(
                "LocalInvariantNotCoprime", s.id,
                f"gcd({s.local_j}, {s.multiplicity}) != 1"))

    for p in cfg.points:
        if p.order < 2:
            out.append(Violation("BadOrder", p.id, f"order {p.order}"))
            continue
        for e in p.exponents:
            if gcd(e, p.order) != 1:
                out.append(Violation("ExponentNotCoprime", p.id,
                                     f"gcd({e}, {p.order}) != 1"))
        if len(p.incident) > 2:
            out.append(Violation("TooManyIncidentSurfaces", p.id,
                                 f"{len(p.incident)} incident surfaces"))
        for sid in p.incident:
            if not cfg.has_surface(sid):
                out.append(Violation("UnknownSurface", p.id,
                                     f"incident surface {sid!r} not tracked"))
        if len(p.incident) == 2 and all(cfg.has_surface(s) for s in p.incident):
            ma = cfg.surface(p.incident[0]).multiplicity
            mb = cfg.surface(p.incident[1]).multiplicity
            if gcd(ma, mb) != 1:
                out.append(Violation("CoprimalityViolation", p.id,
                                     f"incident multiplicities {ma}, {mb}"))

    for e in cfg.events:
        if e.a == e.b:
            out.append(Violation("SelfTangency", e.id,
                                 "event surfaces must be distinct"))
            continue
        for sid in (e.a, e.b):
            if not cfg.has_surface(sid):
                out.append(Violation("UnknownSurface", e.id,
                                     f"surface {sid!r} not tracked"))
        if e.location is not None:
            try:
                p = cfg.point(e.location)
            except KeyError:
                out.append(Violation("UnknownPoint", e.id,
                                     f"location {e.location!r} not tracked"))
                continue
            for sid in (e.a, e.b):
                if sid not in p.incident:
                    out.append(Violation(
                        "NotIncidentAtEvent", e.id,
                        f"{sid} not incident to point {p.id}"))

    # every intersecting pair of isotropy surfaces must be coprime
    seen_pairs = set()
    for e in cfg.events:
        if e.a == e.b or not (cfg.has_surface(e.a) and cfg.has_surface(e.b)):
            continue
        pair = frozenset((e.a, e.b))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        ma = cfg.surface(e.a).multiplicity
        mb = cfg.surface(e.b).multiplicity
        if gcd(ma, mb) != 1:
            out.append(Violation("CoprimalityViolation", f"{e.a}*{e.b}",
                                 f"intersecting with gcd({ma}, {mb}) != 1"))

    if cfg.basis is not None:
        if len(cfg.basis) != cfg.b2:
            out.append(Violation("BasisDimension", "basis",
                                 f"{len(cfg.basis)} basis classes, b2 = {cfg.b2}"))
        if not all(cfg.has_surface(s) for s in cfg.basis):
            out.append(Violation("UnknownSurface", "basis",
                                 "basis references untracked surface"))
        else:
            mat = cfg.pairing_matrix()
            # the basis spans H2(X; Q) only if its pairing is nondegenerate,
            # that is when its diagonal form over Q holds no 0
            if 0 in congruence_diagonal(mat):
                out.append(Violation("DegeneratePairing", "basis",
                                     "the basis pairing has determinant 0"))
            for s in cfg.surfaces:
                if s.qclass is None:
                    continue
                if len(s.qclass) != len(cfg.basis):
                    out.append(Violation("QClassDimension", s.id,
                                         "qclass length != basis size"))
                    continue
                # q.M.q over the nonzero coordinates: the zero terms drop
                nonzero = [(i, x) for i, x in enumerate(s.qclass) if x]
                val = sum(x * mat[i][j] * y
                          for i, x in nonzero for j, y in nonzero)
                if val != s.self_intersection:
                    out.append(Violation(
                        "SelfIntersectionMismatch", s.id,
                        f"qclass gives {val}, stored {s.self_intersection}"))

    if cfg.integral_pairing is not None:
        P = cfg.integral_pairing
        if P.rows != cfg.b2 or P.cols != len(cfg.surfaces):
            out.append(Violation("IntegralPairingShape", "integral_pairing",
                                 f"{P.rows}x{P.cols} vs b2={cfg.b2}, "
                                 f"{len(cfg.surfaces)} surfaces"))

    return out


def assign_local_invariants(cfg: OrbifoldConfig) -> dict[str, PointLocalInvariant]:
    """Compatible local invariants at every singular point.

    Works under the hypothesis that each singular point lies on at most
    one isotropy surface of multiplicity > 1.  For a point of order d
    with weights (e1, e2) on a surface with invariant (n, j):

        e  = e1 * e2^-1 mod d
        x  = rad(d) / gcd(rad(d), rad(j))
        e2' = j + n*x,  e1' = e * e2'

    giving (m1, m2, d, e1, e2) = (n, 1, d, e1' mod d, e2' mod n*d), so
    (m, j1, j2) = (n*d, n*e1' mod m, e2' mod m).  Points on no isotropy
    surface get (1, 1, d, e1, e2), so (m, j1, j2) = (d, e1, e2).
    """
    out: dict[str, PointLocalInvariant] = {}
    for p in cfg.points:
        isotropy = [cfg.surface(s) for s in p.incident
                    if cfg.surface(s).multiplicity > 1]
        d = p.order
        e1, e2 = p.exponents
        if len(isotropy) > 1:
            raise UnsupportedGeometry(
                f"point {p.id}: {len(isotropy)} incident isotropy surfaces; "
                "assignment is only defined for at most one")
        if not isotropy:
            out[p.id] = PointLocalInvariant(p.id, (1, 1, d, e1, e2),
                                            p.incident)
            continue
        surf = isotropy[0]
        n, j = surf.multiplicity, surf.local_j
        e = (e1 * mod_inverse(e2, d)) % d
        e2p = j + n * radical_quotient(d, j)
        pli = PointLocalInvariant(p.id, (n, 1, d, e * e2p % d, e2p % (n * d)),
                                  p.incident)
        bad = pli.violations()
        if bad:
            raise UnsupportedGeometry(
                f"point {p.id}: assignment failed invariants: {bad}")
        out[p.id] = pli
    return out


def check_compatibility(pli: PointLocalInvariant, surf: SurfaceData) -> bool:
    """Does the point invariant restrict to the surface invariant?

    The surface sitting in the slot of multiplicity m1 must satisfy
    j_surface = j2 (mod m1), and symmetrically for the m2 slot.
    """
    if surf.id not in pli.incident:
        raise NotIncident(f"{surf.id} not incident to point {pli.point_id}")
    m1, m2, _, _, _ = pli.derived
    n, j = surf.multiplicity, surf.local_j
    if n == 1:
        return True
    if n == m1:
        return (pli.j2 - j) % m1 == 0
    if n == m2:
        return (pli.j1 - j) % m2 == 0
    return False


def check_even_point_bound(cfg: OrbifoldConfig, p: int) -> bool:
    """At most b2 singular points can have order divisible by p."""
    count = sum(1 for pt in cfg.points if pt.order % p == 0)
    return count <= cfg.b2
