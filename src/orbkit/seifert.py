"""Seifert bundle invariants over an orbifold configuration.

A SeifertSpec fixes a background class c1(B) and the residues b_i with
j_i*b_i = 1 (mod m_i); from it we compute the rational Chern class,
decide whether the total space has H_1 = 0 (three criteria: b_1 of the
base vanishes, the restriction map onto the multiplicity torsion is
surjective, and the scaled Chern class is primitive), present H_2 of
the total space, and search for background classes: one walk gives each
key a caller asks about (a spin assignment, in the report) the first
class that serves it.  The search has one fixed budget, the L1 norm of
c1(B): it walks every class of norm at most MAX_L1, so it also reaches
entries up to MAX_L1.
What depends only on the configuration is computed once, in its
Lattice.

Cohomology classes live in the dual lattice Hom(H_2(X,Z), Z): a class
is its vector of pairings against the declared integral basis.  An
integral class (a surface class, the scaled Chern class) is a vector of
ints; only chern_class, the oracle of scaled_chern_class, is rational.
The H_1 decision of a spec is made once, on first use, like its Lattice.
A Z/2 row is an int, bit r holding coordinate r; the Lattice echelons
its kernel once, and a spin decision only reduces against that echelon.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .abelian import AbelianGroup
from .exact import IntMatrix, factorize, mod_inverse, smith_normal_form
from .model import OrbifoldConfig
from .record import record


class MissingIntegralPairing(ValueError):
    pass


class MissingQClass(ValueError):
    pass


class NonIntegralEntry(ValueError):
    pass


class H1NotZero(ValueError):
    pass


class UnresolvedUnknown(ValueError):
    pass


@record(frozen=True)
class RationalClass:
    """A class in H^2(X - P, Q) as pairings against the integral basis.

    The entries are Fractions for chern_class and ints for the integral
    scaled_chern_class; integer_entries reads either.
    """

    entries: tuple[Fraction | int, ...]

    def integer_entries(self) -> tuple[int, ...]:
        out = []
        for x in self.entries:
            if x.denominator != 1:
                raise NonIntegralEntry(f"entry {x} is not an integer")
            out.append(x.numerator)
        return tuple(out)


def _mod2(vec) -> int:
    """The Z/2 row of an integer vector: bit r holds entry r mod 2."""
    return sum(1 << r for r, x in enumerate(vec) if x % 2)


def _reduce(pivots, v: int) -> int:
    """v reduced against (pivot bit, row) pairs; 0 iff v is in their span."""
    for bit, row in pivots:
        if v >> bit & 1:
            v ^= row
    return v


def _echelon(rows) -> tuple[tuple[int, int], ...]:
    """(pivot bit, row) pairs of a Z/2 echelon basis; pivot = top bit."""
    pivots: list[tuple[int, int]] = []
    for v in rows:
        v = _reduce(pivots, v)
        if v:
            pivots.append((v.bit_length() - 1, v))
    return tuple(pivots)


@record(frozen=True)
class Mod2Class:
    """A Z/2 pairing vector plus unknown multiples of surface classes."""

    base: int
    unknowns: tuple[tuple[str, int], ...] = ()

    def resolve(self, assignment: dict) -> int:
        out = self.base
        for name, vec in self.unknowns:
            if name not in assignment:
                raise UnresolvedUnknown(f"no value for coefficient {name!r}")
            if assignment[name] % 2:
                out ^= vec
        return out

    def unknown_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.unknowns)

    def __add__(self, other: int) -> "Mod2Class":
        return Mod2Class(self.base ^ other, self.unknowns)


def isotropy_surfaces(cfg: OrbifoldConfig):
    return [s for s in cfg.surfaces if s.multiplicity > 1]


def compute_b_residues(cfg: OrbifoldConfig) -> dict[str, int]:
    """b_i with j_i*b_i = 1 (mod m_i), for each multiplicity > 1."""
    return {s.id: mod_inverse(s.local_j, s.multiplicity)
            for s in isotropy_surfaces(cfg)}


@record(frozen=True)
class SeifertSpec:
    base: OrbifoldConfig
    b_residues: dict
    c1B: tuple[int, ...]

    def __post_init__(self):
        for s in isotropy_surfaces(self.base):
            b = self.b_residues.get(s.id)
            if b != mod_inverse(s.local_j, s.multiplicity):
                raise ValueError(
                    f"b residue for {s.id} must invert j={s.local_j} "
                    f"mod {s.multiplicity}, got {b}")
        if len(self.c1B) != self.base.b2:
            raise ValueError(
                f"c1(B) has {len(self.c1B)} coordinates, b2 = {self.base.b2}")

    @cached_property
    def lattice(self) -> "Lattice":
        """The base configuration's Lattice, built on first use."""
        return Lattice.of(self.base)

    @cached_property
    def h1(self) -> "H1Decision":
        """The H_1 = 0 decision (see h1_zero_decision), made on first use."""
        b1_zero = self.base.b1 == 0
        surjective = self.lattice.surjective
        primitive = self.lattice.primitive(self.c1B)
        return H1Decision(b1_zero and surjective and primitive,
                          b1_zero, surjective, primitive)


@record(frozen=True, eq=False)
class Lattice:
    """The facts of one configuration that every background class shares.

    offset and w2 are worked out on first use, so a configuration that
    one of them rejects still answers every other question.
    """

    cfg: OrbifoldConfig
    columns: dict  # isotropy surface id -> integer pairing column
    residues: dict  # isotropy surface id -> b_i
    m: int  # lcm of the multiplicities
    surjective: bool  # H^2(X,Z) onto sum Z_{m_i}: one SNF of [P^T | diag m_i]
    odd_b: int  # Z/2 row: sum mod 2 of the columns with b_i odd
    kernel: tuple | None  # _echelon of the even-m columns mod 2, or None

    @classmethod
    def of(cls, cfg: OrbifoldConfig) -> "Lattice":
        residues = compute_b_residues(cfg)
        if cfg.integral_pairing is None:
            raise MissingIntegralPairing("config declares no integral pairing")
        iso = isotropy_surfaces(cfg)
        columns = {s.id: surface_class(cfg, s.id) for s in iso}
        rows = [list(columns[s.id])
                + [s.multiplicity if t == k else 0 for t in range(len(iso))]
                for k, s in enumerate(iso)]
        factors = smith_normal_form(
            IntMatrix.from_rows(rows)).invariant_factors()
        odd_b = _mod2(sum(b * columns[sid][r] for sid, b in residues.items())
                      for r in range(cfg.integral_pairing.rows))
        even = [_mod2(columns[s.id]) for s in iso if s.multiplicity % 2 == 0]
        kernel = _echelon(even) if even else None
        return cls(cfg, columns, residues, total_multiplicity(cfg),
                   len(factors) == len(iso) and all(d == 1 for d in factors),
                   odd_b, kernel)

    @cached_property
    def offset(self) -> tuple[int, ...]:
        """sum_i (m/m_i) b_i [D_i], the scaled Chern class at c1(B) = 0."""
        out = (0,) * self.cfg.integral_pairing.rows
        for s in isotropy_surfaces(self.cfg):
            if s.qclass is None:
                raise MissingQClass(f"{s.id} has no homology coordinates")
            k = self.m // s.multiplicity * self.residues[s.id]
            out = tuple(o + k * x for o, x in zip(out, self.columns[s.id]))
        return out

    def scaled_chern(self, c1B) -> tuple[int, ...]:
        """m * c1(M) = m c1(B) + sum_i (m/m_i) b_i [D_i], as integers."""
        return tuple(self.m * c + o for c, o in zip(c1B, self.offset))

    def primitive(self, c1B) -> bool:
        """Is the scaled Chern class of c1B primitive (entries coprime)?"""
        return gcd(*self.scaled_chern(c1B)) == 1

    @cached_property
    def w2(self) -> Mod2Class:
        """w2 of the punctured base in terms of the tracked surfaces.

        Surfaces avoiding the singular points are pinned by the evenness
        of their self-intersection; surfaces through singular points get
        the unknown coefficients a1, a2, ... in listing order.
        """
        base = 0
        unknowns = []
        for s in self.cfg.surfaces:
            vec = _mod2(self.columns[s.id] if s.id in self.columns
                        else surface_class(self.cfg, s.id))
            if self.cfg.points_on(s.id):
                unknowns.append((f"a{len(unknowns) + 1}", vec))
            elif s.self_intersection.denominator != 1:
                raise ValueError(
                    f"{s.id} avoids the singular points but has "
                    f"non-integral self-intersection {s.self_intersection}")
            elif s.self_intersection % 2:
                base ^= vec
        return Mod2Class(base, tuple(unknowns))

    @cached_property
    def h2(self) -> AbelianGroup:
        """Z^(b2-1) + sum_i Z_{m_i}^(2 g_i), H_2 of every total space over
        the configuration whose H_1 vanishes (see h2_of_M)."""
        counts: dict[tuple[int, int], int] = {}
        for s in isotropy_surfaces(self.cfg):
            for p, e in factorize(s.multiplicity):
                counts[(p, e)] = counts.get((p, e), 0) + 2 * s.genus
        return AbelianGroup.from_prime_powers(self.cfg.b2 - 1, counts)

    def twist(self, c1B) -> int:
        """c1(B) + sum_i b_i [D_i] mod 2, as a Z/2 row."""
        return _mod2(c1B) ^ self.odd_b

    def spec(self, c1B) -> SeifertSpec:
        """The SeifertSpec of background class c1B, sharing this lattice."""
        spec = SeifertSpec(self.cfg, self.residues, tuple(c1B))
        spec.__dict__["lattice"] = self
        return spec


def surface_class(cfg: OrbifoldConfig, sid: str) -> tuple[int, ...]:
    """[D] as a functional on the integral basis: its integer pairing
    column."""
    P = cfg.integral_pairing
    if P is None:
        raise MissingIntegralPairing("config declares no integral pairing")
    for i, s in enumerate(cfg.surfaces):
        if s.id == sid:
            return tuple([row[i] for row in P.entries])
    raise ValueError(f"no surface {sid!r} in the configuration")


def total_multiplicity(cfg: OrbifoldConfig) -> int:
    return lcm(*(s.multiplicity for s in cfg.surfaces)) if cfg.surfaces else 1


def chern_class(spec: SeifertSpec) -> RationalClass:
    """c1(M) = c1(B) + sum_i (b_i/m_i) [D_i], as a pairing vector.

    Summed in Fractions from the surface classes and the residues, apart
    from the Lattice, whose scaled_chern it checks."""
    out = tuple(Fraction(c) for c in spec.c1B)
    for s in isotropy_surfaces(spec.base):
        b = Fraction(spec.b_residues[s.id], s.multiplicity)
        out = tuple(x + b * d
                    for x, d in zip(out, surface_class(spec.base, s.id)))
    return RationalClass(out)


def scaled_chern_class(spec: SeifertSpec) -> RationalClass:
    """m * c1(M) for m = lcm of the multiplicities; its entries are ints."""
    return RationalClass(spec.lattice.scaled_chern(spec.c1B))


def is_primitive(alpha: RationalClass) -> bool:
    """Is the (integral) pairing vector part of a dual-lattice basis?"""
    return gcd(*alpha.integer_entries()) == 1


@record(frozen=True)
class H1Decision:
    holds: bool
    b1_zero: bool
    surjective: bool
    primitive: bool


def h1_zero_decision(spec: SeifertSpec) -> H1Decision:
    """The three-way criterion for H_1 of the total space to vanish: b_1
    of the base is 0, the lattice is surjective and the scaled Chern
    class is primitive.  Decided once per spec (SeifertSpec.h1)."""
    return spec.h1


def h2_of_M(spec: SeifertSpec) -> AbelianGroup:
    """H_2 of the total space: Z^(b2-1) + sum_i Z_{m_i}^(2 g_i)."""
    if not h1_zero_decision(spec).holds:
        raise H1NotZero("H_2 formula requires the H_1 = 0 criteria")
    return spec.lattice.h2


def _graded_vectors(dim: int, max_l1: int):
    """All integer vectors of L1 norm <= max_l1, by (L1 norm, lex)."""
    def rec(prefix, remaining, budget):
        if remaining == 0:
            if budget == 0:
                yield tuple(prefix)
            return
        for v in range(-budget, budget + 1):
            prefix.append(v)
            yield from rec(prefix, remaining - 1, budget - abs(v))
            prefix.pop()

    for norm in range(0, max_l1 + 1):
        yield from rec([], dim, norm)


# the L1-norm bound of the background-class search, its only budget: a
# norm of k bounds every entry by k too.  A bound of 3 gives every
# glued_Z question the same answer, and the walk grows exponentially in it
MAX_L1 = 2


def search_background_class(lattice: Lattice, wanted,
                            serves) -> list[SeifertSpec] | None:
    """For each key of wanted, the first background class in graded order
    that serves it, or None when the walk leaves a key unserved.

    One walk over the candidates c1(B) of the lattice's configuration of
    L1 norm at most MAX_L1, read when called, by L1 norm then
    lexicographically.  A candidate whose scaled Chern class is not
    primitive is skipped; the others become a SeifertSpec sharing the
    lattice, and serves(spec, key) decides for each key not yet served.
    The walk stops as soon as every key has a spec, so it is as long as
    the longest of the one-key walks, and one Lattice.of(cfg) runs one
    SNF for all of them.  Returns the specs in the order of wanted, whose
    keys are distinct.  An exhausted walk is an answer, not an error: the
    caller reports it as inconclusive.
    """
    found = dict.fromkeys(wanted)
    for c1B in _graded_vectors(lattice.cfg.b2, MAX_L1):
        if lattice.primitive(c1B):
            spec = lattice.spec(c1B)
            found.update({key: spec for key, got in found.items()
                          if got is None and serves(spec, key)})
            if None not in found.values():
                return list(found.values())
    return None
