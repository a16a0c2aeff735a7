"""Second Stiefel-Whitney class, spin decision, and the 5-manifold report.

The w2-type class of the punctured base is read off surface by surface:
a surface avoiding the singular set contributes its self-intersection
mod 2; one through singular points gets a named unknown coefficient.
The total space is spin iff w2 + sum_i b_i [D_i] + c1(B) dies under
pullback, i.e. lies in the explicitly described kernel (the even-
multiplicity surface classes, or — when every multiplicity is odd — the
single class c1(B) + sum_i b_i [D_i]).  All of it is Z/2 linear algebra
on the pairing vectors of the configuration's Lattice, which holds w2
and the kernel's echelon once per configuration; a Z/2 row is an int,
so a decision is a few XORs and one reduction.

The closing report collects the classifying data of the simply
connected 5-manifold: b_2, the torsion pair counts c(p^i), the Barden
invariant (0 for spin, infinity otherwise, held exactly as None), and
the derived t/c statistics, plus the standard realizability constraints
on them.
"""

from __future__ import annotations

from .record import record
from .seifert import (
    H1NotZero,
    Lattice,
    Mod2Class,
    SeifertSpec,
    _reduce,
    h1_zero_decision,
    h2_of_M,
)


def w2_base_class(cfg) -> Mod2Class:
    """w2 of the punctured base, with its unknowns (see Lattice.w2)."""
    return Lattice.of(cfg).w2


def pi_star_kernel(spec: SeifertSpec) -> list[int]:
    """Spanning Z/2 rows of the classes killed by pullback to the bundle."""
    if not h1_zero_decision(spec).holds:
        raise H1NotZero("kernel description requires the H_1 = 0 criteria")
    lattice = spec.lattice
    if lattice.kernel is None:  # every multiplicity is odd
        return [lattice.twist(spec.c1B)]
    return [row for _, row in lattice.kernel]


def spin_target(spec: SeifertSpec) -> Mod2Class:
    """The class whose pullback is w2 of the total space."""
    return spec.lattice.w2 + spec.lattice.twist(spec.c1B)


def spin_decision(spec: SeifertSpec, unknowns: dict) -> bool:
    """Is the total space spin, for the given unknown-coefficient values?

    Spin exactly when spin_target, resolved with `unknowns`, lies in
    pi_star_kernel: it is 0 or the twist when every multiplicity is odd,
    and else reduces to 0 against the echelon the Lattice holds.  Raises
    H1NotZero unless H_1 = 0, then UnresolvedUnknown when `unknowns`
    lacks a coefficient of w2.
    """
    if not h1_zero_decision(spec).holds:
        raise H1NotZero("kernel description requires the H_1 = 0 criteria")
    kernel, target = spec.lattice.kernel, spin_target(spec).resolve(unknowns)
    if kernel is None:
        return target in (0, spec.lattice.twist(spec.c1B))
    return not _reduce(kernel, target)


def assignments(names) -> list[tuple[tuple[str, int], ...]]:
    """Every 0/1 assignment of the unknowns, as sorted (name, bit) pairs."""
    return [tuple(sorted((n, (mask >> i) & 1) for i, n in enumerate(names)))
            for mask in range(2 ** len(names))]


def spin_sweep(spec: SeifertSpec) -> dict[tuple, bool]:
    """spin_decision over every 0/1 assignment of the unknowns."""
    return {key: spin_decision(spec, dict(key))
            for key in assignments(spin_target(spec).unknown_names())}


@record(frozen=True)
class SmaleBardenData:
    """Classifying data of a simply connected 5-manifold.

    H_2 = Z^k + sum over p^i of (Z_{p^i} + Z_{p^i})^c(p^i);
    torsion_profile maps (p, i) -> c(p^i).  i_M is the Barden invariant
    i(M), an int or None for infinity: 0 when spin, infinity otherwise.
    The t/c statistics are read off the torsion profile.
    """

    k: int
    torsion_profile: tuple[tuple[tuple[int, int], int], ...]
    i_M: int | None  # 0 (spin) or None, meaning infinity (non-spin)

    @property
    def t(self) -> tuple[tuple[int, int], ...]:
        """(p, t(p)) for each prime p of the torsion, t(p) the number of
        powers p^i with c(p^i) > 0."""
        t = {}
        for (p, _), c in self.torsion_profile:
            if c > 0:
                t[p] = t.get(p, 0) + 1
        return tuple(sorted(t.items()))

    @property
    def t_max(self) -> int:
        return max((v for _, v in self.t), default=0)

    @property
    def c_max(self) -> int:
        return max((c for _, c in self.torsion_profile), default=0)


def smale_barden_report(spec: SeifertSpec, spin: bool) -> SmaleBardenData:
    h2 = h2_of_M(spec)
    profile = {}
    for (p, i), count in sorted(h2.primary_counts().items()):
        if count % 2:
            raise ValueError(
                f"torsion Z_{p}^{i} appears an odd number of times; "
                "it cannot be grouped into pairs")
        profile[(p, i)] = count // 2
    return SmaleBardenData(k=h2.rank,
                           torsion_profile=tuple(sorted(profile.items())),
                           i_M=0 if spin else None)


def gk_check(data: SmaleBardenData) -> bool:
    """Realizability constraints on the classifying data.

    Every prime must satisfy t(p) <= k + 1; the Barden invariant must
    be 0 or infinity (None); in the non-spin case additionally t(2) <= k.
    """
    t = dict(data.t)
    if any(v > data.k + 1 for v in t.values()):
        return False
    if data.i_M not in (0, None):
        return False
    if data.i_M is None and t.get(2, 0) > data.k:
        return False
    return True
