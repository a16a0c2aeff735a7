"""Finitely generated abelian groups: rank plus torsion.

Torsion is stored as a divisibility chain of invariant factors; a
prime-power refinement (counts of cyclic summands of each prime-power
order) is derived on demand.  Both homology computations and group
abelianizations land here.
"""

from __future__ import annotations

from collections import Counter

from .exact import factorize
from .record import record


@record(frozen=True)
class AbelianGroup:
    """Z^rank plus a direct sum of cyclic groups.

    invariant_factors is the chain d1 | d2 | ... with every d >= 2.
    """

    rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        facs = self.invariant_factors
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError(f"not a divisibility chain: {facs}")
        if any(d < 2 for d in facs):
            raise ValueError(f"invariant factors must be >= 2: {facs}")

    def primary_counts(self) -> dict[tuple[int, int], int]:
        """Map (p, i) -> number of Z_{p^i} cyclic summands."""
        counts: Counter = Counter()
        for d in self.invariant_factors:
            for p, e in factorize(d):
                counts[(p, e)] += 1
        return dict(counts)

    @classmethod
    def from_prime_powers(cls, rank: int,
                          counts: dict[tuple[int, int], int]) -> "AbelianGroup":
        """Build from summand counts {(p, i): c} meaning Z_{p^i}^c."""
        per_prime: dict[int, list[int]] = {}
        for (p, e), c in counts.items():
            if c < 0:
                raise ValueError("negative summand count")
            per_prime.setdefault(p, []).extend([e] * c)
        for exps in per_prime.values():
            exps.sort(reverse=True)
        depth = max((len(v) for v in per_prime.values()), default=0)
        factors = []
        for k in range(depth):
            d = 1
            for p, exps in per_prime.items():
                if k < len(exps):
                    d *= p ** exps[k]
            factors.append(d)
        factors.reverse()
        return cls(rank=rank, invariant_factors=tuple(factors))

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z_{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"
