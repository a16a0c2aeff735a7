from fractions import Fraction

import pytest

from orbkit.exact import IntMatrix
from orbkit.model import OrbifoldConfig, SurfaceData
from orbkit.seifert import (
    SeifertSpec,
    UnresolvedUnknown,
    _echelon,
    _reduce,
    compute_b_residues,
    h2_of_M,
)
from orbkit.spin import (
    Mod2Class,
    SmaleBardenData,
    assignments,
    gk_check,
    pi_star_kernel,
    smale_barden_report,
    spin_decision,
    spin_sweep,
    spin_target,
    w2_base_class,
)
from orbkit.surgery import build_Z


def _glued_spec(p=3, c1B=(0,) * 16):
    z = build_Z(p)
    return SeifertSpec(z, compute_b_residues(z), tuple(c1B))


def _in_span(rows, target):
    return not _reduce(_echelon(rows), target)


# Z/2 rows are ints, bit r holding coordinate r: 0b011 is (1, 1, 0)
class TestSpanMod2:
    def test_membership(self):
        vs = [0b011, 0b110]
        assert _in_span(vs, 0b101)
        assert _in_span(vs, 0)
        assert not _in_span(vs, 0b001)

    def test_dependent_generators(self):
        vs = [0b01, 0b01, 0]
        assert _in_span(vs, 0b01)
        assert not _in_span(vs, 0b10)


class TestMod2Class:
    def test_resolve(self):
        c = Mod2Class(0b01, (("a1", 0b10),))
        assert c.resolve({"a1": 0}) == 0b01
        assert c.resolve({"a1": 1}) == 0b11
        assert c.resolve({"a1": 3}) == 0b11

    def test_missing_unknown(self):
        c = Mod2Class(0b01, (("a1", 0b10),))
        with pytest.raises(UnresolvedUnknown):
            c.resolve({})

    def test_add(self):
        c = Mod2Class(0b01) + 0b11
        assert c.base == 0b10


class TestW2BaseClass:
    def test_glued_unknowns(self):
        z = build_Z(3)
        w2 = w2_base_class(z)
        assert w2.unknown_names() == ("a1", "a2")
        # every surface avoiding the points has odd self-intersection,
        # so all fourteen of their classes are summed into the base part
        assert w2.base.bit_count() == 14

    def test_all_even_squares_give_zero(self):
        cfg = OrbifoldConfig(
            tuple(SurfaceData(f"D{k}", 1, self_intersection=Fraction(sq),
                              qclass=(Fraction(k == 0), Fraction(k == 1)))
                  for k, sq in enumerate((2, -4))),
            b1=0, b2=2,
            integral_pairing=IntMatrix.from_rows([[2, 0], [0, -4]]))
        w2 = w2_base_class(cfg)
        assert w2.base == 0 and w2.unknowns == ()

    def test_odd_sphere_contributes(self):
        cfg = OrbifoldConfig(
            (SurfaceData("E", 0, self_intersection=Fraction(-1),
                         qclass=(Fraction(1),)),),
            b1=0, b2=1, integral_pairing=IntMatrix.from_rows([[-1]]))
        assert w2_base_class(cfg).base == 0b1


class TestKernel:
    def test_even_prime_kernel_is_all_surfaces(self):
        spec = _glued_spec(2)
        assert len(pi_star_kernel(spec)) == 16

    def test_odd_prime_kernel_is_one_class(self):
        spec = _glued_spec(3)
        assert len(pi_star_kernel(spec)) == 1


class TestSpinDecision:
    def test_p3_sweep(self):
        sweep = spin_sweep(_glued_spec(3))
        assert len(sweep) == 4
        for key, is_spin in sweep.items():
            d = dict(key)
            assert is_spin == (d["a1"] == 1 and d["a2"] == 1)

    def test_p2_always_spin(self):
        for c1B in [(0,) * 16, (1,) + (0,) * 15, (1, 1) + (0,) * 14]:
            sweep = spin_sweep(_glued_spec(2, c1B))
            assert all(sweep.values())

    def test_p5_matches_p3_structure(self):
        sweep = spin_sweep(_glued_spec(5))
        assert any(sweep.values()) and not all(sweep.values())

    def test_even_background_shift_is_invisible(self):
        base = spin_sweep(_glued_spec(3))
        shifted = spin_sweep(_glued_spec(3, (2, -2, 4) + (0,) * 13))
        assert base == shifted

    def test_odd_background_shift_can_flip(self):
        base = spin_sweep(_glued_spec(3))
        shifted = spin_sweep(_glued_spec(3, (0,) * 15 + (1,)))
        assert base != shifted

    def test_assignments_are_each_bit_pattern_once(self):
        """Kills the mutant that counts masks to 3 ** len(names), not
        2 ** len(names), whose extra masks repeat patterns that
        spin_sweep's dict then folds away."""
        assert assignments(("a1", "a2")) == [
            (("a1", 0), ("a2", 0)), (("a1", 1), ("a2", 0)),
            (("a1", 0), ("a2", 1)), (("a1", 1), ("a2", 1))]
        assert assignments(()) == [()]

    def test_target_resolution_consistency(self):
        spec = _glued_spec(3)
        target = spin_target(spec)
        span = {0}  # the kernel's span, listed element by element
        for row in pi_star_kernel(spec):
            span |= {v ^ row for v in span}
        for a1 in (0, 1):
            for a2 in (0, 1):
                unk = {"a1": a1, "a2": a2}
                assert spin_decision(spec, unk) == (target.resolve(unk)
                                                    in span)


class TestSmaleBarden:
    def test_glued_report(self):
        spec = _glued_spec(3)
        data = smale_barden_report(spec, spin=True)
        assert data.k == 15
        assert data.t == ((3, 16),)
        assert data.t_max == 16 == data.k + 1
        assert data.c_max == 2
        assert data.i_M == 0
        genus = [2] + [1] * 13 + [2, 2]
        assert data.torsion_profile == tuple(
            ((3, i), g) for i, g in enumerate(genus, start=1))

    def test_torsion_free_statistics_are_zero(self):
        """Kills the mutants of t_max and c_max whose max() defaults to
        1, not 0, when there is no torsion."""
        data = SmaleBardenData(4, (), 0)
        assert (data.t, data.t_max, data.c_max) == ((), 0, 0)

    def test_nonspin_marker(self):
        data = smale_barden_report(_glued_spec(3), spin=False)
        assert data.i_M is None

    def test_profile_matches_h2(self):
        spec = _glued_spec(5)
        data = smale_barden_report(spec, spin=True)
        h2 = h2_of_M(spec)
        assert {k: 2 * c for k, c in data.torsion_profile} \
            == h2.primary_counts()


def _profile(p, powers):
    """A torsion profile with c(p^i) = 1 for i = 1..powers."""
    return tuple(((p, i), 1) for i in range(1, powers + 1))


class TestGkCheck:
    def test_glued_data_passes(self):
        assert gk_check(smale_barden_report(_glued_spec(3), spin=True))

    def test_bound_is_tight(self):
        # t(3) is the number of powers 3^i with c(3^i) > 0
        ok = SmaleBardenData(15, _profile(3, 16), 0)
        too_many = SmaleBardenData(15, _profile(3, 17), 0)
        assert (ok.t, too_many.t) == (((3, 16),), ((3, 17),))
        assert gk_check(ok) and not gk_check(too_many)

    def test_nonspin_two_torsion_needs_room(self):
        bad = SmaleBardenData(0, _profile(2, 1), None)
        good = SmaleBardenData(1, _profile(2, 1), None)
        assert not gk_check(bad) and gk_check(good)

    def test_torsion_free(self):
        assert gk_check(SmaleBardenData(3, (), 0))

    def test_nonspin_without_two_torsion_needs_no_room(self):
        """Kills the mutant that reads a missing t(2) as 1, not 0: at
        k = 0 a nonspin datum without 2-torsion still passes."""
        assert gk_check(SmaleBardenData(0, (), None))
        assert gk_check(SmaleBardenData(0, _profile(3, 1), None))

    def test_bad_barden_invariant(self):
        assert not gk_check(SmaleBardenData(3, (), 1))
