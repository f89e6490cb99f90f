"""Fixed-point algebra: charge-zero sector, bilinears, central elements."""

import numpy as np
import pytest

from lcqft import algebra as alg
from lcqft import gauge as gg
from lcqft import observables as obs
from lcqft.errors import MassNotInSpectrum, NoMasslessSpecies, NotChargeZero
from lcqft.spacetime import LatticeSpacetime, MassSpectrum, multi_diamond
from lcqft.suites import RunConfig, observables_suite

from oracles import (dict_derivation, dict_max_coeff_diff, random_data, sigma,
                     slot_map, species_on_data)


def _charge_zero_scalar(rng, st, massless):
    """Single-species data (2, N), rows q and p."""
    N = st.n_sites
    q = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    p = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    if massless:
        p = p - np.mean(p)
    return np.array([q, p])


def _theta(st):
    """Massless scalar data with sigma(theta, 1) = 1: not charge zero."""
    N = st.n_sites
    return np.array([np.zeros(N), -np.ones(N) / N])


def _field(st, data, species):
    return alg.fields(st, obs.in_species(st, data, species))


class TestChargeZeroSubspace:
    # theta spans the complement of the charge-zero sector
    def test_theta_normalization(self, mixed_spacetime):
        st = mixed_spacetime
        theta = obs.in_species(st, _theta(st), 0)
        unit = obs.in_species(st, [np.ones(st.n_sites), np.zeros(st.n_sites)], 0)
        assert abs(sigma(theta, unit) - 1.0) < 1e-14

    def test_in_species_layout(self, mixed_spacetime, rng):
        # q and p of the data land in one species slot of each channel
        st = mixed_spacetime
        data = _charge_zero_scalar(rng, st, False)
        vec = obs.in_species(st, data, 2).reshape(2, st.n_species, st.n_sites)
        assert np.array_equal(vec[:, 2], data)
        assert not vec[:, :2].any()


class TestBilinearGenerator:
    def test_zero_inputs(self, mixed_spacetime):
        z = np.zeros((2, 8))
        gen = obs.bilinear_generator(mixed_spacetime, 1.0, z, z)
        assert gen.degree == -1

    def test_unknown_mass(self, mixed_spacetime, rng):
        phi = _charge_zero_scalar(rng, mixed_spacetime, False)
        with pytest.raises(MassNotInSpectrum):
            obs.bilinear_generator(mixed_spacetime, 7.0, phi, phi)

    def test_charge_zero_required_for_massless(self, mixed_spacetime, rng):
        phi = np.array([np.zeros(8), np.ones(8)])
        with pytest.raises(NotChargeZero):
            obs.bilinear_generator(mixed_spacetime, 0.0, phi, phi)

    def test_degree_parts(self, mixed_spacetime, rng):
        # degree-0 part is (i/2) sum_i sigma(phi x e_i, psi x e_i)
        #               = (i/2) nu(m) sigma_scalar(phi, psi)
        st = mixed_spacetime
        phi = _charge_zero_scalar(rng, st, False)
        psi = _charge_zero_scalar(rng, st, False)
        gen = obs.bilinear_generator(st, 1.0, phi, psi)
        sigma_scalar = sigma(phi.ravel(), psi.ravel())
        expected = 0.5j * 2 * sigma_scalar
        assert abs(gen.coefficient(()) - expected) < 1e-12
        assert gen.degree == 2

    def test_invariance_under_gauge(self, mixed_spacetime, rng):
        # one generator per mass against 50 random gauge elements, then a
        # fresh generator batch against a smaller sample
        worst = 0.0
        for mass in (0.0, 1.0):
            phi = _charge_zero_scalar(rng, mixed_spacetime, mass == 0.0)
            psi = _charge_zero_scalar(rng, mixed_spacetime, mass == 0.0)
            gen = obs.bilinear_generator(mixed_spacetime, mass, phi, psi)
            for _ in range(50):
                g = gg.random_gauge(rng, mixed_spacetime.spectrum)
                worst = max(worst, alg.max_coeff_diff(
                    gg.QuantumAction(g, mixed_spacetime)(gen), gen))
            for _ in range(4):
                phi = _charge_zero_scalar(rng, mixed_spacetime, mass == 0.0)
                psi = _charge_zero_scalar(rng, mixed_spacetime, mass == 0.0)
                gen = obs.bilinear_generator(mixed_spacetime, mass, phi, psi)
                for _ in range(8):
                    g = gg.random_gauge(rng, mixed_spacetime.spectrum)
                    worst = max(worst, alg.max_coeff_diff(
                        gg.QuantumAction(g, mixed_spacetime)(gen), gen))
        assert worst < 1e-10

    def test_degree_two_part_is_species_paired_tensor(self, mixed_spacetime,
                                                      rng):
        # the degree-2 component equals the symmetrized sum over the block of
        # (phi x e_i) tensor (psi x e_i), assembled independently of the
        # product code
        st = mixed_spacetime
        mass = 1.0
        phi = _charge_zero_scalar(rng, st, False)
        psi = _charge_zero_scalar(rng, st, False)
        gen = obs.bilinear_generator(st, mass, phi, psi)
        block = st.spectrum.block_slice(mass)
        expected = {}
        for s in range(block.start, block.stop):
            u = obs.in_species(st, phi, s)
            v = obs.in_species(st, psi, s)
            for i in np.nonzero(u)[0]:
                for j in np.nonzero(v)[0]:
                    key = tuple(sorted((int(i), int(j))))
                    expected[key] = expected.get(key, 0.0) + u[i] * v[j]
        deg2 = gen.select(gen.term_degrees() == 2)
        worst = 0.0
        for key, val in expected.items():
            worst = max(worst, abs(deg2.coefficient(key) - val))
        assert worst < 1e-12
        assert len(deg2.terms) == len([k for k, v in expected.items()
                                       if abs(v) > 1e-15])

    def test_products_stay_invariant(self, mixed_spacetime, rng):
        phi = _charge_zero_scalar(rng, mixed_spacetime, False)
        psi = _charge_zero_scalar(rng, mixed_spacetime, False)
        chi = _charge_zero_scalar(rng, mixed_spacetime, True)
        g1 = obs.bilinear_generator(mixed_spacetime, 1.0, phi, psi)
        g2 = obs.bilinear_generator(mixed_spacetime, 0.0, chi, chi)
        residual = obs.invariant_projection_check(g1 * g2)
        assert residual < 1e-10
        residual = obs.invariant_projection_check((g1 * g1).star())
        assert residual < 1e-10


class TestInvariantProjectionCheck:
    def test_unit_invariant(self, mixed_spacetime):
        residual = obs.invariant_projection_check(alg.one(mixed_spacetime))
        assert residual == 0.0

    def test_theta_field_fails_affine(self, mixed_spacetime):
        # Phi(theta x e_1): massless, not charge zero: the affine derivative
        # is nonzero (the lambda-linear coefficient survives)
        el = _field(mixed_spacetime, _theta(mixed_spacetime), 0)
        residual = obs.invariant_projection_check(el)
        assert residual >= 1e-10
        deriv = obs.affine_derivative(el, 0)
        assert deriv.max_abs() > 0.5  # = sigma(theta, 1) = 1 up to sign
        # its square is even under every reflection and the massless block
        # has no rotations: only the shift derivative rejects it
        residual = obs.invariant_projection_check(el * el)
        assert residual > 0.1

    def test_single_species_bilinear_fails_rotation(self, massive_spacetime,
                                                    rng):
        # Phi(phi e_0) Phi(psi e_0) is even under every reflection; only the
        # so(2) generator sees that it is not summed over the block
        phi = _charge_zero_scalar(rng, massive_spacetime, False)
        psi = _charge_zero_scalar(rng, massive_spacetime, False)
        el = _field(massive_spacetime, phi, 0) \
            * _field(massive_spacetime, psi, 0)
        residual = obs.invariant_projection_check(el)
        assert residual > 1e-3

    def test_mass_mixing_fails(self, mixed_spacetime, rng):
        phi = _charge_zero_scalar(rng, mixed_spacetime, True)
        psi = _charge_zero_scalar(rng, mixed_spacetime, False)
        mixed = _field(mixed_spacetime, phi, 0) * _field(mixed_spacetime, psi, 1)
        residual = obs.invariant_projection_check(mixed)
        assert residual > 1e-3

    def test_species_antisymmetric_bilinear_needs_the_reflection(
            self, massive_spacetime, rng):
        # Phi(phi e_0) Phi(psi e_1) - Phi(phi e_1) Phi(psi e_0) is the
        # determinant of the species pair: SO(2) fixes it exactly, the
        # reflection flips its sign
        st = massive_spacetime
        phi = _charge_zero_scalar(rng, st, False)
        psi = _charge_zero_scalar(rng, st, False)

        def f(h, s):
            return _field(st, h, s)

        det = f(phi, 0) * f(psi, 1) - f(phi, 1) * f(psi, 0)
        gen, = species_on_data(st, gg.rotation_generators(st.spectrum))
        assert alg.derivation(det, slot_map(gen)).terms == {}
        residual = obs.invariant_projection_check(det)
        assert residual == pytest.approx(2 * det.max_abs())
        assert residual >= 1e-10

    def test_each_mass_block_reflected_on_its_own(self, rng):
        # on "1:1,2:1" the group is {+-1} x {+-1} with no rotations: the
        # mixed bilinear is fixed by (-1, -1) but not by (-1, 1)
        from lcqft.spacetime import LatticeSpacetime, MassSpectrum
        st = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("1:1,2:1"))
        phi = _charge_zero_scalar(rng, st, False)
        psi = _charge_zero_scalar(rng, st, False)
        mixed = _field(st, phi, 0) * _field(st, psi, 1)
        both = gg.GaugeElement(st.spectrum, -np.eye(2), np.zeros(0))
        assert alg.max_coeff_diff(gg.QuantumAction(both, st)(mixed),
                                  mixed) == 0.0
        residual = obs.invariant_projection_check(mixed)
        assert residual == pytest.approx(2 * mixed.max_abs())
        assert residual >= 1e-10


class TestCentralElements:
    def test_requires_massless(self, massive_spacetime):
        with pytest.raises(NoMasslessSpecies):
            obs.central_elements(massive_spacetime)

    def test_commute_with_generators(self, mixed_spacetime, rng):
        central = obs.central_elements(mixed_spacetime)
        worst = 0.0
        for entry in central:
            for mass in (0.0, 1.0):
                for _ in range(5):
                    phi = _charge_zero_scalar(rng, mixed_spacetime, mass == 0.0)
                    psi = _charge_zero_scalar(rng, mixed_spacetime, mass == 0.0)
                    gen = obs.bilinear_generator(mixed_spacetime, mass, phi, psi)
                    worst = max(worst, alg.commutator(
                        alg.fields(mixed_spacetime, entry["chi"]),
                        gen).max_abs())
        assert worst < 1e-12

    def test_charge_zero_and_shift_fixed(self, mixed_spacetime):
        # chi has zero momentum, so sigma(chi, 1) = 0 and <l, chi> = 0:
        # central elements are fixed by every affine shift
        st = mixed_spacetime
        central = obs.central_elements(st)
        unit = obs.in_species(st, [np.ones(st.n_sites), np.zeros(st.n_sites)], 0)
        for entry in central:
            chi = entry["chi"]
            assert np.array_equal(chi, obs.in_species(
                st, [np.ones(st.n_sites), np.zeros(st.n_sites)],
                entry["species"]))
            assert sigma(chi, unit) == 0.0
            assert np.array([2.5]) @ gg.shift_functionals(st) @ chi == 0.0
            g = gg.GaugeElement(mixed_spacetime.spectrum,
                                np.eye(st.n_species), np.array([2.5]))
            element = alg.fields(st, chi)
            assert alg.max_coeff_diff(gg.QuantumAction(g, st)(element),
                                      element) < 1e-14

    def test_moved_by_orthogonal_factor(self, mixed_spacetime):
        # the obstruction: Phi(chi) is central in the charge-zero algebra but
        # the orthogonal factor moves it (R_0 = -1 flips the sign), so it is
        # not in the full fixed-point algebra
        central = obs.central_elements(mixed_spacetime)
        spectrum = mixed_spacetime.spectrum
        g = gg.GaugeElement(
            spectrum,
            np.diag([-1.0 if mass == 0.0 else 1.0
                     for mass in spectrum.species_masses]),
            np.zeros(spectrum.massless_count))
        for entry in central:
            element = alg.fields(mixed_spacetime, entry["chi"])
            moved = gg.QuantumAction(g, mixed_spacetime)(element)
            assert alg.max_coeff_diff(moved, (-1.0) * element) < 1e-14
            assert alg.max_coeff_diff(moved, element) > 0.5
            assert "central" in entry["flag"]

    def test_nonzero(self, mixed_spacetime):
        for entry in obs.central_elements(mixed_spacetime):
            assert alg.fields(mixed_spacetime, entry["chi"]).max_abs() > 0.5


class TestMultiComponentRegions:
    def test_disjoint_diamond_bilinear_invariant_but_flagged(self, rng):
        # a bilinear from solutions supported in causally disjoint diamonds
        # passes gauge invariance yet is excluded from the per-component
        # algebra of observables (cross-component support)
        from lcqft.spacetime import LatticeSpacetime, MassSpectrum
        st = LatticeSpacetime(11, 12, 0.5, MassSpectrum.parse("1:2"))
        region = multi_diamond(st, [(6, 0, 3), (6, 5, 3)])
        N = st.n_sites
        comp1, comp2 = ({(c.base_start + j) % N for j in range(c.base_length)}
                        for c in region.components)

        def scalar_in(sites):
            q = np.zeros(N, dtype=complex)
            p = np.zeros(N, dtype=complex)
            sites = sorted(sites)
            q[sites] = rng.standard_normal(len(sites))
            p[sites] = rng.standard_normal(len(sites))
            return np.array([q, p])

        phi, psi = scalar_in(comp1), scalar_in(comp2)
        gen = obs.bilinear_generator(st, 1.0, phi, psi)
        residual = obs.invariant_projection_check(gen)
        assert residual < 1e-10
        supports = [comp1, comp2]
        cross = not any(
            set(np.nonzero(np.abs(phi).sum(0))[0]) <= s
            and set(np.nonzero(np.abs(psi).sum(0))[0]) <= s
            for s in supports)
        assert cross  # flagged: not generated within one component


class TestDegreeCap:
    def test_invariance_check_degree_cap(self, mixed_spacetime):
        from lcqft.errors import DegreeCapExceeded
        big = alg.monomial(mixed_spacetime, (0, 1, 2, 3, 4))
        with pytest.raises(DegreeCapExceeded):
            obs.invariant_projection_check(big)


class TestWorkingMemory:
    def test_invariance_check_of_a_generator_product(self, massive_spacetime,
                                                     rng):
        # the largest element of the algebra route that the reduction-lemma
        # tests compare the forms against: two bilinear generators of 273
        # terms multiply into 26.5k, and each move expands those by 4
        st_ = massive_spacetime
        a, b = (obs.bilinear_generator(st_, 1.0,
                                       _charge_zero_scalar(rng, st_, False),
                                       _charge_zero_scalar(rng, st_, False))
                for _ in range(2))
        prod = a * b
        assert len(a.coeffs) == 273 and len(prod.coeffs) == 26521
        assert obs.invariant_projection_check(prod) < 1e-10
        pres = gg.presentation(st_)
        moved = alg.derivation(prod, pres.algebra_slots[0][0])
        assert dict_max_coeff_diff(dict(moved.terms), dict_derivation(
            dict(prod.terms), species_on_data(st_, pres.generators[0]))) < 1e-13


def _form_element(st, C):
    """The algebra element sum_jk C_jk e_j e_k of a symmetric form C, built
    term by term: 2 C_jk on e_j e_k for j < k, C_jj on e_j e_j."""
    j, k = np.triu_indices(len(C))
    weights = np.where(j == k, 1.0, 2.0) * C[j, k]
    return alg.AlgebraElement(st, {(int(a), int(b)): w for a, b, w
                                   in zip(j, k, weights) if w != 0})


class TestForms:
    def test_form_is_the_degree_two_part(self, mixed_spacetime, rng):
        st = mixed_spacetime
        for mass in (0.0, 1.0):
            phi = _charge_zero_scalar(rng, st, mass == 0.0)
            psi = _charge_zero_scalar(rng, st, mass == 0.0)
            gen = obs.bilinear_generator(st, mass, phi, psi)
            C = obs.symmetric_form(*obs.bilinear_pairs(st, mass, phi, psi))
            assert np.array_equal(C, C.T)
            deg2 = gen.select(gen.term_degrees() == 2)
            assert alg.max_coeff_diff(deg2, _form_element(st, C)) < 1e-14

    def test_central_commutator_is_the_algebra_commutator(
            self, mixed_spacetime, rng):
        # [Phi(chi), Q] is the field of central_commutator(C, chi), for any
        # chi, not only the central ones
        st = mixed_spacetime
        for mass in (0.0, 1.0):
            phi = _charge_zero_scalar(rng, st, mass == 0.0)
            psi = _charge_zero_scalar(rng, st, mass == 0.0)
            gen = obs.bilinear_generator(st, mass, phi, psi)
            C = obs.symmetric_form(*obs.bilinear_pairs(st, mass, phi, psi))
            chi = random_data(rng, st)
            got = alg.commutator(alg.fields(st, chi), gen)
            want = alg.fields(st, obs.central_commutator(st, C, chi))
            assert got.max_abs() > 0.1
            assert alg.max_coeff_diff(got, want) < 1e-12


class TestReductionLemma:
    # the suite reads invariance off forms; on the suite's own forms, the
    # form residual is zero iff the algebra route's is, and lies between 1/2
    # and 1 times it

    @staticmethod
    def _suite_forms(spectrum, monkeypatch):
        seen = []
        real = obs.form_residual

        def record(st_, C):
            seen.append((st_, C))
            return real(st_, C)

        monkeypatch.setattr(obs, "form_residual", record)
        result = observables_suite(RunConfig(spectrum=spectrum, seed=5))
        monkeypatch.undo()
        assert result["status"] == "pass", result["findings"]
        return seen

    @pytest.mark.parametrize("spectrum",
                             ["1:2", "0:1,1:2", "1:2,2:3", "1:1,2:1", "0:2"])
    def test_form_residual_against_the_algebra(self, spectrum, monkeypatch):
        seen = self._suite_forms(spectrum, monkeypatch)
        assert seen
        moved = 0
        for st_, C in seen:
            form = obs.form_residual(st_, C)
            algebra = obs.invariant_projection_check(_form_element(st_, C))
            assert (form <= 1e-13) == (algebra <= 1e-13)
            if form > 1e-13:
                moved += 1
                assert form <= algebra * (1 + 1e-12)
                assert algebra <= 2 * form * (1 + 1e-12)
        # the cross-mass bilinears are the moved ones
        assert moved == (5 if "," in spectrum else 0)

    @staticmethod
    def _determinant(rng):
        """The species determinant on "1:2": fixed by SO(2), flipped by the
        reflection."""
        st = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("1:2"))
        phi = _charge_zero_scalar(rng, st, False)
        psi = _charge_zero_scalar(rng, st, False)
        us = [obs.in_species(st, phi, 0), -obs.in_species(st, phi, 1)]
        vs = [obs.in_species(st, psi, 1), obs.in_species(st, psi, 0)]
        el = sum((alg.fields(st, u) * alg.fields(st, v)
                  for u, v in zip(us, vs)), alg.zero(st))
        return st, el, obs.symmetric_form(us, vs)

    @staticmethod
    def _theta_square(rng):
        """Phi(theta)^2 of a massless field that is not charge zero, on
        "0:1,1:2": even under every reflection, moved only by the shift."""
        st = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("0:1,1:2"))
        u = obs.in_species(st, _theta(st), 0)
        return st, alg.fields(st, u) * alg.fields(st, u), \
            obs.symmetric_form([u], [u])

    @pytest.mark.parametrize("name, planted", [
        ("block_reflections", "_determinant"),
        ("shift_functionals", "_theta_square")],
        ids=["no-reflections", "no-shifts"])
    def test_dropped_moves_fail_both_routes(self, name, planted, rng,
                                            monkeypatch):
        st, el, C = getattr(self, planted)(rng)
        assert obs.form_residual(st, C) > 0.1
        assert obs.invariant_projection_check(el) > 0.1
        real = getattr(gg, name)
        monkeypatch.setattr(
            gg, name, lambda arg: real(arg)[:0] if name == "block_reflections"
            else np.zeros_like(real(arg)))
        gg.presentation.cache_clear()
        try:
            assert obs.form_residual(st, C) <= 1e-13
            assert obs.invariant_projection_check(el) <= 1e-13
        finally:
            gg.presentation.cache_clear()


def test_cross_mass_bilinears_fail_invariance_at_64_sites():
    result = observables_suite(RunConfig(spectrum="1:2,2:3", n_sites=64,
                                         seed=3))
    assert result["status"] == "pass", result["findings"]
    assert result["residuals"]["mass_mixing_residual"] > 1e-3
    assert result["residuals"]["bilinear_invariance"] <= 1e-10
