"""Lattice category: spectra, regions, morphism laws."""
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from lcqft.errors import (
    DomainMismatch,
    IntervalWrapsWholeCircle,
    LcqftError,
    MassCollision,
)
from lcqft.spacetime import (
    MASS_COLLISION_TOL,
    LatticeSpacetime,
    MassSpectrum,
    RegionComponent,
    cauchy_extension,
    compose,
    domain_of_dependence,
    identity,
    multi_diamond,
    region_inclusion,
    translation,
)

from oracles import (brute_force_domain_of_dependence, causal_paths_stay_inside,
                     intervals_touch_by_sets, pairwise_mass_collisions)


def _st(spec="1:1", n=8, steps=8):
    return LatticeSpacetime(n, steps, 0.5, MassSpectrum.parse(spec))


class TestMassSpectrum:
    def test_parse_and_counts(self):
        spec = MassSpectrum.parse("0:1,1.0:2")
        assert spec.masses == (0.0, 1.0)
        assert spec.total_species == 3
        assert spec.massless_count == 1
        assert spec.species_masses == (0.0, 1.0, 1.0)

    def test_massless_absent(self):
        assert MassSpectrum.parse("1:2").massless_count == 0

    def test_strictly_increasing(self):
        with pytest.raises(LcqftError):
            MassSpectrum(((1.0, 1), (1.0, 2)))

    def test_positive_multiplicity(self):
        with pytest.raises(LcqftError):
            MassSpectrum(((1.0, 0),))

    def test_block_slices(self):
        spec = MassSpectrum.parse("1:2,2:3")
        assert spec.block_slice(1.0) == slice(0, 2)
        assert spec.block_slice(2.0) == slice(2, 5)

    @pytest.mark.parametrize("text,written", [
        ("1:2,2:3", "1:2,2:3"), ("0:1,1.0:2", "0:1,1:2"),
        ("0.1234567:2", "0.1234567:2"),
        ("1.0000001:1,1.0000002:1", "1.0000001:1,1.0000002:1")])
    def test_format(self, text, written):
        assert MassSpectrum.parse(text).format() == written

    @given(st.dictionaries(st.floats(min_value=0.0, allow_infinity=False),
                           st.integers(1, 5), min_size=1, max_size=4))
    def test_format_parses_back_exactly(self, entries):
        spectrum = MassSpectrum(tuple(sorted(entries.items())))
        assert MassSpectrum.parse(spectrum.format()) == spectrum


class TestLatticeSpacetime:
    def test_invariants(self):
        with pytest.raises(LcqftError):
            _st(n=3)
        with pytest.raises(LcqftError):
            LatticeSpacetime(8, 8, 0.95, MassSpectrum.parse("1:1"))

    def test_non_elliptic_rejected(self):
        # dt^2 (m^2 + 4 sin^2(pi floor(N/2) / N)) must stay below 4: at dt=0.9
        # a unit mass fails on N=6 (w^2 = 5) but passes on N=5 (w^2 = 4.62)
        with pytest.raises(LcqftError, match="not elliptic"):
            LatticeSpacetime(6, 8, 0.9, MassSpectrum.parse("1:1"))
        LatticeSpacetime(5, 8, 0.9, MassSpectrum.parse("1:1"))
        with pytest.raises(LcqftError, match="not elliptic"):
            _st("0:1,5:1")

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 9])
    def test_elliptic_iff_every_mode_frequency_exists(self, n):
        import numpy as np
        from lcqft.states import mode_frequencies
        for dt in (0.5, 0.7, 0.9):
            for mass in (0.0, 0.5, 1.0, 2.0, 3.5):
                w2 = mass ** 2 + 4 * np.sin(np.pi * np.arange(n) / n) ** 2
                stable = bool(np.all(dt * dt * w2 < 4.0))
                spec = MassSpectrum.parse(f"{mass}:1")
                if not stable:
                    with pytest.raises(LcqftError):
                        LatticeSpacetime(n, 8, dt, spec)
                    continue
                st_ = LatticeSpacetime(n, 8, dt, spec)
                assert np.all(np.isfinite(mode_frequencies(st_)))

    def test_mass_collision_detected(self):
        # massless kappa^2 = 1 at k = N/6 collides with massive m=1 at k=0
        with pytest.raises(MassCollision):
            LatticeSpacetime(24, 8, 0.5, MassSpectrum.parse("0:1,1:1"))

    def test_mode_separation_agrees_with_pairwise_oracle(self):
        # sorted neighbours from different blocks against every pair of
        # values, on spectra whose blocks collide at some N
        outcomes = set()
        for spec in ("0:1,1:1", "0:1,2:1", "1:1,2:1", "0:1,1:1,2:1",
                     "0:2,1:1,2:2", "1:2,2:3", "0.5:1,1.5:2", "0:1,3:1"):
            spectrum = MassSpectrum.parse(spec)
            masses = spectrum.masses
            for n in range(4, 41):
                collide = pairwise_mass_collisions(masses, n,
                                                   MASS_COLLISION_TOL)
                outcomes.add(bool(collide))
                if not collide:
                    LatticeSpacetime(n, 8, 0.5, spectrum)
                    continue
                with pytest.raises(MassCollision) as info:
                    LatticeSpacetime(n, 8, 0.5, spectrum)
                assert any(f"masses {masses[i]} and {masses[j]} collide"
                           in str(info.value) for i, j in collide)
        assert outcomes == {True, False}

    def test_mode_separation_memory_is_linear_in_sites(self):
        # a pairwise gap array would take (B N)^2 floats: 128 MiB here
        spectrum = MassSpectrum.parse("1:2,2:3")
        tracemalloc.start()
        try:
            LatticeSpacetime(2048, 16, 0.5, spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    @pytest.mark.parametrize("text", ["nan:1", "inf:1", "1:1,nan:2"])
    def test_non_finite_mass_rejected(self, text):
        with pytest.raises(LcqftError, match="not finite"):
            MassSpectrum.parse(text)

    def test_data_dim(self):
        assert _st("1:2").data_dim == 2 * 2 * 8


class TestDomainOfDependence:
    def test_eleven_site_example(self):
        # interval [3, 7] of 11 sites: diamond apexes at t0 +/- 2 over site 5
        spacetime = _st(n=11, steps=20)
        region = domain_of_dependence(5, 3, 5, spacetime)
        pts = region.points
        assert (5 + 2, 5) in pts and (5 - 2, 5) in pts
        assert all(abs(t - 5) <= 2 for t, _ in pts)
        assert {x for t, x in pts if t == 7} == {5}

    def test_matches_brute_force(self):
        # every diamond of three lattices, clipped at both time ends and
        # wrapping past site 0
        for n in (5, 8, 11):
            spacetime = _st(n=n, steps=12)
            for t0 in range(13):
                for start in range(n):
                    for length in range(1, n):
                        region = domain_of_dependence(t0, start, length,
                                                      spacetime)
                        assert region.points \
                            == brute_force_domain_of_dependence(
                                t0, start, length, spacetime), \
                            (n, t0, start, length)

    def test_single_site(self):
        spacetime = _st(n=8)
        region = domain_of_dependence(3, 2, 1, spacetime)
        assert region.points == {(3, 2)}

    def test_widest_interval_shrinks_two_per_step(self):
        spacetime = _st(n=8, steps=8)
        region = domain_of_dependence(4, 0, 7, spacetime)
        assert region.points == brute_force_domain_of_dependence(
            4, 0, 7, spacetime)
        widths = {dt_: sum(1 for t, _ in region.points if t == 4 + dt_)
                  for dt_ in range(4)}
        assert widths[0] == 7 and widths[1] == 5 and widths[2] == 3

    def test_whole_circle_rejected(self):
        with pytest.raises(IntervalWrapsWholeCircle):
            domain_of_dependence(0, 0, 8, _st(n=8))

    def test_causally_convex(self):
        spacetime = _st(n=6, steps=6)
        region = domain_of_dependence(3, 1, 5, spacetime)
        assert causal_paths_stay_inside(region.points, spacetime)


class TestMultiDiamond:
    def test_disjoint_components_accepted(self):
        spacetime = _st(n=11, steps=12)
        region = multi_diamond(spacetime, [(5, 0, 3), (5, 5, 3)])
        assert len(region.components) == 2

    def test_adjacent_components_rejected(self):
        spacetime = _st(n=11, steps=12)
        with pytest.raises(LcqftError):
            multi_diamond(spacetime, [(5, 0, 3), (5, 3, 3)])

    @pytest.mark.parametrize("n", [5, 8, 11])
    def test_touching_rule_matches_sets(self, n):
        # every same-slice pair of base intervals, in both orders
        comps = [RegionComponent(0, start, length)
                 for start in range(n) for length in range(1, n)]
        for a in comps:
            for b in comps:
                assert a.touches(b, n) == intervals_touch_by_sets(a, b, n), \
                    (a, b)

    @pytest.mark.parametrize("bases, touch", [
        ([(5, 0, 3), (5, 4, 3)], False),
        ([(5, 0, 3), (5, 3, 3)], True),     # adjacent
        ([(5, 0, 3), (5, 2, 3)], True),     # overlapping
        ([(5, 9, 3), (5, 0, 3)], True),     # wraps past 0 onto the other
        ([(5, 9, 2), (5, 0, 3)], True),     # adjacent across site 0
        ([(5, 9, 2), (5, 1, 3)], False),    # one site apart across site 0
        ([(5, 2, 3), (5, 10, 3)], True),    # wraps past 0 up to site 2
        ([(5, 2, 3), (5, 9, 3)], False),
        ([(5, 3, 2), (5, 0, 9)], True),     # one inside the other
    ])
    def test_touching_components_rejected(self, bases, touch):
        spacetime = _st(n=11, steps=12)
        assert intervals_touch_by_sets(
            *(RegionComponent(*b) for b in bases), 11) == touch
        if touch:
            with pytest.raises(LcqftError, match="overlap or touch"):
                multi_diamond(spacetime, bases)
        else:
            assert len(multi_diamond(spacetime, bases).components) == 2

    def test_causally_related_components_rejected(self):
        spacetime = _st(n=11, steps=12)
        with pytest.raises(LcqftError):
            multi_diamond(spacetime, [(2, 0, 3), (4, 1, 3)])

    def test_components_causally_disjoint(self):
        spacetime = _st(n=11, steps=12)
        region = multi_diamond(spacetime, [(5, 0, 3), (5, 5, 3)])
        n = spacetime.n_sites
        pts1 = {p for p in region.points if p in
                domain_of_dependence(5, 0, 3, spacetime).points}
        pts2 = region.points - pts1
        for (t1, x1) in pts1:
            for (t2, x2) in pts2:
                dx = min((x1 - x2) % n, (x2 - x1) % n)
                assert dx > abs(t1 - t2)


class TestMorphisms:
    def test_translation_composition_adds(self):
        spacetime = _st()
        f = translation(spacetime, 1, 2)
        g = translation(spacetime, 2, 3)
        fg = compose(f, g)
        assert (fg.dt_steps, fg.dx_sites) == (3, 5)

    def test_identity_laws(self):
        spacetime = _st()
        f = translation(spacetime, 2, 5)
        e = identity(spacetime)
        assert compose(f, e) == f
        assert compose(e, f) == f

    def test_inclusion_transitivity(self):
        spacetime = _st(n=11, steps=12)
        d1 = domain_of_dependence(5, 2, 7, spacetime)
        d2 = domain_of_dependence(5, 4, 3, spacetime)
        assert d1.contains_region(d2)
        inner = region_inclusion(d2)
        # view D2 inside D1: same morphism data, target restricted to D1
        from lcqft.spacetime import LatticeMorphism, SpacetimeObject
        inner_in_d1 = LatticeMorphism(SpacetimeObject(spacetime, d2),
                                      SpacetimeObject(spacetime, d1))
        outer = region_inclusion(d1)
        composite = compose(outer, inner_in_d1)
        assert composite.kind == "region_inclusion"
        assert composite.source.region == d2
        assert composite.target.region is None

    def test_composition_needs_matching_objects(self):
        s1, s2 = _st(), _st(n=11, steps=12)
        with pytest.raises(DomainMismatch):
            compose(translation(s1, 0, 1), translation(s2, 0, 1))

    def test_cauchy_extension_preserves_structure(self):
        small = _st(steps=6)
        big = _st(steps=12)
        ext = cauchy_extension(small, big)
        assert ext.kind == "cauchy_extension"
        with pytest.raises(DomainMismatch):
            cauchy_extension(big, small)

    def test_exhaustive_category_laws(self):
        # identity and associativity, exhaustively over a generating family
        spacetime = _st(n=6, steps=6)
        morphisms = [translation(spacetime, dt_, dx)
                     for dt_ in (-1, 0, 2) for dx in range(3)]
        e = identity(spacetime)
        for f in morphisms:
            assert compose(f, e) == f and compose(e, f) == f
            for g in morphisms:
                for h in morphisms:
                    assert compose(compose(f, g), h) == compose(f, compose(g, h))

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
           st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
    def test_translation_group_laws(self, t1, t2, t3, x1, x2, x3):
        spacetime = _st()
        f, g, h = (translation(spacetime, t, x)
                   for t, x in ((t1, x1), (t2, x2), (t3, x3)))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


class TestCausalConvexityMore:
    def test_various_diamonds_convex(self):
        spacetime = _st(n=7, steps=6)
        for (t0, start, length) in [(3, 0, 3), (2, 4, 5), (4, 6, 4)]:
            region = domain_of_dependence(t0, start, length, spacetime)
            assert causal_paths_stay_inside(region.points, spacetime)

    def test_multi_diamond_convex(self):
        spacetime = _st(n=9, steps=6)
        region = multi_diamond(spacetime, [(3, 0, 3), (3, 5, 3)])
        assert causal_paths_stay_inside(region.points, spacetime)
