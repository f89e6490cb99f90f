"""Endomorphism classifier: the per-momentum solve, and the coordinate-space
system of `oracles` that checks it."""
import tracemalloc

import numpy as np
import pytest

from lcqft import classify as clf
from lcqft import dynamics as dyn
from lcqft import gauge as gg
from lcqft._linalg import nullspace
from lcqft.errors import BudgetExceeded
from lcqft.spacetime import LatticeSpacetime, MassSpectrum

import oracles
from oracles import (coords_to_matrix, dense_commutant_dimension,
                     dense_evolution_commutant, orthonormal_columns,
                     shift_matrix)


def _st(spec, n=8, steps=16):
    return LatticeSpacetime(n, steps, 0.5, MassSpectrum.parse(spec))


def _dense_basis(st):
    """The commutant basis as flattened dense matrices, one row each."""
    return np.array([coords_to_matrix(g, st).ravel()
                     for g in oracles.coordinate_commutant(st).coords])


def _orthonormal_rows(mat, tol=1e-10):
    _, s, vt = np.linalg.svd(mat, full_matrices=False)
    return vt[: int(np.sum(s > tol * s[0]))] if s.size and s[0] > 0 \
        else mat[:0]


def _max_sine(a_rows, b_rows):
    """Largest principal-angle sine between two orthonormal row spans."""
    resid = b_rows - (b_rows @ a_rows.T) @ a_rows
    return float(np.linalg.norm(resid, 2)) if resid.size else 0.0


class TestCommutant:
    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            clf.build_commutant_basis(_st("1:1", n=33, steps=8))

    def test_mode_counting_oracle(self):
        # real dimension 2 N sum_m nu(m)^2: two complex dimensions per species
        # pair per momentum (span of identity and the one-step mode map)
        for spec in ("1:1", "1:2", "0:1,1:2", "1:2,2:3"):
            st = _st(spec)
            basis = clf.build_commutant_basis(st)
            assert basis.dimension == clf.expected_commutant_dimension(st)

    def test_dense_intersection_oracle_tiny(self):
        # the closed-form result agrees with the literal two-sided dense
        # commutant intersection
        for spec, expected in (("1:1", 8), ("0:2", 32), ("1:1,2:1", 16)):
            st = _st(spec, n=4, steps=8)
            production = clf.build_commutant_basis(st).dimension
            oracle = dense_commutant_dimension(shift_matrix(st),
                                               dyn.one_step_matrix(st))
            assert production == oracle == expected, spec

    @pytest.mark.parametrize("spec,n", [("1:2", 8), ("0:1,1:2", 8),
                                        ("1:2,2:3", 8), ("1:2,2:3", 16)])
    def test_matches_dense_evolution_nullspace(self, spec, n):
        # the closed form spans the SVD nullspace of the dense evolution
        # commutator on block-circulant coordinates: all principal angles 0
        st = _st(spec, n=n)
        closed = oracles.coordinate_commutant(st).coords
        dense = dense_evolution_commutant(st)
        assert closed.shape == dense.shape
        assert np.max(np.abs(closed @ closed.T - np.eye(len(closed)))) < 1e-13
        assert _max_sine(closed, dense) < 1e-12
        assert _max_sine(dense, closed) < 1e-12

    def test_elements_commute(self, rng):
        st = _st("1:2")
        basis = oracles.coordinate_commutant(st)
        U = dyn.one_step_matrix(st)
        P = shift_matrix(st)
        for i in range(0, basis.dimension, 7):
            G = coords_to_matrix(basis.coords[i], st)
            assert np.max(np.abs(G @ U - U @ G)) < 1e-10
            assert np.max(np.abs(G @ P - P @ G)) < 1e-12

    def test_contains_identity_and_mode_rotations(self):
        st = _st("1:1")
        flat = _dense_basis(st)
        dim = st.data_dim

        def in_span(M):
            v = M.ravel()
            coeff, *_ = np.linalg.lstsq(flat.T, v, rcond=None)
            return np.linalg.norm(flat.T @ coeff - v) < 1e-9 * max(
                1.0, np.linalg.norm(v))

        assert in_span(np.eye(dim))
        assert in_span(dyn.one_step_matrix(st))  # per-mode phase rotations

    def test_so_generators_are_members(self):
        st = _st("1:2,2:3")
        flat = _dense_basis(st)
        for G in oracles.species_on_data(
                st, gg.rotation_generators(st.spectrum)):
            v = G.ravel()
            coeff, *_ = np.linalg.lstsq(flat.T, v, rcond=None)
            assert np.linalg.norm(flat.T @ coeff - v) \
                < 1e-12 * np.linalg.norm(v)


def _unexplained(rows, n):
    """Least-squares residual norm of each of the first n columns of the
    constraint rows against the A_+- columns: how far each map is from
    solving D_+- X(g) P = A_+- D_+- P."""
    a = np.linalg.lstsq(rows[:, n:], -rows[:, :n], rcond=None)[0]
    return np.linalg.norm(rows[:, :n] + rows[:, n:] @ a, axis=0)


def _zero_mode_projector(st):
    """Projector onto the spatial zero mode of each massless channel."""
    S, N = st.n_species, st.n_sites
    P = np.zeros((st.data_dim, st.data_dim))
    if st.spectrum.massless_count == 0:
        return P
    block = st.spectrum.block_slice(0.0)
    for s in range(block.start, block.stop):
        for base in (s * N, S * N + s * N):
            P[base:base + N, base:base + N] = 1.0 / N
    return P


def _dense_null_derivatives(st):
    """D_+- at slice 0, site 0 as dense (2, S, dim) matrices, read off
    `dynamics.null_derivatives` on every canonical basis vector."""
    S, N, half = st.n_species, st.n_sites, st.data_dim // 2
    eye = np.eye(st.data_dim)
    dp, dm = dyn.null_derivatives(eye[:, :half].reshape(-1, S, N),
                                  eye[:, half:].reshape(-1, S, N))
    return np.stack([dp[:, :, 0].T, dm[:, :, 0].T])


class TestConstraints:
    SPECTRA = [("1:2,2:3", 8), ("1:2,2:3", 16), ("0:1,1:2", 8), ("0:1,1:2", 16),
               ("1:3", 8), ("0:2", 8), ("1:1,2:1", 8)]

    @pytest.mark.parametrize("spec,n", SPECTRA)
    def test_matches_sampled_oracle(self, spec, n):
        # the one-point closed form and null energies sampled on evolved
        # solutions over many points and batches cut out the same directions
        st = _st(spec, n=n)
        active, _ = oracles.coordinate_zero_mode_split(
            oracles.coordinate_commutant(st))
        closed, _, _ = nullspace(oracles.coordinate_constraint_rows(active, st))
        closed = orthonormal_columns(closed[:len(active)])
        sampled, _ = oracles.sampled_constraint_nullspace(st, active)
        sampled = orthonormal_columns(sampled)
        assert closed.shape == sampled.shape
        assert closed.shape[1] == clf.expected_so_dimension(st)
        assert _max_sine(closed.T, sampled.T) < 1e-12
        assert _max_sine(sampled.T, closed.T) < 1e-12

    @pytest.mark.parametrize("spec", ["1:2", "0:1,1:2", "1:2,2:3"])
    def test_rows_match_dense_null_derivatives(self, spec, rng):
        # each map's rows are D_+- X(g) P, the other columns -(E D_+- P) for
        # a basis E of so(S), both signs stacked
        st = _st(spec)
        S, C, N, dim = st.n_species, 2 * st.n_species, st.n_sites, st.data_dim
        coords = rng.standard_normal((3, C * C * N))
        rows = oracles.coordinate_constraint_rows(coords, st)
        n_so = S * (S - 1) // 2
        assert rows.shape == (2 * S * dim, 3 + 2 * n_so)
        D = _dense_null_derivatives(st)
        P = np.eye(dim) - _zero_mode_projector(st)
        blocks = rows.reshape(2, S * dim, -1)
        for sign in range(2):
            for j, g in enumerate(coords):
                want = D[sign] @ coords_to_matrix(g, st) @ P
                assert np.max(np.abs(blocks[sign, :, j] - want.ravel())) < 1e-13
            A = blocks[sign, :, 3:].reshape(S, dim, 2, n_so)
            assert np.max(np.abs(A[:, :, 1 - sign])) == 0.0
            Es = []
            for k in range(n_so):
                E = -np.linalg.lstsq((D[sign] @ P).T, A[:, :, sign, k].T,
                                     rcond=None)[0].T
                assert np.max(np.abs(E + E.T)) < 1e-13
                assert np.max(np.abs(A[:, :, sign, k] + E @ D[sign] @ P)) < 1e-13
                Es.append(E.ravel())
            assert np.linalg.matrix_rank(np.array(Es).reshape(n_so, -1)) == n_so

    def test_so_rows_vanish(self):
        # each in-block rotation solves the system with some A_+-
        for spec in ("1:2", "0:1,1:2", "1:2,2:3"):
            st = _st(spec)
            so = oracles.coordinate_so_rows(st)
            assert np.max(_unexplained(
                oracles.coordinate_constraint_rows(so, st), len(so))) < 1e-12

    def test_symmetric_species_matrix_violates(self):
        # the trace direction (identity on one block) scales the energy
        st = _st("1:2")
        C, N = 2 * st.n_species, st.n_sites
        g = np.zeros((C, C, N))
        g[np.arange(C), np.arange(C), 0] = 1.0
        assert np.array_equal(coords_to_matrix(g, st), np.eye(st.data_dim))
        rows = oracles.coordinate_constraint_rows(g[None], st)
        assert _unexplained(rows, 1)[0] > 1e-3

    def test_mode_dependent_rotation_violates(self):
        # a phase rotation on a single momentum pair commutes with shift and
        # evolution but fails pointwise null-energy preservation
        st = _st("1:1")
        N, dt = st.n_sites, st.dt
        k = 2
        proj = np.cos(2 * np.pi * k * np.arange(N) / N) * 2 / N  # by offset
        w2 = 1.0 + 4 * np.sin(np.pi * k / N) ** 2
        s = np.sqrt(dt * dt * w2 * (1 - dt * dt * w2 / 4))
        g = np.zeros((2, 2, N))
        g[0, 1] = (dt / s) * proj
        g[1, 0] = -(s / dt) * proj
        G = coords_to_matrix(g, st)
        U = dyn.one_step_matrix(st)
        assert np.max(np.abs(G @ U - U @ G)) < 1e-12  # genuinely in commutant
        rows = oracles.coordinate_constraint_rows(g[None], st)
        assert _unexplained(rows, 1)[0] > 1e-3

    @pytest.mark.parametrize("spec", ["1:2", "0:1,1:2"])
    def test_rows_match_evolved_generator_images(self, spec, rng):
        # the oracle's rows come from G applied to each slice of the evolved
        # phi; for a commutant element that equals evolving the dense image
        # G phi
        st = _st(spec)
        S, N, half = st.n_species, st.n_sites, st.data_dim // 2
        active, _ = oracles.coordinate_zero_mode_split(
            oracles.coordinate_commutant(st))
        coords = active[::5]
        points = oracles.default_sample_points(st)
        t_max = max(t for t, _, _ in points)
        vec = oracles.project_out_massless_zero_mode(
            rng.standard_normal(st.data_dim), st)
        rows = oracles.sampled_constraint_rows(
            oracles.site_fft(coords, st), vec, st, points)

        def null_derivs(v):
            q, p = dyn.evolve_data(v[:half].reshape(S, N), v[half:].reshape(S, N),
                                   st, 0, t_max, trajectory=True)
            return dyn.null_derivatives(q, p)

        base = null_derivs(vec)
        for j, g in enumerate(coords):
            image = null_derivs(coords_to_matrix(g, st) @ vec)
            want = []
            for t, x, sign in points:
                d = 0 if sign > 0 else 1          # (D_plus, D_minus)
                want.append(np.real(image[d][t, :, x] @ base[d][t, :, x]))
            assert np.max(np.abs(rows[:, j] - want)) < 1e-12

    @pytest.mark.parametrize("spec", ["1:2", "0:1,1:2", "1:2,2:3"])
    def test_applying_coordinates_matches_dense(self, spec, rng):
        st = _st(spec)
        coords = rng.standard_normal((3, (2 * st.n_species) ** 2 * st.n_sites))
        vec = rng.standard_normal(st.data_dim)
        applied = oracles.apply_coords(oracles.site_fft(coords, st), vec, st)
        for g, out in zip(coords, applied):
            dense = coords_to_matrix(g, st) @ vec
            assert np.max(np.abs(out - dense)) < 1e-13 * max(
                1.0, np.max(np.abs(dense)))


class TestZeroModeSplit:

    @pytest.mark.parametrize("spec", ["0:1,1:2", "0:2"])
    def test_matches_dense_projection(self, spec):
        st = _st(spec)
        P = _zero_mode_projector(st)
        basis = oracles.coordinate_commutant(st)
        mats = [coords_to_matrix(g, st) for g in basis.coords]
        dense_q = _orthonormal_rows(np.array([(P @ M @ P).ravel() for M in mats]))
        dense_a = _orthonormal_rows(
            np.array([(M - P @ M @ P).ravel() for M in mats]))

        active, quarantined = oracles.coordinate_zero_mode_split(basis)
        act = np.array([coords_to_matrix(g, st).ravel() for g in active])
        quar = np.array([coords_to_matrix(g, st).ravel()
                         for g in quarantined])
        nu0 = st.spectrum.massless_count
        assert len(quar) == len(dense_q) == 2 * nu0 * nu0
        assert len(act) == len(dense_a) == len(mats) - 2 * nu0 * nu0
        # each map has unit Frobenius norm, and the maps are orthonormal
        assert np.max(np.abs(act @ act.T - np.eye(len(act)))) < 1e-12
        assert np.max(np.abs(quar @ quar.T - np.eye(len(quar)))) < 1e-12
        assert _max_sine(dense_a, act) < 1e-12
        assert _max_sine(dense_q, quar) < 1e-12

    def test_massive_spectrum_quarantines_nothing(self):
        st = _st("1:2,2:3")
        active, quarantined = clf.split_zero_mode(clf.build_commutant_basis(st))
        assert quarantined.dimension == len(quarantined.k) == 0
        assert active.dimension == clf.expected_commutant_dimension(st)
        active, quarantined = oracles.coordinate_zero_mode_split(
            oracles.coordinate_commutant(st))
        assert quarantined.shape[0] == 0
        assert active.shape[0] == clf.expected_commutant_dimension(st)

    def test_sample_vectors_lose_the_zero_mode(self, rng):
        st = _st("0:1,1:2")
        P = _zero_mode_projector(st)
        vecs = rng.standard_normal((4, st.data_dim))
        projected = oracles.project_out_massless_zero_mode(vecs, st)
        assert np.max(np.abs(projected - (vecs - vecs @ P))) < 1e-14
        assert np.max(np.abs(oracles.canonical_sample_vectors(st)
                             - (np.eye(st.data_dim) - P))) < 1e-15


class TestClassify:
    @pytest.mark.parametrize("spec,expected", [
        ("1:1", 0), ("1:2", 1), ("1:3", 3), ("1:2,2:3", 4)])
    def test_expected_dimensions(self, spec, expected):
        report = clf.classify(_st(spec), seed=0)
        assert report["dimension"] == expected
        assert report["expected"] == expected
        assert report["match"] is True
        assert report["max_principal_angle"] < 1e-9

    def test_seed_stability(self):
        st = _st("1:2")
        dims = {clf.classify(st, seed=s)["dimension"] for s in range(5)}
        assert dims == {1}

    def test_soundness_residuals(self):
        report = clf.classify(_st("1:3"), seed=1)
        res = report["residuals"]
        assert res["soundness_sigma"] < 1e-10
        assert res["soundness_null_energy"] < 1e-9
        assert res["soundness_rce_commute"] < 1e-8
        assert res["reflection_null_energy"] < 1e-12
        assert res["so_representation"] < 1e-12

    def test_reflection_residual_reflects_each_block(self, monkeypatch):
        # every block reflection is applied to each of the three solutions
        st = _st("1:2,2:3")
        seen = []
        real_action = clf.classical_action

        def counting(g, phi):
            seen.append(tuple(round(float(np.linalg.det(R))) for R in g.blocks))
            return real_action(g, phi)

        monkeypatch.setattr(clf, "classical_action", counting)
        assert clf.reflection_residual(st, np.random.default_rng(0)) < 1e-12
        assert sorted(seen) == sorted([(-1, 1), (1, -1)] * 3)

    def test_generators_exponentiate_to_block_rotations(self):
        report = clf.classify(_st("1:2"), seed=0)
        gen = np.array(report["generators"][0])
        S_map = oracles.expm_taylor(gen)
        # the exponential acts identically on q and p channels and mixes only
        # species within the block
        st = _st("1:2")
        N = st.n_sites
        half = st.data_dim // 2
        qq = S_map[:half, :half]
        pp = S_map[half:, half:]
        assert np.max(np.abs(qq - pp)) < 1e-12
        R = qq[::N, ::N]
        assert np.max(np.abs(R.T @ R - np.eye(2))) < 1e-12

    def test_zero_mode_quarantine(self):
        report = clf.classify(_st("0:1,1:2"), seed=0)
        assert report["zero_mode_dimension"] == 2  # 2 nu(0)^2
        assert report["match"] is True
        assert report["dimension"] == 1
        assert report["residuals"]["so_representation"] < 1e-12
        assert any("quarantined" in line for line in report["findings"])
        report2 = clf.classify(_st("0:2"), seed=0)
        assert report2["zero_mode_dimension"] == 8
        assert report2["dimension"] == 1  # so(2)

    def test_affine_directions(self):
        # the k = 0 solve has dimension nu(0) and spans both the dense
        # oracle's functionals and the shift functionals
        for spec, n in [("1:2", 8), ("0:2", 8), ("0:1,1:2", 8),
                        ("0:1,1:2", 9), ("0:2,1:1,2:2", 11), ("1:5", 16),
                        ("0:3", 16)]:
            st = _st(spec, n=n)
            n0 = st.spectrum.massless_count
            report = clf.classify(st, seed=0)
            assert report["affine"]["dimension"] \
                == report["affine"]["expected"] == n0, spec
            assert report["affine"]["residual"] < 1e-12, spec
            solved = clf.affine_functionals(st, dyn.mode_maps(st)[:, 0])
            dense = oracles.dense_affine_functionals(st)
            assert solved.shape == dense.shape == (n0, st.data_dim), spec
            assert _max_sine(solved, dense) <= 1e-12, spec
            assert _max_sine(dense, solved) <= 1e-12, spec
            notes = [line for line in report["findings"]
                     if line.startswith("the compactness theorem")]
            assert len(notes) == (n0 > 0), spec

    @pytest.mark.parametrize("mutate, dimension", [
        (lambda U, h: np.eye(2), 4),                   # U rows dropped
        (lambda U, h: np.array([[1.0, h], [0.0, 1.0]]), 2)])  # massless form
    def test_affine_mutants_fail_the_suite(self, mutate, dimension,
                                           monkeypatch):
        from lcqft.suites import RunConfig, classify_suite

        def mutated(st):
            U = dyn.mode_maps(st).copy()
            U[:, 0] = mutate(U[:, 0], st.dt)
            return U

        monkeypatch.setattr(clf, "mode_maps", mutated)
        result = classify_suite(RunConfig(spectrum="1:2", suite="classify"))
        assert result["status"] == "fail"
        assert result["dimensions"]["affine_dimension"] == dimension
        assert f"affine_dimension: {dimension} != expected 0" \
            in result["findings"]
        assert "affine_shift_angle: residual 1.000e+00 exceeds 1.0e-10" \
            in result["findings"]

    def test_report_schema(self):
        report = clf.classify(_st("1:2"), seed=0)
        for key in ("dimension", "expected", "match", "generators",
                    "residuals", "zero_mode_dimension", "commutant_dimension"):
            assert key in report
        assert len(report["generators"]) == report["dimension"]



def _mode_coords(G):
    """Block-circulant coordinate row (C*C*N,) of the real map with blocks
    G_k (N, C, C): the inverse DFT over k."""
    g = np.fft.ifft(G, axis=0)
    assert np.max(np.abs(g.imag)) < 1e-14
    return g.real.transpose(1, 2, 0).ravel()


class TestModeSolve:
    """The per-momentum solve against the coordinate-space oracle."""

    @pytest.mark.parametrize("spec,n", [
        ("1:2", 8), ("1:3", 16), ("1:5", 8), ("0:1,1:2", 16), ("0:2", 8),
        ("1:1,2:1", 8), ("1:2,2:3", 8), ("1:2,2:3", 16), ("0:2", 32),
        ("1:2,2:3", 32)])
    def test_solved_span_matches_coordinate_oracle(self, spec, n):
        st = _st(spec, n=n)
        active, _ = clf.split_zero_mode(clf.build_commutant_basis(st))
        solution, _ = clf.solve_blocks(active, st)
        modes = clf.solved_generators(st, solution)
        oracle = oracles.coordinate_classification(st)
        assert len(modes) == len(oracle) == clf.expected_so_dimension(st)
        if not modes:
            return
        solved = _orthonormal_rows(np.array([_mode_coords(G) for G in modes]))
        assert len(solved) == len(oracle)
        assert _max_sine(solved, oracle) < 1e-12
        assert _max_sine(oracle, solved) < 1e-12

    @pytest.mark.parametrize("spec", ["1:2", "0:1,1:2", "1:2,2:3"])
    def test_mode_elements_commute_with_the_stepper(self, spec, rng):
        # E (x) (a_k 1 + b_k U_k), with U_k from the closed form, commutes
        # with the one-step matrix read off the stepper and with the shift
        st = _st(spec)
        basis = clf.build_commutant_basis(st)
        U, P = dyn.one_step_matrix(st), shift_matrix(st)
        N, k = st.n_sites, np.arange(st.n_sites)
        for b, (_, block) in enumerate(st.spectrum.block_slices()):
            E = np.zeros((st.n_species, st.n_species))
            E[block, block] = rng.standard_normal((block.stop - block.start,) * 2)
            a, c = np.cos(2 * np.pi * k / N), np.cos(4 * np.pi * k / N)
            m = a[:, None, None] * np.eye(2) \
                + c[:, None, None] * basis.U[basis.block == b]
            G = dyn.dense_from_modes(st, clf.mode_generator(st, E, k, m))
            assert np.max(np.abs(G @ U - U @ G)) < 1e-13
            assert np.max(np.abs(G @ P - P @ G)) < 1e-13
            assert np.max(np.abs(G)) > 0.1

    def test_counts_match_coordinate_oracle(self):
        for spec in ("1:2", "0:1,1:2", "0:2", "1:2,2:3"):
            st = _st(spec)
            active, quarantined = clf.split_zero_mode(
                clf.build_commutant_basis(st))
            o_active, o_quarantined = oracles.coordinate_zero_mode_split(
                oracles.coordinate_commutant(st))
            assert active.dimension == len(o_active)
            assert quarantined.dimension == len(o_quarantined) \
                == 2 * st.spectrum.massless_count ** 2

    def test_species_generators_are_dense_rotations(self):
        st = _st("1:2,2:3")
        for R in gg.rotation_generators(st.spectrum):
            assert np.array_equal(
                dyn.dense_from_modes(st, clf.species_generator(st, R)),
                oracles.species_on_data(st, R))

    @pytest.mark.parametrize("spec", ["1:2", "0:1,1:2"])
    def test_mode_exponential_matches_dense(self, spec, rng):
        # exponentiating mode by mode and applying through the DFT is the
        # dense exponential of the dense generator
        st = _st(spec)
        active, _ = clf.split_zero_mode(clf.build_commutant_basis(st))
        k = active.k[active.block == 0]
        m = 0.3 * rng.standard_normal((st.n_sites, 2, 2))
        m = (m + m[-np.arange(st.n_sites)])[k]     # k and -k alike: real map
        E = rng.standard_normal((st.n_species, st.n_species))
        G = clf.mode_generator(st, E, k, m)
        dense = oracles.expm_taylor(dyn.dense_from_modes(st, G))
        vec = rng.standard_normal(st.data_dim)
        assert np.max(np.abs(clf._apply(st, clf._mode_exp(G), vec)
                             - dense @ vec)) < 1e-12

    def test_reports_the_rank_gap(self):
        res = clf.classify(_st("1:2,2:3"), seed=0)["residuals"]
        assert res["constraint_sigma_max_dropped"] \
            < clf.RANK_REL_TOL * res["constraint_sigma_max"]
        assert res["constraint_sigma_min_kept"] \
            > 1e6 * res["constraint_sigma_max_dropped"]

    def test_builds_no_dense_map_of_the_data(self, monkeypatch):
        # only the report's generators are dense: no rce_matrix, no
        # one_step_matrix, no dense exponential
        def boom(*args, **kwargs):
            raise AssertionError("dense map built")

        dyn.one_step_matrix.cache_clear()
        for name in ("rce_matrix", "one_step_matrix", "matrix_of"):
            monkeypatch.setattr(dyn, name, boom)
        monkeypatch.setattr(oracles, "expm_taylor", boom)
        for name in ("rce_matrix", "one_step_matrix", "expm_taylor"):
            assert not hasattr(clf, name)
        report = clf.classify(_st("1:2,2:3"), seed=0)
        assert report["match"] is True and report["dimension"] == 4

    def test_dropping_the_minus_rows_is_a_surplus(self, monkeypatch, tmp_path,
                                                  capsys):
        from lcqft.cli import main
        rows = clf.constraint_rows_for_solution
        monkeypatch.setattr(clf, "constraint_rows_for_solution",
                            lambda active, st: rows(active, st)[:, :2])
        report = clf.classify(_st("1:2,2:3"), seed=0)
        assert report["dimension"] > report["expected"] == 4
        assert report["match"] is False
        assert any("!= expected" in line for line in report["findings"])
        assert main(["classify", "--spectrum", "1:2,2:3",
                     "--out", str(tmp_path / "classify.json")]) == 1
        assert "match=False" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["1:2", "0:1,1:2", "1:2,2:3"])
    def test_symplectic_residual_is_the_dense_one(self, spec, rng):
        # max |S^T J S - J| read off the blocks equals the dense value
        st = _st(spec)
        N, C = st.n_sites, 2 * st.n_species
        m = 0.3 * (rng.standard_normal((N, C, C))
                   + 1j * rng.standard_normal((N, C, C)))
        m = m + np.conj(m[-np.arange(N)])           # k and -k alike: real map
        S = oracles.expm_taylor(dyn.dense_from_modes(st, m))
        J = dyn.symplectic_matrix(st)
        dense = np.max(np.abs(S.T @ J @ S - J))
        assert dense > 0.1
        sigma = clf.generator_soundness(st, m, rng)["sigma"]
        assert abs(sigma - dense) < 1e-12 * dense

    def test_small_symplectic_defect_exceeds_the_tolerance(self):
        # exp(R + eps 1) = e^eps exp(R) scales J by e^(2 eps): the residual
        # reads 2 eps, as the dense check did
        from lcqft import suites
        st = _st("1:5", n=32)
        R = gg.rotation_generators(st.spectrum)[0]
        res = clf.generator_soundness(
            st, clf.species_generator(st, R + 1e-7 * np.eye(5)),
            np.random.default_rng(0))
        assert res["sigma"] > suites.DEFAULT_TOLERANCES["classify.soundness"]
        assert abs(res["sigma"] - 2e-7) < 1e-9

    @pytest.mark.parametrize("spec", ["1:2", "0:1,1:2", "1:2,2:3"])
    def test_rank_deficient_mode_reports_every_direction(self, spec,
                                                         monkeypatch):
        # h^2 w^2 = 4 at k = N/2 zeroes U_k[1, 0], and M_k loses rank: the
        # nu^2 unseen directions of each block are counted and reported
        real = clf.mode_maps

        def degenerate(st):
            U = real(st).copy()
            U[:, st.n_sites // 2, 1, 0] = 0.0
            return U

        monkeypatch.setattr(clf, "mode_maps", degenerate)
        st = _st(spec)
        report = clf.classify(st, seed=0)
        nu2 = sum(n * n for _, n in st.spectrum.entries)
        assert report["dimension"] == report["expected"] + nu2
        assert report["match"] is False
        assert any("seen by no constraint" in f for f in report["findings"])
        generators = np.array(report["generators"])
        assert len(generators) == report["dimension"]
        assert np.linalg.matrix_rank(
            generators.reshape(len(generators), -1)) == report["dimension"]

    def test_unseen_directions_pair_k_with_minus_k(self, monkeypatch):
        # rows that vanish at k = +-1 leave both (a_k, b_k) free there: two
        # complex directions per species entry, four real maps
        st = _st("1:2,2:3")
        rows = clf.constraint_rows_for_solution

        def blind(active, st):
            out = rows(active, st)
            out[np.isin(active.k, (1, st.n_sites - 1))] = 0.0
            return out

        monkeypatch.setattr(clf, "constraint_rows_for_solution", blind)
        active, _ = clf.split_zero_mode(clf.build_commutant_basis(st))
        solution, _ = clf.solve_blocks(active, st)
        assert [len(sol.unseen) for sol in solution] == [4, 4]
        modes = clf.solved_generators(st, solution)
        assert len(modes) == 4 + 4 * (2 * 2 + 3 * 3)
        coords = np.array([_mode_coords(G) for G in modes])
        assert np.linalg.matrix_rank(coords) == len(modes)
        report = clf.classify(st, seed=0)
        assert report["dimension"] == len(report["generators"]) == 4 + 52

    def test_non_orthogonal_species_generator_fails_soundness(self,
                                                              monkeypatch):
        from lcqft import suites
        st = _st("1:2")
        R = gg.rotation_generators(st.spectrum)[0]
        res = clf.generator_soundness(
            st, clf.species_generator(st, R + 0.1 * np.eye(2)),
            np.random.default_rng(0))
        tol = suites.DEFAULT_TOLERANCES["classify.soundness"]
        assert res["sigma"] > tol and res["null_energy"] > tol
        monkeypatch.setattr(clf, "rotation_generators",
                            lambda spectrum: 1.5 * np.abs(
                                gg.rotation_generators(spectrum)))
        result = suites.classify_suite(suites.RunConfig(spectrum="1:2",
                                                        suite="classify"))
        assert result["status"] == "fail"
        assert {"soundness_sigma", "soundness_null_energy"} <= {
            line.split(":")[0] for line in result["findings"]}


class TestSoundnessBatch:
    """The batched soundness check against its one-solution-per-call loop."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("spec", ["1:2", "0:1,1:2", "1:2,2:3", "1:5"])
    def test_batch_equals_loop_bit_for_bit(self, spec, n):
        # the report's rotations and the solved directions: species maps
        # and generic mode maps; the rng must end in the same state
        st = _st(spec, n=n)
        solution, _ = clf.solve_blocks(
            clf.split_zero_mode(clf.build_commutant_basis(st))[0], st)
        modes = [clf.species_generator(st, R)
                 for R in gg.rotation_generators(st.spectrum)] \
            + clf.solved_generators(st, solution)
        batched, looped = np.random.default_rng(3), np.random.default_rng(3)
        assert clf.generator_soundness(st, np.array(modes), batched) \
            == oracles.looped_generator_soundness(st, modes, looped)
        assert clf.reflection_residual(st, batched) \
            == oracles.looped_reflection_residual(st, looped)
        assert clf.generator_soundness(st, modes[-1], batched) \
            == oracles.looped_generator_soundness(st, modes[-1:], looped)
        assert batched.standard_normal() == looped.standard_normal()

    def test_samples_are_evolved_one_group_at_a_time(self):
        # one generator's 3 samples and their images, or one sample and its
        # 2 block reflections, evolve at a time: the peak stays below twice
        # the q and p trajectories of that group (holding every generator's
        # samples at once would take 4 times the generator's alone)
        st = _st("1:2,2:3", n=256)
        modes = np.array([clf.species_generator(st, R)
                          for R in gg.rotation_generators(st.spectrum)])
        assert len(modes) == 4

        def trajectories(n_vectors):
            return 2 * st.n_slices * n_vectors * st.data_dim // 2 * 16

        for run, group in [
                (lambda rng: clf.generator_soundness(st, modes, rng), 6),
                (lambda rng: clf.reflection_residual(st, rng), 3)]:
            tracemalloc.start()
            try:
                live = tracemalloc.get_traced_memory()[0]
                run(np.random.default_rng(31))
                peak = tracemalloc.get_traced_memory()[1] - live
            finally:
                tracemalloc.stop()
            assert peak < 2 * trajectories(group), (peak, group)
