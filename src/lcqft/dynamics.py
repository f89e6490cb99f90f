"""Classical multi-species Klein-Gordon dynamics on the lattice.

Cauchy data lives on the t=0 slice: per-species field values q and conjugate
momenta p = dq/dt, both (..., S, N) arrays with any leading batch axes, real
unless complex data come in (`evolve_data`). Time stepping is kick-drift-kick
(velocity Verlet), so every step is an exact linear symplectomorphism and is
inverted exactly by the opposite step.

The canonical basis of the solution space is: index s*N + x for the q-channel
of species s at site x, and S*N + s*N + x for the p-channel. All modules
work on data vectors (..., 2 S N) over it, with sigma(a, b) = a @ J @ b for
J = `symplectic_matrix`; `Solution` and the functions taking one remain only
as entry points of the benchmark harness.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LcqftError, SpacetimeMismatch, SupportViolation
from .spacetime import LatticeSpacetime

# basis vectors per batch of `matrix_of`
MATRIX_CHUNK = 64


@dataclass(frozen=True, eq=False)
class Solution:
    """Element of the complexified solution space: Cauchy data at t=0.

    Kept for the benchmark's CCR check (`perfbench/checks.py`)."""

    spacetime: LatticeSpacetime
    q: np.ndarray  # (S, N) complex
    p: np.ndarray  # (S, N) complex

    def vec(self) -> np.ndarray:
        """Coefficients over the canonical basis, length 2*S*N."""
        return np.concatenate([self.q.ravel(), self.p.ravel()])


def solution_from_vec(spacetime: LatticeSpacetime, vec: np.ndarray) -> Solution:
    """The `Solution` of one data vector (for the benchmark's CCR check)."""
    return Solution(spacetime, *data_from_vec(spacetime, np.ravel(vec)))


def data_from_vec(st: LatticeSpacetime, vec: np.ndarray):
    """Cauchy data q, p (..., S, N) of data vectors (..., 2 S N)."""
    x = np.reshape(vec, np.shape(vec)[:-1] + (2, st.n_species, st.n_sites))
    return x[..., 0, :, :], x[..., 1, :, :]


# -- symplectic form -----------------------------------------------------------

def symplectic_matrix(spacetime: LatticeSpacetime) -> np.ndarray:
    """Matrix J with sigma(e_i, e_j) = J[i, j] over the canonical basis."""
    half = spacetime.n_species * spacetime.n_sites
    J = np.zeros((2 * half, 2 * half))
    J[:half, half:] = np.eye(half)
    J[half:, :half] = -np.eye(half)
    return J


# -- perturbations and test functions -------------------------------------------

@dataclass(frozen=True, eq=False)
class Perturbation:
    """Compactly supported perturbation of the field equation.

    kind="mass": pointwise shift of the squared-mass term, identical across
    species (the default throughout).
    kind="gradient": metric-like perturbation of the spatial stiffness; the
    site values act as edge weights 1 + v on the couplings, so constants stay
    solutions of the perturbed massless equation.
    """

    spacetime: LatticeSpacetime
    v: np.ndarray  # (n_steps + 1, N) real
    kind: str = "mass"

    def __post_init__(self):
        T1, N = self.spacetime.n_slices, self.spacetime.n_sites
        v = np.asarray(self.v, dtype=float)
        if v.shape != (T1, N):
            raise SupportViolation(f"v must have shape ({T1}, {N})")
        if np.any(v[0] != 0) or np.any(v[-1] != 0):
            raise SupportViolation("perturbation needs clean first and last slices")
        if self.kind not in ("mass", "gradient"):
            raise LcqftError(f"unknown perturbation kind {self.kind!r}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    def scaled(self, s: float) -> "Perturbation":
        return Perturbation(self.spacetime, s * self.v, self.kind)


# the shortest time extent (in steps) on which a test function is accepted
TEST_FUNCTION_MIN_STEPS = 4


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Spacetime-smearing function, compactly supported in slices [1, T-2]."""

    spacetime: LatticeSpacetime
    values: np.ndarray  # (S, n_steps + 1, N) complex

    def __post_init__(self):
        S, T1, N = (self.spacetime.n_species, self.spacetime.n_slices,
                    self.spacetime.n_sites)
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (S, T1, N):
            raise SupportViolation(f"values must have shape ({S}, {T1}, {N})")
        if self.spacetime.n_steps < TEST_FUNCTION_MIN_STEPS:
            raise SupportViolation("time extent too short for a test function")
        bad = np.any(vals[:, 0] != 0) or np.any(vals[:, -2:] != 0)
        if bad:
            raise SupportViolation("support must stay inside slices [1, T-2]")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


# -- stepping kernel -------------------------------------------------------------

def _masses_sq(spacetime: LatticeSpacetime) -> np.ndarray:
    m = np.asarray(spacetime.spectrum.species_masses)
    return (m * m)[:, None]


@lru_cache(maxsize=None)
def _neighbours(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Site indices x + 1 and x - 1 on the circle (read-only, shared)."""
    x = np.arange(n_sites)
    nxt, prv = (x + 1) % n_sites, (x - 1) % n_sites
    nxt.setflags(write=False)
    prv.setflags(write=False)
    return nxt, prv


def _accel(q: np.ndarray, spacetime: LatticeSpacetime,
           v_slice: np.ndarray | None, kind: str) -> np.ndarray:
    """Acceleration dd q/dt dt on one slice; q has shape (..., S, N)."""
    nxt, prv = _neighbours(spacetime.n_sites)
    if kind == "gradient" and v_slice is not None:
        w = 1.0 + v_slice  # edge weight between x and x+1
        dq = q.take(nxt, axis=-1) - q
        flux = w * dq
        lap = flux - flux.take(prv, axis=-1)
    else:
        lap = q.take(nxt, axis=-1) - 2.0 * q + q.take(prv, axis=-1)
    a = lap - _masses_sq(spacetime) * q
    if kind == "mass" and v_slice is not None:
        a = a - v_slice * q
    return a


def evolve_data(q: np.ndarray, p: np.ndarray, spacetime: LatticeSpacetime,
                t_from: int, t_to: int, pert: Perturbation | None = None,
                source: np.ndarray | None = None,
                trajectory: bool = False):
    """Evolve Cauchy data from slice t_from to slice t_to.

    q, p may carry arbitrary leading batch axes before the trailing (S, N).
    The perturbation (if any) is indexed by absolute slice; slices outside its
    table count as zero. `source` is a (..., S, T1, N) inhomogeneity entering
    like the mass-kind perturbation force; its leading axes broadcast
    against those of q and p. It computes in the number type of q, p and
    the source, so real data stay real. With trajectory=True, returns (q, p)
    at every visited slice from t_from to t_to inclusive, as two arrays
    (|t_to - t_from| + 1, ..., S, N) allocated once: each step writes its
    new q and p straight into the next slice.
    """
    dt = spacetime.dt
    dtype = np.result_type(q, p, float, float if source is None else source)
    if trajectory:
        shape = (abs(t_to - t_from) + 1,) + np.shape(q)
        q_traj, p_traj = np.empty(shape, dtype), np.empty(shape, dtype)
        q_traj[0], p_traj[0] = q, p
        q, p = q_traj[0], p_traj[0]
    else:
        q, p = np.array(q, dtype), np.array(p, dtype)
    direction = 1 if t_to >= t_from else -1
    h = dt * direction

    def v_at(t):
        if pert is None:
            return None
        if 0 <= t < pert.v.shape[0]:
            return pert.v[t]
        return None

    def force(qq, t):
        a = _accel(qq, spacetime, v_at(t), pert.kind if pert else "mass")
        if source is not None and 0 <= t < source.shape[-2]:
            a = a + source[..., t, :]
        return a

    t = t_from
    a = force(q, t)
    while t != t_to:
        p_half = p + 0.5 * h * a
        t += direction
        slot = abs(t - t_from)
        q = np.add(q, h * p_half, out=q_traj[slot] if trajectory else None)
        a = force(q, t)
        p = np.add(p_half, 0.5 * h * a, out=p_traj[slot] if trajectory else None)
    if trajectory:
        return q_traj, p_traj
    return q, p


def matrix_of(map_fn, spacetime: LatticeSpacetime) -> np.ndarray:
    """Dense float64 matrix of a real linear map on the solution space, from
    the canonical basis in batches of MATRIX_CHUNK vectors (map_fn acts on
    (q, p) batch arrays), so a map that holds a trajectory holds one
    batch's. The stepper acts on each vector alone: batches change no bit."""
    dim = spacetime.data_dim
    out = np.empty((dim, dim), order="F")  # one column per vector
    for lo in range(0, dim, MATRIX_CHUNK):
        eye = np.eye(min(MATRIX_CHUNK, dim - lo), dim, lo)
        images = map_fn(*data_from_vec(spacetime, eye))
        out[:, lo:lo + len(eye)] = np.concatenate(images, -2).reshape(-1, dim).T
    return out


@lru_cache(maxsize=32)
def one_step_matrix(spacetime: LatticeSpacetime) -> np.ndarray:
    """Matrix of one forward step of the free equation; kept for the
    benchmark's step check (`perfbench/test_checks.py`)."""
    return matrix_of(
        lambda qb, pb: evolve_data(qb, pb, spacetime, 0, 1), spacetime)


def mode_maps(spacetime: LatticeSpacetime) -> np.ndarray:
    """One forward step of the free equation on each spatial Fourier mode,
    in closed form: (B, N, 2, 2), one 2x2 map on (q_k, p_k) per mass block
    (spectrum order) and momentum k.

    A mode feels the force -w^2 q, with w^2 the block's row of
    `spacetime.dispersion`, so kick-drift-kick gives
    U_k = [[c, h], [-h w^2 (1 - h^2 w^2 / 4), c]] with c = 1 - h^2 w^2 / 2.
    """
    h, w2 = spacetime.dt, spacetime.dispersion
    U = np.empty(w2.shape + (2, 2))
    U[..., 0, 0] = U[..., 1, 1] = 1.0 - 0.5 * h * h * w2
    U[..., 0, 1] = h
    U[..., 1, 0] = -h * w2 * (1.0 - 0.25 * h * h * w2)
    return U


def dense_from_modes(spacetime: LatticeSpacetime,
                     blocks: np.ndarray) -> np.ndarray:
    """The (dim, dim) matrix of the real shift-invariant map with mode blocks
    G_k (N, 2S, 2S), channels in the canonical order c*S + s: entries
    X[(a, x), (b, x')] = g[x - x', a, b], g the inverse DFT of G over k."""
    g, x = np.fft.ifft(blocks, axis=0).real, np.arange(spacetime.n_sites)
    return g[np.subtract.outer(x, x) % spacetime.n_sites].transpose(
        2, 0, 3, 1).reshape(spacetime.data_dim, spacetime.data_dim)


# -- causal propagator -----------------------------------------------------------

def propagate_sources(spacetime: LatticeSpacetime, sources: np.ndarray):
    """E f for a batch of test-function values `sources` (..., S, T1, N):
    Cauchy data (q, p) of shape (..., S, N), the difference of the retarded
    and advanced solutions read at t=0.

    Computed by integrating zero data forward through the sources (yielding
    the retarded solution at the final clean slice, where the advanced one
    vanishes) and transporting back with the free evolution: one forward and
    one backward pass for the whole batch; real sources give real data.
    """
    T = spacetime.n_steps
    q0 = np.zeros(sources.shape[:-2] + (sources.shape[-1],))
    q, p = evolve_data(q0, q0, spacetime, 0, T, source=sources)
    return evolve_data(q, p, spacetime, T, 0)


def propagate_test_function(f: TestFunction) -> Solution:
    """E f for one test function (see `propagate_sources`); kept as a span
    of the benchmark's trace (`perfbench/child.py`)."""
    return Solution(f.spacetime, *propagate_sources(f.spacetime, f.values))


# -- pointwise null energy ---------------------------------------------------------

def null_derivatives(q_traj: np.ndarray, p_traj: np.ndarray):
    """Both null contractions (d_t +/- d_x) phi on every slice.

    q and p have shape (..., S, N): one slice or a whole trajectory
    (T1, ..., S, N). The spatial derivative is the symmetric difference.
    Returns (D_plus, D_minus).
    """
    nxt, prv = _neighbours(q_traj.shape[-1])
    dx = 0.5 * (q_traj.take(nxt, axis=-1) - q_traj.take(prv, axis=-1))
    return p_traj + dx, p_traj - dx


def null_energy_grids(st: LatticeSpacetime, q: np.ndarray,
                      p: np.ndarray) -> np.ndarray:
    """Null energies of a batch of Cauchy data q, p (..., S, N), evolved as
    one trajectory batch, at every (t, ..., x, sign): shape (T1, ..., N, 2),
    sign order (+, -)."""
    q_traj, p_traj = evolve_data(q, p, st, 0, st.n_steps, trajectory=True)
    out = np.empty(q_traj.shape[:-2] + (st.n_sites, 2))
    for t in range(len(q_traj)):    # one slice's temporaries at a time
        for sign, d in enumerate(null_derivatives(q_traj[t], p_traj[t])):
            np.sum(np.abs(d) ** 2, axis=-2, out=out[t, ..., sign])
    return out


# -- relative Cauchy evolution -----------------------------------------------------

def relative_cauchy_evolution(sol: Solution, pert: Perturbation) -> Solution:
    """Compare perturbed and unperturbed dynamics.

    The data (at t=0, in the past of supp v) is evolved forward with the
    perturbed equation to the final clean slice and brought back with the free
    equation: a linear symplectic automorphism, the identity when v = 0.
    Kept as a span of the benchmark's trace (`perfbench/child.py`); the
    suites use `rce_data` and `rce_matrix`.
    """
    if sol.spacetime != pert.spacetime:
        raise SpacetimeMismatch("operands live on different spacetimes")
    return Solution(sol.spacetime, *rce_data(sol.q, sol.p, pert))


def rce_data(q: np.ndarray, p: np.ndarray, pert: Perturbation):
    """rce[v] of a batch of Cauchy data q, p (..., S, N), as one batch."""
    st, T = pert.spacetime, pert.spacetime.n_steps
    q, p = evolve_data(q, p, st, 0, T, pert=pert)
    return evolve_data(q, p, st, T, 0)


def rce_matrix(pert: Perturbation) -> np.ndarray:
    """Dense matrix of rce[v] over the canonical basis."""
    return matrix_of(lambda qb, pb: rce_data(qb, pb, pert), pert.spacetime)


def rce_tangent_data(pert: Perturbation, q: np.ndarray, p: np.ndarray):
    """The tangent F[v] = d/ds rce[s v] at s=0 of a batch of Cauchy data q, p
    (..., S, N): its data (q, p) at t=0, as one batch.

    The force is linear in v, so the derivative of the perturbed stepper along
    the data's free trajectory is the free stepper driven from zero data by
    the source _accel(q(t), v_t) - _accel(q(t), None), brought back to t=0
    freely: `propagate_sources` of that source. F is symplectically
    skew-adjoint: sigma(F a, b) = -sigma(a, F b).
    """
    st, T = pert.spacetime, pert.spacetime.n_steps
    q_traj, _ = evolve_data(q, p, st, 0, T, trajectory=True)
    v = pert.v.reshape(pert.v.shape[:1] + (1,) * (q_traj.ndim - 2) + (-1,))
    source = np.moveaxis(_accel(q_traj, st, v, pert.kind)
                         - _accel(q_traj, st, None, pert.kind), 0, -2)
    return propagate_sources(st, source)


def rce_derivative_matrix(pert: Perturbation) -> np.ndarray:
    """Dense matrix of the tangent F[v] over the canonical basis."""
    return matrix_of(lambda qb, pb: rce_tangent_data(pert, qb, pb),
                     pert.spacetime)


def rce_derivative(pert: Perturbation, a: Solution, b: Solution) -> complex:
    """d/ds sigma(rce[s v] a, b) at s=0 = sigma(F[v] a, b), exactly; symmetric
    in a and b. Kept as a span of the benchmark's trace (`perfbench/child.py`);
    the rce suite reads `rce_derivative_matrix`."""
    q, p = rce_tangent_data(pert, a.q, a.p)
    return complex(np.sum(q * b.p) - np.sum(b.q * p))
