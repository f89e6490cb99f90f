"""CCR-deformed polynomial algebra over the lattice solution space.

Elements are sparse symmetric tensors over the canonical Cauchy-data basis:
a map from sorted basis multi-indices to complex coefficients, the empty
multi-index being the unit component. The product deforms the symmetric
tensor product by i*sigma/2 contractions:

    u^m . v^n = sum_r (i sigma(u,v)/2)^r  m! n! / (r! (m-r)! (n-r)!)
                 Sym(u^(m-r) (x) v^(n-r)),

extended bilinearly over the basis. On the canonical basis sigma pairs each
q-channel vector with the p-channel vector of the same species and site
(value +1), so contractions are enumerated directly over partner values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import DegreeCapExceeded, NotReal, NotSymplectic, SpaceMismatch
from .spacetime import LatticeSpacetime
from .dynamics import Solution, symplectic_matrix

PRUNE_TOL = 1e-15

MultiIndex = tuple[int, ...]


def sigma_partner(index: int, half: int) -> tuple[int, float]:
    """Partner basis index j with sigma(e_index, e_j) != 0, and the value.

    q-channel indices pair with the p-channel at the same (species, site)
    with sigma = +1; p-channel indices pair back with sigma = -1.
    """
    if index < half:
        return index + half, 1.0
    return index - half, -1.0


@lru_cache(maxsize=200000)
def _term_product(idx_a: MultiIndex, idx_b: MultiIndex, half: int
                  ) -> tuple[tuple[complex, MultiIndex], ...]:
    """All contraction terms of a basis-monomial product.

    Enumerates partial matchings between the two multisets of basis vectors,
    grouped by contracted value; distinct values contract independently
    because sigma pairs each basis vector with exactly one partner.
    """
    count_a: dict[int, int] = {}
    for i in idx_a:
        count_a[i] = count_a.get(i, 0) + 1
    count_b: dict[int, int] = {}
    for i in idx_b:
        count_b[i] = count_b.get(i, 0) + 1

    # contractable values: u in A whose sigma-partner occurs in B
    cands = []
    for u, mult in count_a.items():
        v, sign = sigma_partner(u, half)
        if v in count_b:
            cands.append((u, v, sign, mult, count_b[v]))

    results: list[tuple[complex, MultiIndex]] = []

    def rec(pos: int, weight: complex, used_a: dict, used_b: dict):
        if pos == len(cands):
            rest: list[int] = []
            for u, mult in count_a.items():
                rest.extend([u] * (mult - used_a.get(u, 0)))
            for v, mult in count_b.items():
                rest.extend([v] * (mult - used_b.get(v, 0)))
            results.append((weight, tuple(sorted(rest))))
            return
        u, v, sign, mult_a, mult_b = cands[pos]
        for r in range(min(mult_a, mult_b) + 1):
            w = weight
            if r:
                w = w * (math.comb(mult_a, r) * math.comb(mult_b, r)
                         * math.factorial(r)) * (0.5j * sign) ** r
            rec(pos + 1, w, {**used_a, u: r}, {**used_b, v: r})

    rec(0, 1.0 + 0.0j, {}, {})
    return tuple(results)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Sparse element of the quantized field algebra."""

    spacetime: LatticeSpacetime
    terms: dict[MultiIndex, complex]

    def __post_init__(self):
        pruned = {idx: complex(c) for idx, c in self.terms.items()
                  if abs(c) > PRUNE_TOL}
        object.__setattr__(self, "terms", pruned)

    # -- basic structure --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.spacetime.data_dim

    @property
    def degree(self) -> int:
        """Maximum multi-index length; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(len(idx) for idx in self.terms)

    def coefficient(self, idx: MultiIndex) -> complex:
        return self.terms.get(tuple(sorted(idx)), 0.0 + 0.0j)

    def degree_component(self, k: int) -> "AlgebraElement":
        return AlgebraElement(
            self.spacetime,
            {idx: c for idx, c in self.terms.items() if len(idx) == k})

    def max_abs(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    # -- vector space -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = scalar(self.spacetime, other)
        self._check(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, 0.0) + c
        return AlgebraElement(self.spacetime, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return AlgebraElement(
                self.spacetime, {idx: other * c for idx, c in self.terms.items()})
        return NotImplemented

    # -- algebra ----------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__rmul__(other)
        self._check(other)
        half = self.dim // 2
        acc: dict[MultiIndex, complex] = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                cab = ca * cb
                for w, idx in _term_product(ia, ib, half):
                    acc[idx] = acc.get(idx, 0.0) + cab * w
        return AlgebraElement(self.spacetime, acc)

    def star(self) -> "AlgebraElement":
        """Antilinear involution; on the (real) canonical basis it conjugates
        coefficients, realizing (u^n)* = (conj u)^n."""
        return AlgebraElement(
            self.spacetime, {idx: c.conjugate() for idx, c in self.terms.items()})

    def _check(self, other: "AlgebraElement"):
        if self.spacetime != other.spacetime:
            raise SpaceMismatch("elements live over different solution spaces")

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> list[dict]:
        return [
            {"idx": list(idx), "re": float(c.real), "im": float(c.imag)}
            for idx, c in sorted(self.terms.items())
        ]

    @staticmethod
    def from_json(data: list[dict], spacetime: LatticeSpacetime) -> "AlgebraElement":
        return AlgebraElement(
            spacetime,
            {tuple(entry["idx"]): complex(entry["re"], entry["im"])
             for entry in data})


def zero(spacetime: LatticeSpacetime) -> AlgebraElement:
    return AlgebraElement(spacetime, {})


def one(spacetime: LatticeSpacetime) -> AlgebraElement:
    return AlgebraElement(spacetime, {(): 1.0 + 0.0j})


def scalar(spacetime: LatticeSpacetime, value: complex) -> AlgebraElement:
    return AlgebraElement(spacetime, {(): complex(value)})


def field(phi: Solution) -> AlgebraElement:
    """Symplectically smeared field: the degree-1 injection, linear in phi."""
    vec = phi.vec()
    return AlgebraElement(
        phi.spacetime,
        {(i,): complex(c) for i, c in enumerate(vec) if abs(c) > PRUNE_TOL})


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a * b - b * a


def monomial(spacetime: LatticeSpacetime, indices: Iterable[int],
             coeff: complex = 1.0) -> AlgebraElement:
    return AlgebraElement(spacetime, {tuple(sorted(indices)): complex(coeff)})


def degree1_vector(a: AlgebraElement) -> np.ndarray:
    """Coefficient vector of the degree-1 component."""
    vec = np.zeros(a.dim, dtype=complex)
    for idx, c in a.terms.items():
        if len(idx) == 1:
            vec[idx[0]] = c
    return vec


# -- functorial lifts -------------------------------------------------------------

def _sparse_columns(matrix: np.ndarray) -> list[list[tuple[int, complex]]]:
    cols = []
    for i in range(matrix.shape[1]):
        col = matrix[:, i]
        nz = np.nonzero(np.abs(col) > PRUNE_TOL)[0]
        cols.append([(int(j), complex(col[j])) for j in nz])
    return cols


def substitute_affine(a: AlgebraElement,
                      cols: list[list[tuple[int, complex]]],
                      consts: np.ndarray | None = None) -> AlgebraElement:
    """Symmetric-algebra substitution e_i -> sum_j cols[i][j] e_j + consts[i].

    This is the degree-wise action of an (affine) linear map on generators;
    it is an algebra homomorphism exactly when the linear part is symplectic.
    """
    out: dict[MultiIndex, complex] = {}
    for idx, coeff in a.terms.items():
        poly: dict[MultiIndex, complex] = {(): coeff}
        for i in idx:
            nxt: dict[MultiIndex, complex] = {}
            col = cols[i]
            const = complex(consts[i]) if consts is not None else 0.0
            for mono, c in poly.items():
                if const != 0.0:
                    nxt[mono] = nxt.get(mono, 0.0) + c * const
                for j, w in col:
                    key = tuple(sorted(mono + (j,)))
                    nxt[key] = nxt.get(key, 0.0) + c * w
            poly = nxt
        for mono, c in poly.items():
            out[mono] = out.get(mono, 0.0) + c
    return AlgebraElement(a.spacetime, out)


def derivation(a: AlgebraElement, cols: list[list[tuple[int, complex]]],
               consts: np.ndarray | None = None) -> AlgebraElement:
    """Derivation extending e_i -> sum_j cols[i][j] e_j + consts[i], one slot
    at a time: the tangent at t = 0 of substitute_affine by exp(tX) and
    t * consts; a derivation of the CCR product when X is in sp(sigma)."""
    out: dict[MultiIndex, complex] = {}
    for idx, coeff in a.terms.items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            if consts is not None and consts[i] != 0.0:
                out[rest] = out.get(rest, 0.0) + coeff * consts[i]
            for j, w in cols[i]:
                key = tuple(sorted(rest + (j,)))
                out[key] = out.get(key, 0.0) + coeff * w
    return AlgebraElement(a.spacetime, out)


class LiftedMap:
    """Algebra endomorphism induced by a symplectic, conjugation-commuting
    linear map of the solution space (degree-wise functorial action)."""

    def __init__(self, spacetime: LatticeSpacetime, matrix: np.ndarray,
                 sigma_tol: float = 1e-10):
        matrix = np.asarray(matrix)
        if np.iscomplexobj(matrix):
            if np.max(np.abs(matrix.imag)) > 1e-12:
                raise NotReal("map does not commute with conjugation")
            matrix = matrix.real
        J = symplectic_matrix(spacetime)
        defect = np.max(np.abs(matrix.T @ J @ matrix - J))
        if defect > sigma_tol:
            raise NotSymplectic(f"symplectic defect {defect:.3e} > {sigma_tol:.1e}")
        self.spacetime = spacetime
        self.matrix = matrix
        self._cols = _sparse_columns(matrix)

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        if a.spacetime != self.spacetime:
            raise SpaceMismatch("element lives over a different solution space")
        return substitute_affine(a, self._cols)


def lift(spacetime: LatticeSpacetime, matrix: np.ndarray) -> LiftedMap:
    """Functorial lift of a linear symplectic map to the algebra."""
    return LiftedMap(spacetime, matrix)


def max_coeff_diff(a: AlgebraElement, b: AlgebraElement) -> float:
    """Max absolute coefficient difference (residual metric for all suites)."""
    keys = set(a.terms) | set(b.terms)
    if not keys:
        return 0.0
    return max(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) for k in keys)


def random_element(rng: np.random.Generator, spacetime: LatticeSpacetime,
                   degree: int, n_terms: int = 6,
                   integer: bool = False) -> AlgebraElement:
    """Random sparse element with terms of every degree up to `degree`."""
    dim = spacetime.data_dim
    terms: dict[MultiIndex, complex] = {}
    for _ in range(n_terms):
        k = int(rng.integers(0, degree + 1))
        idx = tuple(sorted(int(i) for i in rng.integers(0, dim, size=k)))
        if integer:
            c = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            if c == 0:
                c = 1.0
        else:
            c = complex(rng.standard_normal(), rng.standard_normal())
        terms[idx] = terms.get(idx, 0.0) + c
    return AlgebraElement(spacetime, terms)


def check_degree_cap(a: AlgebraElement, cap: int):
    if a.degree > cap:
        raise DegreeCapExceeded(f"degree {a.degree} exceeds cap {cap}")
