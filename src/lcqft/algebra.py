"""CCR-deformed polynomial algebra over the lattice solution space.

Elements are sparse symmetric tensors over the canonical Cauchy-data basis.
The product deforms the symmetric tensor product by i*sigma/2 contractions
(the Moyal expansion):

    f . g = sum_r (i/2)^r / r!  sigma^{j1 k1} ... sigma^{jr kr}
                                (d_j1 ... d_jr f) (d_k1 ... d_kr g).

On the canonical basis sigma pairs each q-channel vector with the p-channel
vector of the same species and site (value +1), so a single contraction
removes one basis vector from each factor where the two are partners.

Storage is by arrays, one column per term. A term's sorted multi-index
i_1 <= ... <= i_k becomes the digits (0, ..., 0, i_1 + 1, ..., i_k + 1),
padded in front with the "empty" digit 0 to the element's degree D:
`digits[:, t]` holds term t's digits and `coeffs[t]` its complex
coefficient. Each term's digits are packed in base dim + 1 into int64
`keys`. A word holds `_digits_per_word(dim)` digits, the most it can
without passing 2^63; a term with more digits takes as many words as it
needs, word 0 the most significant, so an element's keys are a (W, n) array
and sorting is `np.lexsort` over the words. Padding only adds zero digits
and zero words, so a term has one key at every degree and width. Keys are
kept sorted and unique, and coefficients of magnitude at most PRUNE_TOL are
pruned.

The product, the affine substitution and the derivation work on whole
arrays of terms: Python loops run only over contraction levels, tensor
slots, digit rows and chunks of terms, never over terms.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DegreeCapExceeded, NotReal, NotSymplectic, SpaceMismatch
from .spacetime import LatticeSpacetime
from .dynamics import Solution, symplectic_matrix

PRUNE_TOL = 1e-15

# a product, substitution or derivation expands at most about this many
# terms at once; larger inputs are split into chunks and merged
CHUNK_TERMS = 1 << 17

# digits per compare-exchange above which `_sort_digits` uses its network:
# one exchange costs about as much as np.sort spends on 80 digits
SORT_NETWORK_MIN = 80

# largest |M^T J M - J| entry that `LiftedMap` accepts as symplectic
SIGMA_TOL = 1e-10

MultiIndex = tuple[int, ...]


# -- digits and packed keys ----------------------------------------------------

def _digit_type(dim: int) -> type:
    """The integer type of digits: int16 while dim + 1 fits."""
    return np.int16 if dim < np.iinfo(np.int16).max else np.int32


def _digits_per_word(dim: int) -> int:
    """The largest p with (dim + 1)^p <= 2^63: digits one int64 word holds."""
    base = dim + 1
    p = int(63 / math.log2(base))
    while base ** (p + 1) <= 2 ** 63:
        p += 1
    while base ** p > 2 ** 63:
        p -= 1
    return p


def _pack(digits: np.ndarray, dim: int) -> np.ndarray:
    """Keys (W, n) of digits (D, n), base dim + 1, word 0 most significant."""
    per = _digits_per_word(dim)
    D, n = digits.shape
    n_words = max(1, -(-D // per))
    powers = np.array([(dim + 1) ** k for k in range(per - 1, -1, -1)],
                      dtype=np.int64)
    keys = np.empty((n_words, n), dtype=np.int64)
    # the last `per` digit rows fill the last word, the `per` rows before
    # them the word before, and so on
    hi = D
    for w in range(n_words - 1, -1, -1):
        lo = max(0, hi - per)
        keys[w] = powers[per - (hi - lo):] @ digits[lo:hi]
        hi = lo
    return keys


def _pad(arr: np.ndarray, height: int) -> np.ndarray:
    """arr (h, n) with height - h zero rows in front."""
    if len(arr) == height:
        return arr
    pad = np.zeros((height - len(arr), arr.shape[1]), dtype=arr.dtype)
    return np.concatenate([pad, arr])


def _merge(keys: np.ndarray, coeffs: np.ndarray, *arrays: np.ndarray):
    """Sort terms by key and sum the coefficients of equal keys; each array
    in `arrays` (one column per term) keeps the column of the first term of
    each key."""
    if len(coeffs) > 1:
        order = np.lexsort(keys[::-1])
        keys, coeffs = keys.take(order, axis=1), coeffs[order]
        new = np.logical_or.reduce(keys[:, 1:] != keys[:, :-1])
        starts = new.nonzero()[0] + 1
        if len(starts) < len(coeffs) - 1:
            starts = np.concatenate(([0], starts))
            coeffs = np.add.reduceat(coeffs, starts)
            keys, order = keys.take(starts, axis=1), order[starts]
        arrays = tuple(x.take(order, axis=1) for x in arrays)
    return (keys, coeffs, *arrays)


def _sorted_terms(digits: np.ndarray, coeffs: np.ndarray, dim: int):
    """Terms with sorted digits (zeros first), in any order, as sorted
    unique (keys, coeffs, digits); nothing is pruned."""
    return _merge(_pack(digits, dim), coeffs, digits)


def _sort_digits(digits: np.ndarray, start: int = 1) -> np.ndarray:
    """Each term's digits sorted, zeros first, given that digit rows
    [0, start) already are. Large arrays insert every later row by a pass of
    compare-exchanges over whole rows; np.sort along the short axis costs
    more per digit but less per call, so small arrays use it."""
    exchanges = sum(range(max(start, 1), len(digits)))
    if digits.size < SORT_NETWORK_MIN * exchanges:
        return np.sort(digits, axis=0)
    rows = list(digits)
    for j in range(max(start, 1), len(rows)):
        for i in range(j, 0, -1):
            lo, hi = rows[i - 1], rows[i]
            rows[i - 1], rows[i] = np.minimum(lo, hi), np.maximum(lo, hi)
    return np.array(rows) if exchanges else digits


def _merge_digits(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Term by term, the sorted union of two arrays of sorted digits."""
    if len(left) < len(right):
        left, right = right, left
    return _sort_digits(np.concatenate([left, right]), len(left))


def _drop(digits: np.ndarray, k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Term k[i] of digits without its slot p[i], for each i."""
    if len(digits) == 1:
        return digits[:0, k]
    keep = np.arange(len(digits) - 1)[:, None]
    return digits[keep + (keep >= p), k]


def _element(spacetime: LatticeSpacetime, keys: np.ndarray,
             coeffs: np.ndarray, digits: np.ndarray) -> "AlgebraElement":
    out = object.__new__(AlgebraElement)
    out._set(spacetime, keys, coeffs, digits)
    return out


def _from_indices(spacetime: LatticeSpacetime, indices: list, coeffs: list):
    """Sorted unique terms of multi-indices in any order; equal ones merge."""
    dim = spacetime.data_dim
    terms = [sorted(int(i) + 1 for i in idx) for idx in indices]
    if any(term and not 0 < term[0] <= term[-1] <= dim for term in terms):
        raise SpaceMismatch(f"basis index outside 0..{dim - 1}")
    degree = max(map(len, terms), default=0)
    digits = np.array([[0] * (degree - len(term)) + term for term in terms],
                      dtype=_digit_type(dim)).reshape(len(terms), degree)
    return _sorted_terms(digits.T, np.array(coeffs, dtype=complex).reshape(-1),
                         dim)


def _chunked(spacetime: LatticeSpacetime, n_terms: int, out_per_term: int,
             expand) -> "AlgebraElement":
    """Run expand(lo, hi) -> (sorted digits, coeffs) over ranges of input
    terms that expand to at most about CHUNK_TERMS terms each, and merge the
    results into one element."""
    dim = spacetime.data_dim
    step = max(1, CHUNK_TERMS // max(1, out_per_term))
    parts = [_sorted_terms(*expand(lo, min(lo + step, n_terms)), dim)
             for lo in range(0, n_terms, step)]
    if not parts:
        return zero(spacetime)
    if len(parts) == 1:
        return _element(spacetime, *parts[0])
    keys, coeffs, digits = (np.concatenate(x, axis=-1) for x in zip(*parts))
    return _element(spacetime, *_merge(keys, coeffs, digits))


class _Terms(Mapping):
    """Read-only multi-index -> coefficient view of an element's arrays.
    The dict is built on first lookup; the length needs no dict."""

    __slots__ = ("_el", "_dict")

    def __init__(self, el: "AlgebraElement"):
        self._el = el
        self._dict = None

    def _lookup(self) -> dict[MultiIndex, complex]:
        if self._dict is None:
            self._dict = {
                tuple(d - 1 for d in term if d): c
                for term, c in zip(self._el.digits.T.tolist(),
                                   self._el.coeffs.tolist())}
        return self._dict

    def __getitem__(self, idx: MultiIndex) -> complex:
        return self._lookup()[idx]

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self._lookup())

    def __len__(self) -> int:
        return len(self._el.coeffs)

    def __repr__(self) -> str:
        return repr(self._lookup())


class AlgebraElement:
    """Sparse element of the quantized field algebra (see the module
    docstring for the arrays). Built from a mapping of multi-indices to
    coefficients; each multi-index is sorted and equal ones are merged."""

    __slots__ = ("spacetime", "keys", "coeffs", "digits", "_terms")

    def __init__(self, spacetime: LatticeSpacetime,
                 terms: Mapping[MultiIndex, complex]):
        self._set(spacetime, *_from_indices(spacetime, list(terms),
                                            list(terms.values())))

    def _set(self, spacetime: LatticeSpacetime, keys: np.ndarray,
             coeffs: np.ndarray, digits: np.ndarray):
        """Take sorted unique terms: prune, then trim empty digit rows."""
        size = np.abs(coeffs)
        if len(size) and not np.minimum.reduce(size) > PRUNE_TOL:
            keep = size > PRUNE_TOL
            keys, coeffs, digits = keys[:, keep], coeffs[keep], digits[:, keep]
        # digits put their zeros first, so only leading rows can be empty
        if len(digits) and not np.logical_or.reduce(digits[0]):
            used = np.flatnonzero(digits.any(1))
            degree = len(digits) - int(used[0]) if len(used) else 0
            digits = digits[len(digits) - degree:]
            per = _digits_per_word(spacetime.data_dim)
            keys = keys[len(keys) - max(1, -(-degree // per)):]
        for arr in (keys, coeffs, digits):
            arr.setflags(write=False)
        self.spacetime = spacetime
        self.keys, self.coeffs, self.digits = keys, coeffs, digits
        self._terms = None

    # -- basic structure --------------------------------------------------------

    @property
    def terms(self) -> Mapping[MultiIndex, complex]:
        if self._terms is None:
            self._terms = _Terms(self)
        return self._terms

    @property
    def dim(self) -> int:
        return self.spacetime.data_dim

    @property
    def degree(self) -> int:
        """Maximum multi-index length; -1 for the zero element."""
        return len(self.digits) if len(self.coeffs) else -1

    def term_degrees(self) -> np.ndarray:
        """Multi-index length of each term, in key order."""
        return np.add.reduce(self.digits > 0)

    def coefficient(self, idx: MultiIndex) -> complex:
        return self.terms.get(tuple(sorted(idx)), 0.0 + 0.0j)

    def select(self, mask: np.ndarray) -> "AlgebraElement":
        """The terms where `mask` (one entry per term, in key order) holds."""
        return _element(self.spacetime, self.keys[:, mask], self.coeffs[mask],
                        self.digits[:, mask])

    def max_abs(self) -> float:
        if not len(self.coeffs):
            return 0.0
        return float(np.maximum.reduce(np.abs(self.coeffs)))

    # -- vector space -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = scalar(self.spacetime, other)
        self._check(other)
        height = max(len(self.digits), len(other.digits))
        words = max(len(self.keys), len(other.keys))
        return _element(self.spacetime, *_merge(
            np.concatenate([_pad(self.keys, words), _pad(other.keys, words)],
                           axis=1),
            np.concatenate([self.coeffs, other.coeffs]),
            np.concatenate([_pad(self.digits, height),
                            _pad(other.digits, height)], axis=1)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return _element(self.spacetime, self.keys, other * self.coeffs,
                            self.digits)
        return NotImplemented

    # -- algebra ----------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__rmul__(other)
        self._check(other)
        dim, half = self.dim, self.dim // 2
        # digit of the sigma-partner, -1 for the empty digit
        digit = np.arange(-1, dim + 1, dtype=self.digits.dtype)
        partner = np.concatenate(
            [digit[:1], digit[half + 2:], digit[2:half + 2]])
        A, B = self.digits, other.digits
        n_b, height = len(other.coeffs), len(A) + len(B)

        def expand(lo: int, hi: int):
            left = np.repeat(A[:, lo:hi], n_b, axis=1)
            right = np.empty((len(B), hi - lo, n_b), dtype=B.dtype)
            right[...] = B[:, None]
            right = right.reshape(len(B), (hi - lo) * n_b)
            coef = np.multiply.outer(self.coeffs[lo:hi], other.coeffs).ravel()
            out_digits, out_coeffs = [], []
            r = 0
            while True:
                out_digits.append(_pad(_merge_digits(left, right), height))
                out_coeffs.append(coef / math.factorial(r) if r > 1 else coef)
                if not (len(left) and len(right)):
                    break
                hit = (partner[left][:, None] == right[None]).ravel()
                hit = hit.nonzero()[0]
                if not len(hit):
                    break
                # one more single contraction, in every term and every
                # partner pair of slots: i sigma(e_u, e_partner) / 2 is i/2
                # on the q-channel and -i/2 on the p-channel
                p, k = np.divmod(hit, len(right) * len(coef))
                q, k = np.divmod(k, len(coef))
                r += 1
                grew = len(k) > len(coef)
                coef = coef[k] * np.where(left[p, k] > half, -0.5j, 0.5j)
                left, right = _drop(left, k, p), _drop(right, k, q)
                # equal remainders are merged when the terms multiplied and
                # from level 2 on, where the r! orders of each set of
                # contractions meet: the 1/r! of the Moyal sum then divides
                # one sum, exact on integer data
                if grew or r > 1:
                    _, coef, left, right = _merge(
                        np.concatenate([_pack(left, dim), _pack(right, dim)]),
                        coef, left, right)
            return (np.concatenate(out_digits, axis=1),
                    np.concatenate(out_coeffs))

        return _chunked(self.spacetime, len(self.coeffs), n_b, expand)

    def star(self) -> "AlgebraElement":
        """Antilinear involution; on the (real) canonical basis it conjugates
        coefficients, realizing (u^n)* = (conj u)^n."""
        return _element(self.spacetime, self.keys, self.coeffs.conj(),
                        self.digits)

    def _check(self, other: "AlgebraElement"):
        if self.spacetime is not other.spacetime \
                and self.spacetime != other.spacetime:
            raise SpaceMismatch("elements live over different solution spaces")


def zero(spacetime: LatticeSpacetime) -> AlgebraElement:
    return AlgebraElement(spacetime, {})


def one(spacetime: LatticeSpacetime) -> AlgebraElement:
    return AlgebraElement(spacetime, {(): 1.0 + 0.0j})


def scalar(spacetime: LatticeSpacetime, value: complex) -> AlgebraElement:
    return AlgebraElement(spacetime, {(): complex(value)})


def field(phi: Solution) -> AlgebraElement:
    """Symplectically smeared field: the degree-1 injection, linear in phi."""
    vec = np.asarray(phi.vec(), dtype=complex)
    nz = np.flatnonzero(np.abs(vec) > PRUNE_TOL)
    digits = (nz + 1).astype(_digit_type(len(vec))).reshape(1, -1)
    return _element(phi.spacetime, digits.astype(np.int64), vec[nz], digits)


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a * b - b * a


def monomial(spacetime: LatticeSpacetime, indices: Iterable[int],
             coeff: complex = 1.0) -> AlgebraElement:
    return AlgebraElement(spacetime, {tuple(sorted(indices)): complex(coeff)})


def degree1_vector(a: AlgebraElement) -> np.ndarray:
    """Coefficient vector of the degree-1 component."""
    vec = np.zeros(a.dim, dtype=complex)
    one_slot = a.term_degrees() == 1
    if one_slot.any():
        vec[a.digits[-1, one_slot] - 1] = a.coeffs[one_slot]
    return vec


# -- functorial lifts -------------------------------------------------------------

@dataclass(frozen=True)
class SlotMap:
    """An affine map e_i -> sum_j M[j, i] e_j + consts[i] of the basis, as
    padded columns by digit: row i + 1 lists the digits (j + 1, or 0 for the
    constant) and the weights of e_i's image, padded with weight 0; row 0
    maps the empty digit to itself."""

    digits: np.ndarray   # (dim + 1, width), of `_digit_type(dim)`
    weights: np.ndarray  # (dim + 1, width)

    @property
    def width(self) -> int:
        return self.digits.shape[1]


def slot_map(matrix: np.ndarray, consts: np.ndarray | None = None) -> SlotMap:
    """SlotMap of e_i -> sum_j matrix[j, i] e_j + consts[i]; entries of
    magnitude at most PRUNE_TOL are dropped."""
    matrix = np.asarray(matrix)
    dim = matrix.shape[1]
    consts = np.zeros(dim) if consts is None else np.asarray(consts)
    col, row = np.nonzero(np.abs(matrix.T) > PRUNE_TOL)
    has_const = np.flatnonzero(consts != 0.0)
    weight = np.concatenate([consts[has_const], matrix[row, col]])
    digit = np.concatenate([np.zeros(len(has_const), dtype=np.int64), row + 1])
    col = np.concatenate([has_const, col])
    order = np.argsort(col, kind="stable")
    col, digit, weight = col[order], digit[order], weight[order]
    pos = np.arange(len(col)) - np.searchsorted(col, col)
    width = int(pos.max()) + 1 if len(pos) else 1
    digits = np.zeros((dim + 1, width), dtype=_digit_type(dim))
    weights = np.zeros((dim + 1, width),
                       dtype=np.result_type(matrix, consts, float))
    weights[0, 0] = 1.0
    digits[col + 1, pos] = digit
    weights[col + 1, pos] = weight
    return SlotMap(digits, weights)


def substitute_affine(a: AlgebraElement, slots: SlotMap) -> AlgebraElement:
    """Symmetric-algebra substitution of every tensor slot by the affine map
    `slots`. This is the degree-wise action of an (affine) linear map on
    generators; it is an algebra homomorphism exactly when the linear part is
    symplectic.

    A map of width 1, such as a signed permutation, relabels the digits and
    weights each slot. Wider maps substitute the slots one at a time; once
    the terms outnumber the input terms by more than one slot's width, terms
    equal up to the order of the substituted slots are merged, which bounds
    the growth for dense maps."""
    dim, D = a.dim, len(a.digits)
    if slots.width == 1:
        return _element(a.spacetime, *_sorted_terms(
            _sort_digits(slots.digits[a.digits, 0]),
            a.coeffs * np.multiply.reduce(slots.weights[a.digits, 0]), dim))

    def expand(lo: int, hi: int):
        digits, coef = a.digits[:, lo:hi], a.coeffs[lo:hi]
        merged = len(coef)
        for j in range(D):
            w = slots.weights[digits[j]]
            k, c = w.nonzero()
            digits, coef = digits.take(k, axis=1), coef[k] * w[k, c]
            digits[j] = slots.digits[digits[j], c]
            if len(coef) > slots.width * merged and j < D - 1:
                digits[:j + 1] = _sort_digits(digits[:j + 1])
                _, coef, digits = _merge(_pack(digits, dim), coef, digits)
                merged = len(coef)
        return _sort_digits(digits), coef

    return _chunked(a.spacetime, len(a.coeffs), slots.width ** D, expand)


def derivation(a: AlgebraElement, slots: SlotMap) -> AlgebraElement:
    """Derivation extending the affine map `slots` of the basis, one tensor
    slot at a time: the tangent at t = 0 of substitute_affine by exp(tX) and
    t * consts; a derivation of the CCR product when X is in sp(sigma)."""
    D = len(a.digits)

    def expand(lo: int, hi: int):
        digits, coeffs = a.digits[:, lo:hi], a.coeffs[lo:hi]
        out_digits, out_coeffs = [digits[:, :0]], [coeffs[:0]]
        for j in range(D):
            w = slots.weights[digits[j]] * (digits[j] > 0)[:, None]
            k, c = w.nonzero()
            new = digits.take(k, axis=1)
            new[j] = slots.digits[new[j], c]
            out_digits.append(new)
            out_coeffs.append(coeffs[k] * w[k, c])
        return (_sort_digits(np.concatenate(out_digits, axis=1)),
                np.concatenate(out_coeffs))

    return _chunked(a.spacetime, len(a.coeffs), D * slots.width, expand)


class LiftedMap:
    """Algebra endomorphism induced by a symplectic, conjugation-commuting
    linear map of the solution space (degree-wise functorial action)."""

    def __init__(self, spacetime: LatticeSpacetime, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if np.iscomplexobj(matrix):
            if np.max(np.abs(matrix.imag)) > 1e-12:
                raise NotReal("map does not commute with conjugation")
            matrix = matrix.real
        J = symplectic_matrix(spacetime)
        defect = np.max(np.abs(matrix.T @ J @ matrix - J))
        if defect > SIGMA_TOL:
            raise NotSymplectic(f"symplectic defect {defect:.3e} > {SIGMA_TOL:.1e}")
        self.spacetime = spacetime
        self.matrix = matrix
        self._slots = slot_map(matrix)

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        if a.spacetime != self.spacetime:
            raise SpaceMismatch("element lives over a different solution space")
        return substitute_affine(a, self._slots)


def lift(spacetime: LatticeSpacetime, matrix: np.ndarray) -> LiftedMap:
    """Functorial lift of a linear symplectic map to the algebra."""
    return LiftedMap(spacetime, matrix)


def max_coeff_diff(a: AlgebraElement, b: AlgebraElement) -> float:
    """Max absolute coefficient difference (residual metric for all suites)."""
    a._check(b)
    words = max(len(a.keys), len(b.keys))
    _, diff = _merge(np.concatenate([_pad(a.keys, words), _pad(b.keys, words)],
                                    axis=1),
                     np.concatenate([a.coeffs, -b.coeffs]))
    return float(np.maximum.reduce(np.abs(diff))) if len(diff) else 0.0


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
