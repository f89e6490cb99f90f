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
coefficient. Terms are kept sorted by key and unique, and coefficients of
magnitude at most PRUNE_TOL are pruned. Keys are not stored: each merge forms
them (`_pack`), the digits in base dim + 1 as int64 words of
`_digits_per_word(dim)` digits, the most a word holds below 2^63, word 0 the
most significant. Padding only adds zero digits and zero words, so a term has
one key at every degree.

An element can be a batch of `size` elements in one set of arrays, term t
tagged with its element's index `tags[t]`; merges sort by the tag as the most
significant key word, so they never sum across elements. A single element is
the batch of one. Sums, products (element i times element i), scaling,
comparison and substitution act on a whole batch at once and give each
element exactly the sums it would get alone.

The product, the affine substitution and the derivation work on whole
arrays of terms: Python loops run only over contraction levels, tensor
slots, digit rows, the pieces of each element and key ranges, never over
terms; no merge sorts more than about CHUNK_TERMS terms (`_chunked`,
`_merge_runs`).
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import DegreeCapExceeded, NotReal, NotSymplectic, SpaceMismatch
from .spacetime import LatticeSpacetime
from .dynamics import Solution, symplectic_matrix

PRUNE_TOL = 1e-15

# a product, substitution or derivation expands, and a merge sorts, at most
# about this many terms at once (about 2 MiB): it sizes an element's pieces
# and the passes that take the pieces of a batch
CHUNK_TERMS = 1 << 15

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


def _tag_type(size: int) -> type:
    """The integer type of the tags of a batch of `size` elements."""
    return np.uint8 if size <= 256 else np.min_scalar_type(size - 1)


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
    keys = np.zeros((n_words, n), dtype=np.int64)
    # the last `per` digit rows fill the last word, the `per` rows before
    # them the word before, and so on; each word by Horner's rule, adding
    # one digit row at a time, so the digits are never copied to int64
    hi = D
    for key in keys[::-1]:
        lo = max(0, hi - per)
        for row in digits[lo:hi]:
            key *= dim + 1
            key += row
        hi = lo
    return keys


def _pad(arr: np.ndarray, height: int) -> np.ndarray:
    """arr (h, n) with height - h zero rows in front."""
    if len(arr) == height:
        return arr
    pad = np.zeros((height - len(arr), arr.shape[1]), dtype=arr.dtype)
    return np.concatenate([pad, arr])


def _merge(keys: np.ndarray, coeffs: np.ndarray, *arrays: np.ndarray):
    """Sort terms by key and sum the coefficients of equal keys: (coeffs,
    *arrays), each array in `arrays` (one column per term) keeping the column
    of the first term of each key. Key words whose values fit one int64 side
    by side (such as a tag and one word) are sorted as that int64, in one
    stable pass, which is quick on the sorted runs that key ranges merge."""
    if len(coeffs) > 1:
        bits = [int(top).bit_length() for top in keys.max(axis=1).tolist()]
        if sum(bits) < 63:
            for row, width in zip(keys[1:], bits[1:]):
                keys = (keys[:1] << width) | row
        order = keys[0].argsort(kind="stable") if len(keys) == 1 \
            else np.lexsort(keys[::-1])
        keys = keys.take(order, axis=1)
        new = np.logical_or.reduce(keys[:, 1:] != keys[:, :-1])
        del keys  # before the coefficients are gathered
        coeffs, starts = coeffs[order], new.nonzero()[0] + 1
        if len(starts) < len(coeffs) - 1:
            starts = np.concatenate(([0], starts))
            coeffs = np.add.reduceat(coeffs, starts)
            order = order[starts]
        arrays = tuple(x.take(order, axis=-1) for x in arrays)
    return (coeffs, *arrays)


def _merge_tagged(size: int, tags: np.ndarray, keys: np.ndarray,
                  coeffs: np.ndarray, *arrays: np.ndarray, need=None):
    """_merge with the tag as the most significant key word, left out for a
    batch of one: (tags, coeffs, *arrays). The terms of tags t with
    `need[t]` false keep their order unsummed (`keys` is overwritten)."""
    if size == 1:  # tags all 0
        coeffs, *arrays = _merge(keys, coeffs, *arrays)
        return (np.zeros(len(coeffs), np.uint8), coeffs, *arrays)
    if need is not None and not need.all():
        hold = ~need[tags]
        keys[:, hold] = 0
        keys[-1, hold] = np.flatnonzero(hold)
    coeffs, tags, *arrays = _merge(np.vstack([tags, keys]), coeffs, tags,
                                   *arrays)
    return (tags, coeffs, *arrays)


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


def _element(spacetime: LatticeSpacetime, size: int, tags: np.ndarray,
             coeffs: np.ndarray, digits: np.ndarray) -> "AlgebraElement":
    out = object.__new__(AlgebraElement)
    out._set(spacetime, size, tags, coeffs, digits)
    return out


def _from_indices(spacetime: LatticeSpacetime, indices: list, coeffs: list):
    """Sorted unique terms of multi-indices in any order; equal ones merge."""
    dim = spacetime.data_dim
    terms = [sorted(int(i) + 1 for i in idx) for idx in indices]
    if any(term and not 0 < term[0] <= term[-1] <= dim for term in terms):
        raise SpaceMismatch(f"basis index outside 0..{dim - 1}")
    degree = max(map(len, terms), default=0)
    digits = np.array([[0] * (degree - len(term)) + term for term in terms],
                      dtype=_digit_type(dim)).reshape(len(terms), degree).T
    return _merge(_pack(digits, dim),
                  np.array(coeffs, dtype=complex).reshape(-1), digits)


def _merge_runs(size: int, dim: int, runs: list, signs=None):
    """The merged (tags, coeffs, digits), range by key range, of k runs of
    one height sorted by (tag, key), run i times signs[i]. A range starts at
    every k-th of every (CHUNK_TERMS // 2k)-th key of each run, so holds about
    CHUNK_TERMS terms at most; a key sums in run order, as in one merge."""
    def bound(rows, needle) -> int:  # the first column not below needle
        lo, hi = 0, len(rows[0])
        for row, value in zip(rows, needle):
            if lo == hi:
                break
            lo, hi = (lo + row[lo:hi].searchsorted(value),
                      lo + row[lo:hi].searchsorted(value, "right"))
        return int(lo)
    k, cuts = len(runs), [[0, len(tags)] for tags, _, _ in runs]
    if sum(cut[1] for cut in cuts) > CHUNK_TERMS:
        rows, s = [(t, *d) for t, _, d in runs], max(1, CHUNK_TERMS // k // 2)
        sample = [np.concatenate(x) for x in zip(
            *([row[s - 1::s] for row in run] for run in rows))]
        needles = np.array(sample)[:, np.lexsort(sample[::-1])[k::k]].T
        cuts = [[0, *(bound(run, needle) for needle in needles.tolist()),
                 len(run[0])] for run in rows]
    for span in zip(*(zip(cut[:-1], cut[1:]) for cut in cuts)):
        tags, coeffs, digits = _joined(
            (t[lo:hi], z[lo:hi] if sign == 1 else z[lo:hi] * sign, d[:, lo:hi])
            for (t, z, d), (lo, hi), sign in zip(runs, span, signs or [1] * k))
        yield _merge_tagged(size, tags, _pack(digits, dim), coeffs, digits)


def _joined(parts) -> tuple:
    """The (tags, coeffs, digits) of parts, concatenated in order."""
    parts = list(parts)
    return parts[0] if len(parts) == 1 else \
        tuple(np.concatenate(x, axis=-1) for x in zip(*parts))


def _chunked(spacetime: LatticeSpacetime, size: int, tags: np.ndarray,
             fan: np.ndarray, expand) -> "AlgebraElement":
    """Expand terms with sorted `tags`, one of tag t into at most fan[t]
    terms, into a batch of `size`. Element t is cut into pieces at every
    max(1, CHUNK_TERMS // fan[t])-th term from its first; a pass takes the
    pieces in order and ends before an element's second or later piece, and
    before a piece that would take it past CHUNK_TERMS fan-weighted terms.
    expand(lo, hi) returns the tags, sorted digits and coeffs that a pass's
    input terms [lo, hi) expand into. A pass holds at most one piece of an
    element and its merge never crosses tags, so each piece merges alone,
    cut where its element alone is cut; the passes, one sorted run each, then
    merge by key range, each key summing its pieces in order. So each
    element gets exactly the sums it would get alone."""
    dim, fan = spacetime.data_dim, fan.tolist()
    bounds = tags.searchsorted(np.arange(size + 1)).tolist()
    starts, work, split = [], 0, False
    for first, last, f in zip(bounds, bounds[1:], fan):
        step = max(1, CHUNK_TERMS // max(1, f))
        for lo in range(first, last, step):
            cost = (min(lo + step, last) - lo) * f
            if lo > first or not starts or work + cost > CHUNK_TERMS:
                starts.append(lo)
                work = 0
            work += cost
        split = split or last - first > step
    parts = []
    for lo, hi in zip(starts, starts[1:] + [len(tags)]):
        out, digits, coeffs = expand(lo, hi)
        # rebinding frees the unmerged terms before the next pass
        out, coeffs, digits = _merge_tagged(size, out, _pack(digits, dim),
                                            coeffs, digits)
        parts.append((out, coeffs, digits))
    if not parts:
        return _element(spacetime, size, tags, np.zeros(0, complex),
                        np.zeros((0, 0), _digit_type(dim)))
    if split:
        parts = list(_merge_runs(size, dim, parts))
    return _element(spacetime, size, *_joined(parts))


class _Terms(Mapping):
    """Read-only multi-index -> coefficient view of an element's arrays.
    The dict is built on first lookup, for a single element only; the
    length (of a batch, its total number of terms) needs no dict."""

    __slots__ = ("_el", "_dict")

    def __init__(self, el: "AlgebraElement"):
        self._el = el
        self._dict = None

    def _lookup(self) -> dict[MultiIndex, complex]:
        if self._dict is None:
            self._el.single()
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
    """Sparse element of the quantized field algebra, or a batch of `size`
    of them (see the module docstring for the arrays). Built from a mapping
    of multi-indices to coefficients; each multi-index is sorted and equal
    ones are merged."""

    __slots__ = ("spacetime", "size", "tags", "coeffs", "digits", "_terms")

    def __init__(self, spacetime: LatticeSpacetime,
                 terms: Mapping[MultiIndex, complex]):
        coeffs, digits = _from_indices(spacetime, list(terms),
                                       list(terms.values()))
        self._set(spacetime, 1, np.zeros(len(coeffs), np.uint8), coeffs, digits)

    def _set(self, spacetime: LatticeSpacetime, size: int, tags: np.ndarray,
             coeffs: np.ndarray, digits: np.ndarray):
        """Take sorted unique tagged terms: prune, then trim empty digit
        rows."""
        mag = np.abs(coeffs)
        if len(mag) and not np.minimum.reduce(mag) > PRUNE_TOL:
            keep = mag > PRUNE_TOL
            tags, coeffs, digits = tags[keep], coeffs[keep], digits[:, keep]
        # digits put their zeros first, so only leading rows can be empty
        if len(digits) and not np.logical_or.reduce(digits[0]):
            used = np.flatnonzero(digits.any(1))
            digits = digits[int(used[0]) if len(used) else len(digits):]
        for arr in (tags, coeffs, digits):
            arr.setflags(write=False)
        self.spacetime, self.size, self.tags = spacetime, size, tags
        self.coeffs, self.digits = coeffs, digits
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
        self.single()
        return len(self.digits) if len(self.coeffs) else -1

    def single(self):
        """Refuse a batch where an operation reads one element's terms."""
        if self.size != 1:
            raise SpaceMismatch(f"a batch of {self.size} elements where one"
                                " element is needed")

    def term_degrees(self) -> np.ndarray:
        """Multi-index length of each term, in term order."""
        return np.add.reduce(self.digits > 0)

    def coefficient(self, idx: MultiIndex) -> complex:
        return self.terms.get(tuple(sorted(idx)), 0.0 + 0.0j)

    def select(self, mask: np.ndarray) -> "AlgebraElement":
        """The terms where `mask` (one entry per term, in term order) holds."""
        return _element(self.spacetime, self.size, self.tags[mask],
                        self.coeffs[mask], self.digits[:, mask])

    def max_abs(self) -> float:
        """The largest coefficient magnitude; of a batch, over all elements."""
        if not len(self.coeffs):
            return 0.0
        return float(np.maximum.reduce(np.abs(self.coeffs)))

    def elements(self) -> Iterator["AlgebraElement"]:
        """The elements of a batch, in tag order."""
        bounds = np.searchsorted(self.tags, np.arange(self.size + 1)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield _element(self.spacetime, 1, np.zeros(hi - lo, np.uint8),
                           self.coeffs[lo:hi], self.digits[:, lo:hi])

    # -- vector space -----------------------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if (self.spacetime is not other.spacetime
                and self.spacetime != other.spacetime) or self.size != other.size:
            raise SpaceMismatch("elements live over different solution spaces"
                                " or batches of different sizes")

    def _ranges(self, other, sign: float):
        """The key ranges of self + sign * other (`_merge_runs`)."""
        if isinstance(other, (int, float, complex)):
            other = scalar(self.spacetime, other)
        self._check(other)
        height = max(len(self.digits), len(other.digits))
        return _merge_runs(self.size, self.dim, [
            (el.tags, el.coeffs, _pad(el.digits, height))
            for el in (self, other)], [1, sign])

    def __add__(self, other):
        return _element(self.spacetime, self.size,
                        *_joined(self._ranges(other, 1)))

    __radd__ = __add__

    def __sub__(self, other):
        return _element(self.spacetime, self.size,
                        *_joined(self._ranges(other, -1.0)))

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def scale(self, values) -> "AlgebraElement":
        """Element i of a batch times values[i]; a number scales them all."""
        values = np.asarray(values)
        values = values[self.tags] if values.ndim else values
        return _element(self.spacetime, self.size, self.tags,
                        self.coeffs * values, self.digits)

    # -- algebra ----------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        self._check(other)
        dim, half = self.dim, self.dim // 2
        # digit of the sigma-partner, -1 for the empty digit
        digit = np.arange(-1, dim + 1, dtype=self.digits.dtype)
        partner = np.concatenate(
            [digit[:1], digit[half + 2:], digit[2:half + 2]])
        A, B = self.digits, other.digits
        n_b = np.bincount(other.tags, minlength=self.size)
        b_first, height = n_b.cumsum() - n_b, len(A) + len(B)

        def expand(lo: int, hi: int):
            # each left term of element t meets every right term of t
            tags = self.tags[lo:hi]
            fan = n_b[tags]
            ends = fan.cumsum()
            at = np.arange(ends[-1]) + (b_first[tags] - ends + fan).repeat(fan)
            tags, left = tags.repeat(fan), A[:, lo:hi].repeat(fan, axis=1)
            right = B.take(at, axis=1)
            coef = self.coeffs[lo:hi].repeat(fan) * other.coeffs.take(at)
            out_tags, out_digits, out_coeffs = [], [], []
            r = 0
            while True:
                out_tags.append(tags)
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
                before = np.bincount(tags, minlength=self.size)
                coef = coef[k] * np.where(left[p, k] > half, -0.5j, 0.5j)
                tags = tags[k]
                left, right = _drop(left, k, p), _drop(right, k, q)
                # equal remainders are merged in an element whose terms
                # multiplied and from level 2 on, where the r! orders of
                # each set of contractions meet: the 1/r! of the Moyal sum
                # then divides one sum, exact on integer data
                need = (np.bincount(tags, minlength=self.size) > before) \
                    | (r > 1)
                if need.any():
                    tags, coef, left, right = _merge_tagged(
                        self.size, tags, np.concatenate(
                            [_pack(left, dim), _pack(right, dim)]),
                        coef, left, right, need=need)
            return (np.concatenate(out_tags),
                    np.concatenate(out_digits, axis=1),
                    np.concatenate(out_coeffs))

        return _chunked(self.spacetime, self.size, self.tags, n_b, expand)

    def star(self) -> "AlgebraElement":
        """Antilinear involution; on the (real) canonical basis it conjugates
        coefficients, realizing (u^n)* = (conj u)^n."""
        return _element(self.spacetime, self.size, self.tags,
                        self.coeffs.conj(), self.digits)


def stack(elements: list[AlgebraElement]) -> AlgebraElement:
    """The batch of single `elements`, tagged 0, 1, ... in order."""
    for el in elements:
        if el.size != 1:
            raise SpaceMismatch("stack takes single elements, not batches")
        elements[0]._check(el)
    height, size = max(len(el.digits) for el in elements), len(elements)
    return _element(
        elements[0].spacetime, size, np.repeat(
            np.arange(size, dtype=_tag_type(size)),
            [len(el.coeffs) for el in elements]),
        np.concatenate([el.coeffs for el in elements]),
        np.concatenate([_pad(el.digits, height) for el in elements], axis=1))


def zero(spacetime: LatticeSpacetime) -> AlgebraElement:
    return AlgebraElement(spacetime, {})


def one(spacetime: LatticeSpacetime) -> AlgebraElement:
    return AlgebraElement(spacetime, {(): 1.0 + 0.0j})


def scalar(spacetime: LatticeSpacetime, value: complex) -> AlgebraElement:
    return AlgebraElement(spacetime, {(): complex(value)})


def fields(spacetime: LatticeSpacetime, vecs) -> AlgebraElement:
    """The fields of the rows of `vecs` (data vectors), as one batch."""
    vecs = np.asarray(vecs, dtype=complex).reshape(-1, spacetime.data_dim)
    tags, nz = np.nonzero(np.abs(vecs) > PRUNE_TOL)
    digits = (nz + 1).astype(_digit_type(spacetime.data_dim)).reshape(1, -1)
    return _element(spacetime, len(vecs), tags.astype(_tag_type(len(vecs))),
                    vecs[tags, nz], digits)


def field(phi: Solution) -> AlgebraElement:
    """Symplectically smeared field: the degree-1 injection, linear in phi.
    Kept for the benchmark's CCR check; everything else calls `fields`."""
    return fields(phi.spacetime, phi.vec())


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
    maps the empty digit to itself. A stack of n maps, one per element of a
    batch, has a leading axis of length n."""

    digits: np.ndarray   # ([n,] dim + 1, width), of `_digit_type(dim)`
    weights: np.ndarray  # ([n,] dim + 1, width)

    @property
    def width(self) -> int:
        return self.digits.shape[-1]

    @cached_property
    def widths(self) -> np.ndarray:
        """Each map's own width: the most terms in one basis vector's image."""
        return (self.weights != 0).sum(axis=-1).max(axis=-1)

    def __getitem__(self, index) -> "SlotMap":
        """The maps `index` (an int or a slice) of a stack."""
        return SlotMap(self.digits[index], self.weights[index])


def slot_map(matrix: np.ndarray, consts: np.ndarray | None = None) -> SlotMap:
    """SlotMap of e_i -> sum_j matrix[j, i] e_j + consts[i]; entries of
    magnitude at most PRUNE_TOL are dropped. Matrices (n, dim, dim) with
    consts (n, dim) give a stack of n maps."""
    matrix = np.asarray(matrix)
    mats = matrix.reshape(-1, *matrix.shape[-2:])
    t, row, col = np.nonzero(mats)
    maps = slot_maps(len(mats), mats.shape[-1], t, row, col, mats[t, row, col],
                     consts)
    return maps if matrix.ndim == 3 else maps[0]


def slot_maps(n: int, dim: int, t: np.ndarray, row: np.ndarray,
              col: np.ndarray, weight: np.ndarray, consts=None) -> SlotMap:
    """The stack of n maps with matrix_t[row, col] = weight (entries listed
    in increasing row within each t and col) and consts (n, dim)."""
    consts = np.zeros((n, dim)) if consts is None \
        else np.asarray(consts).reshape(n, dim)
    keep = np.abs(weight) > PRUNE_TOL
    t_c, has_const = np.nonzero(consts != 0.0)
    weight = np.concatenate([consts[t_c, has_const], weight[keep]])
    digit = np.concatenate([np.zeros(len(t_c), dtype=np.int64), row[keep] + 1])
    # column i of map t is column t * dim + i of the stack
    col = np.concatenate([t_c * dim + has_const, t[keep] * dim + col[keep]])
    order = np.argsort(col, kind="stable")
    col, digit, weight = col[order], digit[order], weight[order]
    pos = np.arange(len(col)) - np.searchsorted(col, col)
    width = int(pos.max()) + 1 if len(pos) else 1
    digits = np.zeros((n, dim + 1, width), dtype=_digit_type(dim))
    weights = np.zeros((n, dim + 1, width),
                       dtype=np.result_type(weight, consts, float))
    weights[:, 0, 0] = 1.0
    t, col = np.divmod(col, dim)
    digits[t, col + 1, pos] = digit
    weights[t, col + 1, pos] = weight
    return SlotMap(digits, weights)


def substitute_affine(a: AlgebraElement, slots: SlotMap) -> AlgebraElement:
    """Symmetric-algebra substitution of every tensor slot by the affine map
    `slots` (one for all elements of a batch, or a stack of one each). This
    is the degree-wise action of an (affine) linear map on generators; it is
    an algebra homomorphism exactly when the linear part is symplectic.

    Where every map has width 1, such as a signed permutation, the digits
    are relabelled and each slot weighted. Otherwise the slots are
    substituted one at a time; once an element's terms outnumber its input
    terms by more than its map's width, terms equal up to the order of the
    substituted slots are merged, which bounds the growth for dense maps."""
    dim, D = a.dim, len(a.digits)
    digit_of = slots.digits.reshape(-1, slots.width)
    weight_of = slots.weights.reshape(-1, slots.width)
    # each map's own width, and the row of map t for digit d in the stack
    width = slots.widths
    if slots.digits.ndim == 2:
        width, base = np.full(a.size, width), np.zeros(len(a.tags), np.uint8)
    elif len(slots.digits) == a.size:
        base = a.tags.astype(np.int64) * (dim + 1)
    else:
        raise SpaceMismatch(f"{len(slots.digits)} slot maps for {a.size}")

    def relabel(lo: int, hi: int):
        rows = base[lo:hi] + a.digits[:, lo:hi]
        return (a.tags[lo:hi], _sort_digits(digit_of[rows, 0]),
                a.coeffs[lo:hi] * np.multiply.reduce(weight_of[rows, 0]))

    if width.max(initial=1) == 1:  # each term has one image: fan = width
        return _chunked(a.spacetime, a.size, a.tags, width, relabel)

    def expand(lo: int, hi: int):
        digits, coef, at = a.digits[:, lo:hi], a.coeffs[lo:hi], base[lo:hi]
        tags = a.tags[lo:hi]
        # an element's terms merge once they outnumber its map's width times
        # its terms after its last merge (at first, its input terms); none
        # does while all the terms together do not outnumber the least limit
        limit = width * np.bincount(tags, minlength=a.size)
        least = min(limit.tolist())
        for j in range(D):
            w = weight_of[at + digits[j]]
            k, c = w.nonzero()
            digits, coef, at = digits.take(k, axis=1), coef[k] * w[k, c], at[k]
            tags = tags[k]
            digits[j] = digit_of[at + digits[j], c]
            if j == D - 1 or len(coef) <= least:
                continue
            need = np.bincount(tags, minlength=a.size) > limit
            if need.any():
                digits[:j + 1] = _sort_digits(digits[:j + 1])
                tags, coef, digits, at = _merge_tagged(
                    a.size, tags, _pack(digits, dim), coef, digits, at,
                    need=need)
                if j < D - 2:  # a later slot still compares
                    limit = np.where(need, width * np.bincount(
                        tags, minlength=a.size), limit)
                    least = min(limit.tolist())
        return tags, _sort_digits(digits), coef

    # each element's degree: a single one has as many digit rows (they are
    # trimmed); a batch reduces the term degrees over each run of its tags
    degree = np.zeros(a.size, dtype=int)
    if a.size == 1:
        degree[0] = len(a.digits)
    elif len(a.tags):
        head = np.flatnonzero(np.concatenate(([True], a.tags[1:] != a.tags[:-1])))
        degree[a.tags[head]] = np.maximum.reduceat(a.term_degrees(), head)
    fan = np.minimum(width.astype(float) ** degree, CHUNK_TERMS).astype(int)
    return _chunked(a.spacetime, a.size, a.tags, fan, expand)


def derivation(a: AlgebraElement, slots: SlotMap) -> AlgebraElement:
    """Derivation extending the affine map `slots` of the basis, one tensor
    slot at a time: the tangent at t = 0 of substitute_affine by exp(tX) and
    t * consts; a derivation of the CCR product when X is in sp(sigma)."""
    D = len(a.digits)

    def expand(lo: int, hi: int):
        tags, digits, coeffs = a.tags[lo:hi], a.digits[:, lo:hi], a.coeffs[lo:hi]
        out = [(tags[:0], digits[:, :0], coeffs[:0])]
        for j in range(D):
            w = slots.weights[digits[j]] * (digits[j] > 0)[:, None]
            k, c = w.nonzero()
            new = digits.take(k, axis=1)
            new[j] = slots.digits[new[j], c]
            out.append((tags[k], new, coeffs[k] * w[k, c]))
        tags, digits, coeffs = zip(*out)
        return (np.concatenate(tags), _sort_digits(np.concatenate(digits, 1)),
                np.concatenate(coeffs))

    return _chunked(a.spacetime, a.size, a.tags,
                    np.full(a.size, D * slots.width), expand)


class LiftedMap:
    """Algebra endomorphism induced by a symplectic, conjugation-commuting
    linear map of the solution space (degree-wise functorial action). A
    stack of matrices (n, dim, dim) lifts each one, for a batch of n."""

    def __init__(self, spacetime: LatticeSpacetime, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if np.iscomplexobj(matrix):
            if np.max(np.abs(matrix.imag)) > 1e-12:
                raise NotReal("map does not commute with conjugation")
            matrix = matrix.real
        J = symplectic_matrix(spacetime)
        defect = np.max(np.abs(np.swapaxes(matrix, -1, -2) @ J @ matrix - J))
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
    """Max absolute coefficient difference (residual metric for all suites);
    for batches, the largest over their elements."""
    return max((float(np.maximum.reduce(np.abs(diff))) for _, diff, _ in
                a._ranges(b, -1.0) if len(diff)), default=0.0)


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
