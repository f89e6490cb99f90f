"""Exact dyadic oracle for the deformed product.

Independent evaluation route used by the associativity checks: every
product is reduced through degree-1 generator multiplications,

    e_{i1..ik} . b = F(i1) . (e_{i2..ik} . b)
                     - (i/2) sum_j sigma(i1, ij) e_{i2..ik \\ j} . b,
    F(u) . M  = u v M + (i/2) sum_j sigma(u, mj) M \\ j,

each generator applied to a whole element at once, rather than by
enumerating partial matchings as the float kernel does.

Coefficients are Gaussian dyadic rationals: an element is a dict of integer
numerators (re, im) over one power of two 2**exp. Every finite float is
dyadic, so `exact_from_complex_terms` is exact on any float input, and the
only denominators the recursion makes are the contractions' 1/2, so the
whole product is integer arithmetic. Each element is kept at its smallest
exp >= 0, which makes `==` value equality: associativity holds to equality
and the float path can be compared against it coefficient by coefficient.
"""
from __future__ import annotations

from typing import NamedTuple

Gauss = tuple[int, int]  # real, imaginary numerators
Monomials = dict[tuple[int, ...], Gauss]


class ExactElement(NamedTuple):
    """sum over idx of terms[idx] * 2**-exp, with exp as small as it can be."""
    terms: Monomials
    exp: int


def _canonical(terms: Monomials, exp: int) -> ExactElement:
    """Drop zero terms and the powers of two common to all numerators."""
    terms = {idx: c for idx, c in terms.items() if c != (0, 0)}
    bits = 0
    for re, im in terms.values():
        bits |= re | im
    shift = min(exp, (bits & -bits).bit_length() - 1) if bits else exp
    if shift:
        terms = {idx: (re >> shift, im >> shift)
                 for idx, (re, im) in terms.items()}
    return ExactElement(terms, exp - shift)


def exact_from_complex_terms(terms: dict[tuple[int, ...], complex]
                             ) -> ExactElement:
    ratios = {idx: (c.real.as_integer_ratio(), c.imag.as_integer_ratio())
              for idx, c in terms.items()}
    # every denominator is a power of two: bring all to the largest
    exp = max((d.bit_length() - 1 for pair in ratios.values()
               for _, d in pair), default=0)
    return _canonical({idx: (nr * (1 << exp) // dr, ni * (1 << exp) // di)
                       for idx, ((nr, dr), (ni, di)) in ratios.items()}, exp)


def _add(acc: Monomials, idx: tuple[int, ...], re: int, im: int):
    cur = acc.get(idx)
    if cur is not None:
        re, im = cur[0] + re, cur[1] + im
        if not (re or im):
            del acc[idx]
            return
    acc[idx] = (re, im)


def _left_product(ia: tuple[int, ...], b: Monomials, half: int,
                  memo: dict) -> Monomials:
    """2**len(ia) * e_ia . b, for b's Gaussian integer numerators: the
    generators of ia multiplied, last first, into the whole of b."""
    out = memo.get(ia)
    if out is not None:
        return out
    if not ia:
        out = b
    else:
        out = {}
        u, rest = ia[0], ia[1:]
        # the one generator v with sigma(u, v) = s != 0
        v, s = (u + half, 1) if u < half else (u - half, -1)
        # 2 F(u) . M = 2 u v M + i sum_j sigma(u, mj) M \ j, M from e_rest . b
        for mono, (re, im) in _left_product(rest, b, half, memo).items():
            _add(out, tuple(sorted(mono + (u,))), 2 * re, 2 * im)
            for j, mj in enumerate(mono):
                if mj == v:
                    _add(out, mono[:j] + mono[j + 1:], -s * im, s * re)
        # -(i/2) sigma(u, rest_j) e_{rest \ j} . b, at scale 2**len(ia)
        for j, rj in enumerate(rest):
            if rj == v:
                sub = _left_product(rest[:j] + rest[j + 1:], b, half, memo)
                for idx, (re, im) in sub.items():
                    _add(out, idx, 2 * s * im, -2 * s * re)
    memo[ia] = out
    return out


def exact_product(a: ExactElement, b: ExactElement, half: int) -> ExactElement:
    memo: dict = {}
    top = max(map(len, a.terms), default=0)
    out: Monomials = {}
    for ia, (ar, ai) in a.terms.items():
        scale = top - len(ia)
        cr, ci = ar << scale, ai << scale
        for idx, (wr, wi) in _left_product(ia, b.terms, half, memo).items():
            _add(out, idx, cr * wr - ci * wi, cr * wi + ci * wr)
    return _canonical(out, a.exp + b.exp + top)


def max_diff_vs_float(exact: ExactElement,
                      float_terms: dict[tuple[int, ...], complex]) -> float:
    den = 1 << exact.exp
    out = 0.0
    for k in set(exact.terms) | set(float_terms):
        re, im = exact.terms.get(k, (0, 0))
        out = max(out, abs(complex(re / den, im / den)
                           - float_terms.get(k, 0.0)))
    return out
