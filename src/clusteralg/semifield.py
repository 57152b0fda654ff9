"""Semifield abstraction: tropical and universal instances.

A semifield here is a multiplicative abelian group with an auxiliary
addition ``oplus`` distributing over multiplication.  Subtraction-free
polynomials evaluate uniformly in any instance (`sf_eval_poly`).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .laurent import LaurentPolynomial, RationalExpression


class GeneratorMismatch(ValueError):
    pass


class NonPositiveCoefficient(ValueError):
    pass


class TropicalMonomial:
    """Element of Trop(u1..um): a Laurent monomial in named generators."""

    __slots__ = ("gens", "exps")

    def __init__(self, gens, exps):
        self.gens = tuple(gens)
        self.exps = tuple(exps)
        if len(self.gens) != len(self.exps):
            raise ValueError("generator/exponent length mismatch")

    def _check(self, other):
        if self.gens != other.gens:
            raise GeneratorMismatch(
                "mismatched generators: %r vs %r" % (self.gens, other.gens)
            )

    def __mul__(self, other):
        self._check(other)
        return TropicalMonomial(
            self.gens, tuple(a + b for a, b in zip(self.exps, other.exps))
        )

    def __pow__(self, k):
        return TropicalMonomial(self.gens, tuple(a * k for a in self.exps))

    def inverse(self):
        return self ** -1

    def oplus(self, other):
        self._check(other)
        return TropicalMonomial(
            self.gens, tuple(min(a, b) for a, b in zip(self.exps, other.exps))
        )

    def __eq__(self, other):
        return (
            isinstance(other, TropicalMonomial)
            and self.gens == other.gens
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.gens, self.exps))

    def text(self):
        factors = []
        for name, a in zip(self.gens, self.exps):
            if a == 0:
                continue
            factors.append(name if a == 1 else "%s^%d" % (name, a))
        return "*".join(factors) or "1"

    def __repr__(self):
        return "TropicalMonomial(%s)" % self.text()


class Semifield:
    """Contract: mul / inverse / one / oplus over a carrier type."""

    def one(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def oplus(self, a, b):
        raise NotImplementedError

    def from_const(self, n):
        """Image of a positive integer constant (1 + 1 + ... + 1)."""
        if n <= 0:
            raise ValueError("constants must be positive")
        acc = self.one()
        for _ in range(n - 1):
            acc = self.oplus(acc, self.one())
        return acc

    def eq(self, a, b):
        return a == b

    def power(self, a, k):
        if k < 0:
            return self.power(self.inverse(a), -k)
        acc = self.one()
        for _ in range(k):
            acc = self.mul(acc, a)
        return acc

    def div(self, a, b):
        return self.mul(a, self.inverse(b))


class TropicalSemifield(Semifield):
    def __init__(self, gens):
        self.gens = tuple(gens)

    def one(self):
        return TropicalMonomial(self.gens, (0,) * len(self.gens))

    def generator(self, name):
        i = self.gens.index(name)
        e = [0] * len(self.gens)
        e[i] = 1
        return TropicalMonomial(self.gens, tuple(e))

    def monomial(self, exps):
        return TropicalMonomial(self.gens, tuple(exps))

    def mul(self, a, b):
        return a * b

    def inverse(self, a):
        return a.inverse()

    def oplus(self, a, b):
        return a.oplus(b)

    def from_const(self, n):
        if n <= 0:
            raise ValueError("constants must be positive")
        return self.one()


class UniversalSemifield(Semifield):
    """Subtraction-free rational expressions over named generators; oplus is +."""

    def __init__(self, gens, hints=()):
        self.gens = tuple(gens)
        self.hints = tuple(hints)

    def one(self):
        return RationalExpression.from_poly(
            LaurentPolynomial.const(self.gens, 1), self.hints
        )

    def generator(self, name):
        return RationalExpression.from_poly(
            LaurentPolynomial.var(self.gens, name), self.hints
        )

    def value(self, poly_or_re):
        if isinstance(poly_or_re, LaurentPolynomial):
            return RationalExpression.from_poly(poly_or_re, self.hints)
        return poly_or_re

    def mul(self, a, b):
        return a * b

    def inverse(self, a):
        return a.inverse()

    def oplus(self, a, b):
        return a + b

    def from_const(self, n):
        if n <= 0:
            raise ValueError("constants must be positive")
        return RationalExpression.from_poly(
            LaurentPolynomial.const(self.gens, n), self.hints
        )


class TrivialSemifield(Semifield):
    """The one-element semifield {1} with 1 (+) 1 = 1."""

    def one(self):
        return 1

    def generator(self, name):
        return 1

    def mul(self, a, b):
        return 1

    def inverse(self, a):
        return 1

    def oplus(self, a, b):
        return 1

    def from_const(self, n):
        if n <= 0:
            raise ValueError("constants must be positive")
        return 1


class PositiveRationalSemifield(Semifield):
    """The universal semifield evaluated at positive rational numbers."""

    def one(self):
        return Fraction(1)

    def mul(self, a, b):
        return a * b

    def inverse(self, a):
        return 1 / a

    def oplus(self, a, b):
        return a + b

    def from_const(self, n):
        if n <= 0:
            raise ValueError("constants must be positive")
        return Fraction(n)


def sf_eval_poly(F, assign, S):
    """Evaluate a polynomial with positive integer coefficients in S."""
    acc = None
    for e, c in F.sorted_terms():
        if c <= 0:
            raise NonPositiveCoefficient(
                "coefficient %d is not positive in %r" % (c, F)
            )
        term = S.from_const(c) if c > 1 else S.one()
        for name, a in zip(F.vars, e):
            if a:
                term = S.mul(term, S.power(assign[name], a))
        acc = term if acc is None else S.oplus(acc, term)
    if acc is None:
        raise ValueError("cannot evaluate the zero polynomial in a semifield")
    return acc


def trop_eval_exps(F, rows):
    """Exponents of F in a tropical semifield, from integer weights.

    Entry r is the min, over the exponent vectors e of F's terms, of
    sum_j e_j * rows[r][j]: the exponent of u_r when variable j is sent to
    the monomial whose u_r-exponent is rows[r][j].  Every coefficient must
    be > 0.
    """
    for c in F.terms.values():
        if c <= 0:
            raise NonPositiveCoefficient("coefficient %d is not positive" % c)
    if not F.terms:
        raise ValueError("tropical evaluation of zero polynomial")
    return [min(sum(map(mul, e, row)) for e in F.terms) for row in rows]


def trop_eval_positive_poly(F, assign):
    """Tropical evaluation: oplus over term images; coefficients must be > 0.

    Every variable that occurs in F needs an image over the same generators
    as the first image in `assign`.
    """
    try:
        gens = next(iter(assign.values())).gens
    except StopIteration:
        raise ValueError("empty assignment") from None
    cols = []
    for name, occurs in zip(F.vars, map(any, zip(*F.terms))):
        if not occurs:
            cols.append((0,) * len(gens))
            continue
        v = assign[name]
        if v.gens != gens:
            raise GeneratorMismatch("mismatched generators: %r vs %r" % (gens, v.gens))
        cols.append(v.exps)
    rows = [tuple(col[r] for col in cols) for r in range(len(gens))]
    return TropicalMonomial(gens, trop_eval_exps(F, rows))
