"""Exact multivariate Laurent polynomials and rational expressions.

A polynomial's terms are a dict from exponent tuples to nonzero
arbitrary-precision Python ints.  The monomial order used for division and
serialization is graded lexicographic (grlex).

Inside multiplication and exact division, each operand is shifted by its
minimum exponents so that every exponent is >= 0, and each exponent vector
is packed into one int: the total degree in the top field, then e_0 ... e_{n-1},
every field wide enough for the largest total degree plus one guard bit.
Integer order on packed keys is grlex order, adding two keys multiplies the
monomials, and a monomial r is divisible by m exactly when subtracting m
from r with every guard bit set clears none of them.  Division keeps the
remainder as a dict from packed keys to coefficients plus a max-heap of its
keys, pruned lazily (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007); only the result is
unpacked back to tuples.
"""

from __future__ import annotations

import heapq
import json
import re
from operator import add, mul, sub


class NonExactDivision(ArithmeticError):
    pass


class ZeroPolynomial(ValueError):
    pass


def _grlex_key(exps):
    return (sum(exps), exps)


class _Packing:
    """Packed-key layout for n exponents >= 0 of total degree <= top."""

    __slots__ = ("weights", "shifts", "mask", "guard")

    def __init__(self, n, top):
        bits = top.bit_length()
        width = bits + 1
        self.shifts = tuple(range((n - 1) * width, -1, -width))
        # pack(e) = sum(e_i * weight_i) is linear, so it also packs e - base
        # as pack(e) - pack(base); the degree field collects every e_i.
        self.weights = tuple((1 << s) + (1 << (n * width)) for s in self.shifts)
        self.mask = (1 << bits) - 1
        self.guard = sum(1 << (s + bits) for s in self.shifts + (n * width,))

    def pack(self, terms, base):
        """[(key of e - base, c)] for the (e, c) of a term dict."""
        w = self.weights
        b = sum(map(mul, base, w))
        return [(sum(map(mul, e, w)) - b, c) for e, c in terms.items()]

    def unpack(self, packed, offset):
        """{e + offset: c} for the (key of e, c) pairs with c != 0."""
        shifts, mask = self.shifts, self.mask
        return {
            tuple(((k >> s) & mask) + o for s, o in zip(shifts, offset)): c
            for k, c in packed
            if c
        }


def _top_degree(p, mins):
    """Largest total degree of p after shifting it by -mins."""
    return max(map(sum, p.terms)) - sum(mins)


class LaurentPolynomial:
    """Immutable Laurent polynomial over a fixed tuple of variable names."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        clean = {}
        for e, c in terms.items():
            if c:
                clean[tuple(e)] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def _of(cls, variables, terms):
        """Wrap a dict of tuple keys and nonzero ints without copying it."""
        p = object.__new__(cls)
        p.vars = variables
        p.terms = terms
        p._hash = None
        return p

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c):
        n = len(variables)
        return cls(variables, {(0,) * n: c})

    @classmethod
    def monomial(cls, variables, exps, c=1):
        return cls(variables, {tuple(exps): c})

    @classmethod
    def var(cls, variables, name, power=1):
        i = list(variables).index(name)
        e = [0] * len(variables)
        e[i] = power
        return cls(variables, {tuple(e): 1})

    # -- basics -------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_one(self):
        return len(self.terms) == 1 and self.terms.get((0,) * len(self.vars)) == 1

    def is_monomial(self):
        return len(self.terms) == 1

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("variable mismatch: %r vs %r" % (self.vars, other.vars))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.const(self.vars, other)
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return LaurentPolynomial(self.vars, t)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.const(self.vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPolynomial._of(self.vars, {})
            return LaurentPolynomial._of(
                self.vars, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        a, b = self, other
        if len(a.terms) == 1:
            a, b = b, a
        if len(b.terms) == 1:
            # monomial factor: shift and scale, no two terms can meet
            ((e2, c2),) = b.terms.items()
            return LaurentPolynomial._of(
                self.vars,
                {tuple(map(add, e, e2)): c * c2 for e, c in a.terms.items()},
            )
        if not a.terms or not b.terms:
            return LaurentPolynomial._of(self.vars, {})
        ma, mb = a.min_exponents(), b.min_exponents()
        layout = _Packing(len(self.vars), _top_degree(a, ma) + _top_degree(b, mb))
        pb = layout.pack(b.terms, mb)
        t = {}
        get = t.get
        for ka, ca in layout.pack(a.terms, ma):
            for kb, cb in pb:
                k = ka + kb
                t[k] = get(k, 0) + ca * cb
        offset = tuple(map(add, ma, mb))
        return LaurentPolynomial._of(self.vars, layout.unpack(t.items(), offset))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k == 1:
            return self  # immutable, so no copy is needed
        if k < 0:
            if not self.is_monomial():
                raise NonExactDivision("negative power of a non-monomial")
            (e, c), = self.terms.items()
            if c not in (1, -1):
                raise NonExactDivision("negative power of non-unit coefficient")
            return LaurentPolynomial(
                self.vars, {tuple(a * k for a in e): 1 if c == 1 or k % 2 == 0 else -1}
            )
        r = None
        b = self
        while k:
            if k & 1:
                r = b if r is None else r * b
            b = b * b if k > 1 else b
            k >>= 1
        return LaurentPolynomial.const(self.vars, 1) if r is None else r

    def min_exponents(self):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no exponents")
        return tuple(map(min, zip(*self.terms)))

    def shift(self, delta):
        return LaurentPolynomial(
            self.vars,
            {tuple(a + d for a, d in zip(e, delta)): c for e, c in self.terms.items()},
        )

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), 0)

    def total_degrees(self):
        return [sum(e) for e in self.terms]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)


def lp_exact_div(p, q):
    """Exact division p / q; raises NonExactDivision on any remainder."""
    p._check(q)
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return p
    if len(q.terms) == 1:
        ((qe, qc),) = q.terms.items()
        quot = {}
        for e, c in p.terms.items():
            if c % qc:
                raise NonExactDivision("non-exact division")
            quot[tuple(map(sub, e, qe))] = c // qc
        return LaurentPolynomial._of(p.vars, quot)
    mp, mq = p.min_exponents(), q.min_exponents()
    layout = _Packing(len(p.vars), max(_top_degree(p, mp), _top_degree(q, mq)))
    guard = layout.guard
    Q = sorted(layout.pack(q.terms, mq), reverse=True)
    lead, qc = Q[0]
    tail = Q[1:]
    rem = dict(layout.pack(p.terms, mp))
    heap = [-k for k in rem]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    quot = []
    while heap:
        r = -pop(heap)
        rc = rem.pop(r, 0)
        if not rc:
            continue  # stale: this key cancelled after it was pushed
        # a field borrows, and clears its guard bit, iff r's is below lead's
        if ((r | guard) - lead) & guard != guard or rc % qc:
            raise NonExactDivision("non-exact division")
        d = r - lead
        dc = rc // qc
        quot.append((d, dc))
        # every d + e2 below is smaller than r, so r is settled for good
        for e2, c2 in tail:
            e = d + e2
            c = rem.get(e)
            if c is None:
                rem[e] = -dc * c2
                push(heap, -e)
            else:
                c -= dc * c2
                if c:
                    rem[e] = c
                else:
                    del rem[e]
    offset = tuple(map(sub, mp, mq))
    return LaurentPolynomial._of(p.vars, layout.unpack(quot, offset))


def lp_exchange_monomials(factors, variables):
    """(prod v^b over the (v, b) in factors with b > 0, prod v^-b over those
    with b < 0); each product starts at its first factor other than the
    constant 1, and an empty one is the constant 1 over variables."""
    plus = minus = None
    for v, b in factors:
        if not b or v.is_one():
            continue
        if b > 0:
            f = v ** b
            plus = f if plus is None else plus * f
        else:
            f = v ** -b
            minus = f if minus is None else minus * f
    if plus is None:
        plus = LaurentPolynomial.const(variables, 1)
    if minus is None:
        minus = LaurentPolynomial.const(variables, 1)
    return plus, minus


def lp_divides(q, p):
    try:
        lp_exact_div(p, q)
        return True
    except NonExactDivision:
        return False


def lp_substitute_monomial(p, mapping):
    """Substitute each variable by a Laurent monomial (LaurentPolynomial).

    All variables of p must have an image; images share one ambient
    variable tuple, which becomes the result's.
    """
    if not mapping:
        raise ValueError("empty substitution map")
    images = [mapping[v] for v in p.vars]
    tvars = images[0].vars
    ivecs = []
    icoefs = []
    for im in images:
        if im.vars != tvars:
            raise ValueError("substitution images have mismatched variables")
        if not im.is_monomial():
            raise ValueError("substitution image is not a monomial")
        (e, c), = im.terms.items()
        ivecs.append(e)
        icoefs.append(c)
    t = {}
    for e, c in p.terms.items():
        out = [0] * len(tvars)
        coef = c
        for a, vec, vc in zip(e, ivecs, icoefs):
            if a:
                for i, x in enumerate(vec):
                    out[i] += a * x
                if vc != 1:
                    if a < 0 and vc not in (1, -1):
                        raise NonExactDivision("negative power of non-unit coefficient")
                    coef *= vc ** a if a > 0 else vc ** (-a)
        key = tuple(out)
        t[key] = t.get(key, 0) + coef
    return LaurentPolynomial(tvars, t)


def lp_rename(p, new_vars, var_map=None):
    """Re-express p over a new ambient variable tuple by name."""
    idx = []
    for v in p.vars:
        name = var_map.get(v, v) if var_map else v
        idx.append(list(new_vars).index(name))
    t = {}
    for e, c in p.terms.items():
        out = [0] * len(new_vars)
        for a, i in zip(e, idx):
            out[i] += a
        t[tuple(out)] = t.get(tuple(out), 0) + c
    return LaurentPolynomial(new_vars, t)


def lp_denominator_vector(p, n):
    """d_i = -(minimal exponent of variable i over all terms), i < n."""
    if p.is_zero():
        raise ZeroPolynomial("denominator vector of zero")
    mins = p.min_exponents()
    return tuple(-mins[i] for i in range(n))


def lp_canonical_text(p):
    if p.is_zero():
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        factors = []
        for name, a in zip(p.vars, e):
            if a == 0:
                continue
            factors.append(name if a == 1 else "%s^%d" % (name, a))
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        text = "*".join(factors)
        if not parts:
            parts.append(text if c > 0 else "-" + text)
        else:
            parts.append(("+ " if c > 0 else "- ") + text)
    return " ".join(parts)


def lp_parse(text, variables):
    """Parse the lp_canonical_text format (also accepts free spacing)."""
    text = text.strip()
    if text == "0":
        return LaurentPolynomial.zero(variables)
    # split into signed terms; '-' inside exponents follows '^'
    tokens = re.findall(r"[+-]|[^+\s-]+", text.replace("^-", "^~"))
    poly = LaurentPolynomial.zero(variables)
    sign = 1
    for tok in tokens:
        if tok == "+":
            sign = 1
            continue
        if tok == "-":
            sign = -1
            continue
        tok = tok.replace("^~", "^-")
        coef = sign
        e = [0] * len(variables)
        for factor in tok.split("*"):
            if re.fullmatch(r"-?\d+", factor):
                coef *= int(factor)
                continue
            m = re.fullmatch(r"([A-Za-z_]\w*(?:\[[^\]]*\])?)(?:\^(-?\d+))?", factor)
            if not m:
                raise ValueError("cannot parse factor %r" % factor)
            name, power = m.group(1), int(m.group(2) or 1)
            e[list(variables).index(name)] += power
        poly = poly + LaurentPolynomial.monomial(variables, e, coef)
        sign = 1
    return poly


def lp_to_json(p):
    return json.dumps(
        [{"e": list(e), "c": str(c)} for e, c in p.sorted_terms()], separators=(",", ":")
    )


def lp_from_json(text, variables):
    data = json.loads(text)
    return LaurentPolynomial(
        variables, {tuple(item["e"]): int(item["c"]) for item in data}
    )


class RationalExpression:
    """Quotient of Laurent polynomials; equality via cross-multiplication.

    Normalization is deliberately gcd-free: we strip common monomial and
    integer content and trial-divide by any supplied factor hints.
    """

    __slots__ = ("num", "den", "factor_hints")

    def __init__(self, num, den, factor_hints=()):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den
        self.factor_hints = tuple(factor_hints)

    @classmethod
    def from_poly(cls, p, hints=()):
        return cls(p, LaurentPolynomial.const(p.vars, 1), hints)

    @property
    def vars(self):
        return self.num.vars

    def simplify(self):
        num, den = self.num, self.den
        if num.is_zero():
            return RationalExpression(
                num, LaurentPolynomial.const(num.vars, 1), self.factor_hints
            )
        # monomial content
        shift = tuple(
            -min(a, b) for a, b in zip(num.min_exponents(), den.min_exponents())
        )
        if any(shift):
            num = num.shift(shift)
            den = den.shift(shift)
        # pure-monomial denominator: fold into numerator exponents
        if den.is_monomial():
            (e, c), = den.terms.items()
            if c in (1, -1) and any(e):
                num = num.shift(tuple(-a for a in e)) * c
                den = LaurentPolynomial.const(num.vars, 1)
        # integer content
        import math

        g = 0
        for c in num.terms.values():
            g = math.gcd(g, c)
        for c in den.terms.values():
            g = math.gcd(g, c)
        if g > 1:
            num = LaurentPolynomial(num.vars, {e: c // g for e, c in num.terms.items()})
            den = LaurentPolynomial(den.vars, {e: c // g for e, c in den.terms.items()})
        # hint trial-division
        changed = True
        while changed:
            changed = False
            for h in self.factor_hints:
                if h.vars != num.vars or h.is_monomial():
                    continue
                while (not den.is_one()) and lp_divides(h, num) and lp_divides(h, den):
                    num = lp_exact_div(num, h)
                    den = lp_exact_div(den, h)
                    changed = True
        return RationalExpression(num, den, self.factor_hints)

    def _hints(self, other):
        hints = list(self.factor_hints)
        for h in getattr(other, "factor_hints", ()):
            if h not in hints:
                hints.append(h)
        return hints

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPolynomial)):
            other = _coerce(other, self.vars)
        return RationalExpression(
            self.num * other.num, self.den * other.den, self._hints(other)
        ).simplify()

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, LaurentPolynomial)):
            other = _coerce(other, self.vars)
        if other.num.is_zero():
            raise ZeroDivisionError
        return RationalExpression(
            self.num * other.den, self.den * other.num, self._hints(other)
        ).simplify()

    def __add__(self, other):
        if isinstance(other, (int, LaurentPolynomial)):
            other = _coerce(other, self.vars)
        return RationalExpression(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
            self._hints(other),
        ).simplify()

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, LaurentPolynomial)):
            other = _coerce(other, self.vars)
        return RationalExpression(
            self.num * other.den - other.num * self.den,
            self.den * other.den,
            self._hints(other),
        ).simplify()

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError
        return RationalExpression(self.den, self.num, self.factor_hints).simplify()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return RationalExpression(self.num ** k, self.den ** k, self.factor_hints)

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPolynomial)):
            other = _coerce(other, self.vars)
        if not isinstance(other, RationalExpression):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        s = self.simplify()
        return hash((s.num, s.den))

    def is_zero(self):
        return self.num.is_zero()

    def is_laurent(self):
        s = self.simplify()
        return s.den.is_one()

    def as_laurent(self):
        s = self.simplify()
        if not s.den.is_one():
            p = lp_exact_div(s.num, s.den)
            return p
        return s.num

    def text(self):
        s = self.simplify()
        n = lp_canonical_text(s.num)
        if s.den.is_one():
            return n
        d = lp_canonical_text(s.den)
        if len(s.num.terms) > 1:
            n = "(%s)" % n
        if len(s.den.terms) > 1:
            d = "(%s)" % d
        return "%s / %s" % (n, d)

    def __repr__(self):
        return "RationalExpression(%s)" % self.text()


def _coerce(value, variables):
    if isinstance(value, RationalExpression):
        return value
    if isinstance(value, int):
        value = LaurentPolynomial.const(variables, value)
    return RationalExpression.from_poly(value)
