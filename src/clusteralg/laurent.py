"""Exact multivariate Laurent polynomials and rational expressions.

A polynomial's terms are a dict from exponent tuples to nonzero
arbitrary-precision Python ints.  The monomial order used for division and
serialization is graded lexicographic (grlex).

Packed keys.  Multiplication, addition and exact division work on packed
exponent vectors (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  An operand is
shifted by a base, a componentwise lower bound of its exponents, so every
exponent is >= 0, and each exponent vector becomes one int: the total degree
in the top field, then e_0 ... e_{n-1}.  Fields are byte-aligned, 8, 16, 32
or 64 bits (wider in steps of doubling), the narrowest whose top bit stays
clear for the largest shifted total degree: that bit is the guard bit.
There is one shared layout per (n, width), so two packed forms of the same
width add and multiply key by key.  Integer order on packed keys is grlex
order, adding two keys multiplies the monomials, and a monomial r is
divisible by m exactly when subtracting m from r with every guard bit set
clears none of them.  Unpacking is `int.to_bytes` plus one `map(add, ...)`
per term.

Lifetime of a packed form.  A product of two polynomials with two or more
terms each, a power, a sum with a packed operand (the other operand is
packed into the same layout), and a packed polynomial times a monomial or
an int hold only their packed form: (layout, base, top degree, {key:
coefficient}), at least two nonzero terms.  For a product the base is the
exact minimum and the top degree exact; for a sum they are bounds.
`lp_exact_div` reads a packed dividend's keys directly, so the dividend
`plus + minus` of an exchange relation is never unpacked; division keeps
the remainder as a dict of packed keys plus a lazily pruned max-heap and
unpacks only the quotient.

When `terms` materializes.  `terms` of a packed polynomial is built on its
first read (by `__getattr__`) and kept beside the packed form: equality,
hashing, text, JSON, substitution, `min_exponents` and everything outside
this kernel read it.  A polynomial built from a term dict has `terms` from
the start and no packed form.
"""

from __future__ import annotations

import heapq
import json
import random
import re
from math import gcd
from operator import add, mul, sub


class NonExactDivision(ArithmeticError):
    pass


class ZeroPolynomial(ValueError):
    pass


def _grlex_key(exps):
    return (sum(exps), exps)


class _Packing:
    """Packed-key layout for n exponents >= 0 in fields of `width` bits."""

    __slots__ = ("n", "width", "weights", "guard", "nbytes")

    def __init__(self, n, width):
        shifts = tuple(range((n - 1) * width, -1, -width))
        self.n = n
        self.width = width
        # pack(e) = sum(e_i * weight_i) is linear, so it also packs e - base
        # as pack(e) - pack(base); the degree field collects every e_i.
        self.weights = tuple((1 << s) + (1 << (n * width)) for s in shifts)
        self.guard = sum(1 << (s + width - 1) for s in shifts + (n * width,))
        self.nbytes = (n + 1) * width // 8

    def pack(self, terms, base):
        """{key of e - base: c} for the (e, c) of a term dict."""
        w = self.weights
        b = sum(map(mul, base, w))
        return {sum(map(mul, e, w)) - b: c for e, c in terms.items()}

    def unpack(self, items, offset):
        """{e + offset: c} for the (key of e, c) pairs in items."""
        n, width, nbytes = self.n, self.width, self.nbytes
        if width == 8:
            # big-endian bytes: the degree field, then e_0 ... e_{n-1}
            return {
                tuple(map(add, k.to_bytes(nbytes, "big")[1:], offset)): c
                for k, c in items
            }
        mask = (1 << width) - 1
        shifts = range((n - 1) * width, -1, -width)
        return {
            tuple(((k >> s) & mask) + o for s, o in zip(shifts, offset)): c
            for k, c in items
        }


_LAYOUTS = {}


def _layout(n, top):
    """The shared layout of n exponents with shifted total degree <= top."""
    width = 8
    while top >> (width - 1):
        width <<= 1
    layout = _LAYOUTS.get((n, width))
    if layout is None:
        layout = _LAYOUTS[n, width] = _Packing(n, width)
    return layout


def _top_degree(p, mins):
    """Largest total degree of p after shifting it by -mins."""
    return max(map(sum, p.terms)) - sum(mins)


def _frame(p):
    """(base, top): p's packed base and top degree, or else its minimum
    exponents and its top degree shifted by them."""
    pk = p._packed
    if pk is not None:
        return pk[1], pk[2]
    base = p.min_exponents()
    return base, _top_degree(p, base)


def _packed_items(p, layout, base):
    """{key of e - base: c} over p's terms in layout, base <= p's base.

    A packed p of this layout gives its own dict (read only) or a copy with
    every key moved by one constant; any other p is packed from its terms.
    """
    pk = p._packed
    if pk is not None and pk[0] is layout:
        s = sum(map(mul, map(sub, pk[1], base), layout.weights))
        return {k + s: c for k, c in pk[3].items()} if s else pk[3]
    return layout.pack(p.terms, base)


class LaurentPolynomial:
    """Immutable Laurent polynomial over a fixed tuple of variable names.

    A packed polynomial (see the module docstring) leaves the `terms` slot
    unset until it is first read.
    """

    __slots__ = ("vars", "terms", "_hash", "_packed")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        clean = {}
        for e, c in terms.items():
            if c:
                clean[tuple(e)] = c
        self.terms = clean
        self._hash = None
        self._packed = None

    @classmethod
    def _of(cls, variables, terms):
        """Wrap a dict of tuple keys and nonzero ints without copying it."""
        p = object.__new__(cls)
        p.vars = variables
        p.terms = terms
        p._hash = None
        p._packed = None
        return p

    @classmethod
    def _of_packed(cls, variables, layout, base, top, items):
        """Wrap a packed form of two or more nonzero terms, no copy."""
        p = object.__new__(cls)
        p.vars = variables
        p._hash = None
        p._packed = (layout, base, top, items)
        return p

    def __getattr__(self, name):
        # reached only when a slot is unset: the terms of a packed polynomial
        if name != "terms":
            raise AttributeError(name)
        layout, base, _, items = self._packed
        terms = self.terms = layout.unpack(items.items(), base)
        return terms

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

    # -- basics (a packed polynomial has two or more terms) -----------
    def is_zero(self):
        return self._packed is None and not self.terms

    def is_one(self):
        return self.is_monomial() and self.terms.get((0,) * len(self.vars)) == 1

    def is_monomial(self):
        return self._packed is None and len(self.terms) == 1

    def __bool__(self):
        return not self.is_zero()

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
        a, b = (self, other) if other._packed is None else (other, self)
        if a._packed is None:
            t = dict(a.terms)
            for e, c in b.terms.items():
                t[e] = t.get(e, 0) + c
            return LaurentPolynomial(self.vars, t)
        if b.is_zero():
            return a
        ba, ta = _frame(a)
        bb, tb = _frame(b)
        base = tuple(map(min, ba, bb))
        top = max(ta + sum(ba), tb + sum(bb)) - sum(base)
        layout = _layout(len(base), top)
        t = _packed_items(a, layout, base)
        if t is a._packed[3]:
            t = dict(t)  # never write to a shared packed form
        get = t.get
        for k, c in _packed_items(b, layout, base).items():
            c += get(k, 0)
            if c:
                t[k] = c
            else:
                del t[k]
        if len(t) > 1:
            return LaurentPolynomial._of_packed(self.vars, layout, base, top, t)
        return LaurentPolynomial._of(self.vars, layout.unpack(t.items(), base))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.const(self.vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPolynomial._of(self.vars, {})
            pk = self._packed
            if pk is not None:
                layout, base, top, items = pk
                return LaurentPolynomial._of_packed(
                    self.vars, layout, base, top, {k: c * other for k, c in items.items()}
                )
            return LaurentPolynomial._of(
                self.vars, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        a, b = self, other
        if a.is_monomial():
            a, b = b, a
        if b.is_monomial():
            # monomial factor: shift and scale, no two terms can meet
            ((e2, c2),) = b.terms.items()
            pk = a._packed
            if pk is not None:
                layout, base, top, items = pk
                if c2 != 1:
                    items = {k: c * c2 for k, c in items.items()}
                return LaurentPolynomial._of_packed(
                    self.vars, layout, tuple(map(add, base, e2)), top, items
                )
            return LaurentPolynomial._of(
                self.vars,
                {tuple(map(add, e, e2)): c * c2 for e, c in a.terms.items()},
            )
        if a.is_zero() or b.is_zero():
            return LaurentPolynomial._of(self.vars, {})
        ba, ta = _frame(a)
        bb, tb = _frame(b)
        layout = _layout(len(ba), ta + tb)
        pb = list(_packed_items(b, layout, bb).items())
        t = {}
        get = t.get
        for ka, ca in _packed_items(a, layout, ba).items():
            for kb, cb in pb:
                k = ka + kb
                t[k] = get(k, 0) + ca * cb
        if 0 in t.values():
            t = {k: c for k, c in t.items() if c}
        # leading and trailing terms never cancel: two or more terms remain,
        # and the base and top degree are exact
        return LaurentPolynomial._of_packed(
            self.vars, layout, tuple(map(add, ba, bb)), ta + tb, t
        )

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

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)


def lp_exact_div(p, q):
    """Exact division p / q; raises NonExactDivision on any remainder."""
    p._check(q)
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return p
    pk = p._packed
    if q.is_monomial():
        ((qe, qc),) = q.terms.items()
        items = p.terms if pk is None else pk[3]
        if any(c % qc for c in items.values()):
            raise NonExactDivision("non-exact division")
        if pk is None:
            return LaurentPolynomial._of(
                p.vars, {tuple(map(sub, e, qe)): c // qc for e, c in items.items()}
            )
        layout, base, top, _ = pk
        if qc != 1:
            items = {k: c // qc for k, c in items.items()}
        return LaurentPolynomial._of_packed(
            p.vars, layout, tuple(map(sub, base, qe)), top, items
        )
    mp, tp = _frame(p)
    mq = q.min_exponents()
    layout = _layout(len(mp), max(tp, _top_degree(q, mq)))
    guard = layout.guard
    Q = sorted(layout.pack(q.terms, mq).items(), reverse=True)
    lead, qc = Q[0]
    tail = Q[1:]
    rem = dict(_packed_items(p, layout, mp))
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


_P61 = (1 << 61) - 1
_HASH_POINTS = {}


def _fingerprint(p):
    """p modulo 2^61 - 1 at a fixed pseudo-random point of n coordinates."""
    n = len(p.vars)
    point = _HASH_POINTS.get(n)
    if point is None:
        rng = random.Random(_P61)
        point = _HASH_POINTS[n] = tuple(rng.randrange(2, _P61) for _ in range(n))
    s = 0
    for e, c in p.terms.items():
        for x, a in zip(point, e):
            if a:
                c = c * pow(x, a, _P61) % _P61
        s += c
    return s % _P61


class RationalExpression:
    """Quotient of Laurent polynomials; equality via cross-multiplication.

    Normalization is deliberately gcd-free: we strip common monomial and
    integer content and fold a monomial denominator of coefficient +-1 into
    the numerator.  So the hash is not taken from the normalized pair, which
    equal values need not share, but from num * den^-1 at a fixed point
    modulo 2^61 - 1 (Schwartz 1980), one constant where den vanishes there.
    Equal values hash alike unless a common factor of num and den vanishes
    at the point.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p):
        return cls(p, LaurentPolynomial.const(p.vars, 1))

    @property
    def vars(self):
        return self.num.vars

    def simplify(self):
        num, den = self.num, self.den
        if num.is_zero():
            return RationalExpression.from_poly(num)
        shift = tuple(
            -min(a, b) for a, b in zip(num.min_exponents(), den.min_exponents())
        )
        if any(shift):
            num = num.shift(shift)
            den = den.shift(shift)
        if den.is_monomial():
            (e, c), = den.terms.items()
            if c in (1, -1) and any(e):
                num = num.shift(tuple(-a for a in e)) * c
                den = LaurentPolynomial.const(num.vars, 1)
        # integer content
        g = 0
        for c in num.terms.values():
            g = gcd(g, c)
        for c in den.terms.values():
            g = gcd(g, c)
        if g > 1:
            num = LaurentPolynomial(num.vars, {e: c // g for e, c in num.terms.items()})
            den = LaurentPolynomial(den.vars, {e: c // g for e, c in den.terms.items()})
        return RationalExpression(num, den)

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPolynomial)):
            other = _coerce(other, self.vars)
        return RationalExpression(self.num * other.num, self.den * other.den).simplify()

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, LaurentPolynomial)):
            other = _coerce(other, self.vars)
        if other.num.is_zero():
            raise ZeroDivisionError
        return RationalExpression(self.num * other.den, self.den * other.num).simplify()

    def __add__(self, other):
        if isinstance(other, (int, LaurentPolynomial)):
            other = _coerce(other, self.vars)
        return RationalExpression(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        ).simplify()

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, LaurentPolynomial)):
            other = _coerce(other, self.vars)
        return RationalExpression(
            self.num * other.den - other.num * self.den,
            self.den * other.den,
        ).simplify()

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError
        return RationalExpression(self.den, self.num).simplify()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return RationalExpression(self.num ** k, self.den ** k)

    def __eq__(self, other):
        # only another RationalExpression: an int or a LaurentPolynomial
        # hashes by its own rule, so equality with one would break sets
        if not isinstance(other, RationalExpression):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # equal values give equal num * den^-1 wherever den is nonzero
        den = _fingerprint(self.den)
        if not den:
            return hash((self.vars, None))
        return hash((self.vars, _fingerprint(self.num) * pow(den, -1, _P61) % _P61))

    def is_zero(self):
        return self.num.is_zero()

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
