"""Exact scalar arithmetic over odd prime fields, the rationals, and real
quadratic extensions Q(sqrt d).

Every value is immutable and kept in a canonical form (least residue,
reduced fraction, reduced coordinate pair), so structural equality is field
equality and elements can be hashed, shared between threads, and compared
freely.  Nothing here ever touches floating point.

A field stores its grammar token (``f13``, ``q``, ``q[sqrt2]``), display
name and repr once, when it is built, and is compared and hashed by the
token.  One routine, ``_operator``, builds ``FieldElement``'s ``+ - * /``
and their reflected forms: it coerces the other operand to a raw value of
the field, as ``==`` does, and combines the two raws.

Each field also carries a private kernel for vectors of its values in
lifted form: integers over one shared denominator.  Algebra elements and
matrices are stored this way, as subclasses of ``Lifted`` (see below);
``FieldElement`` values appear only at the API edge.

- ``_lift(raws) -> (vec, den)`` writes canonical values as integers over
  one shared denominator: residues unchanged with den 1 over F_p,
  numerators over the lcm of the denominators over Q, and integer
  ``(r, s)`` pairs over the lcm of all 2n denominators over Q(sqrt d).
- ``_reduce(vec, den) -> (tuple, den)`` brings a vector to the canonical
  lifted form: over F_p one ``% p`` per entry with den 1; over Q and
  Q(sqrt d) one ``gcd(den, *entries)`` and one exact division, since the
  lcm over i of D/gcd(N_i, D) is D/gcd(D, N_1, ..., N_n).  In canonical
  form den > 0, gcd(den, every integer) = 1, and den is 1 over F_p and
  for integer data, so equal vectors have equal storage and ``==`` and
  ``hash`` are tuple operations.  The lift of canonical values is
  already canonical.
- ``_dot(u, v)`` is the unreduced integer (or integer-pair) dot product of
  two lifted vectors, over the product of their denominators;
  ``_scale(u, v)`` the unreduced entrywise products, over the same
  denominator (the weights of a structure-constant product); and
  ``_times(vec, c)`` every entry times one lifted scalar or int (negation,
  scaling, rescaling to a common denominator, cross-multiplied
  comparison).  ``_add`` adds lifted entries as well as raws.
- ``_drop(acc, den) -> raw`` turns one lifted entry back into a canonical
  value (a single ``% p``, one ``Fraction(acc, den)`` or two); it builds
  the ``FieldElement`` views and nothing else.

``Lifted`` holds one such vector, ``ents`` over ``den``, and implements
everything that needs only the format: ``+``, ``-``, negation, scaling,
``is_zero``, ``==``, ``hash`` and the list of differing entries, as well as
the one ``*`` dispatch and the one ``**``.  Its subclasses
(``AlgebraElement``, ``SquareMatrix``) add their own product, identity and
shape; their ``FieldElement`` views (``coords``, ``rows``) are built from
the storage on each access.

Nothing is reduced between the lift and the reduction, and nothing is ever
rounded: a product costs one reduction of its whole output, and it is the
canonical value that reducing after every step would give.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul


class MixedFieldError(ValueError):
    """Operands belong to two different fields."""


class NotASquareError(ArithmeticError):
    """The requested square root does not exist in the field."""


class ParseError(ValueError):
    """A literal does not match the scalar or field grammar."""


MAX_PRIME = 1 << 64          # residues must fit a 64-bit word
MAX_QUAD_D = 10 ** 12        # the supported range of d in Q(sqrt d)

_INT_RE = re.compile(r"[+-]?\d+\Z")
_RAT_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")
# r + r's with s the square root symbol; the rational part is only present
# when followed by the sign of the s-term, e.g. "1/2+1/2s", "-2s", "1-s".
_QUAD_RE = re.compile(
    r"(?:(?P<r>[+-]?\d+(?:/\d+)?)(?=[+-]))?(?P<s>[+-]?(?:\d+(?:/\d+)?)?)s\Z"
)
_FIELD_RE = re.compile(r"(?:f(?P<p>\d+)|q(?:\[sqrt(?P<d>\d+)\])?)\Z")

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, exact for n < 2**64 with these witnesses
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_squarefree(d: int) -> bool:
    """Whether no square q^2 > 1 divides d > 0, in O(cbrt d) divisions:
    once every q with q^3 <= (what is left of d) is divided out, what is
    left has at most two prime factors, so it is squarefree unless it is
    the square of a prime."""
    q = 2
    while q * q * q <= d:
        if d % q == 0:
            d //= q
            if d % q == 0:
                return False
        q += 1
    return d == 1 or isqrt(d) ** 2 != d


def _quadratic_character(x: int, p: int) -> int:
    """The Legendre symbol (x/p) for an odd prime p: 0, 1 or -1, by Euler's
    criterion."""
    e = pow(x, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


def _as_fraction(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact scalar expected, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot build a rational from {value!r}")


def _parse_fraction(text: str) -> Fraction:
    if not _RAT_RE.fullmatch(text):
        raise ParseError(f"bad rational literal {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"bad rational literal {text!r}: zero denominator") from None


def _rational_sqrt(x: Fraction):
    """The non-negative rational root of x, or None when there is none."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _power(base, n: int, mul):
    """base**n for n >= 1 by square-and-multiply, seeded with the lowest set
    bit's factor: bitlen(n) - 1 squarings and popcount(n) - 1 products.

    Scalars pass their field's raw product; ``Lifted.__pow__`` passes
    ``operator.mul``, so each product goes through ``__mul__``.
    """
    while not n & 1:
        base = mul(base, base)
        n >>= 1
    out = base
    n >>= 1
    while n:
        base = mul(base, base)
        if n & 1:
            out = mul(out, base)
        n >>= 1
    return out


def _operator(combine):
    """The one routine behind FieldElement's binary operators: the other
    operand is coerced to a raw value of the field, then
    ``combine(field, own raw, other raw)`` gives the raw of the result."""

    def op(self, other):
        field = self.field
        raw = field._coerce_raw(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElement(field, combine(field, self.raw, raw))

    return op


class FieldElement:
    """A scalar of one particular field, in canonical form.  It equals, and
    hashes like, the int or Fraction of its value; an F_p element also
    equals every integer congruent to it, which no hash can honour."""

    __slots__ = ("field", "raw")

    def __init__(self, field: "Field", raw):
        self.field = field
        self.raw = raw

    # -- arithmetic ---------------------------------------------------

    __add__ = __radd__ = _operator(lambda f, x, y: f._add(x, y))
    __sub__ = _operator(lambda f, x, y: f._add(x, f._neg(y)))
    __rsub__ = _operator(lambda f, x, y: f._add(y, f._neg(x)))
    __mul__ = __rmul__ = _operator(lambda f, x, y: f._mul(x, y))
    __truediv__ = _operator(lambda f, x, y: f._mul(x, f._inv(y)))
    __rtruediv__ = _operator(lambda f, x, y: f._mul(y, f._inv(x)))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.raw))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        field = self.field
        if n == 0:
            return field.one
        base = (self if n > 0 else self.inv()).raw
        return FieldElement(field, _power(base, abs(n), field._mul))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inv(self.raw))

    def sqrt(self) -> "FieldElement":
        """Canonical square root: least residue over Z/p, the non-negative
        root over the rationals and Q(sqrt d)."""
        return FieldElement(self.field, self.field._sqrt(self.raw))

    # -- comparisons and plumbing --------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.raw == self.field.zero.raw

    @property
    def is_one(self) -> bool:
        return self.raw == self.field.one.raw

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.raw == other.raw and (
                self.field is other.field or self.field == other.field
            )
        raw = self.field._coerce_raw(other)
        return raw if raw is NotImplemented else self.raw == raw

    def __hash__(self):
        # the value == compares: the residue, the Fraction, or r if s = 0
        raw = self.raw
        return hash(raw[0] if type(raw) is tuple and not raw[1] else raw)

    def __str__(self):
        return self.field._format(self.raw)

    def __repr__(self):
        return f"{self.field}({self})"


class Lifted:
    """A vector of field values in canonical lifted form: ``ents`` over the
    denominator ``den`` (see the module docstring).  Immutable and hashable.

    A subclass supplies ``field``; ``_kind``, the class whose instances may
    be combined with it; ``_like(vec, den)``, the value of its own kind and
    shape holding vec over den, reduced; ``_check_same(other)``, which
    raises its own error when other lives in a different algebra, field or
    shape; ``_space()``, what two equal values must share; ``_product(other)``,
    its product with a value of the same kind and space; ``_one()``, its
    multiplicative identity; and ``_negative_power``, the message of the
    ValueError that a negative exponent raises.
    """

    __slots__ = ("ents", "den")

    def __add__(self, other):
        if not isinstance(other, self._kind):
            return NotImplemented
        self._check_same(other)
        return self._like(*self.field._sum(self.ents, self.den, other.ents, other.den))

    def __sub__(self, other):
        if not isinstance(other, self._kind):
            return NotImplemented
        self._check_same(other)
        field = self.field
        return self._like(
            *field._sum(self.ents, self.den, field._times(other.ents, -1), other.den)
        )

    def __neg__(self):
        return self._like(self.field._times(self.ents, -1), self.den)

    def __mul__(self, other):
        if isinstance(other, self._kind):
            self._check_same(other)
            return self._product(other)
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError(self._negative_power)
        if n == 0:
            return self._one()
        # square-and-multiply needs only power-associativity, which octonions
        # have: they are alternative (Artin's theorem)
        return _power(self, n, mul)

    def scale(self, factor):
        field = self.field
        (c,), cden = field._lift([field.element(factor).raw])
        return self._like(field._times(self.ents, c), self.den * cden)

    @property
    def is_zero(self) -> bool:
        return self.ents.count(self.field._nil) == len(self.ents)

    def __eq__(self, other):
        if not isinstance(other, self._kind):
            return NotImplemented
        if self.den != other.den or self.ents != other.ents:
            return False
        space, other_space = self._space(), other._space()
        return space is other_space or space == other_space

    def __hash__(self):
        return hash((self._space(), self.den, self.ents))

    def _differing(self, other) -> list:
        """The indices of the entries in which self and other differ: a/d1
        and b/d2 differ exactly when a*d2 != b*d1, so the cross-multiplied
        entries are compared as integers."""
        field = self.field
        u, v = field._times(self.ents, other.den), field._times(other.ents, self.den)
        return [k for k, (a, b) in enumerate(zip(u, v)) if a != b]


class Field:
    """Common behaviour of the three supported coefficient fields."""

    def element(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MixedFieldError(f"{value!r} does not belong to {self}")
            return value
        return FieldElement(self, self._canon(value))

    def parse(self, text: str) -> FieldElement:
        """Parse a scalar literal; str(element) round-trips bit exactly."""
        return FieldElement(self, self._parse(text.strip()))

    def random_element(self, rng) -> FieldElement:
        return FieldElement(self, self._random_raw(rng))

    def _coerce_raw(self, other):
        if isinstance(other, FieldElement):
            if other.field != self:
                raise MixedFieldError(
                    f"cannot mix scalars of {other.field} with scalars of {self}"
                )
            return other.raw
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            try:
                return self._canon(other)
            except TypeError:
                return NotImplemented
        return NotImplemented

    def _init_field(self, token: str, name: str, rep: str):
        # a field is named uniquely by its grammar token (f13, q, q[sqrt2])
        self._token, self._name, self._repr = token, name, rep
        self.zero = FieldElement(self, self._canon(0))
        self.one = FieldElement(self, self._canon(1))
        # the lifted zero and one entries: 0 and 1, or (0, 0) and (1, 0)
        (self._nil, self._unit), _ = self._lift([self.zero.raw, self.one.raw])

    def grammar_token(self) -> str:
        return self._token

    def __str__(self):
        return self._name

    def __repr__(self):
        return self._repr

    def __eq__(self, other):
        return self is other or (isinstance(other, Field) and other._token == self._token)

    def __hash__(self):
        return hash(self._token)

    # the kernel on integer entries (F_p, Q); Q(sqrt d) has its own for pairs

    def _dot(self, u, v):
        return sum(map(mul, u, v))

    def _scale(self, u, v):
        return list(map(mul, u, v))

    def _times(self, vec, c):
        return [x * c for x in vec]

    def _view(self, ents, den) -> tuple:
        """The entries of a lifted vector as FieldElements."""
        drop = self._drop
        return tuple([FieldElement(self, drop(e, den)) for e in ents])

    def _common(self, *parts):
        """Lifted (vec, den) parts rescaled to one denominator, their lcm."""
        den = lcm(*[d for _, d in parts])
        return [v if d == den else self._times(v, den // d) for v, d in parts], den

    def _sum(self, u, du, v, dv):
        """u/du + v/dv entrywise, unreduced, over lcm(du, dv)."""
        (u, v), den = self._common((u, du), (v, dv))
        return list(map(self._add, u, v)), den


class PrimeField(Field):
    """Z/p for an odd prime p that fits a 64-bit word."""

    def __init__(self, p: int):
        p = int(p)
        if p == 2:
            raise ValueError("characteristic two is not supported")
        # first: the primality test is exact only below 2^64
        if p >= MAX_PRIME:
            raise ValueError(f"modulus {p} does not fit a 64-bit word")
        if p < 3 or not _is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        self.p = p
        self._init_field(f"f{p}", f"F{p}", f"PrimeField({p})")

    def _canon(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"residues of {self} are integers, got {value!r}")
        return value % self.p

    def _add(self, x, y):
        return (x + y) % self.p

    def _mul(self, x, y):
        return x * y % self.p

    def _neg(self, x):
        return -x % self.p

    def _inv(self, x):
        if x == 0:
            raise ZeroDivisionError(f"division by zero in {self}")
        return pow(x, self.p - 2, self.p)

    def _lift(self, raws):
        return raws, 1

    def _reduce(self, vec, den):
        p = self.p
        return tuple([x % p for x in vec]), 1

    def _drop(self, acc, den):
        return acc % self.p

    def _sqrt(self, x):
        p = self.p
        if x == 0:
            return 0
        if _quadratic_character(x, p) != 1:
            raise NotASquareError(f"{x} is not a square in {self}")
        # Tonelli-Shanks: p - 1 = q * 2^s with q odd, z a non-residue
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while _quadratic_character(z, p) != -1:
            z += 1
        c, t, root = pow(z, q, p), pow(x, q, p), pow(x, (q + 1) // 2, p)
        while t != 1:
            # least i with t^(2^i) = 1; then fold c^(2^(s-i-1)) into the root
            i, t2 = 1, t * t % p
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (s - i - 1), p)
            s, c = i, b * b % p
            t, root = t * c % p, root * b % p
        # the canonical root is the least of the two
        return min(root, p - root)

    def _format(self, raw):
        return str(raw)

    def _parse(self, text):
        if not _INT_RE.fullmatch(text):
            raise ParseError(f"bad residue literal {text!r} for {self}")
        return int(text) % self.p

    def _random_raw(self, rng):
        return rng.randrange(self.p)


class RationalField(Field):
    """The rationals with arbitrary-precision reduced fractions."""

    def __init__(self):
        self._init_field("q", "Q", "RationalField()")

    def _canon(self, value):
        return _as_fraction(value)

    def _add(self, x, y):
        return x + y

    def _mul(self, x, y):
        return x * y

    def _neg(self, x):
        return -x

    def _inv(self, x):
        if x == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / x

    def _lift(self, raws):
        den = lcm(*[x.denominator for x in raws])
        if den == 1:
            return [x.numerator for x in raws], 1
        return [x.numerator * (den // x.denominator) for x in raws], den

    def _reduce(self, vec, den):
        g = gcd(den, *vec)
        if g == 1:
            return tuple(vec), den
        return tuple([x // g for x in vec]), den // g

    def _drop(self, acc, den):
        return Fraction(acc, den) if acc else self.zero.raw

    def _sqrt(self, x):
        root = _rational_sqrt(x)
        if root is None:
            raise NotASquareError(f"{x} is not a square in Q")
        return root

    def _format(self, raw):
        return str(raw)

    def _parse(self, text):
        return _parse_fraction(text)

    def _random_raw(self, rng):
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


class QuadraticField(Field):
    """Q(sqrt d) for a fixed squarefree d > 1; values are pairs r + s*sqrt(d)."""

    def __init__(self, d: int):
        d = int(d)
        if d < 2:
            raise ValueError(f"need a squarefree d > 1, got {d}")
        if d > MAX_QUAD_D:
            raise ValueError(f"d={d} is beyond the supported range")
        if not _is_squarefree(d):
            raise ValueError(f"{d} is not squarefree")
        self.d = d
        self._init_field(f"q[sqrt{d}]", f"Q(sqrt{d})", f"QuadraticField({d})")

    def _canon(self, value):
        if isinstance(value, (tuple, list)):
            if len(value) != 2:
                raise TypeError(f"{self} pairs have two components, got {value!r}")
            return (_as_fraction(value[0]), _as_fraction(value[1]))
        return (_as_fraction(value), Fraction(0))

    def _add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def _mul(self, x, y):
        r, s = x
        t, u = y
        return (r * t + s * u * self.d, r * u + s * t)

    def _neg(self, x):
        return (-x[0], -x[1])

    def _inv(self, x):
        r, s = x
        nrm = r * r - s * s * self.d   # nonzero unless (r, s) = 0 since d is not a square
        if nrm == 0:
            raise ZeroDivisionError(f"division by zero in {self}")
        return (r / nrm, -s / nrm)

    def _lift(self, raws):
        den = lcm(*[c.denominator for x in raws for c in x])
        if den == 1:
            return [(r.numerator, s.numerator) for r, s in raws], 1
        return [
            (r.numerator * (den // r.denominator), s.numerator * (den // s.denominator))
            for r, s in raws
        ], den

    def _dot(self, u, v):
        rr = ss = rs = sr = 0
        for (r, s), (t, w) in zip(u, v):
            rr += r * t
            ss += s * w
            rs += r * w
            sr += s * t
        return (rr + self.d * ss, rs + sr)

    def _scale(self, u, v):
        d = self.d
        return [(r * t + d * s * w, r * w + s * t) for (r, s), (t, w) in zip(u, v)]

    def _times(self, vec, c):
        if type(c) is int:
            return [(r * c, s * c) for r, s in vec]
        t, w = c
        dw = self.d * w
        return [(r * t + s * dw, r * w + s * t) for r, s in vec]

    def _reduce(self, vec, den):
        g = gcd(den, *chain.from_iterable(vec))
        if g == 1:
            return tuple(vec), den
        return tuple([(r // g, s // g) for r, s in vec]), den // g

    def _drop(self, acc, den):
        zero = self.zero.raw
        if acc == (0, 0):
            return zero
        r, s = acc
        return (Fraction(r, den) if r else zero[0], Fraction(s, den) if s else zero[1])

    def _sqrt(self, x):
        r, s = x
        if s == 0:
            root = _rational_sqrt(r)
            if root is not None:
                return (root, Fraction(0))
            root = _rational_sqrt(r / self.d)
            if root is not None:
                return (Fraction(0), root)
        else:
            # (a + b sqrt d)^2 = r + s sqrt d needs a^2 + d b^2 = r and
            # 2ab = s, so (a^2 - d b^2)^2 = r^2 - d s^2 = m^2 and
            # a^2 = (r +- m)/2; the wrong sign gives a^2 = d b^2 with b != 0,
            # never a rational square
            m = _rational_sqrt(r * r - self.d * s * s)
            if m is not None:
                for a_sq in ((r + m) / 2, (r - m) / 2):
                    a = _rational_sqrt(a_sq)
                    if a:
                        b = s / (2 * a)
                        # of the two roots, return the one that is positive
                        # for sqrt(d) > 0
                        if b < 0 and a * a < self.d * b * b:
                            a, b = -a, -b
                        return (a, b)
        raise NotASquareError(f"{self._format(x)} is not a square in {self}")

    def _format(self, raw):
        r, s = raw
        if s == 0:
            return str(r)
        if r == 0:
            return f"{s}s"
        if s > 0:
            return f"{r}+{s}s"
        return f"{r}-{-s}s"

    def _parse(self, text):
        if "s" not in text:
            return (_parse_fraction(text), Fraction(0))
        m = _QUAD_RE.fullmatch(text)
        if m is None:
            raise ParseError(f"bad literal {text!r} for {self}")
        r = Fraction(0) if m.group("r") is None else _parse_fraction(m.group("r"))
        coeff = m.group("s")
        if coeff in ("", "+"):
            s = Fraction(1)
        elif coeff == "-":
            s = Fraction(-1)
        else:
            s = _parse_fraction(coeff)
        return (r, s)

    def _random_raw(self, rng):
        return (
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
        )


def parse_field(text: str) -> Field:
    """Build a field from its grammar token: ``f<p>``, ``q`` or ``q[sqrt<d>]``."""
    m = _FIELD_RE.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"bad field literal {text!r} (expected f<p>, q or q[sqrt<d>])")
    if m.group("p") is not None:
        return PrimeField(int(m.group("p")))
    if m.group("d") is not None:
        return QuadraticField(int(m.group("d")))
    return RationalField()
