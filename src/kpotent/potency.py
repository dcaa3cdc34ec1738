"""Classification of k-potent and nilpotent elements, plus the two exact
constructive generators: unit-norm rotors over ordered fields and the
norm-zero construction for split algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, OctAlgebra, QuatAlgebra, Quaternion
from .fields import FieldElement, NotASquareError, QuadraticField, RationalField


class GenerationError(ValueError):
    """A generator precondition failed (unsupported order, bad direction)."""


DEFAULT_MAX_K = 64

# k -> (cos(2*pi/(k-1)), sin^2(2*pi/(k-1))); exactly the angles whose
# cosine/sine pairs stay inside the supported scalar fields.
_ROTOR_ANGLES = {
    3: (Fraction(-1), Fraction(0)),
    4: (Fraction(-1, 2), Fraction(3, 4)),
    5: (Fraction(0), Fraction(1)),
    7: (Fraction(1, 2), Fraction(3, 4)),
}

SUPPORTED_ROTOR_KS = tuple(sorted(_ROTOR_ANGLES))


@dataclass(frozen=True)
class PotencyReport:
    """Outcome of classifying one element.

    kind is "k-potent" (index = smallest k > 1 with x^k = x), "nilpotent"
    (index = smallest n with x^n = 0) or "none" (index = max_k, a clamp;
    certain over Q and Q(sqrt d), searched up to max_k over F_p).
    """

    kind: str
    index: int
    trace: FieldElement
    norm: FieldElement

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "index": self.index,
            "trace": str(self.trace),
            "norm": str(self.norm),
        }

    def __str__(self):
        return f"{self.kind}(index={self.index}, trace={self.trace}, norm={self.norm})"


def _ordered_division_algebra(algebra) -> bool:
    # a = b (= c) = -1 over Q or Q(sqrt d): the norm is a sum of squares in
    # an ordered field, the precondition of rotor generation
    if not isinstance(algebra.field, (RationalField, QuadraticField)):
        return False
    minus_one = -algebra.field.one
    return all(p == minus_one for p in algebra.params)


def _check_max_k(max_k: int) -> None:
    if max_k < 2:
        raise ValueError("max_k must be at least 2")


def _classify_plane(p: int, max_k: int, x0, n, scalar_tail: bool):
    """(kind, index) of an element with scalar part x0, norm n and, if
    scalar_tail, all other coordinates zero, from x^k = u + v x and
    (u, v) -> (-n v, u + 2 x0 v) on residues mod p.  Over Q and Q(sqrt d)
    p is 0 and x0, n are field elements; x^k = x forces n^k = n, so only
    norms 0 and +-1 can be potent, and then k - 1 is the order of a root
    of unity of degree <= 4 over Q, so k <= 13.
    """
    if not p and not (n == 0 or n == 1 or n == -1):
        return ("none", max_k)
    t = 2 * x0
    if scalar_tail:
        if x0 == 0:
            return ("k-potent", 2)
        t, n = x0, 0   # x^2 = x0 x, so x^k = x0^(k-1) x
    u, v = 0, 1   # x^1 = 0 + 1*x
    if p:
        t %= p
        for k in range(2, max_k + 1):
            u, v = -n * v % p, (u + t * v) % p
            if u == 0 and v in (0, 1):
                return ("k-potent" if v else "nilpotent", k)
        return ("none", max_k)
    for k in range(2, min(max_k, 13) + 1):
        u, v = -n * v, u + t * v
        if u == 0 and v in (0, 1):
            return ("k-potent" if v else "nilpotent", k)
    return ("none", max_k)


def classify(x: AlgebraElement, max_k: int = DEFAULT_MAX_K) -> PotencyReport:
    """Classify x by the (trace, norm) recursion; no element is multiplied.

    Zero is reported as k-potent with index 2, matching the literal
    definition (0^2 = 0); some conventions exclude it.  Over Q and Q(sqrt d)
    "none" certifies that x is neither k-potent nor nilpotent for any k;
    over F_p it says only that no index up to max_k exists.
    """
    _check_max_k(max_k)
    trace, norm = x.trace(), x.norm()
    field = x.algebra.field
    # read off the lifted storage: canonical zero entries are field._nil
    x0 = FieldElement(field, field._drop(x.ents[0], x.den))
    scalar_tail = all(e == field._nil for e in x.ents[1:])
    if isinstance(field, (RationalField, QuadraticField)):
        kind, index = _classify_plane(0, max_k, x0, norm, scalar_tail)
    else:
        kind, index = _classify_plane(field.p, max_k, x0.raw, norm.raw, scalar_tail)
    return PotencyReport(kind, index, trace, norm)


def _scaled_direction(algebra, head, s, direction):
    """head + lam v, v the pure element with the direction's coordinates and
    lam^2 n(v) = s: an element of trace 2 head and norm head^2 + s."""
    v = algebra.element((0,) + direction)
    try:
        # no lam exists when n(v) = 0 or s / n(v) is not a square
        lam = (s / v.norm()).sqrt()
    except (ZeroDivisionError, NotASquareError):
        raise GenerationError("direction not normalizable in field") from None
    return algebra.one.scale(head) + v.scale(lam)


def rotor_generate(k: int, direction, algebra: QuatAlgebra) -> Quaternion:
    """Build a k-potent unit quaternion cos(a) + sin(a) * u from a direction.

    Requires a = b = -1 over Q or Q(sqrt d) and k in SUPPORTED_ROTOR_KS,
    with a = 2*pi/(k-1).  The direction (three coordinates, not all zero)
    only fixes the axis; it is scaled so the pure part u has u^2 = -1, which
    needs sin(a)^2 / |direction|^2 to be a square in the field.
    """
    if k not in _ROTOR_ANGLES:
        supported = ", ".join(str(v) for v in SUPPORTED_ROTOR_KS)
        raise GenerationError(f"unsupported k={k}; supported k: {supported}")
    if not isinstance(algebra, QuatAlgebra) or not _ordered_division_algebra(algebra):
        raise GenerationError(
            "rotor generation needs a quaternion algebra with a = b = -1 "
            "over Q or Q(sqrt d)"
        )
    field = algebra.field
    direction = tuple(field.element(d) for d in direction)
    if len(direction) != 3:
        raise GenerationError("direction must have exactly 3 coordinates")
    if all(d.is_zero for d in direction):
        raise GenerationError("direction must be nonzero")
    # with a = b = -1 the norm of the pure part is |direction|^2
    cos_a, sin_sq = _ROTOR_ANGLES[k]
    return _scaled_direction(algebra, field.element(cos_a), field.element(sin_sq), direction)


def split_generate(kind: str, algebra, direction) -> AlgebraElement:
    """Build an idempotent, tripotent or nilpotent element from a direction.

    For idempotent/tripotent the direction v is scaled by
    sqrt(-1 / (4 n(v))) so the result x = (+-1/2) + lambda v has norm 0 and
    trace +-1, hence x^2 = x or x^3 = x.  For nilpotent the direction must
    itself have norm 0 and is returned unscaled.  Works over any supported
    field whenever the required square root exists; in a division algebra
    no valid direction exists and an error is raised.
    """
    if not isinstance(algebra, (QuatAlgebra, OctAlgebra)):
        raise GenerationError("split generation needs a quaternion or octonion algebra")
    field = algebra.field
    direction = tuple(field.element(d) for d in direction)
    if len(direction) != algebra.dim - 1:
        raise GenerationError(
            f"direction must have {algebra.dim - 1} coordinates for {algebra}"
        )

    if kind == "nilpotent":
        if all(d.is_zero for d in direction):
            raise GenerationError("direction must be nonzero")
        v = algebra.element((0,) + direction)
        norm = v.norm()
        if not norm.is_zero:
            raise GenerationError(
                f"nilpotent generation needs a norm-zero direction, got norm {norm}"
            )
        return v

    if kind not in ("idempotent", "tripotent"):
        raise GenerationError(f"unknown kind {kind!r}")
    half = field.element(2).inv()
    head = half if kind == "idempotent" else -half
    return _scaled_direction(algebra, head, -half * half, direction)
