"""Exhaustive and sampled censuses of potency classes over Z/p coefficients,
plus the norm-zero witness search that separates split from division algebras.

Census classification never multiplies full elements: in a quadratic
algebra x^2 = t(x) x - n(x), so the powers of a non-scalar x live in the
plane spanned by 1 and x, and x^m = u + v x follows the two-term recursion
(u, v) -> (-n v, u + t v).  Since t(x) = 2 x0, the class of x depends only
on its scalar part x0, its norm n(x) = w0 x0^2 + q(tail) and whether its
tail is zero.  ``potency._classify_plane`` runs it for ``classify`` too;
the independent route is ``naive_potency`` in ``tests/helpers.py``.

The exhaustive census therefore never visits the p^dim elements.  Suffix
tables count, for each m, the coordinate tuples x_j..x_{dim-1} with
sum w_i x_i^2 = m (a convolution of per-coordinate square counts); each
pair (x0, m) is classified once and weighted by its number of tails; a
greedy walk down the same tables gives the lexicographically first tail of
each m, hence each class's smallest member.  The norm-zero witness is the
same walk over all dim coordinates.  Both cost O(dim p^2) table work, plus
O(p^2 max_k) recursion steps for the census.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .fields import PrimeField
from .potency import DEFAULT_MAX_K, _check_max_k, _classify_plane
from .rng import SplitMix64

EXHAUSTIVE_BUDGET = 10 ** 8


class SearchBudgetError(ValueError):
    """The exhaustive coordinate space is too large; use sampling."""


@dataclass(frozen=True)
class CensusRow:
    """One classification class: its population and the smallest member."""

    kind: str
    index: int
    count: int
    sample: tuple

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "index": self.index,
            "count": self.count,
            "sample": ",".join(str(c) for c in self.sample),
        }


def _require_prime_field(algebra) -> PrimeField:
    if not isinstance(algebra.field, PrimeField):
        raise ValueError(f"search runs over prime fields only, not {algebra.field}")
    return algebra.field


def _suffix_counts(p: int, weights) -> list:
    """suffix[j][m] = #{(x_j, ..., x_last) : sum w_i x_i^2 = m (mod p)}.

    suffix[len(weights)] counts the empty tuple, whose sum is 0.
    """
    table = [1] + [0] * (p - 1)
    suffix = [table]
    for w in reversed(weights):
        squares = [0] * p
        for c in range(p):
            squares[w * c * c % p] += 1
        acc = [0] * p
        for s, mult in enumerate(squares):
            if mult:
                # shifted[m] = table[(m - s) % p]
                shifted = table[p - s:] + table[:p - s]
                acc = [a + mult * b for a, b in zip(acc, shifted)]
        table = acc
        suffix.append(table)
    suffix.reverse()
    return suffix


def _lex_first(p: int, weights, suffix, start: int, target: int, nonzero: bool):
    """The lexicographically first (x_start, ..., x_last) with
    sum w_i x_i^2 = target (mod p), nonzero if asked, or None.

    Greedy: each coordinate takes the smallest value whose remainder the
    suffix table says is still reachable (by a nonzero tuple, while the
    prefix is zero and a nonzero result is required).
    """
    if suffix[start][target] - (nonzero and target == 0) <= 0:
        return None
    coords = []
    for j in range(start, len(weights)):
        rest = suffix[j + 1]
        for c in range(p):
            r = (target - weights[j] * c * c) % p
            if rest[r] - (nonzero and c == 0 and r == 0) > 0:
                break
        coords.append(c)
        target = r
        nonzero = nonzero and c == 0
    return tuple(coords)


def _merge(census: dict, key, count: int, sample) -> None:
    entry = census.get(key)
    if entry is None:
        census[key] = [count, sample]
    else:
        entry[0] += count
        if sample < entry[1]:
            entry[1] = sample


def _rows(census: dict) -> list:
    return [
        CensusRow(kind=k[0], index=k[1], count=v[0], sample=tuple(v[1]))
        for k, v in sorted(census.items())
    ]


def search_exhaustive(algebra, max_k: int = DEFAULT_MAX_K) -> list:
    """Classify every element of the algebra; rows sorted by (kind, index).

    Works from the distribution of norm values rather than the elements:
    each pair (x0, m) of scalar part and tail norm is classified once and
    counted with its number of tails, and the scalar tail (all zeros) is
    its own case.  Each row's sample is the lexicographically smallest
    member of its class.  Refused with SearchBudgetError when p^2 * max_k
    exceeds EXHAUSTIVE_BUDGET.
    """
    _check_max_k(max_k)
    field = _require_prime_field(algebra)
    p = field.p
    if p * p * max_k > EXHAUSTIVE_BUDGET:
        raise SearchBudgetError(
            f"p^2 * max_k = {p * p * max_k} exceeds the exhaustive budget "
            f"{EXHAUSTIVE_BUDGET}; use search_sample"
        )
    weights = algebra._norm_raw
    suffix = _suffix_counts(p, weights)
    tail_counts = suffix[1]
    zero_tail = (0,) * (len(weights) - 1)
    # (norm, count, lex-first member) of the nonzero tails, per tail norm
    tails = []
    for m in range(p):
        first = _lex_first(p, weights, suffix, 1, m, True)
        if first is not None:
            tails.append((m, tail_counts[m] - (m == 0), first))
    census: dict = {}
    for x0 in range(p):
        x0_norm = weights[0] * x0 * x0
        key = _classify_plane(p, max_k, x0, x0_norm % p, True)
        _merge(census, key, 1, (x0,) + zero_tail)
        for m, count, first in tails:
            key = _classify_plane(p, max_k, x0, (x0_norm + m) % p, False)
            _merge(census, key, count, (x0,) + first)
    return _rows(census)


def search_sample(algebra, budget: int, seed: int, max_k: int = DEFAULT_MAX_K) -> list:
    """Classify `budget` draws from the SplitMix64 stream for `seed`.

    Coordinates are drawn most-significant first, one bounded draw each.
    The same seed always yields the same census; per-row samples are the
    lexicographically smallest elements drawn for that row.
    """
    _check_max_k(max_k)
    field = _require_prime_field(algebra)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    p, dim = field.p, algebra.dim
    weights = algebra._norm_raw
    gen = SplitMix64(seed)
    plane: dict = {}   # (x0 * p + n) * 2 + scalar_tail -> (kind, index)
    classes: dict = {}  # one (kind, index) tuple per class, shared by plane
    census: dict = {}
    for _ in range(budget):
        coords = tuple(gen.below(p) for _ in range(dim))
        x0 = coords[0]
        n = 0
        for w, c in zip(weights, coords):
            n = (n + w * c * c) % p
        scalar_tail = not any(coords[1:])
        pair = (x0 * p + n) * 2 + scalar_tail
        key = plane.get(pair)
        if key is None:
            key = _classify_plane(p, max_k, x0, n, scalar_tail)
            key = plane[pair] = classes.setdefault(key, key)
        _merge(census, key, 1, coords)
    return _rows(census)


def split_witness(algebra):
    """The lexicographically first nonzero element of norm zero, or None.

    A witness certifies the algebra is split; None certifies it is a
    division algebra.  The witness is read off the suffix tables of the
    norm form by the same greedy walk that picks census samples; by
    Chevalley-Warning one always exists over F_p for dim >= 3.  Refused
    with SearchBudgetError when dim * p^2 exceeds EXHAUSTIVE_BUDGET.
    """
    field = _require_prime_field(algebra)
    p, dim = field.p, algebra.dim
    if dim * p * p > EXHAUSTIVE_BUDGET:
        raise SearchBudgetError(
            f"{dim} * p^2 = {dim * p * p} exceeds the witness budget "
            f"{EXHAUSTIVE_BUDGET}"
        )
    weights = algebra._norm_raw
    coords = _lex_first(p, weights, _suffix_counts(p, weights), 0, 0, True)
    return None if coords is None else algebra.element(coords)


def census_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "index", "count", "sample"])
    for row in rows:
        d = row.as_dict()
        writer.writerow([d["kind"], d["index"], d["count"], d["sample"]])
    return buf.getvalue()


def census_to_json(rows) -> str:
    return json.dumps([row.as_dict() for row in rows])
