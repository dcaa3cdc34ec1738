"""Seeded request streams for the three benchmark workloads.

Standard library only: the program under test receives nothing but the
argv lists built here.  A workload is an endless sequence of rounds; every
round has the same composition (request kinds, field families, sizes) and
draws its numbers from ``random.Random(f"{workload}:{seed}:{round}")``, so
the same seed always yields the same requests and a run of any length
keeps the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

WORKLOADS = ("census", "elements", "report")
# rounds in one measured pass: about five seconds of work for each
# workload on a shared 2-vCPU x86 VM
ROUNDS_PER_PASS = {"census": 1, "elements": 5, "report": 1}
FAMILIES = ("fp", "q", "qsqrt")

# H(a,b) with a = 1 always has the norm-zero element 1 + f1; "definite"
# parameters (all negative) give division algebras over Q.  Over F_p every
# such algebra is split: the regimes change coordinates and so the lex-min
# samples of a census, not its class counts.
SPLIT_PARAMS = (1, 2, 3, 5, 6, 7, -2, -3)
DEFINITE_PARAMS = (-1, -2, -3, -5, -6, -7)

SMALL_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# all congruent to 3 mod 4, so a square root is one modular power; all
# below 2**20, the CLI's limit for its square-root scan
LARGE_PRIMES = (1048571, 1048559, 1048507, 1048447, 1048423, 1048391)
CENSUS_LARGE_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099)
QUADRATIC_DS = (2, 3, 5, 6, 7)
ROTOR_DIRECTIONS = {
    # |direction|^2 times a square must equal sin^2 of the rotor angle
    3: ((1, 0, 0), (1, 2, 3), (2, -1, 5)),
    4: ((1, 1, 1), (1, 1, 5), (1, 5, 7)),
    5: ((1, 2, 2), (0, 3, 4), (2, 3, 6)),
    7: ((1, 1, 1), (1, -1, 5), (5, 7, 1)),
}

CENSUS_EXHAUSTIVE_SLOTS = (
    # (algebra, p, regime)
    ("quat", 11, "definite"),
    ("quat", 13, "split"),
    ("quat", 17, "definite"),
    ("quat", 19, "split"),
    ("oct", 3, "definite"),
    ("oct", 3, "split"),
    ("oct", 5, "definite"),
)
SAMPLE_SMALL = ("oct", 7, 20000)     # (algebra, p, budget): most draws decide
SAMPLE_LARGE = ("quat", None, 6000)  # p near 10**6: nearly all hit the clamp


@dataclass(frozen=True)
class Request:
    """One CLI call and what the gate needs to check its output.

    kind is exhaustive|sample|verify|rep|generate|report; work is the number
    of coordinate tuples a census job covers (1 otherwise); expect holds
    the known answer where the generator knows one.
    """

    argv: tuple
    kind: str
    family: str
    algebra: str
    work: int = 1
    expect: dict = field(default_factory=dict, compare=False)


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def round_requests(workload: str, seed: int, index: int) -> list:
    """The requests of round `index` of `workload` for `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "report":
        return [Request(("paper-report", "--format", "json"), "report", "", "report")]
    rng = round_rng(workload, seed, index)
    if workload == "census":
        return _census_round(rng)
    return _elements_round(algebra_pool(seed), rng, index)


def pass_requests(workload: str, seed: int) -> list:
    """The fixed request list one measured pass sends: the first few rounds."""
    return [req for index in range(ROUNDS_PER_PASS[workload])
            for req in round_requests(workload, seed, index)]


def setup_algebras(workload: str, seed: int) -> list:
    """(field token, algebra kind, params) of every algebra a pass uses."""
    if workload == "report":
        return list(REPORT_REGIMES)
    seen = []
    for req in pass_requests(workload, seed):
        spec = tuple(req.algebra.split("|"))
        if spec not in seen:
            seen.append(spec)
    return seen


# the regimes paper-report builds, per the report-v1 contract
REPORT_REGIMES = (
    ("f5", "quat", "-1,-1"), ("f5", "quat", "2,3"), ("f13", "quat", "-1,-1"),
    ("q", "quat", "-1,-1"), ("q", "quat", "1,1"), ("q", "quat", "2,3"),
    ("q[sqrt2]", "quat", "-1,-1"),
    ("f5", "oct", "-1,-1,-1"), ("f13", "oct", "-1,-1,-1"), ("q", "oct", "-1,-1,-1"),
    ("q", "oct", "1,1,1"), ("q", "oct", "2,3,6"), ("q[sqrt2]", "oct", "-1,-1,-1"),
)


# -- census ---------------------------------------------------------------

def _params(rng, kind: str, regime: str, p: int = 0) -> tuple:
    """Seeded algebra parameters of one regime, all nonzero mod p."""
    n = 2 if kind == "quat" else 3
    choices = DEFINITE_PARAMS if regime == "definite" else SPLIT_PARAMS
    if p:
        choices = tuple(v for v in choices if v % p)
    if regime == "definite":
        return tuple(rng.choice(choices) for _ in range(n))
    return (1,) + tuple(rng.choice(choices) for _ in range(n - 1))


def _fmt_params(params) -> str:
    return ",".join(str(v) for v in params)


def _census_job(kind, p, params, mode, budget=None, sample_seed=None) -> Request:
    dim = 4 if kind == "quat" else 8
    argv = ["search", "--field", f"f{p}", "--algebra", kind,
            "--params", _fmt_params(params)]
    if mode == "sample":
        argv += ["--mode", "sample", "--budget", str(budget), "--seed", str(sample_seed)]
        work = budget
    else:
        work = p ** dim
    argv += ["--format", "csv"]
    return Request(
        tuple(argv), mode, "fp", f"f{p}|{kind}|{_fmt_params(params)}", work,
        {"p": p, "dim": dim, "params": params, "budget": budget},
    )


def _census_round(rng) -> list:
    jobs = []
    for kind, p, regime in CENSUS_EXHAUSTIVE_SLOTS:
        jobs.append(_census_job(kind, p, _params(rng, kind, regime, p), "exhaustive"))
    kind, p, budget = SAMPLE_SMALL
    jobs.append(_census_job(kind, p, _params(rng, kind, "definite", p), "sample",
                            budget, rng.getrandbits(64)))
    kind, _, budget = SAMPLE_LARGE
    jobs.append(_census_job(kind, rng.choice(CENSUS_LARGE_PRIMES),
                            _params(rng, kind, "split"), "sample",
                            budget, rng.getrandbits(64)))
    return jobs


# -- elements -------------------------------------------------------------

@dataclass(frozen=True)
class PoolAlgebra:
    family: str
    field: str          # grammar token: f<p>, q or q[sqrt<d>]
    kind: str           # quat | oct
    params: tuple

    @property
    def key(self) -> str:
        return f"{self.field}|{self.kind}|{_fmt_params(self.params)}"

    @property
    def p(self):
        return int(self.field[1:]) if self.family == "fp" else None

    @property
    def dim(self) -> int:
        return 4 if self.kind == "quat" else 8


def algebra_pool(seed: int) -> dict:
    """The small per-run pool every elements request draws its algebra from.

    Keyed by (family, size, kind, regime): size is "small"/"large" for F_p
    and "" otherwise; regime is split (a = 1), definite (all negative, not
    all -1) or hamilton (all -1).  The seed picks primes, d and parameters.
    """
    rng = random.Random(f"pool:{seed}")
    pool = {}
    for size, primes in (("small", SMALL_PRIMES), ("large", LARGE_PRIMES)):
        p = rng.choice(primes)
        for kind in ("quat", "oct"):
            pool[("fp", size, kind, "split")] = PoolAlgebra(
                "fp", f"f{p}", kind, _params(rng, kind, "split"))
    d = rng.choice(QUADRATIC_DS)
    for family, token in (("q", "q"), ("qsqrt", f"q[sqrt{d}]")):
        for kind in ("quat", "oct"):
            for regime in ("split", "definite"):
                params = _params(rng, kind, regime)
                while regime == "definite" and set(params) == {-1}:
                    params = _params(rng, kind, regime)
                pool[(family, "", kind, regime)] = PoolAlgebra(family, token, kind, params)
            # a = b (= c) = -1: the ordered division algebra; rotors need it
            pool[(family, "", kind, "hamilton")] = PoolAlgebra(
                family, token, kind, (-1,) * (2 if kind == "quat" else 3))
    return pool


def _norm_weights(alg: PoolAlgebra) -> tuple:
    """Coefficients w_i of the norm form n(x) = sum w_i x_i^2."""
    if alg.kind == "quat":
        a, b = alg.params
        return (1, -a, -b, a * b)
    a, b, c = alg.params
    return (1, -a, -b, a * b, -c, a * c, b * c, -a * b * c)


def _pure_norm(alg: PoolAlgebra, v) -> int:
    return sum(w * x * x for w, x in zip(_norm_weights(alg)[1:], v))


def _sqrt_mod(a: int, p: int):
    """A square root of a mod p (p = 3 mod 4, or small), or None."""
    a %= p
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r if r * r % p == a else None
    for r in range(p):
        if r * r % p == a:
            return r
    return None


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _small_vector(rng, n: int) -> list:
    # small integers with plenty of zeros, never all zero
    while True:
        v = [rng.choice((0, 0, 1, -1, 2, -2, 3, 5)) for _ in range(n)]
        if any(v):
            return v


def _direction(rng, alg: PoolAlgebra, target: str) -> tuple:
    """A pure-part direction v, plus the scale lambda when target is a potent.

    target "potent": -n(v) is a nonzero square, so the CLI can normalise v
    to build an idempotent or tripotent.  target "nilpotent": n(v) = 0.
    """
    n = alg.dim - 1
    p = alg.p
    for _ in range(10000):
        v = _small_vector(rng, n) if p is None or p < 100 else [rng.randrange(p) for _ in range(n)]
        if target == "nilpotent" and p is not None and p > 100:
            # solve the last coordinate: w v_last^2 = -(rest)
            w = _norm_weights(alg)[-1] % p
            rest = _pure_norm(alg, v[:-1] + [0]) % p
            root = _sqrt_mod(-rest * pow(w, p - 2, p), p)
            if root is None:
                continue
            v[-1] = root
            if any(x % p for x in v):
                return tuple(v), None
            continue
        pn = _pure_norm(alg, v)
        if p is None:
            if target == "nilpotent" and pn == 0:
                return tuple(v), None
            if target == "potent" and pn < 0 and _is_square(-pn):
                return tuple(v), Fraction(1, 2 * isqrt(-pn))
        else:
            pn %= p
            if target == "nilpotent" and pn == 0 and any(x % p for x in v):
                return tuple(x % p for x in v), None
            if target == "potent" and pn != 0:
                lam = _sqrt_mod(-pow(4 * pn, p - 2, p), p)
                if lam is not None:
                    return tuple(v), lam
    raise RuntimeError(f"no {target} direction found in {alg}")


def _scalar(value, alg: PoolAlgebra) -> str:
    if alg.p is not None:
        return str(value % alg.p)
    return str(value)


def _quad_literal(r: Fraction, s: Fraction) -> str:
    if s == 0:
        return str(r)
    if r == 0:
        return f"{s}s"
    return f"{r}+{s}s" if s > 0 else f"{r}-{-s}s"


def _random_coords(rng, alg: PoolAlgebra) -> str:
    if alg.p is not None:
        return ",".join(str(rng.randrange(alg.p)) for _ in range(alg.dim))

    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    if alg.family == "q":
        return ",".join(str(rational()) for _ in range(alg.dim))
    return ",".join(_quad_literal(rational(), rational()) for _ in range(alg.dim))


def _constructed(rng, alg: PoolAlgebra, target: str):
    """Coordinates of an idempotent, tripotent or nilpotent element and its
    expected (kind, index)."""
    if target == "nilpotent":
        v, _ = _direction(rng, alg, "nilpotent")
        return ",".join(["0"] + [_scalar(x, alg) for x in v]), ("nilpotent", 2)
    v, lam = _direction(rng, alg, "potent")
    if alg.p is None:
        head = Fraction(1, 2) if target == "idempotent" else Fraction(-1, 2)
        coords = [head] + [lam * x for x in v]
        text = ",".join(str(c) for c in coords)
    else:
        half = (alg.p + 1) // 2
        head = half if target == "idempotent" else alg.p - half
        text = ",".join([str(head)] + [str(lam * x % alg.p) for x in v])
    return text, ("k-potent", 2 if target == "idempotent" else 3)


def _algebra_argv(alg: PoolAlgebra) -> list:
    return ["--field", alg.field, "--algebra", alg.kind, "--params", _fmt_params(alg.params)]


def _verify(alg, coords, expect=None) -> Request:
    argv = ["verify", *_algebra_argv(alg), "--coords", coords, "--matrices",
            "--format", "json"]
    return Request(tuple(argv), "verify", alg.family, alg.key, 1,
                   {"coords": coords, "target": expect})


def _rep(rng, alg) -> Request:
    token = rng.choice(("left", "right", "phi" if alg.kind == "quat" else "Phi",
                        "rho" if alg.kind == "quat" else "Psi"))
    side = "left" if token in ("left", "phi", "Phi") else "right"
    fmt = rng.choice(("csv", "json"))
    coords = _random_coords(rng, alg)
    argv = ["rep", *_algebra_argv(alg), "--coords", coords, "--rep", token, "--format", fmt]
    return Request(tuple(argv), "rep", alg.family, alg.key, 1,
                   {"coords": coords, "side": side, "format": fmt})


def _generate(rng, alg, target: str) -> Request:
    if target == "rotor":
        k = rng.choice(sorted(ROTOR_DIRECTIONS))
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        direction = ",".join(str(scale * x) for x in rng.choice(ROTOR_DIRECTIONS[k]))
        argv = ["generate", "rotor", "--k", str(k), "--direction", direction,
                "--field", alg.field, "--format", "json"]
        expect = ("k-potent", k)
    else:
        v, _ = _direction(rng, alg, "nilpotent" if target == "nilpotent" else "potent")
        if alg.p is None:
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            v = tuple(scale * x for x in v)
        direction = ",".join(_scalar(x, alg) for x in v)
        argv = ["generate", target, *_algebra_argv(alg), "--direction", direction,
                "--format", "json"]
        expect = {"idempotent": ("k-potent", 2), "tripotent": ("k-potent", 3),
                  "nilpotent": ("nilpotent", 2)}[target]
    return Request(tuple(argv), "generate", alg.family, alg.key, 1, {"target": expect})


def _elements_round(pool: dict, rng, index: int) -> list:
    # targets rotate with the slot and the round, so every round has the
    # same mix of kinds and a run sees each target equally often
    targets = ("idempotent", "tripotent", "nilpotent")
    slot = index

    def next_target():
        nonlocal slot
        slot += 1
        return targets[slot % 3]

    reqs = []
    for size in ("small", "large"):
        for kind in ("quat", "oct"):
            alg = pool[("fp", size, kind, "split")]
            reqs.append(_verify(alg, _random_coords(rng, alg)))
            reqs.append(_verify(alg, *_constructed(rng, alg, next_target())))
            reqs.append(_rep(rng, alg))
            reqs.append(_generate(rng, alg, next_target()))
    for family in ("q", "qsqrt"):
        for kind in ("quat", "oct"):
            for regime in ("split", "definite", "hamilton"):
                alg = pool[(family, "", kind, regime)]
                reqs.append(_verify(alg, _random_coords(rng, alg)))
                reqs.append(_rep(rng, alg))
            alg = pool[(family, "", kind, "split")]
            reqs.append(_verify(alg, *_constructed(rng, alg, next_target())))
            reqs.append(_generate(rng, alg, next_target()))
        reqs.append(_generate(rng, pool[(family, "", "quat", "hamilton")], "rotor"))
    rng.shuffle(reqs)
    return reqs
