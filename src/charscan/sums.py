"""Partial sums, means, logarithmic means, and the convolution rearrangement.

Character partial sums are exact integers. Only the f(n)/n style sums
introduce floating point, and those go through math.fsum (exactly rounded),
so quoted 1e-9 tolerances are dominated by the mathematics rather than the
summation order.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .arith import SpfTable, _expand_multiplicative, build_spf, is_prime, sieve_primes
from .characters import QuadraticCharacter, bulk_values, evaluate

__all__ = [
    "CONSTANTS",
    "CompletelyMultiplicativeFunction",
    "Constants",
    "MeansReport",
    "SumProfile",
    "character_log_sum",
    "conv_mean",
    "gs_bound",
    "ht_u",
    "log_mean",
    "max_partial_sum",
    "mean",
    "partial_sum",
    "pv_ratios",
    "restricted_log_sum",
]

_EULER_GAMMA = 0.57721566490153286
_C_ODD = math.exp(_EULER_GAMMA) / math.pi
_C_EVEN = _C_ODD / math.sqrt(3.0)


@dataclass(frozen=True)
class Constants:
    """Named constants shared by the reports.

    kappa is the decay rate in the mean-value envelope exp(-kappa u); c_odd
    and c_even are the conjectured sharp coefficients exp(gamma)/pi and
    exp(gamma)/(pi sqrt 3) for the loglog-normalized maxima of odd and even
    characters.
    """

    kappa: float = 0.32
    euler_gamma: float = _EULER_GAMMA
    c_odd: float = _C_ODD
    c_even: float = _C_EVEN


CONSTANTS = Constants()


@dataclass(frozen=True, eq=False)
class CompletelyMultiplicativeFunction:
    """f with f(1) = 1 and f(mn) = f(m) f(n), pinned by prime values in [-1, 1].

    prime_values must hold exactly the primes up to limit so that every f(n)
    with n <= limit is determined.
    """

    prime_values: Mapping[int, float]
    limit: int

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError("limit must be positive")
        for p, v in self.prime_values.items():
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"f({p}) = {v} lies outside [-1, 1]")
        expected = [int(p) for p in sieve_primes(self.limit)]
        if sorted(self.prime_values) != expected:
            raise ValueError("prime_values must cover exactly the primes <= limit")

    @classmethod
    def ones(cls, limit: int) -> "CompletelyMultiplicativeFunction":
        return cls({int(p): 1.0 for p in sieve_primes(limit)}, limit)

    @classmethod
    def liouville(cls, limit: int) -> "CompletelyMultiplicativeFunction":
        return cls({int(p): -1.0 for p in sieve_primes(limit)}, limit)

    @classmethod
    def random(
        cls, limit: int, rng: np.random.Generator
    ) -> "CompletelyMultiplicativeFunction":
        ps = sieve_primes(limit)
        vals = rng.uniform(-1.0, 1.0, size=len(ps))
        return cls({int(p): float(v) for p, v in zip(ps, vals)}, limit)

    def flip(self, primes_to_flip: Sequence[int]) -> "CompletelyMultiplicativeFunction":
        """Negate f at the given primes (each must be a prime <= limit)."""
        new = dict(self.prime_values)
        for p in primes_to_flip:
            if p not in new:
                raise ValueError(f"{p} is not a prime <= {self.limit}")
            new[p] = -new[p]
        return CompletelyMultiplicativeFunction(new, self.limit)

    def values_upto(self, x: float, table: SpfTable | None = None) -> np.ndarray:
        """f(1..floor(x)) as float64 (index i holds n = i + 1)."""
        m = math.floor(x)
        if m < 1:
            raise ValueError("x must be at least 1")
        if m > self.limit:
            raise ValueError(f"f is only defined up to {self.limit}, need {m}")
        if m == 1:
            return np.ones(1)
        if table is None:
            table = build_spf(m)
        pv = np.ones(m + 1)
        for p, v in self.prime_values.items():
            if p <= m:
                pv[p] = v
        return _expand_multiplicative(pv, table, m)[1:]


@dataclass(frozen=True)
class SumProfile:
    """Peak of the character partial sums over one full period.

    argmax is the smallest t attaining the peak; max_abs <= argmax always,
    since a sum of n unit terms cannot exceed n.
    """

    modulus: int
    max_abs: int
    argmax: int
    samples: tuple[tuple[float, int], ...] | None = None

    def to_json(self) -> dict:
        out = {"modulus": self.modulus, "max_abs": self.max_abs, "argmax": self.argmax}
        if self.samples is not None:
            out["samples"] = [[t, s] for t, s in self.samples]
        return out


@dataclass(frozen=True)
class MeansReport:
    """Mean, log-mean, and lower-bound ingredients for one (f, x)."""

    x: float
    mean: float
    log_mean: float
    u: float
    conv_mean: float
    gs_bound: float
    ht_envelope: float
    ht_constant: float
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "mean": self.mean,
            "log_mean": self.log_mean,
            "u": self.u,
            "conv_mean": self.conv_mean,
            "gs_bound": self.gs_bound,
            "ht_envelope": self.ht_envelope,
            "ht_constant": self.ht_constant,
            "flags": list(self.flags),
        }


def partial_sum(chi: QuadraticCharacter, t: float) -> int:
    """Exact sum of chi(n) over 1 <= n <= floor(t), by point queries.

    This is the reference route: one reciprocity-symbol evaluation per n,
    no tables. Whole periods cancel, so t beyond the modulus is reduced.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    m = math.floor(t)
    if m >= chi.modulus:
        m %= chi.modulus
    return sum(evaluate(chi, n) for n in range(1, m + 1))


def max_partial_sum(
    chi: QuadraticCharacter, sample_at: Sequence[float] | None = None
) -> SumProfile:
    """Peak of |S(t)| over t = 1..modulus, from one cumulative sum of values.

    Ties go to the smallest t. Optional sample_at records (t, S(t)) pairs
    read from the same cumulative sum.
    """
    q = chi.modulus
    cs = np.cumsum(bulk_values(chi, q), dtype=np.int64)
    magnitudes = np.abs(cs)
    best = int(np.argmax(magnitudes))  # argmax returns the first maximizer
    samples = None
    if sample_at is not None:
        collected = []
        for t in sample_at:
            m = math.floor(t)
            if m >= q:
                m %= q
            collected.append((float(t), int(cs[m - 1]) if m >= 1 else 0))
        samples = tuple(collected)
    return SumProfile(
        modulus=q, max_abs=int(magnitudes[best]), argmax=best + 1, samples=samples
    )


def mean(
    f: CompletelyMultiplicativeFunction, x: float, table: SpfTable | None = None
) -> float:
    """(1/x) * sum of f(n) over n <= x."""
    if x < 1:
        raise ValueError("x must be at least 1")
    vals = f.values_upto(x, table)
    return math.fsum(vals) / x


def log_mean(
    f: CompletelyMultiplicativeFunction, x: float, table: SpfTable | None = None
) -> float:
    """(1/log x) * sum of f(n)/n over n <= x; needs x >= 2."""
    if x < 2:
        raise ValueError("x must be at least 2 for the log normalization")
    vals = f.values_upto(x, table)
    return math.fsum(vals / np.arange(1, len(vals) + 1)) / math.log(x)


def character_log_sum(chi: QuadraticCharacter, t: float) -> float:
    """Sum of chi(n)/n over n <= floor(t); empty below t = 1."""
    m = math.floor(t) if t >= 1 else 0
    return math.fsum(evaluate(chi, n) / n for n in range(1, m + 1))


def restricted_log_sum(xi: QuadraticCharacter, t: float, ell: int) -> float:
    """Sum of xi(n)/n over n <= floor(t) with multiples of ell omitted."""
    if ell % 2 == 0 or not is_prime(ell):
        raise ValueError("ell must be an odd prime")
    if t < 1:
        raise ValueError("t must be at least 1")
    m = math.floor(t)
    return math.fsum(evaluate(xi, n) / n for n in range(1, m + 1) if n % ell)


def conv_mean(
    f: CompletelyMultiplicativeFunction, x: float, table: SpfTable | None = None
) -> float:
    """(1/x) * sum over n <= x of the divisor convolution (1 * f)(n).

    Rearranged exactly as sum_d f(d) floor(x/d); floor(x/d) equals
    floor(floor(x)/d) for integer d, so the counts stay in exact integers.
    """
    if x < 1:
        raise ValueError("x must be at least 1")
    vals = f.values_upto(x, table)
    m = len(vals)
    counts = m // np.arange(1, m + 1)
    return math.fsum(vals * counts) / x


def ht_u(
    f: CompletelyMultiplicativeFunction, x: float, primes: np.ndarray | None = None
) -> float:
    """u = sum over primes p <= x of (1 - f(p))/p.

    Zero exactly when f is 1 on every prime up to x; grows as f moves away
    from the constant function.
    """
    if x < 2:
        raise ValueError("x must be at least 2")
    m = math.floor(x)
    if m > f.limit:
        raise ValueError(f"f is only defined up to {f.limit}, need {m}")
    if primes is None:
        primes = sieve_primes(m)
    return math.fsum(
        (1.0 - f.prime_values[int(p)]) / int(p) for p in primes if p <= m
    )


def gs_bound(u: float, x: float) -> float:
    """Main term exp(-u * exp(u/2)) * log x of the convolution-mean lower bound."""
    if u < 0:
        raise ValueError("u must be nonnegative")
    if x < 2:
        raise ValueError("x must be at least 2")
    return math.exp(-u * math.exp(u / 2.0)) * math.log(x)


def pv_ratios(profile: SumProfile) -> dict[str, float]:
    """Peak sum normalized by sqrt(q) log q, and by sqrt(q) loglog q.

    The loglog ratio is only meaningful once log log q >= 1, so it is absent
    for moduli below 16.
    """
    q = profile.modulus
    if q < 3:
        raise ValueError("modulus must be at least 3")
    root = math.sqrt(q)
    out = {"ratio_log": profile.max_abs / (root * math.log(q))}
    if q >= 16:
        out["ratio_loglog"] = profile.max_abs / (root * math.log(math.log(q)))
    return out
