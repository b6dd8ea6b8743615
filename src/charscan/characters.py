"""Real quadratic Dirichlet characters with odd squarefree modulus.

A character here is a product of Legendre symbols at distinct odd primes.
This family is closed under the coprime products used by the conductor
pasting construction, every member is primitive mod the product of its
factors, and values always lie in {-1, 0, 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import is_prime, kronecker

__all__ = [
    "QuadraticCharacter",
    "bulk_values",
    "evaluate",
    "legendre_character",
    "product_character",
]


def _parity_of(factors: tuple[int, ...]) -> str:
    """Odd exactly when an odd number of factors is 3 mod 4 (sign at -1)."""
    return "odd" if sum(p % 4 == 3 for p in factors) % 2 else "even"


@dataclass(frozen=True)
class QuadraticCharacter:
    """Immutable real character, determined by its distinct odd prime factors."""

    modulus: int
    factors: tuple[int, ...]
    parity: str

    def __post_init__(self) -> None:
        if math.prod(self.factors) != self.modulus:
            raise ValueError("modulus must equal the product of the factors")
        if len(set(self.factors)) != len(self.factors):
            raise ValueError("factors must be distinct")
        expected = _parity_of(self.factors)
        if self.parity != expected:
            raise ValueError(f"parity must be {expected!r} for these factors")

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "factors": list(self.factors),
            "parity": self.parity,
        }


def legendre_character(p: int) -> QuadraticCharacter:
    """The Legendre symbol (. / p) as a character mod an odd prime p."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return QuadraticCharacter(modulus=p, factors=(p,), parity=_parity_of((p,)))


def product_character(
    xi: QuadraticCharacter, psi: QuadraticCharacter
) -> QuadraticCharacter:
    """Pointwise product of two characters with coprime moduli."""
    if math.gcd(xi.modulus, psi.modulus) != 1:
        raise ValueError("moduli must be coprime")
    factors = tuple(sorted(xi.factors + psi.factors))
    return QuadraticCharacter(
        modulus=xi.modulus * psi.modulus,
        factors=factors,
        parity=_parity_of(factors),
    )


def evaluate(chi: QuadraticCharacter, n: int) -> int:
    """chi(n) in {-1, 0, 1}: multiplicative in n, periodic mod the modulus."""
    value = 1
    for p in chi.factors:
        value *= kronecker(n, p)
        if value == 0:
            return 0
    return value


def _legendre_value_table(p: int) -> np.ndarray:
    """(a/p) for 0 <= a < p, built by marking the nonzero squares mod p."""
    tab = np.full(p, -1, dtype=np.int8)
    tab[0] = 0
    half = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    tab[(half * half) % p] = 1
    return tab


def bulk_values(chi: QuadraticCharacter, limit: int) -> np.ndarray:
    """chi(n) for 1 <= n <= limit as int8 (index i holds n = i + 1).

    One residue table per prime factor, rolled to hold n = 1..p and tiled
    with period p, combined by pointwise products. The result is identical
    to calling evaluate at every index, but the two routes share no
    arithmetic: this one enumerates squares, evaluate runs the reciprocity
    symbol.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    out = np.ones(limit, dtype=np.int8)
    for p in chi.factors:
        out *= np.resize(np.roll(_legendre_value_table(p), -1), limit)
    return out
