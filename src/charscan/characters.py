"""Real quadratic Dirichlet characters with odd squarefree modulus.

A character here is a product of Legendre symbols at distinct odd primes.
This family is closed under the coprime products used by the conductor
pasting construction, every member is primitive mod the product of its
factors, and values always lie in {-1, 0, 1}.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Iterator
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

# Long ranges are walked in blocks of this many values, so the streaming
# kernels hold O(_BLOCK + largest prime factor) values whatever the modulus.
_BLOCK = 1 << 20


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
    """(a/p) for 0 <= a < p, built by marking the nonzero squares mod p.

    The squares k*k, k <= (p-1)/2, are formed in uint32 while they fit and
    reduced in place; fancy indexing converts indices to intp, and doing so
    once before the scatter is faster than letting it happen inside.
    """
    half = (p - 1) // 2
    dtype = np.uint32 if half * half < 2**32 else np.intp
    squares = np.arange(1, half + 1, dtype=dtype)
    squares *= squares
    squares %= p
    tab = np.full(p, -1, dtype=np.int8)
    tab[0] = 0
    tab[squares.astype(np.intp, copy=False)] = 1
    return tab


# Tables mod p that a caller still holds. Walks of characters that share a
# factor then share its table, and no table outlives its last holder.
_live_tables: weakref.WeakValueDictionary[int, np.ndarray] = (
    weakref.WeakValueDictionary()
)


def _shared_value_table(p: int) -> np.ndarray:
    """_legendre_value_table(p), read-only, shared while anyone holds it.

    verify_lemma_bg holds xi's tables across its walk mod p*ell and its walk
    mod p, so a thm-a call builds each table once. _value_blocks reads a
    held table but builds any other for itself, so a pv-scan, whose walks
    share nothing, pays no bookkeeping and keeps no table past its walk.
    """
    table = _live_tables.get(p)
    if table is None:
        table = _legendre_value_table(p)
        table.setflags(write=False)
        _live_tables[p] = table
    return table


def _value_blocks(chi: QuadraticCharacter, limit: int) -> Iterator[np.ndarray]:
    """chi(n) for 1 <= n <= limit as consecutive int8 blocks of _BLOCK values.

    Each prime factor p gets one periodic table E_p with E_p[a] = (a/p), long
    enough for any block at any phase: min(_BLOCK + p - 1, limit + 1) values,
    extended from the table mod p that a caller of _shared_value_table holds,
    or else from a new one.
    The block for n = a+1..a+L is then the slice of each E_p at offset
    (a+1) mod p, a view, and the product of those views; no gather and no
    roll per block. Working memory is O(_BLOCK + largest factor) whatever
    limit is. A block from a single factor is a view of its table, so callers
    must not write into it.
    """
    step = min(limit, _BLOCK)
    tables = []
    for p in chi.factors:
        table = _live_tables.get(p)
        if table is None:
            table = _legendre_value_table(p)
        length = min(step + p - 1, limit + 1)
        tables.append((p, table if length <= p else np.resize(table, length)))
    for start in range(1, limit + 1, step):
        size = min(step, limit + 1 - start)
        block = None
        for p, table in tables:
            offset = start % p
            piece = table[offset : offset + size]
            block = piece if block is None else block * piece
        yield np.ones(size, dtype=np.int8) if block is None else block


def bulk_values(chi: QuadraticCharacter, limit: int) -> np.ndarray:
    """chi(n) for 1 <= n <= limit as a new int8 array (index i holds n = i + 1).

    The concatenated blocks of the streaming kernel _value_blocks. The result
    is identical to calling evaluate at every index, but the two routes share
    no arithmetic: this one enumerates squares, evaluate runs the reciprocity
    symbol.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    return np.concatenate(list(_value_blocks(chi, limit)))
