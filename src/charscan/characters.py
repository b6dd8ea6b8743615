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


# The largest k whose square fits in uint32.
_U32_ROOT = (1 << 16) - 1
# _legendre_value_table reduces its squares in slices of this many values.
_RESIDUE_SLICE = 1 << 14


def _squares(half: int) -> np.ndarray:
    """k*k for 1 <= k <= half: uint32 while half <= _U32_ROOT, else intp."""
    dtype = np.uint32 if half <= _U32_ROOT else np.intp
    squares = np.arange(1, half + 1, dtype=dtype)
    squares *= squares
    return squares


def _square_residues(
    squares: np.ndarray, p: int, quotient: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """squares mod p into the intp array out, as squares - p * (squares // p).

    numpy vectorizes floor division by a scalar (through libdivide) but not
    the remainder: with numpy 2.4 on a 2-core x86 container, uint32 // p
    took 0.15-0.24 ns per element and uint32 % p 2.1-2.9 ns. quotient, of
    the dtype and length of squares, is scratch; out may be squares or
    quotient itself. Writing intp indices here, once, is faster than
    letting fancy indexing convert them inside the scatter.
    """
    np.floor_divide(squares, p, out=quotient)
    quotient *= p
    return np.subtract(squares, quotient, out=out)


def _legendre_value_table(p: int) -> np.ndarray:
    """(a/p) for 0 <= a < p, built by marking the nonzero squares mod p.

    The squares k*k, 1 <= k <= (p-1)/2, are made and reduced _RESIDUE_SLICE
    at a time in reused buffers (uint32 while (p-1)/2 <= _U32_ROOT, else
    intp, reduced in place) and scattered into the table slice by slice, so
    the build holds the table and a few slices of scratch, never all
    (p-1)/2 squares: at p near 1.6e6 those would add about 6.5 MB of intp
    to a thm-a run's peak.
    """
    half = (p - 1) // 2
    width = min(half, _RESIDUE_SLICE)
    dtype = np.uint32 if half <= _U32_ROOT else np.intp
    steps = np.arange(1, width + 1, dtype=dtype)
    squares = np.empty(width, dtype=dtype)
    quotient = np.empty(width, dtype=dtype)
    residues = squares if dtype == np.intp else np.empty(width, dtype=np.intp)
    tab = np.full(p, -1, dtype=np.int8)
    tab[0] = 0
    for lo in range(0, half, _RESIDUE_SLICE):
        n = min(_RESIDUE_SLICE, half - lo)
        k = np.add(steps[:n], lo, out=squares[:n])
        k *= k
        tab[_square_residues(k, p, quotient[:n], residues[:n])] = 1
    return tab


# Tables mod p that a caller still holds. Walks of characters that share a
# factor then share its table, and no table outlives its last holder.
_live_tables: weakref.WeakValueDictionary[int, np.ndarray] = (
    weakref.WeakValueDictionary()
)


def _shared_value_table(p: int) -> np.ndarray:
    """_legendre_value_table(p), read-only, shared while anyone holds it.

    verify_lemma_bg holds xi's tables across its walk mod p*ell and its walk
    mod p, so a thm-a call builds each table once. _value_blocks takes its
    tables from here too, and holds them only while it walks, so a walk
    keeps no table past its end.
    """
    table = _live_tables.get(p)
    if table is None:
        table = _legendre_value_table(p)
        table.setflags(write=False)
        _live_tables[p] = table
    return table


def _value_blocks(chi: QuadraticCharacter, limit: int) -> Iterator[np.ndarray]:
    """chi(n) for 1 <= n <= limit as consecutive int8 blocks of _BLOCK values.

    Each prime factor p reads its table mod p from _shared_value_table, so
    a table a caller holds is not built again. A factor with p below the
    block length extends it periodically to a table E_p with E_p[a] = (a/p)
    of min(_BLOCK + p - 1, limit + 1) values, long enough for any block at
    any phase. The block for n = a+1..a+L is then the slice of each table at
    offset (a+1) mod p, a view, and the product of those pieces; no gather
    and no roll per block. A factor with p at least the block length keeps
    only its table mod p: its piece is a view unless the block crosses a
    multiple of p, and then it is the table's tail joined to its head, a new
    array of at most _BLOCK values. Working memory is O(_BLOCK + largest
    factor) whatever limit is. A block from a single factor may be a view of
    its table, so callers must not write into it.
    """
    step = min(limit, _BLOCK)
    tables = []
    for p in chi.factors:
        table = _shared_value_table(p)
        if p < step:
            length = min(step + p - 1, limit + 1)
            table = np.tile(table, -(-length // p))[:length]
        tables.append((p, table))
    for start in range(1, limit + 1, step):
        size = min(step, limit + 1 - start)
        block = None
        for p, table in tables:
            offset = start % p
            piece = table[offset : offset + size]
            if len(piece) < size:  # crosses a multiple of p >= step, once
                piece = np.concatenate((piece, table[: size - len(piece)]))
            block = piece if block is None else block * piece
        yield np.ones(size, dtype=np.int8) if block is None else block


def bulk_values(chi: QuadraticCharacter, limit: int) -> np.ndarray:
    """chi(n) for 1 <= n <= limit as a new int8 array (index i holds n = i + 1).

    The public tabulation API. The library's own kernels stream _value_blocks,
    so their memory stays bounded; this joins its blocks into one array of
    limit bytes. The result
    is identical to calling evaluate at every index, but the two routes share
    no arithmetic: this one enumerates squares, evaluate runs the reciprocity
    symbol.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    return np.concatenate(list(_value_blocks(chi, limit)))
