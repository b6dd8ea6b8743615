"""Pure-Python number theory for the benchmark's inputs and output checks.

Nothing here calls charscan, so the checks that use it are an independent
route to the values the program prints.
"""

from __future__ import annotations

import math


def primes_upto(n: int) -> list[int]:
    """All primes p <= n, by the sieve of Eratosthenes on a bytearray."""
    if n < 2:
        return []
    mask = bytearray([1]) * (n + 1)
    mask[0] = mask[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, flag in enumerate(mask) if flag]


def spf_upto(n: int) -> list[int]:
    """Smallest prime factor of every 0 <= i <= n (0 and 1 map to themselves)."""
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for multiple in range(p * p, n + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    return spf


def is_prime(n: int) -> bool:
    """Trial division; the benchmark only asks about n below a few million."""
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def legendre(a: int, p: int) -> int:
    """(a/p) for an odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def completely_multiplicative(prime_values: dict[int, float], n: int) -> list[float]:
    """f(0..n) with f(0) = 0, f(1) = 1 and f(m) = f(spf(m)) * f(m / spf(m))."""
    spf = spf_upto(n)
    f = [0.0] * (n + 1)
    if n >= 1:
        f[1] = 1.0
    for m in range(2, n + 1):
        p = spf[m]
        f[m] = prime_values[m] if p == m else prime_values[p] * f[m // p]
    return f
