"""Shared exact integer arithmetic helpers (gcd, primality, factoring) and the
root of congruon's errors."""

from __future__ import annotations

import math
import random

# Deterministic Miller-Rabin witnesses, valid for all n < 2^64.
_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Fixed witness set for n >= 2^64 (probable-prime only).
_MR_WITNESSES_BIG = tuple(range(2, 2 + 40))


class CongruonError(Exception):
    """Root of every refusal; exit_code is the CLI's exit status for it
    (2, a usage error, unless a subclass says otherwise)."""

    exit_code = 2
    # the message as given, also where a subclass is a KeyError (which quotes it)
    __str__ = Exception.__str__


def _miller_rabin(n, bases):
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n):
    """Primality test: deterministic below 2^64, strong probable-prime above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 2**64:
        return _miller_rabin(n, _MR_WITNESSES_64)
    return _miller_rabin(n, _MR_WITNESSES_BIG)


def primes_upto(bound):
    """All primes p <= bound, ascending."""
    bound = int(bound)
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(bound + 1) if sieve[i]]


def valuation(p, n):
    """Exponent of the prime p in n != 0."""
    if p < 2:
        raise ValueError(f"valuation at {p}: p must be at least 2")
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _pollard_rho(n, rng):
    if n % 2 == 0:
        return 2
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n):
    """Prime factorisation of n >= 1 as a dict {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    while d * d <= n and d < 100000:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        rng = random.Random(0xC0FFEE)
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
            d = _pollard_rho(m, rng)
            stack.append(d)
            stack.append(m // d)
    return dict(sorted(factors.items()))


def prime_divisors(n):
    return list(factorize(abs(n)))


def divisors(n):
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def euler_phi(n):
    """Euler's totient of n >= 1."""
    r = n
    for p in factorize(n):
        r = r // p * (p - 1)
    return r


def index_gamma0(n):
    """Index of Gamma0(N) in SL2(Z): N * prod_{p|N} (1 + 1/p)."""
    if n < 1:
        raise ValueError("level must be >= 1")
    b = n
    for p in factorize(n):
        b = b // p * (p + 1)
    return b
