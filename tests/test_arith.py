import math

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from congruon.arith import (
    divisors,
    euler_phi,
    factorize,
    index_gamma0,
    is_prime,
    prime_divisors,
    primes_upto,
    valuation,
)


def test_is_prime_matches_sympy():
    for n in range(-5, 2000):
        assert is_prime(n) == sympy.isprime(n), n
    for n in [2**61 - 1, 2**61 + 1, 10**18 + 9, 10**18 + 7]:
        assert is_prime(n) == sympy.isprime(n), n


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10000)) == 1229


@given(st.integers(2, 50), st.integers(1, 10**12))
def test_valuation(p, n):
    if is_prime(p):
        v = valuation(p, n)
        assert n % p**v == 0 and (n // p**v) % p != 0


@pytest.mark.parametrize("p", [1, -1, 0, -2, -3])
def test_valuation_refuses_p_below_2(p):
    """p = 1 and -1 divide every n, so no valuation at them is finite."""
    with pytest.raises(ValueError, match="at least 2"):
        valuation(p, 6)


@given(st.integers(1, 10**12))
def test_factorize_reconstructs(n):
    f = factorize(n)
    assert math.prod(p**e for p, e in f.items()) == n
    assert all(is_prime(p) for p in f)


def test_factorize_known():
    assert factorize(1) == {}
    assert factorize(2**6 * 3**10 * 6869) == {2: 6, 3: 10, 6869: 1}
    assert prime_divisors(-72) == [2, 3]


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(72) == sorted(d for d in range(1, 73) if 72 % d == 0)


def test_euler_phi_and_index_gamma0():
    for n in range(1, 100):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        # pairs (c, d) mod N with gcd(c, d, N) = 1: the units times P^1(Z/NZ),
        # whose size is the index of Gamma0(N)
        pairs = sum(
            1 for c in range(n) for d in range(n) if math.gcd(c, d, n) == 1
        )
        assert index_gamma0(n) * euler_phi(n) == pairs
