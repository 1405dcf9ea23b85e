import functools
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from contractads.qpoly import QPoly
from contractads.symfunc import (
    SymFunc,
    monomial_product,
    partition_factorial,
    partitions_of,
    partitions_upto,
)


def expand_to_exponents(f: SymFunc) -> dict:
    """Expand the m-basis representation to a raw exponent-vector polynomial."""
    out = {}
    for lam, c in f.terms.items():
        padded = tuple(lam) + (0,) * (f.nvars - len(lam))
        for arr in set(permutations(padded)):
            out[arr] = out.get(arr, QPoly.zero()) + c
    return {k: v for k, v in out.items() if not v.is_zero()}


def raw_multiply(a: dict, b: dict, nvars: int) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, QPoly.zero()) + c1 * c2
    return {k: v for k, v in out.items() if not v.is_zero()}


partition_strategy = st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(partition_strategy, partition_strategy)
def test_monomial_product_against_raw_expansion(lam, mu):
    nvars = 4
    a = SymFunc.monomial(lam, nvars)
    b = SymFunc.monomial(mu, nvars)
    got = expand_to_exponents(a * b)
    expected = raw_multiply(expand_to_exponents(a), expand_to_exponents(b), nvars)
    assert got == expected


@functools.cache
def padded_arrangements(lam, nvars):
    return sorted(set(permutations(lam + (0,) * (nvars - len(lam)))))


def padded_monomial_product(lam, mu, nvars):
    """m_lambda * m_mu by the expansion over all nvars slots, the reference
    for the shorter expansion of `monomial_product`."""
    if max(len(lam), len(mu)) > nvars:
        return {}
    counts = {}
    for a in padded_arrangements(lam, nvars):
        for b in padded_arrangements(mu, nvars):
            vec = tuple(x + y for x, y in zip(a, b))
            counts[vec] = counts.get(vec, 0) + 1
    out = {}
    for vec, c in counts.items():
        srt = tuple(sorted((x for x in vec if x), reverse=True))
        if vec == srt + (0,) * (nvars - len(srt)):
            out[srt] = c
    return out


@pytest.mark.parametrize("nvars", [3, 8])
def test_monomial_product_matches_padded_expansion(nvars):
    parts = partitions_upto(8)
    for lam in parts:
        for mu in parts:
            if sum(lam) + sum(mu) <= 8 and lam <= mu:
                # same coordinates in the same order
                assert list(monomial_product(lam, mu, nvars).items()) == list(
                    padded_monomial_product(lam, mu, nvars).items()
                ), (lam, mu)


def test_vanishing_when_too_many_parts():
    # m_(1,1,1) needs three variables
    assert SymFunc.monomial((1, 1, 1), 2).is_zero()


def test_power_sums():
    p2 = SymFunc.power_sum(2, 3)
    assert p2.m_coefficient((2,)) == QPoly.one()
    # p_1^2 = m_2 + 2 m_{1,1}
    sq = SymFunc.power_sum(1, 3) * SymFunc.power_sum(1, 3)
    assert sq.m_coefficient((2,)) == QPoly.one()
    assert sq.m_coefficient((1, 1)) == QPoly.const(2)


def test_p_to_m_is_dominance_triangular():
    for d in range(1, 6):
        for mu in partitions_of(d):
            expansion = SymFunc.power_sum_product(mu, 6).terms
            for lam in expansion:
                # every lambda with a nonzero coefficient dominates mu
                partial_mu = [sum(mu[: i + 1]) for i in range(len(mu))]
                partial_lam = [sum(lam[: i + 1]) for i in range(len(lam))]
                for i in range(len(partial_mu)):
                    lam_part = partial_lam[i] if i < len(partial_lam) else partial_lam[-1]
                    assert lam_part >= partial_mu[i]


def test_p_m_roundtrip():
    nvars = 6
    for d in range(1, 7):
        for mu in partitions_of(d):
            f = SymFunc.power_sum_product(mu, nvars)
            coords = f.to_p_basis()
            assert coords == {mu: QPoly.one()}


def test_to_p_basis_of_combination():
    nvars = 5
    f = SymFunc.power_sum_product((2, 1), nvars).scale(Fraction(3, 2)) - SymFunc.power_sum_product(
        (1, 1, 1), nvars
    )
    coords = f.to_p_basis()
    assert coords == {(2, 1): QPoly.const(Fraction(3, 2)), (1, 1, 1): QPoly.const(-1)}


def test_partitions_helpers():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_upto(6)) == 1 + 1 + 2 + 3 + 5 + 7 + 11
    assert partition_factorial((3, 2)) == 12


def test_symmetry_spot_check():
    # a product of monomials stays symmetric: expansion invariant under swapping slots
    f = SymFunc.monomial((2, 1), 3) * SymFunc.monomial((1,), 3)
    raw = expand_to_exponents(f)
    for e, c in raw.items():
        for arr in set(permutations(e)):
            assert raw.get(arr) == c
