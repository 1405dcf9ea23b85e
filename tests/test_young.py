from fractions import Fraction
from math import factorial

import pytest

from contractads.qpoly import QPoly
from contractads.graphs import chromatic_polynomial, multipartite_graph, path_graph
from contractads.graphic_functions import (
    chromatic_gf,
    convolve,
    mobius_gf,
    one_gf,
    one_q_gf,
    unit_gf,
    wonderful_complex_gf,
    wonderful_real_gf,
)
from contractads.series import (
    PowerSeries,
    exp_series,
    log1p_series,
    pow_param_series,
    scaled_arcsinh_series,
    series_compose,
    series_reverse,
)
from contractads.symfunc import partitions_of
from contractads.young import (
    BiSeries,
    YoungSeries,
    power_sum_exp_tail,
    sinh_tail,
    two_color_specialize,
    young_closed_form,
    young_compose,
    young_exp,
    young_log1p,
    young_of_graphic,
    young_reverse,
)

q = QPoly.q()
D = 5


def test_young_of_unit_is_z():
    assert young_of_graphic(unit_gf(), D) == YoungSeries.z(D)


def test_young_of_one_matches_exponential_formula():
    # F_Y(1) = e^{z+p_1} - (1 + sum p_n/n!)
    lhs = young_of_graphic(one_gf(), D)
    zp = YoungSeries.z(D) + YoungSeries(D, {(0, (1,)): 1})
    rhs = young_exp(zp) - YoungSeries.constant(D, 1) - power_sum_exp_tail(D)
    assert lhs == rhs
    # coefficient of m_(1,1) z^0: 1(K_2)/lambda! = 1
    assert lhs.coefficient(0, (1, 1)) == QPoly.one()


def test_young_compose_one_with_mobius():
    F1 = young_of_graphic(one_gf(), D)
    Fmu = young_of_graphic(mobius_gf(), D)
    assert young_compose(F1, Fmu) == YoungSeries.z(D)
    assert young_compose(Fmu, F1) == YoungSeries.z(D)


def test_young_reverse_of_one_is_lie_formula():
    F1 = young_of_graphic(one_gf(), D)
    rev = young_reverse(F1)
    expected = young_log1p(YoungSeries.z(D) + power_sum_exp_tail(D)) - YoungSeries(
        D, {(0, (1,)): 1}
    )
    assert rev == expected


def test_young_reverse_trivial():
    assert young_reverse(YoungSeries.z(D)) == YoungSeries.z(D)
    with pytest.raises(ValueError):
        young_reverse(YoungSeries.z(D).scale(2))


def test_composition_theorem_connected_pairs():
    functions = {"one": one_gf(), "one_q": one_q_gf(), "mu": mobius_gf()}
    for fname, f in functions.items():
        for gname, g in functions.items():
            lhs = young_of_graphic(convolve(f, g), 4)
            rhs = young_compose(young_of_graphic(f, 4), young_of_graphic(g, 4))
            assert lhs == rhs, (fname, gname)


def test_composition_with_chromatic_right_argument_needs_rescaling():
    # X(P_1) = q, so the plain identity fails and the coloured-operad variant holds
    f, g = one_gf(), chromatic_gf()
    lhs = young_of_graphic(convolve(f, g), 3)
    plain = young_compose(young_of_graphic(f, 3), young_of_graphic(g, 3))
    assert lhs != plain
    rescaled = young_compose(
        young_of_graphic(f, 3).scale_x(q), young_of_graphic(g, 3)
    )
    assert lhs == rescaled
    # the documented counterexample coefficient
    assert lhs.graphic_value(1, (1,)) == 2 * q**2 - q
    assert plain.graphic_value(1, (1,)) == q**2


def test_chromatic_closed_form_values():
    cf = young_closed_form("chromatic", D)
    assert cf.graphic_value(0, (2, 1)) == q * (q - 1) ** 2
    for total in range(1, D + 1):
        for lam in partitions_of(total):
            if len(lam) < 2:
                continue
            assert cf.graphic_value(0, lam) == chromatic_polynomial(multipartite_graph(lam))


def test_modular_complex_functional_equation():
    G = young_closed_form("modular_complex_G", D)
    FM = young_of_graphic(wonderful_complex_gf(), D)
    assert young_compose(G, FM) == YoungSeries.z(D)
    assert young_compose(FM, G) == YoungSeries.z(D)


def test_modular_real_matches_recurrence():
    cf = young_closed_form("modular_real", D)
    assert cf == young_of_graphic(wonderful_real_gf(), D)
    assert cf.graphic_value(3, ()) == 1 - q


def test_sinh_tail():
    s = sinh_tail(6)
    assert s.coefficient(0, (1,)) == QPoly.one()
    assert s.coefficient(0, (3,)) == q * Fraction(1, 6)
    assert s.coefficient(0, (5,)) == q**2 * Fraction(1, 120)
    assert s.coefficient(0, (2,)).is_zero()


# -- two-colour specialisation -----------------------------------------------------------


def test_two_color_of_z():
    assert two_color_specialize(YoungSeries.z(D)) == BiSeries.z(D)


def test_two_color_chromatic_coefficient():
    chrom = two_color_specialize(young_closed_form("chromatic", D))
    assert chrom.coefficient(1, 1) == q * (q - 1)


def test_two_color_reversal_recovers_direct_series():
    G = two_color_specialize(young_closed_form("modular_complex_G", D))
    direct = two_color_specialize(young_of_graphic(wonderful_complex_gf(), D))
    assert G.reverse_z() == direct


def test_two_color_z_line_matches_star_series():
    from contractads.family_series import closed_form

    rev = two_color_specialize(young_closed_form("modular_complex_G", D)).reverse_z()
    star = closed_form("complex", "St", D - 1)
    for m in range(D - 1):
        assert rev.coefficient(m, 1) == star.coefficient(m)


def test_graphic_value_respects_factorials():
    F = young_of_graphic(wonderful_complex_gf(), 4)
    # K_{(1,1,1,1)} = K_4 sits at z^4/4!
    assert F.graphic_value(4, ()) == wonderful_complex_gf()(multipartite_graph((1, 1, 1, 1)))
    assert F.coefficient(4, ()) == F.graphic_value(4, ()) * Fraction(1, factorial(4))


def test_coefficient_extraction_duality():
    # f(K_lambda) is recovered from F_Y(f) for every lambda with |lambda| <= 6
    f = wonderful_complex_gf()
    F = young_of_graphic(f, 6)
    for total in range(1, 7):
        for lam in partitions_of(total):
            if len(lam) < 2:
                continue
            assert F.graphic_value(0, lam) == f(multipartite_graph(lam)), lam
    for n in range(1, 7):
        for total in range(0, 7 - n):
            for lam in partitions_of(total):
                parts = tuple(sorted(lam + (1,) * n, reverse=True))
                assert F.graphic_value(n, lam) == f(multipartite_graph(parts)), (n, lam)


# -- the three series types against each other -------------------------------------------


def z_line(f: YoungSeries) -> PowerSeries:
    """x_i = 0: only the m_() coefficients survive, as a series in z."""
    return PowerSeries.from_terms("z", f.degree, {n: c for (n, lam), c in f.terms.items() if not lam})


UNARY = {
    "reverse": series_reverse,
    "exp": exp_series,
    "log1p": log1p_series,
    "pow_param(q)": lambda f: pow_param_series(f, q),
    "scaled_arcsinh": scaled_arcsinh_series,
}


@pytest.mark.parametrize("specialize", [z_line, two_color_specialize], ids=["x=0", "x1=t"])
def test_specialisations_commute_with_the_series_engine(specialize):
    G = young_closed_form("modular_complex_G", D)
    F = young_of_graphic(wonderful_complex_gf(), D)
    for name, (a, b) in {"G o F": (G, F), "F o G": (F, G)}.items():
        assert specialize(series_compose(a, b)) == series_compose(specialize(a), specialize(b)), name
    for fname, f in {"G": G, "F": F}.items():
        for name, op in UNARY.items():
            assert specialize(op(f)) == op(specialize(f)), (name, fname)


def test_equal_sparse_series_hash_equal():
    # == compares up to the smaller degree, so the hash must not see the degree
    a, b = YoungSeries.z(3), YoungSeries.z(5)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
