"""Checks of one round's outputs against references.py.

Standard library only.  ``check(inputs, outputs)`` returns a list of error
messages, empty when every output is right.  Each output is compared with a
value computed apart from the program (references.py) or with an identity
the paper proves: the Koszul pairings Com*Lie = hyper*grav = eps, the closed
forms agreeing with the recurrences, and G o F = z for the modular series.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import factorial

import references as R


def poly_from_json(data: dict) -> dict:
    """CLI JSON (exponent in q^(1/2) units -> [num, den]) to {power of q: Fraction}."""
    out = {}
    for key, (num, den) in data.items():
        halves = int(key)
        if halves % 2:
            raise ValueError(f"half-integer power of q in {data}")
        out[halves // 2] = Fraction(num, den)
    return R.p_clean(out)


def same(a: dict, b: dict) -> bool:
    return R.p_clean({k: Fraction(v) for k, v in a.items()}) == R.p_clean({k: Fraction(v) for k, v in b.items()})


# -- references by graph kind ----------------------------------------------------------


@lru_cache(maxsize=None)
def chromatic(kind: str, params, n: int, edges: tuple) -> dict:
    if kind == "K":
        return R.chromatic_complete(n)
    if kind == "C":
        return R.chromatic_cycle(n)
    if kind in ("P", "St"):
        return R.chromatic_tree(n)
    if kind == "Klam":
        return R.chromatic_multipartite(params)
    chi = R.chromatic_independent_partitions(n, edges)
    for k in range(4):
        if R.proper_colourings(n, edges, k) != R.p_eval(chi, k):
            raise AssertionError(f"reference chromatic polynomial fails at {k} colours on {edges}")
    return chi


@lru_cache(maxsize=None)
def complex_poincare(kind: str, params, n: int, edges: tuple) -> dict:
    if kind == "K":
        return R.keel_complete(n)
    if kind == "P":
        return R.narayana_path(n)
    if kind == "St":
        return R.eulerian_star(params)
    return R.complex_nested_sets(n, edges)


def expected_query(q: dict):
    kind, n, edges = q["kind"], q["n"], tuple(tuple(e) for e in q["edges"])
    params = tuple(q["params"]) if isinstance(q["params"], list) else q["params"]
    target = q["target"]
    if target == "complex":
        return complex_poincare(kind, params, n, edges)
    if target == "hyper":
        return R.hyper_from_complex(n, complex_poincare(kind, params, n, edges))
    if target == "real":
        return R.ehkr_complete(n) if kind == "K" else R.real_star(params)
    chi = chromatic(kind, params, n, edges)
    if target == "chromatic":
        return chi
    if target == "mobius":
        return R.mobius_from_chromatic(chi)
    if target == "gerst":
        return R.gerst_from_chromatic(n, chi)
    if target == "grav":
        return R.grav_from_chromatic(n, chi)
    raise ValueError(f"no reference for target {target!r}")


# -- workloads ---------------------------------------------------------------------------


def check_hilbert_queries(inputs, outputs) -> list[str]:
    errors = []
    for q, text in zip(inputs["queries"], outputs):
        if text is None:
            continue  # a failed operation, counted apart
        data = json.loads(text)
        want = expected_query(q)
        if q["target"] == "mobius":
            ok = data == {"mobius": want}
        else:
            ok = same(poly_from_json(data), want)
        if not ok:
            errors.append(f"{q['target']} on {q['kind']} {q['params']} {q['edges']}: got {text.strip()}, want {want}")
    return errors


def check_class_sweep(inputs, outputs) -> list[str]:
    errors = []
    classes = outputs[0]
    if classes is None:
        return errors  # enumeration failed, and with it every class
    max_n = inputs["max_vertices"]
    counts = [sum(1 for n, _ in classes if n == k) for k in range(1, max_n + 1)]
    if counts != list(R.A001349[:max_n]):
        errors.append(f"class counts {counts}, want {list(R.A001349[:max_n])} (OEIS A001349)")
    forms = set()
    for n, edges in classes:
        if not R.is_connected(n, edges):
            errors.append(f"class {n} {edges} is not connected")
        forms.add(R.canonical_form(n, edges))
    if len(forms) != len(classes):
        errors.append("two class representatives are isomorphic")
    for index, out in zip(inputs["order"], outputs[1:]):
        if out is None:
            continue
        com_lie, hyper_grav, chrom, deletion_contraction = out
        n, edges = classes[index]
        eps = {0: 1} if n == 1 else {}
        chi = R.chromatic_independent_partitions(n, edges)
        for name, value, want in (
            ("Com*Lie", com_lie, eps),
            ("hyper*grav", hyper_grav, eps),
            ("chromatic", chrom, chi),
            ("deletion-contraction", deletion_contraction, chi),
        ):
            if not same(poly_from_json(value), want):
                errors.append(f"{name} on class {n} {edges}: got {value}, want {want}")
    return errors


def check_tree_oracle(inputs, outputs) -> list[str]:
    errors = []
    for i, spec in enumerate(inputs["graphs"]):
        n, edges = spec["n"], [tuple(e) for e in spec["edges"]]
        hyper, lie, grav, ass = outputs[4 * i : 4 * i + 4]
        chi = R.chromatic_independent_partitions(n, edges)
        hyper_ref = R.hyper_from_complex(n, R.complex_nested_sets(n, edges))
        grav_ref = R.grav_from_chromatic(n, chi)
        want = (
            [hyper_ref.get(r, 0) for r in range(n)],
            abs(R.mobius_from_chromatic(chi)),
            [abs(grav_ref.get(r, 0)) for r in range(n)],
            (-1) ** n * R.p_eval(chi, -1),
        )
        for name, got, expected in zip(("gcHyper", "gcLie", "gcGrav", "gcAss"), (hyper, lie, grav, ass), want):
            if got is not None and got != expected:
                errors.append(f"{name} on {n} {edges}: got {got}, want {expected}")
    return errors


def _series_coefficient(target: str, family: str, n: int) -> dict:
    """Normalised coefficient of t^n in the family series of the complex or
    real wonderful Hilbert series, or None where only an identity applies."""
    if family != "St" and n == 0:
        return {}
    if target == "complex":
        if family == "P":
            return R.narayana_path(n)
        if family == "St":
            return R.p_scale(R.eulerian_star(n), Fraction(1, factorial(n)))
        if family == "K":
            return R.p_scale(R.keel_complete(n), Fraction(1, factorial(n)))
        value = R.narayana_path(n) if n <= 2 else R.complex_nested_sets(n, R.cycle_edges(n))
        return R.p_scale(value, Fraction(1, n))
    if family == "K":
        return R.p_scale(R.ehkr_complete(n), Fraction(1, factorial(n)))
    if family == "St":
        return R.p_scale(R.real_star(n), Fraction(1, factorial(n)))
    return None


def _young_coefficient(value_of, n: int, lam: tuple) -> dict:
    if n + len(lam) < 2 and not (n == 1 and not lam):
        return {}  # empty graph or a single independent part
    return R.p_scale(value_of(n, lam), Fraction(1, R.young_weight(n, lam)))


def _multipartite(n: int, lam: tuple) -> tuple:
    return tuple(sorted(lam + (1,) * n, reverse=True))


def _young_terms(data: dict) -> dict:
    return {(n, tuple(lam)): poly_from_json(c) for n, lam, c in data["terms"]}


def check_series_young(inputs, outputs) -> list[str]:
    errors = []
    results = {}
    for spec, out in zip(inputs["ops"], outputs):
        results[(spec["op"], spec.get("target"), spec.get("family"))] = (spec, out)

    # family series: closed forms and recurrences, coefficient by coefficient
    for kind in ("closed_form", "family_series"):
        for target in ("complex", "real"):
            for family in ("P", "C", "K", "St"):
                spec, out = results[(kind, target, family)]
                if out is None:
                    continue  # a failed operation, counted apart
                coeffs = [poly_from_json(c) for c in out["coefficients"]]
                if len(coeffs) != spec["order"] + 1:
                    errors.append(f"{kind} {target} {family}: {len(coeffs)} coefficients")
                    continue
                other = results[("family_series" if kind == "closed_form" else "closed_form", target, family)][1]
                other_coeffs = [poly_from_json(c) for c in other["coefficients"]] if other else []
                for n, got in enumerate(coeffs):
                    want = _series_coefficient(target, family, n)
                    if want is None and n < len(other_coeffs):
                        want = other_coeffs[n]  # closed form = recurrence
                    if want is not None and not same(got, want):
                        errors.append(f"{kind} {target} {family} t^{n}: got {got}, want {want}")

    degree = inputs["ops"][-1]["degree"]
    keys = list(R.young_keys(degree))

    def chromatic_value(n, lam):
        return R.chromatic_multipartite(_multipartite(n, lam))

    def complex_value(n, lam):
        parts = _multipartite(n, lam)
        return R.complex_nested_sets(sum(parts), R.multipartite_edges(parts))

    chrom_want = {k: _young_coefficient(chromatic_value, *k) for k in keys}
    q_q1 = {2: 1, 1: -1}  # q (q - 1)
    g_want = {}
    for key, c in chrom_want.items():
        numerator = R.p_add({2: 1} if key == (1, ()) else {}, c, -1)
        quotient = {}
        if numerator:
            if 0 in numerator:
                raise AssertionError("reference modular series is not divisible by q")
            quotient = R.p_div_q_minus_1({p - 1: v for p, v in numerator.items()})
            if not same(R.p_mul(quotient, q_q1), numerator):
                raise AssertionError("reference modular series is not divisible by q(q-1)")
        g_want[key] = quotient
    complex_want = {k: _young_coefficient(complex_value, *k) for k in keys}
    real_pure_z = {(n, ()): R.p_scale(R.ehkr_complete(n), Fraction(1, factorial(n))) for n in range(1, degree + 1)}

    def compare(name, data, want, only=None):
        if data is None:
            return  # a failed operation, counted apart
        got = _young_terms(data)
        for key in set(got) | set(want):
            if only is not None and key not in only:
                continue
            if key not in want:
                errors.append(f"{name}: unexpected term {key}")
            elif not same(got.get(key, {}), want[key]):
                errors.append(f"{name} {key}: got {got.get(key)}, want {want[key]}")

    compare("young chromatic", results[("young_closed_form", "chromatic", None)][1], chrom_want)
    compare("young modular_complex_G", results[("young_closed_form", "modular_complex_G", None)][1], g_want)
    compare("young_of_graphic complex", results[("young_of_graphic", "complex", None)][1], complex_want)
    compare("G o F", results[("young_compose", None, None)][1], {k: ({0: 1} if k == (1, ()) else {}) for k in keys})
    real_closed = results[("young_closed_form", "modular_real", None)][1]
    real_graphic = results[("young_of_graphic", "real", None)][1]
    compare("young modular_real", real_closed, real_pure_z, only=real_pure_z)
    compare("young_of_graphic real", real_graphic, real_pure_z, only=real_pure_z)
    if real_graphic is not None:
        compare("modular_real = young_of_graphic real", real_closed, _young_terms(real_graphic))
    return errors


CHECKS = {
    "hilbert_queries": check_hilbert_queries,
    "class_sweep": check_class_sweep,
    "tree_oracle": check_tree_oracle,
    "series_young": check_series_young,
}


def check(inputs: dict, outputs: list) -> list[str]:
    return CHECKS[inputs["workload"]](inputs, outputs)
