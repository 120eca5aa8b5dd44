"""The published closed forms as plain functions of the chain parameter.

The three resistance/spanning-tree formulas are proven elsewhere in this
package to agree exactly with the oracles.  The Wiener and Gutman
polynomials (and their per-class building blocks) are kept as *claims*:
the verifier compares them against the oracles and records the outcome
rather than trusting them.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import check_chain_parameter as _check


def kirchhoff_closed(n: int) -> Fraction:
    _check(n)
    return Fraction(32 * n**3 + 44 * n**2 + 17 * n + 2, 3)


def degree_kirchhoff_closed(n: int) -> Fraction:
    _check(n)
    return Fraction(2 * (324 * n**3 + 252 * n**2 + 71 * n + 2), 3)


def spanning_trees_closed(n: int) -> int:
    _check(n)
    return 2 ** (10 * n + 2) * 3 ** (2 * n - 1)


def wiener_claim(n: int) -> Fraction:
    _check(n)
    return Fraction(128 * n**3 + 96 * n**2 + 40 * n, 3)


def gutman_claim(n: int) -> int:
    _check(n)
    return 864 * n**3 + 64 * n**2 + 418 * n - 95


def wiener_class_claims(n: int) -> list[Fraction]:
    """Published per-class distance sums (same class order as the oracle)."""
    _check(n)
    return [
        Fraction(4 * (16 * n**2 + 4 * n + 1)),
        Fraction(4 * (8 * n**3 + 3 * n**2 + n), 3),
        Fraction(2 * (16 * n**3 + 6 * n**2 - n), 3),
        Fraction(4 * (8 * n**3 + 3 * n**2 + n), 3),
        Fraction(2 * (16 * n**3 - 18 * n**2 + 5 * n - 3), 3),
    ]


def gutman_class_claims(n: int) -> list[int]:
    """Published per-class weighted distance sums (oracle class order)."""
    _check(n)
    return [
        18 * (24 * n**2 + 2 * n + 1),
        6 * (72 * n**2 + 42 * n - 13),
        32 * (12 * n**3 + n**2 + 2 * n),
        16 * (24 * n**3 + 2 * n**2 - n),
        10 * (48 * n**3 + 4 * n**2 + n),
        10 * (48 * n**3 - 84 * n**2 + 49 * n - 13),
    ]


# Each closed form under the oracle bundle field it predicts, in bundle
# order.  The proven forms equal the oracle at every n; the claimed
# polynomials are the disputed ones the verifier records as findings.
PROVEN = {
    "kf": kirchhoff_closed,
    "kf_star": degree_kirchhoff_closed,
    "tau": spanning_trees_closed,
}
CLAIMED = {"wiener": wiener_claim, "gutman": gutman_claim}


def limit_ratios(n: int, wiener=None, gutman=None) -> tuple[Fraction, Fraction]:
    """(Kf/W, Kf*/Gut) at parameter n; both tend to 1/4 as n grows.

    Oracle values for the denominators may be passed in; otherwise the
    claimed polynomials are used (adequate for the asymptotics, where the
    leading coefficients alone decide the limit).
    """
    _check(n)
    w = Fraction(wiener) if wiener is not None else wiener_claim(n)
    gut = Fraction(gutman) if gutman is not None else Fraction(gutman_claim(n))
    return kirchhoff_closed(n) / w, degree_kirchhoff_closed(n) / gut


def format_2dec(value: Fraction) -> str:
    """Render an exact rational with two decimals, rounding halves up.

    Only int and Fraction are accepted (bool and float raise ValueError):
    a binary float such as 1.005 would round from its inexact value.
    """
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"format_2dec needs an int or Fraction, got {value!r}")
    value = Fraction(value)
    neg = value < 0
    if neg:
        value = -value
    cents = (200 * value.numerator + value.denominator) // (2 * value.denominator)
    text = f"{cents // 100}.{cents % 100:02d}"
    return "-" + text if neg else text


# Reference values as printed in the source tables.  They are stored as
# printed, including their rounding slips (and one outright misprint at
# kf* n=11, adjudicated by the oracle), so comparisons can surface them.
TABLE_KF = {
    1: "31.67", 2: "156.00", 3: "437.67", 4: "940.67", 5: "1729.00",
    6: "2866.67", 7: "4417.67", 8: "6446.00", 9: "9015.67", 10: "12190.70",
    11: "16035.00", 12: "20612.70", 13: "25987.70", 14: "32224.00",
    15: "39385.70",
}

TABLE_KF_STAR = {
    1: "432.67", 2: "2496.00", 3: "7487.33", 4: "16702.70", 5: "31438.00",
    6: "52989.30", 7: "82652.70", 8: "121724.00", 9: "171499.34",
    10: "233274.67", 11: "308316.00", 12: "398009.34", 13: "503560.67",
    14: "626296.00", 15: "767511.34",
}

TABLE_TREES = {
    1: "12288",
    2: "113246208",
    3: "1043677052928",
    4: "9618527719784448",
    5: "88644351465533472768",
    6: "816946343106356485029888",
    7: "7528977498068181366035447808",
    8: "69387056622196359469382686998528",
}
