"""Reference fixtures: published benchmark digits for the alpha = 4
oscillator family, stored exactly as printed.

Comparisons use a window of one unit in the last printed decimal, because
several entries are truncated rather than rounded.
"""

from __future__ import annotations

# Upper estimate E^U (third-order series) and converged eigenvalue E for
# A = l(l+1).  Strings keep the printed precision.
TABLE1 = (
    (0.001, 3, "9.00011427912", "9.00011427912"),
    (0.001, 4, "11.0000634907", "11.00006349074"),
    (0.001, 5, "13.0000404036", "13.00004040364"),
    (0.01, 3, "9.00114219948", "9.00114219940"),
    (0.01, 4, "11.0006347888", "11.00063478889"),
    (0.01, 5, "13.0004040006", "13.00040400060"),
    (0.1, 3, "9.01136426169", "9.01136402618"),
    (0.1, 4, "11.0063361001", "11.00633609923"),
    (0.1, 5, "13.0040364325", "13.00403643252"),
    (1.0, 3, "9.10931126210", "9.10865860752"),
    (1.0, 4, "11.0622492820", "11.06224171938"),
    (1.0, 5, "13.0400155515", "13.04001518306"),
    (1.0, 50, "103.000400036", "103.00040003676"),
)

# Symmetric bounds at A = 12 (gamma = 4.5): per lambda the six entries
# (lower_p1, upper_p1, lower_p2, upper_p2, lower_p3, upper_p3).
TABLE2 = {
    0.001: ("9.000114234", "9.000114334", "9.000114231",
            "9.000114327", "9.000114231", "9.000114327"),
    0.01: ("9.001138022", "9.001147691", "9.001137408",
           "9.001146987", "9.001137409", "9.001146989"),
    0.1: ("9.010945111", "9.011912031", "9.010883476",
          "9.011841809", "9.010885097", "9.011843425"),
    1.0: ("9.065963521", "9.162607906", "9.059599522",
          "9.155786288", "9.061245282", "9.157377241"),
}

# The (lambda, p, side) entries of TABLE2 that are internally inconsistent:
# bounds are symmetric about E_p by construction, and for this entry the
# tabulated upper value together with E_1 forces a lower value of
# 9.000114237, not the printed 9.000114234.  Kept as printed; comparisons
# annotate instead of failing.
TABLE2_INCONSISTENT = {(0.001, 1, "lower")}


def printed_ulp(printed: str) -> float:
    """Size of one unit in the last printed decimal place."""
    if "." not in printed:
        return 1.0
    return 10.0 ** -(len(printed) - printed.index(".") - 1)


def matches_printed(value: float, printed: str) -> bool:
    """True when value agrees with the printed digits to within one unit
    of the last printed decimal (tables truncate some entries)."""
    return abs(value - float(printed)) <= 1.000001 * printed_ulp(printed)
