"""Frozen empirical constants with their defining sweeps.

The decay estimates for the profiles D_l involve constants that no closed
form provides.  They are fixed here once, by exact sweeps over an index
window, with 10% headroom, and the test suite re-runs the sweeps to confirm
the frozen values still dominate.  Squared forms are stored as exact
rationals so the inequalities H_l sqrt(b_l) <= C1 and the like can be
checked without square roots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .correlation import H_value, compute_bl, dl_run, envelope_gaps, profile_gap

HEADROOM = Fraction(121, 100)     # (1.1)^2, applied to squared maxima


class FrozenConstants(NamedTuple):
    """Frozen constants; *_sq fields are exact squares including headroom."""

    c1_sq: Fraction        # peak height:        H_l^2 b_l <= c1_sq
    c2_sq: Fraction        # successive L1 gap:  |D_{l+1}-D_l|_1^2 b_l <= c2_sq
    c3_sq: Fraction        # envelope L1 gap:    gap(l,p)^2 b_l / p^2 <= c3_sq
    c_star: float          # global count bound multiplier (binary64 check)
    sweep_l_bound: int     # c1, c2 swept over l < sweep_l_bound
    sweep_envelope_l: int  # c3 swept over l < sweep_envelope_l, p <= sweep_p
    sweep_p: int
    headroom_sq: Fraction


# Sweep results (exact):
#   max H_l^2 b_l            = 980/729 at l = 16   (l < 3^5)
#   max |D_{l+1}-D_l|^2 b_l  = 16/9    at l = 5    (l < 3^5)
#   max gap^2 b_l / p^2      = 605/36  at l = 16, p = 1  (l < 3^4, p <= 4)
#   count/bound ratios for the global set were all 0 on the verification
#   grid (bound overflow for linear growth, empty window for log growth),
#   so c_star is fixed at 1.0.
FROZEN = FrozenConstants(
    c1_sq=Fraction(980, 729) * HEADROOM,      # = 5929/3645
    c2_sq=Fraction(16, 9) * HEADROOM,         # = 484/225
    c3_sq=Fraction(605, 36) * HEADROOM,       # = 14641/720
    c_star=1.0,
    sweep_l_bound=3 ** 5,
    sweep_envelope_l=3 ** 4,
    sweep_p=4,
    headroom_sq=HEADROOM,
)


def _weighted_sq(x: Fraction, weight: int, divisor: int = 1) -> Fraction:
    """x^2 * weight / divisor, as one Fraction built from integers."""
    return Fraction(x.numerator ** 2 * weight, x.denominator ** 2 * divisor)


def _first_max(values: dict) -> tuple:
    """The largest value and the first key, in order, that attains it."""
    arg = max(values, key=values.__getitem__)
    return values[arg], arg


def sweep_c1_sq(l_bound: int) -> tuple[Fraction, int]:
    """Exact max of H_l^2 b_l over l < l_bound, with its argmax."""
    run = dl_run(0, 0, l_bound - 1)
    return _first_max({l: _weighted_sq(H_value(l, run), compute_bl(l)) for l in range(l_bound)})


def sweep_c2_sq(l_bound: int) -> tuple[Fraction, int]:
    """Exact max of |D_{l+1} - D_l|_1^2 b_l over l < l_bound."""
    run = dl_run(0, 0, l_bound)
    return _first_max({l: _weighted_sq(profile_gap([(l + 1, 0), (l, 0)], run), compute_bl(l))
                       for l in range(l_bound)})


def sweep_c3_sq(l_bound: int, p_bound: int) -> tuple[Fraction, tuple[int, int]]:
    """Exact max of gap(l, p)^2 b_l / p^2 over l < l_bound, 1 <= p <= p_bound,
    with its first argmax (l, p) in l-major, p-minor order, where gap(l, p)
    is the envelope gap of D_{l+j}(. - i/2), 0 <= j <= 2, -p <= i <= p.
    Each l's gaps for every p come from one `envelope_gaps` call."""
    run = dl_run(0, 0, l_bound + 1)
    return _first_max({
        (l, p): _weighted_sq(gap, compute_bl(l), p * p)
        for l in range(l_bound)
        for p, gap in enumerate(envelope_gaps(l, p_bound, run), 1)})
