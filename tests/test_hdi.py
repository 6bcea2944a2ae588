import math
import warnings

import pytest

from trimq import BetaParams, HdiCase, beta_hdi, beta_mode, beta_pdf

from _oracles import hdi_lower_grid_oracle, interval_mass


def test_mode_interior():
    assert abs(beta_mode(BetaParams(5.5, 5.5)) - 0.5) <= 1e-15
    assert abs(beta_mode(BetaParams(3, 7)) - 0.25) <= 1e-15
    # a + b overflows; its half does not
    assert beta_mode(BetaParams(9e307, 9e307)) == 0.5


def test_mode_at_borders():
    assert beta_mode(BetaParams(0.55, 10.45)) == 0.0
    assert beta_mode(BetaParams(1.0, 2.0)) == 0.0
    assert beta_mode(BetaParams(2.0, 0.8)) == 1.0
    assert beta_mode(BetaParams(2.0, 1.0)) == 1.0


def test_mode_degenerate_is_none():
    assert beta_mode(BetaParams(0.5, 0.5)) is None
    assert beta_mode(BetaParams(1.0, 1.0)) is None
    assert beta_mode(BetaParams(1.0 + 4e-10, 1.0 + 4e-10)) is None


def test_middle_case_symmetric():
    params = BetaParams(5.5, 5.5)
    hdi = beta_hdi(params, 0.3162278)
    assert hdi.case is HdiCase.MIDDLE
    assert hdi.upper == hdi.lower + hdi.width
    assert hdi.width == 0.3162278
    assert abs(hdi.lower + hdi.upper - 1.0) <= 1e-9
    # density balance at the endpoints is the defining property
    assert abs(beta_pdf(hdi.lower, params) - beta_pdf(hdi.upper, params)) <= 1e-6


def test_middle_case_asymmetric_against_grid_oracle():
    hdi = beta_hdi(BetaParams(3, 7), 0.3)
    assert hdi.case is HdiCase.MIDDLE
    assert abs(hdi.lower - hdi_lower_grid_oracle(3.0, 7.0, 0.3)) <= 1e-5


def test_left_border_case():
    hdi = beta_hdi(BetaParams(0.55, 10.45), 0.3162278)
    assert hdi.case is HdiCase.LEFT_BORDER
    assert hdi.lower == 0.0
    assert hdi.upper == 0.3162278


def test_right_border_case():
    hdi = beta_hdi(BetaParams(2.0, 0.8), 0.25)
    assert hdi.case is HdiCase.RIGHT_BORDER
    assert hdi.upper == 1.0
    assert hdi.lower == 0.75


def test_full_range_case():
    hdi = beta_hdi(BetaParams(2, 2), 1.0)
    assert hdi.case is HdiCase.FULL_RANGE
    assert (hdi.lower, hdi.upper, hdi.width) == (0.0, 1.0, 1.0)
    # a requested width inside the guard band also snaps to the full range
    assert beta_hdi(BetaParams(2, 2), 1.0 - 1e-12).case is HdiCase.FULL_RANGE


def test_degenerate_case():
    hdi = beta_hdi(BetaParams(0.5, 0.5), 0.2)
    assert hdi.case is HdiCase.DEGENERATE
    assert math.isnan(hdi.lower) and math.isnan(hdi.upper)
    assert math.isnan(hdi.mode)


def test_width_validation():
    params = BetaParams(2, 2)
    for bad in [0.0, -0.1, 1.5, math.nan, math.inf]:
        with pytest.raises(ValueError):
            beta_hdi(params, bad)


def test_interval_envelope_properties():
    shapes = [0.5, 0.8, 1.0, 1.5, 2.0, 5.5, 17.0, 50.0]
    widths = [0.05, 0.2, 0.3162278, 0.5, 0.9]
    for a in shapes:
        for b in shapes:
            params = BetaParams(a, b)
            mode = beta_mode(params)
            for w in widths:
                hdi = beta_hdi(params, w)
                if hdi.case is HdiCase.DEGENERATE:
                    assert mode is None
                    continue
                assert 0.0 <= hdi.lower <= hdi.upper <= 1.0, (a, b, w)
                assert hdi.upper == hdi.lower + hdi.width
                if hdi.case is not HdiCase.FULL_RANGE:
                    assert hdi.width == w
                assert hdi.lower - 1e-12 <= mode <= hdi.upper + 1e-12, (a, b, w)
                if a == b:
                    assert abs(hdi.lower + hdi.upper - 1.0) <= 1e-9, (a, b, w)


def test_interval_mass_dominates_shifted_windows():
    # sliding the window off the HDI never gains probability mass
    cases = [(5.5, 5.5, 0.3162278), (3.0, 7.0, 0.3), (2.0, 17.0, 0.25),
             (50.0, 12.0, 0.1)]
    for a, b, w in cases:
        hdi = beta_hdi(BetaParams(a, b), w)
        best = interval_mass(a, b, hdi.lower, hdi.upper)
        for delta in (-0.05, -0.01, 0.01, 0.05):
            lo = min(max(hdi.lower + delta, 0.0), 1.0 - w)
            shifted = interval_mass(a, b, lo, lo + w)
            assert shifted <= best + 1e-9, (a, b, w, delta)


def test_root_pinned_to_feasibility_edge():
    # with one shape large and the other barely above 1, the equal-density
    # point can sit closer to the bracket edge than one double ulp; the
    # solver must then return the mass-optimal representable endpoint
    params = BetaParams(50.0, 1.5)
    snapped = beta_hdi(params, 0.5)
    assert snapped.case is HdiCase.MIDDLE
    assert snapped.upper == 1.0
    assert abs(beta_pdf(snapped.lower, params)
               - beta_pdf(snapped.upper, params)) <= 1e-6

    # here even the best representable endpoint leaves a visible gap;
    # it must still be small and the interval must hug the edge
    tight = beta_hdi(params, 0.3162278)
    assert tight.case is HdiCase.MIDDLE
    assert 1.0 - tight.upper <= 1e-15
    assert abs(beta_pdf(tight.lower, params)
               - beta_pdf(tight.upper, params)) <= 1e-5


def test_flat_density_fallback_warns(monkeypatch):
    # a density the solver cannot bracket exercises the diagnostic fallback
    import trimq.hdi as hdi_mod

    monkeypatch.setattr(hdi_mod._k, "beta_pdf", lambda x, a, b: 1.0 - x)
    monkeypatch.setattr(hdi_mod._k, "reg_inc_beta", lambda x, a, b: x)
    with pytest.warns(RuntimeWarning):
        out = beta_hdi(BetaParams(3, 7), 0.3)
    assert out.case is HdiCase.MIDDLE
    assert 0.0 <= out.lower <= out.upper <= 1.0


def test_no_warning_on_normal_middle_solve():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta_hdi(BetaParams(5.5, 5.5), 0.3162278)


def test_mode_above_one_is_clamped():
    # at a ~ 2e16 and b just above 1, the mode's quotient rounds to
    # 1 + 2**-52, past which the bracket is empty
    params = BetaParams(2.3240640591461596e16, 1.0000018405430644)
    assert beta_mode(params) == 1.0
    hdi = beta_hdi(params, 0.01)
    assert (hdi.lower, hdi.upper, hdi.case) == (0.99, 1.0, HdiCase.MIDDLE)


def test_collapsed_bracket_returns_its_point_without_warning():
    # mode 1.0, so the bracket [mode - width, 1 - width] is one point, the
    # only feasible lower end: no sign test, no same-sign fallback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hdi = beta_hdi(BetaParams(1888052316.1761737, 1.0000000011989874),
                       6.426524210745173e-09)
    assert hdi.case is HdiCase.MIDDLE
    assert (hdi.lower, hdi.upper) == (0.9999999935734758, 1.0)
