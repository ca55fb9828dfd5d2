import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from memstep.kernels import (
    BUILTIN_BETAS,
    KernelFormatError,
    PronySeries,
    StretchedExponential,
    analytic_eval,
    builtin_beta,
    kernel_sup_error,
    load_builtin_prony,
    prony_eval,
    prony_from_file,
)

# Frozen oracles, computed once with 50-digit mpmath summation over the
# built-in coefficient table (geometric grid [0.1, 10], 1000 samples for
# the sup errors).
PRONY_HALF_AT_ONE = 0.36787269602062916112
SUP_ERROR_HALF = 7.5808332806615557e-06
SUP_ERROR_THREE_FIFTHS = 1.0363493937184836e-05


class TestPronySeries:
    def test_table_half_first_and_last_terms(self):
        k = load_builtin_prony("1/2")
        assert k.n_terms == 12
        assert (k.weights[0], k.rates[0]) == (0.01694, 0.06265)
        assert (k.weights[-1], k.rates[-1]) == (0.04270, 383.52267)

    @pytest.mark.parametrize("beta", ["3/7", "1/2", "3/5"])
    def test_builtin_weights_sum_to_one(self, beta):
        k = load_builtin_prony(beta)
        assert abs(k.total_weight - 1.0) < 1e-5

    def test_builtin_accepts_floats(self):
        assert load_builtin_prony(0.5) == load_builtin_prony("1/2")
        assert load_builtin_prony(3 / 7) == load_builtin_prony("3/7")
        assert load_builtin_prony(0.6) == load_builtin_prony("3/5")

    @pytest.mark.parametrize("beta, value", [("1/2", 0.5), (0.5, 0.5), ("0.5", 0.5), ("0.6", 0.6)])
    def test_builtin_accepts_decimal_text(self, beta, value):
        assert load_builtin_prony(beta) == load_builtin_prony(value)
        assert builtin_beta(beta) == value

    @pytest.mark.parametrize("beta", ["0.4", "nan", "one half", None])
    def test_unsupported_beta_text_raises_key_error(self, beta):
        with pytest.raises(KeyError, match="3/7"):
            load_builtin_prony(beta)

    def test_unsupported_beta_lists_supported_values(self):
        with pytest.raises(KeyError) as raised:
            load_builtin_prony(0.9)
        for key, value in BUILTIN_BETAS.items():
            assert f"{key} ({value:.6g})" in str(raised.value)

    def test_eval_at_zero_is_exact_weight_sum(self):
        k = load_builtin_prony("1/2")
        assert prony_eval(k, 0.0) == 1.0

    def test_eval_at_one_matches_high_precision_oracle(self):
        k = load_builtin_prony("1/2")
        assert prony_eval(k, 1.0) == pytest.approx(PRONY_HALF_AT_ONE, abs=1e-15)

    def test_constant_kernel(self):
        k = PronySeries((1.0,), (0.0,))
        for t in (0.0, 0.5, 100.0):
            assert prony_eval(k, t) == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            prony_eval(load_builtin_prony("1/2"), -0.1)

    @pytest.mark.parametrize("t", [math.nan, [0.5, math.nan], np.array([[1.0], [-0.1]])])
    def test_nan_or_negative_time_rejected(self, t):
        with pytest.raises(ValueError, match="t >= 0"):
            prony_eval(load_builtin_prony("1/2"), t)
        with pytest.raises(ValueError, match="t >= 0"):
            analytic_eval(StretchedExponential(0.5), t)

    def test_list_of_times_gives_an_array(self):
        k, analytic = load_builtin_prony("1/2"), StretchedExponential(0.5)
        for evaluate, kernel in ((prony_eval, k), (analytic_eval, analytic)):
            values = evaluate(kernel, [0.5, 1.0])
            assert isinstance(values, np.ndarray) and values.shape == (2,)
            # a vector product may round apart from a scalar's
            np.testing.assert_allclose(values, [evaluate(kernel, 0.5), evaluate(kernel, 1.0)],
                                       rtol=1e-15)
            assert evaluate(kernel, [[0.0]]).shape == (1, 1)
            for scalar in (1.0, np.float64(1.0), np.array(1.0)):  # 0-d: a float
                assert type(evaluate(kernel, scalar)) is float

    def test_negative_weight_rejected_at_construction(self):
        with pytest.raises(ValueError, match="weight"):
            PronySeries((-1.0,), (1.0,))

    def test_negative_rate_rejected_at_construction(self):
        with pytest.raises(ValueError, match="rate"):
            PronySeries((1.0,), (-1.0,))

    @pytest.mark.parametrize(
        "weights, rates, what",
        [
            ((math.inf,), (1.0,), "weight"),
            ((1.0,), (math.inf,), "rate"),
            ((math.nan,), (1.0,), "weight"),
        ],
    )
    def test_non_finite_coefficient_rejected_at_construction(self, weights, rates, what):
        with pytest.raises(ValueError, match=f"{what} .* must be finite"):
            PronySeries(weights, rates)

    def test_terms_sorted_by_ascending_rate(self):
        k = PronySeries((1.0, 2.0), (5.0, 1.0))
        assert k.rates == (1.0, 5.0)
        assert k.weights == (2.0, 1.0)


prony_series_strategy = st.integers(1, 6).flatmap(
    lambda m: st.tuples(
        st.lists(st.floats(1e-3, 10.0), min_size=m, max_size=m),
        st.lists(st.floats(0.0, 100.0), min_size=m, max_size=m),
    )
).map(lambda wb: PronySeries(tuple(wb[0]), tuple(wb[1])))


class TestPronyProperties:
    # t is kept small enough that exp(-b*t) cannot underflow to zero
    @given(prony_series_strategy, st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @example(  # zero rates: the dot at t = 1 once exceeded the fsum at t = 0
        PronySeries(
            (1.1853293545092898, 1.9, 1.3176701243641697, 1.7783210946579682, 10.0),
            (0.0,) * 5,
        ),
        0.0,
        1.0,
    )
    def test_monotone_nonincreasing_and_bounded(self, series, t1, t2):
        lo, hi = sorted((t1, t2))
        v_lo, v_hi = prony_eval(series, lo), prony_eval(series, hi)
        assert 0.0 < v_hi <= v_lo
        # the value at 0 is computed by exact summation, so allow rounding
        # slack against the exp-based evaluation
        assert v_lo <= series.total_weight * (1 + 1e-12)
        assert prony_eval(series, 0.0) == series.total_weight


class TestAnalyticKernels:
    def test_stretched_at_zero(self):
        assert analytic_eval(StretchedExponential(0.5), 0.0) == 1.0

    def test_stretched_at_four(self):
        assert analytic_eval(StretchedExponential(0.5), 4.0) == pytest.approx(
            math.exp(-2.0), rel=1e-15
        )

    def test_beta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            StretchedExponential(1.0)
        with pytest.raises(ValueError):
            StretchedExponential(0.0)


class TestKernelSupError:
    def test_half_regression_value(self):
        report = kernel_sup_error(
            StretchedExponential(0.5), load_builtin_prony("1/2"),
            window=(0.1, 10.0), samples=1000,
        )
        assert report.sup_error == pytest.approx(SUP_ERROR_HALF, abs=1e-12)

    def test_three_fifths_regression_value(self):
        report = kernel_sup_error(
            StretchedExponential(0.6), load_builtin_prony("3/5"),
            window=(0.1, 10.0), samples=1000,
        )
        assert report.sup_error == pytest.approx(SUP_ERROR_THREE_FIFTHS, abs=1e-12)

    def test_sup_is_max_of_pointwise(self):
        report = kernel_sup_error(
            StretchedExponential(0.5), load_builtin_prony("1/2")
        )
        assert report.sup_error == np.max(np.abs(report.errors))

    def test_error_peaks_in_left_half_of_window(self):
        report = kernel_sup_error(
            StretchedExponential(0.5), load_builtin_prony("1/2"),
            window=(0.1, 10.0), samples=1000,
        )
        t_peak = report.times[np.argmax(np.abs(report.errors))]
        assert t_peak < 1.0  # geometric midpoint of [0.1, 10]

    def test_sign_convention_is_prony_minus_analytic(self):
        analytic = StretchedExponential(0.5)
        prony = PronySeries((0.5,), (1.0,))  # 0.5 exp(-t) < exp(-t**0.5) for t > 0
        report = kernel_sup_error(analytic, prony, window=(0.5, 2.0), samples=10)
        expected = prony_eval(prony, report.times) - analytic_eval(analytic, report.times)
        np.testing.assert_allclose(report.errors, expected, rtol=0, atol=0)
        assert np.all(report.errors < 0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            kernel_sup_error(
                StretchedExponential(0.5), load_builtin_prony("1/2"), window=(1.0, 1.0)
            )


class TestPronyFromFile:
    def test_single_constant_row(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("1.0,0.0\n")
        assert prony_from_file(path) == PronySeries((1.0,), (0.0,))

    def test_roundtrip_matches_builtin(self, tmp_path):
        builtin = load_builtin_prony("1/2")
        path = tmp_path / "half.csv"
        lines = ["a,b"] + [f"{a},{b}" for a, b in zip(builtin.weights, builtin.rates)]
        path.write_text("\n".join(lines) + "\n")
        assert prony_from_file(path) == builtin

    def test_comments_and_header_skipped(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("# fitted coefficients\na,b\n2.0,1.5\n")
        assert prony_from_file(path) == PronySeries((2.0,), (1.5,))

    def test_negative_weight_names_row(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("1.0,0.0\n-0.5,1.0\n")
        with pytest.raises(KernelFormatError, match=":2"):
            prony_from_file(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("1.0,2.0\nnot-a-number,1.0\n")
        with pytest.raises(KernelFormatError, match=":2"):
            prony_from_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("# nothing here\n")
        with pytest.raises(KernelFormatError, match="no coefficient rows"):
            prony_from_file(path)
