"""Width-bound verifiers and function-preserving chain constructions."""

import math

import numpy as np
import pytest

from attnsearch.theory import (ResNetChain, Thm1Instance, chi_square_tail,
                               embed_as_subnetwork, extend_network,
                               gammainc_upper_regularized,
                               min_row_zeroing_error, thm1_monte_carlo,
                               thm1_width_bound)


def chi2_tail_even_dof(dof, t):
    """Independent series for even dof: exp(-m) * sum m^i/i!, m = t^2/2."""
    m = t * t / 2.0
    term = math.exp(-m)
    total = term
    for i in range(1, dof // 2):
        term *= m / i
        total += term
    return total


class TestChiSquareTail:
    def test_two_dof_closed_form(self):
        for t in (0.3, 1.0, math.sqrt(2 * math.log(2)), 2.5):
            assert abs(chi_square_tail(2, t) - math.exp(-t * t / 2)) < 1e-10

    def test_exponential_special_point(self):
        # chi^2(2) is exponential: tail at t^2 = 2 ln 2 is exactly 1/2
        assert abs(chi_square_tail(2, math.sqrt(2 * math.log(2))) - 0.5) < 1e-12

    def test_one_dof_against_erfc(self):
        for t in (0.5, 1.0, 2.0, 3.0):
            expected = math.erfc(t / math.sqrt(2))
            assert abs(chi_square_tail(1, t) - expected) < 1e-12

    def test_three_dof_closed_form(self):
        # tail(3, t) = erfc(t/sqrt(2)) + t*sqrt(2/pi)*exp(-t^2/2)
        for t in (0.5, 1.3, 2.2):
            expected = math.erfc(t / math.sqrt(2)) \
                + t * math.sqrt(2 / math.pi) * math.exp(-t * t / 2)
            assert abs(chi_square_tail(3, t) - expected) < 1e-12

    def test_even_dofs_against_series(self):
        for dof in (4, 6, 8, 10):
            for t in (0.4, 1.1, 2.7):
                assert abs(chi_square_tail(dof, t)
                           - chi2_tail_even_dof(dof, t)) < 1e-12

    def test_strictly_decreasing_in_threshold(self):
        vals = [chi_square_tail(5, t) for t in np.linspace(0.1, 5, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_open_unit_interval(self):
        # float64 saturates to 1.0 once the lower tail drops under ~1e-16,
        # so probe thresholds keep the complement representable
        for dof in (1, 3, 9):
            for t in (0.2, 1.0, 6.0):
                assert 0.0 < chi_square_tail(dof, t) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_square_tail(0, 1.0)
        with pytest.raises(ValueError):
            chi_square_tail(3, 0.0)

    def test_gammainc_edges(self):
        assert gammainc_upper_regularized(2.0, 0.0) == 1.0
        with pytest.raises(ValueError):
            gammainc_upper_regularized(-1.0, 2.0)


class TestWidthBound:
    def test_small_dimension_example(self):
        # tail(1, 1) ~ 0.3173; ln(0.05)/ln(0.3173) ~ 2.61 -> next integer 3
        assert thm1_width_bound(2, 1.0, 0.05, "literal") == 3

    def test_delta_near_one_needs_single_neuron(self):
        assert thm1_width_bound(4, 1.0, 1 - 1e-12, "literal") == 1

    def test_nonincreasing_in_epsilon(self):
        bounds = [thm1_width_bound(6, eps, 0.1, "literal") for eps in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_strict_inequality_on_integer_ratio(self):
        # when ln(delta)/ln(tail) is an exact integer k, need k+1
        tail = chi_square_tail(1, 1.0)
        delta = tail ** 3
        assert thm1_width_bound(2, 1.0, delta, "literal") == 4

    def test_corrected_exceeds_literal_for_small_thresholds(self):
        lit = thm1_width_bound(8, 0.5, 0.1, "literal")
        cor = thm1_width_bound(8, 0.5, 0.1, "corrected")
        assert cor > lit > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            thm1_width_bound(1, 1.0, 0.1, "literal")
        with pytest.raises(ValueError):
            thm1_width_bound(4, 1.0, 1.5, "literal")
        with pytest.raises(ValueError):
            thm1_width_bound(4, -1.0, 0.1, "literal")


def zeroing_error_bruteforce(inst, j):
    """Loop re-evaluation of both nets at every probe."""
    worst = 0.0
    for x in inst.probes:
        full = sum(inst.w2[s] * max(float(inst.w1[s] @ x), 0.0)
                   for s in range(inst.hidden_width))
        cut = sum(inst.w2[s] * max(float(inst.w1[s] @ x), 0.0)
                  for s in range(inst.hidden_width) if s != j)
        worst = max(worst, abs(full - cut))
    return worst


class TestRowZeroing:
    def test_exactly_zero_row_gives_zero_error(self):
        rng = np.random.default_rng(0)
        inst = Thm1Instance.draw(4, 10, 20, rng)
        inst.w1[3] = 0.0
        j, measured, bound = min_row_zeroing_error(inst)
        assert j == 3 and measured == 0.0 and bound == 0.0

    def test_matches_bruteforce_dual_evaluation(self):
        rng = np.random.default_rng(1)
        inst = Thm1Instance.draw(8, 32, 100, rng)
        j, measured, _ = min_row_zeroing_error(inst)
        assert abs(measured - zeroing_error_bruteforce(inst, j)) < 1e-12

    def test_proof_bound_dominates_measured(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            inst = Thm1Instance.draw(6, 24, 30, rng)
            _, measured, bound = min_row_zeroing_error(inst)
            assert measured <= bound

    def test_sign_vector_has_unit_entries(self):
        inst = Thm1Instance.draw(5, 12, 10, np.random.default_rng(3))
        assert np.all(np.abs(inst.w2) == 1.0)
        assert abs(np.linalg.norm(inst.w2) - math.sqrt(12)) < 1e-12

    def test_probe_norms_at_most_one(self):
        inst = Thm1Instance.draw(7, 9, 200, np.random.default_rng(4))
        assert np.linalg.norm(inst.probes, axis=1).max() <= 1.0 + 1e-12

    def test_needs_probes(self):
        inst = Thm1Instance.draw(4, 8, 1, np.random.default_rng(5))
        inst.probes = inst.probes[:0]
        with pytest.raises(ValueError):
            min_row_zeroing_error(inst)


class TestMonteCarlo:
    def test_huge_epsilon_never_fails(self):
        rng = np.random.default_rng(6)
        out = thm1_monte_carlo(4, 50.0, 0.2, 100, rng, "corrected")
        assert out["failure_rate"] == 0.0 and out["passed"]

    def test_corrected_convention_respects_band(self):
        rng = np.random.default_rng(7)
        out = thm1_monte_carlo(4, 1.0, 0.2, 400, rng, "corrected")
        assert out["passed"], out

    def test_literal_convention_breaks_band_when_dof_matters(self):
        # the proof treats a d-entry row as chi^2(d-1); sampling true rows
        # shows the bound is too small at small thresholds
        rng = np.random.default_rng(8)
        out = thm1_monte_carlo(4, 0.8, 0.15, 300, rng, "literal")
        assert out["failure_rate"] > out["band"]

    def test_failure_rate_monotone_in_width(self):
        rng = np.random.default_rng(9)
        m_min = thm1_width_bound(4, 1.0, 0.3, "corrected")
        low = thm1_monte_carlo(4, 1.0, 0.3, 2000, rng, "corrected",
                               m=max(1, m_min - 2))
        high = thm1_monte_carlo(4, 1.0, 0.3, 2000, rng, "corrected",
                                m=2 * m_min)
        assert low["failure_rate"] > high["failure_rate"]

    def test_needs_enough_trials(self):
        with pytest.raises(ValueError):
            thm1_monte_carlo(4, 1.0, 0.1, 50, np.random.default_rng(10), "corrected")

    def test_trials_stop_at_the_first_block_under_the_cutoff(self):
        # 20000 rows span several blocks of 8192 and end on a partial one
        d, eps, trials, m = 4, 0.13, 100, 20000
        rng = np.random.default_rng(11)
        out = thm1_monte_carlo(d, eps, 0.2, trials, rng, "corrected", m=m)
        ref_rng = np.random.default_rng(11)
        failures = rows = 0
        for _ in range(trials):
            drawn = 0
            while drawn < m:
                raw = ref_rng.standard_normal((min(8192, m - drawn), d))
                drawn += len(raw)
                if np.einsum("ij,ij->i", raw, raw).min() < eps * eps:
                    break
            else:
                failures += 1
            rows += drawn
        assert 0 < failures < trials
        assert rows < trials * m
        assert out["failure_rate"] == failures / trials
        assert out["rows_drawn"] == rows
        assert rng.random() == ref_rng.random()  # the same number of draws

    def test_failing_trials_draw_every_row(self):
        # no row falls under a tiny cutoff, so each trial draws one m x d stream
        d, trials, m = 4, 100, 10000
        rng = np.random.default_rng(12)
        out = thm1_monte_carlo(d, 1e-6, 0.2, trials, rng, "corrected", m=m)
        ref_rng = np.random.default_rng(12)
        for _ in range(trials):
            raw = ref_rng.standard_normal((m, d))
            assert np.einsum("ij,ij->i", raw, raw).min() >= 1e-12
        assert out["failure_rate"] == 1.0
        assert out["rows_drawn"] == trials * m
        assert rng.random() == ref_rng.random()

    def test_failure_rate_within_three_sigma_of_the_exact_probability(self):
        # P(fail) = P(chi^2(4) >= eps^2)^m, about 0.3 over three blocks of rows
        d, eps, trials, m = 4, 0.148, 2000, 20000
        exact = chi_square_tail(d, eps) ** m
        assert 0.25 < exact < 0.35
        out = thm1_monte_carlo(d, eps, 0.3, trials, np.random.default_rng(13),
                               "corrected", m=m)
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(out["failure_rate"] - exact) <= 3.0 * sigma, (out["failure_rate"], exact)


class TestExtension:
    def test_function_preserved_exactly(self):
        rng = np.random.default_rng(11)
        chain = ResNetChain.random(4, [3, 3, 2], rng)
        extended = extend_network(chain, 5)
        probes = rng.standard_normal((100, 4))
        np.testing.assert_array_equal(extended.forward(probes), chain.forward(probes))

    def test_depth_accounting(self):
        chain = ResNetChain.random(3, [2, 2], np.random.default_rng(12))
        extended = extend_network(chain, 7)
        assert extended.depth == chain.depth + 7
        assert all(not (l.w_in.any() or l.b.any() or l.w_out.any())
                   for l in extended.layers[chain.depth:])

    def test_added_layers_are_gradient_transparent(self):
        rng = np.random.default_rng(13)
        chain = ResNetChain.random(3, [2], rng)
        extended = extend_network(chain, 3)
        x = rng.standard_normal(3)
        eps = 1e-6
        # finite-difference gradients of sum(output) wrt an original weight
        for (i, j) in [(0, 0), (1, 2)]:
            orig = chain.layers[0].w_in[i, j]
            grads = []
            for net in (chain, extended):
                net.layers[0].w_in[i, j] = orig + eps
                up = float(net.forward(x).sum())
                net.layers[0].w_in[i, j] = orig - eps
                down = float(net.forward(x).sum())
                net.layers[0].w_in[i, j] = orig
                grads.append((up - down) / (2 * eps))
            assert abs(grads[0] - grads[1]) < 1e-9

    def test_requires_at_least_one_layer(self):
        chain = ResNetChain.random(3, [2], np.random.default_rng(14))
        with pytest.raises(ValueError):
            extend_network(chain, 0)


class TestEmbedding:
    def test_identity_chain_embeds_exactly(self):
        narrow = ResNetChain(3, [])
        narrow.layers = [l for l in
                         ResNetChain.random(3, [2], np.random.default_rng(15)).layers]
        for l in narrow.layers:
            l.w_in[...] = 0.0
            l.b[...] = 0.0
            l.w_out[...] = 0.0
        wide, masks = embed_as_subnetwork(narrow, 6, np.random.default_rng(16))
        x = np.random.default_rng(17).standard_normal((20, 3))
        np.testing.assert_array_equal(wide.forward(x, masks), x)

    def test_random_chain_embeds_to_tolerance(self):
        rng = np.random.default_rng(18)
        narrow = ResNetChain.random(5, [4, 3, 4], rng)
        wide, masks = embed_as_subnetwork(narrow, 9, rng)
        probes = rng.standard_normal((100, 5))
        gap = np.abs(wide.forward(probes, masks) - narrow.forward(probes)).max()
        assert gap <= 1e-12

    def test_unmasked_wide_chain_differs(self):
        rng = np.random.default_rng(19)
        narrow = ResNetChain.random(4, [3], rng)
        wide, _ = embed_as_subnetwork(narrow, 8, rng)
        probes = rng.standard_normal((50, 4))
        assert np.abs(wide.forward(probes) - narrow.forward(probes)).max() > 1e-6

    def test_width_must_exceed_narrow(self):
        narrow = ResNetChain.random(4, [4], np.random.default_rng(20))
        with pytest.raises(ValueError):
            embed_as_subnetwork(narrow, 4, np.random.default_rng(21))
