"""Tests for the Polybench suite: sources, references and profiles."""

import numpy as np
import pytest

from repro.cir import logical_lines, parse, to_source
from repro.polybench.suite import BENCHMARK_NAMES, all_apps, load
from repro.polybench.workload import (
    WorkloadAnalysisError,
    bound_environment,
    profile_kernel,
)

SCALE = 0.02  # tiny datasets for functional checks


@pytest.fixture(scope="module")
def profiles():
    return {app.name: profile_kernel(app) for app in all_apps()}


class TestRegistry:
    def test_twelve_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 12
        assert len(all_apps()) == 12

    def test_table1_order(self):
        assert BENCHMARK_NAMES[0] == "2mm"
        assert BENCHMARK_NAMES[-1] == "syrk"

    def test_load_by_name(self):
        assert load("atax").name == "atax"

    def test_load_unknown_raises_with_names(self):
        with pytest.raises(KeyError) as exc:
            load("gemm")
        assert "2mm" in str(exc.value)


class TestSources:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_parses(self, name):
        unit = load(name).parse()
        assert unit.functions()

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_round_trips(self, name):
        app = load(name)
        printed = to_source(app.parse())
        assert to_source(parse(printed)) == printed
        assert all(kernel in printed for kernel in app.kernels)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_kernel_function_exists(self, name):
        app = load(name)
        unit = app.parse()
        for kernel in app.kernels:
            assert unit.has_function(kernel)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_has_main_and_omp(self, name):
        app = load(name)
        unit = app.parse()
        assert unit.has_function("main")
        assert "#pragma omp parallel for" in to_source(unit)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_realistic_logical_size(self, name):
        loc = logical_lines(load(name).parse())
        assert 30 <= loc <= 200  # paper's O-LOC range is 47..145

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_sizes_match_macros(self, name):
        app = load(name)
        env = bound_environment(app.parse())
        for macro, value in app.sizes.items():
            assert env[macro] == value


class TestReferences:
    """Functional validation of the numpy reference implementations."""

    def _inputs(self, name, seed=7):
        app = load(name)
        return app, app.make_inputs(np.random.default_rng(seed), SCALE)

    def test_2mm_matches_manual(self):
        app, inputs = self._inputs("2mm")
        out = app.reference(inputs)
        expected = inputs["beta"] * inputs["D"] + (
            inputs["alpha"] * inputs["A"] @ inputs["B"]
        ) @ inputs["C"]
        np.testing.assert_allclose(out["D"], expected)

    def test_3mm_is_composition(self):
        app, inputs = self._inputs("3mm")
        out = app.reference(inputs)
        np.testing.assert_allclose(out["G"], out["E"] @ out["F"])

    def test_atax_identity(self):
        app, inputs = self._inputs("atax")
        out = app.reference(inputs)
        np.testing.assert_allclose(out["y"], inputs["A"].T @ (inputs["A"] @ inputs["x"]))

    def test_correlation_diagonal_is_one(self):
        app, inputs = self._inputs("correlation")
        corr = app.reference(inputs)["corr"]
        np.testing.assert_allclose(np.diag(corr), 1.0)

    def test_correlation_symmetric_and_bounded(self):
        app, inputs = self._inputs("correlation")
        corr = app.reference(inputs)["corr"]
        np.testing.assert_allclose(corr, corr.T, atol=1e-12)
        assert np.all(np.abs(corr) <= 1.0 + 1e-9)

    def test_doitgen_slicewise_matmul(self):
        app, inputs = self._inputs("doitgen")
        out = app.reference(inputs)["A"]
        np.testing.assert_allclose(out[0], inputs["A"][0] @ inputs["C4"])

    def test_gemver_manual(self):
        app, inputs = self._inputs("gemver")
        out = app.reference(inputs)
        a_hat = (
            inputs["A"]
            + np.outer(inputs["u1"], inputs["v1"])
            + np.outer(inputs["u2"], inputs["v2"])
        )
        x = inputs["beta"] * (a_hat.T @ inputs["y"]) + inputs["z"]
        np.testing.assert_allclose(out["x"], x)
        np.testing.assert_allclose(out["w"], inputs["alpha"] * (a_hat @ x))

    def test_jacobi_2d_preserves_boundary(self):
        app, inputs = self._inputs("jacobi-2d")
        out = app.reference(inputs)
        np.testing.assert_allclose(out["A"][0, :], inputs["A"][0, :])
        np.testing.assert_allclose(out["A"][:, -1], inputs["A"][:, -1])

    def test_jacobi_2d_smooths_a_spike(self):
        app = load("jacobi-2d")
        a = np.zeros((9, 9))
        a[4, 4] = 100.0
        out = app.reference({"A": a, "B": np.zeros((9, 9)), "tsteps": np.int64(2)})
        assert out["A"].max() < 100.0
        assert out["A"][3, 4] > 0.0  # the spike diffused to neighbours

    def test_mvt_identity(self):
        app, inputs = self._inputs("mvt")
        out = app.reference(inputs)
        np.testing.assert_allclose(out["x1"], inputs["x1"] + inputs["A"] @ inputs["y1"])
        np.testing.assert_allclose(out["x2"], inputs["x2"] + inputs["A"].T @ inputs["y2"])

    def test_nussinov_monotone_triangular(self):
        app, inputs = self._inputs("nussinov")
        table = app.reference(inputs)["table"]
        n = table.shape[0]
        # scores grow with subsequence length and the lower triangle stays 0
        assert table[0, n - 1] == table.max()
        assert np.all(table[np.tril_indices(n, -1)] == 0)

    def test_nussinov_pairs_counted(self):
        app = load("nussinov")
        # bases 0 and 3 pair (0+3==3) but only across a gap (i < j-1),
        # so [0, x, 3] scores one pair while [0, 3] scores none
        table_gap = app.reference({"seq": np.array([0, 1, 3])})["table"]
        assert table_gap[0, 2] == 1
        table_adjacent = app.reference({"seq": np.array([0, 3])})["table"]
        assert table_adjacent[0, 1] == 0

    def test_seidel_2d_averages_neighbourhood(self):
        app = load("seidel-2d")
        a = np.zeros((5, 5))
        a[2, 2] = 9.0
        out = app.reference({"A": a, "tsteps": np.int64(1)})["A"]
        # the first interior update (1,1) sees the original zeros plus
        # nothing; (2,2) averages its own value into the neighbourhood
        assert out[2, 2] < 9.0
        assert out[2, 2] > 0.0

    def test_syr2k_lower_triangle_updated(self):
        app, inputs = self._inputs("syr2k")
        out = app.reference(inputs)["C"]
        n = out.shape[0]
        upper = np.triu_indices(n, 1)
        np.testing.assert_allclose(out[upper], inputs["C"][upper])

    def test_syr2k_matches_blas_definition(self):
        app, inputs = self._inputs("syr2k")
        out = app.reference(inputs)["C"]
        full = inputs["alpha"] * (
            inputs["A"] @ inputs["B"].T + inputs["B"] @ inputs["A"].T
        ) + inputs["beta"] * inputs["C"]
        lower = np.tril_indices(out.shape[0])
        np.testing.assert_allclose(out[lower], full[lower])

    def test_syrk_matches_blas_definition(self):
        app, inputs = self._inputs("syrk")
        out = app.reference(inputs)["C"]
        full = inputs["alpha"] * (inputs["A"] @ inputs["A"].T) + inputs["beta"] * inputs["C"]
        lower = np.tril_indices(out.shape[0])
        np.testing.assert_allclose(out[lower], full[lower])

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_reference_is_deterministic(self, name):
        app = load(name)
        inputs = app.make_inputs(np.random.default_rng(3), SCALE)
        out1 = app.reference(inputs)
        out2 = app.reference(inputs)
        for key in out1:
            np.testing.assert_array_equal(out1[key], out2[key])

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_make_inputs_seeded(self, name):
        app = load(name)
        a = app.make_inputs(np.random.default_rng(5), SCALE)
        b = app.make_inputs(np.random.default_rng(5), SCALE)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])


class TestWorkloadProfiles:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_profiles_compute(self, name, profiles):
        profile = profiles[name]
        assert profile.flops > 0
        assert profile.working_set_bytes > 0
        assert 0.0 <= profile.parallel_fraction <= 1.0

    def test_2mm_flops_scale(self, profiles):
        # 2mm does ~2*(NI*NJ*NK + NI*NL*NJ) multiply-adds plus scaling:
        # the AST-derived count must land in that ballpark
        p = profiles["2mm"]
        analytic = 3 * (800 * 900 * 1100) + 2 * (800 * 1200 * 900)
        assert 0.5 * analytic <= p.flops <= 2.0 * analytic

    def test_dependence_detected_for_stencil_dp(self, profiles):
        assert profiles["seidel-2d"].loop_carried_dependence
        assert profiles["nussinov"].loop_carried_dependence

    def test_no_false_dependence(self, profiles):
        for name in ("2mm", "3mm", "atax", "doitgen", "gemver", "jacobi-2d", "mvt"):
            assert not profiles[name].loop_carried_dependence, name

    def test_reductions_detected(self, profiles):
        for name in ("2mm", "3mm", "atax", "correlation", "gemver", "mvt"):
            assert profiles[name].reduction_innermost, name

    def test_non_reduction_kernels(self, profiles):
        for name in ("jacobi-2d", "seidel-2d", "syrk", "syr2k"):
            assert not profiles[name].reduction_innermost, name

    def test_jacobi_region_count_scales_with_tsteps(self, profiles):
        assert profiles["jacobi-2d"].parallel_regions == 2 * 500

    def test_triangular_estimates_halved(self, profiles):
        # syrk's j loop runs to i, so total flops are about half of a
        # full square sweep (2 fp ops per innermost iteration)
        syrk = profiles["syrk"]
        full_square = 2 * 1200 * 1000 * 1200  # if j ran to n every time
        assert 0.3 * full_square < syrk.flops < 0.75 * full_square

    def test_working_set_counts_referenced_arrays_only(self, profiles):
        # atax arrays: A (M*N) + x + y (N) + tmp (M) doubles
        expected = 8 * (1900 * 2100 + 2100 + 2100 + 1900)
        assert abs(profiles["atax"].working_set_bytes - expected) < 1e-6

    def test_nussinov_call_heavy(self, profiles):
        assert profiles["nussinov"].call_density > 0.01

    def test_unknown_bound_raises(self):
        from repro.polybench.apps.base import BenchmarkApp

        source = """
void kernel_x(int n) {
  int i;
#pragma omp parallel for
  for (i = 0; i < unknown; i++)
    x = i;
}
"""
        app = BenchmarkApp(
            name="x",
            source=source,
            kernels=("kernel_x",),
            sizes={},
            make_inputs=lambda rng, scale: {},
            reference=lambda inputs: {},
        )
        with pytest.raises(WorkloadAnalysisError):
            profile_kernel(app)

    def test_scaled_sizes_minimum(self):
        app = load("2mm")
        sizes = app.scaled_sizes(0.0001)
        assert all(value >= 4 for value in sizes.values())
