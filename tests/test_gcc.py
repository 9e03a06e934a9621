"""Tests for the flag space and the analytical compiler model."""

import pytest

from repro.gcc.compiler import Compiler
from repro.gcc.flags import (
    COBAYN_SPACE_SIZE,
    Flag,
    FlagConfiguration,
    OptLevel,
    cobayn_space,
    paper_custom_flags,
    parse_label,
    standard_levels,
)
from repro.gcc.passes import CodegenEffect, build_effect, residual
from repro.polybench.suite import load
from repro.polybench.workload import profile_kernel


@pytest.fixture(scope="module")
def p2mm():
    return profile_kernel(load("2mm"))


@pytest.fixture(scope="module")
def pjacobi():
    return profile_kernel(load("jacobi-2d"))


@pytest.fixture(scope="module")
def pnussinov():
    return profile_kernel(load("nussinov"))


class TestFlagSpace:
    def test_four_standard_levels(self):
        labels = [config.label for config in standard_levels()]
        assert labels == ["-Os", "-O1", "-O2", "-O3"]

    def test_cobayn_space_is_128(self):
        space = cobayn_space()
        assert len(space) == COBAYN_SPACE_SIZE
        assert len(set(space)) == COBAYN_SPACE_SIZE

    def test_cobayn_space_bases(self):
        levels = {config.level for config in cobayn_space()}
        assert levels == {OptLevel.O2, OptLevel.O3}

    def test_label_format(self):
        config = FlagConfiguration(OptLevel.O2, frozenset({Flag.NO_IVOPTS}))
        assert config.label == "-O2 -fno-ivopts"

    def test_pragma_text_matches_paper_example(self):
        config = FlagConfiguration(
            OptLevel.O2, frozenset({Flag.NO_INLINE_FUNCTIONS})
        )
        assert config.pragma_text == 'GCC optimize ("O2,no-inline-functions")'

    def test_mangled_is_identifier_safe(self):
        for config in cobayn_space():
            assert config.mangled.replace("_", "a").isalnum()

    def test_parse_label_round_trip(self):
        for config in cobayn_space()[:20]:
            assert parse_label(config.label) == config

    def test_parse_label_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_label("-O2 -fmystery-flag")

    def test_parse_label_requires_level(self):
        with pytest.raises(ValueError):
            parse_label("-fno-ivopts")

    def test_paper_custom_flags_match_figure4_caption(self):
        cf1, cf2, cf3, cf4 = paper_custom_flags()
        assert cf1.level is OptLevel.O3
        assert Flag.NO_IVOPTS in cf1.flags and len(cf1.flags) == 4
        assert cf2.flags == frozenset({Flag.NO_INLINE_FUNCTIONS, Flag.UNROLL_ALL_LOOPS})
        assert Flag.UNSAFE_MATH in cf3.flags
        assert cf4.flags == frozenset({Flag.NO_INLINE_FUNCTIONS})

    def test_configuration_hashable_and_label_sortable(self):
        space = cobayn_space()
        assert sorted(space, key=lambda config: config.label)
        assert len({hash(config) for config in space}) == len(space)


class TestPassModels:
    def test_residual_deterministic_and_bounded(self):
        value = residual("2mm", "unroll-all-loops")
        assert value == residual("2mm", "unroll-all-loops")
        assert 0.96 <= value <= 1.04

    def test_residual_differs_across_kernels(self):
        assert residual("2mm", "x") != residual("3mm", "x")

    def test_levels_monotone_for_scalar_code(self, pnussinov):
        # nussinov never vectorizes: O3 >= O2 >= O1 >= Os scalar rates
        rates = {}
        for level in OptLevel:
            effect = build_effect(pnussinov, FlagConfiguration(level))
            rates[level] = effect.fp_rate
        assert rates[OptLevel.O3] > rates[OptLevel.O2] > rates[OptLevel.O1]

    def test_o3_vectorizes_non_reduction_kernel(self, pjacobi):
        effect = build_effect(pjacobi, FlagConfiguration(OptLevel.O3))
        assert effect.vectorizable
        assert effect.vector_width == 4.0

    def test_o3_does_not_vectorize_reduction_without_unsafe_math(self, p2mm):
        effect = build_effect(p2mm, FlagConfiguration(OptLevel.O3))
        assert not effect.vectorizable

    def test_unsafe_math_unlocks_reduction_vectorization(self, p2mm):
        config = FlagConfiguration(OptLevel.O3, frozenset({Flag.UNSAFE_MATH}))
        effect = build_effect(p2mm, config)
        assert effect.vectorizable

    def test_o2_never_vectorizes(self, pjacobi):
        config = FlagConfiguration(OptLevel.O2, frozenset({Flag.UNSAFE_MATH}))
        effect = build_effect(pjacobi, config)
        assert not effect.vectorizable

    def test_no_inline_hurts_call_dense_kernel(self, pnussinov):
        base = build_effect(pnussinov, FlagConfiguration(OptLevel.O2))
        noinline = build_effect(
            pnussinov,
            FlagConfiguration(OptLevel.O2, frozenset({Flag.NO_INLINE_FUNCTIONS})),
        )
        assert noinline.call_cost > base.call_cost

    def test_unroll_shrinks_loop_control(self, p2mm):
        base = build_effect(p2mm, FlagConfiguration(OptLevel.O2))
        unrolled = build_effect(
            p2mm, FlagConfiguration(OptLevel.O2, frozenset({Flag.UNROLL_ALL_LOOPS}))
        )
        assert unrolled.int_rate > base.int_rate
        assert unrolled.code_size > base.code_size

    def test_os_smallest_code(self, p2mm):
        sizes = {
            level: build_effect(p2mm, FlagConfiguration(level)).code_size
            for level in OptLevel
        }
        assert sizes[OptLevel.OS] == min(sizes.values())
        assert sizes[OptLevel.O3] == max(sizes.values())


class TestCompiler:
    def test_compile_returns_positive_cycles(self, p2mm):
        compiler = Compiler()
        kernel = compiler.compile(p2mm, FlagConfiguration(OptLevel.O2))
        assert kernel.total_cycles > 0
        assert kernel.serial_cycles + kernel.parallel_cycles == pytest.approx(
            kernel.total_cycles
        )

    def test_compile_is_memoized(self, p2mm):
        compiler = Compiler()
        config = FlagConfiguration(OptLevel.O2)
        kernel = compiler.compile(p2mm, config)
        assert compiler.compile(p2mm, config) is kernel
        compiler._cache.clear()
        recompiled = compiler.compile(p2mm, config)
        assert recompiled is not kernel and recompiled == kernel
        assert recompiled.total_cycles > 0

    def test_vectorized_version_fewer_cycles(self, p2mm):
        compiler = Compiler()
        plain = compiler.compile(p2mm, FlagConfiguration(OptLevel.O3))
        vectorized = compiler.compile(
            p2mm, FlagConfiguration(OptLevel.O3, frozenset({Flag.UNSAFE_MATH}))
        )
        assert vectorized.total_cycles < plain.total_cycles
        assert vectorized.vector_width == 4.0

    def test_parallel_fraction_preserved(self, p2mm):
        compiler = Compiler()
        kernel = compiler.compile(p2mm, FlagConfiguration(OptLevel.O2))
        assert kernel.parallel_cycles / kernel.total_cycles == pytest.approx(
            p2mm.parallel_fraction
        )

    def test_best_worst_spread_is_sane(self, p2mm):
        # iterative-compilation literature reports <= ~4x total spread
        compiler = Compiler()
        cycles = [
            compiler.compile(p2mm, config).total_cycles for config in cobayn_space()
        ]
        assert max(cycles) / min(cycles) < 6.0

    def test_power_intensity_higher_at_o3(self, p2mm):
        compiler = Compiler()
        o1 = compiler.compile(p2mm, FlagConfiguration(OptLevel.O1))
        o3 = compiler.compile(p2mm, FlagConfiguration(OptLevel.O3))
        assert o3.power_intensity > o1.power_intensity

    def test_different_kernels_prefer_different_flags(self):
        # the key premise of COBAYN: the best combination is per-kernel
        compiler = Compiler()
        winners = {}
        for name in ("2mm", "jacobi-2d", "nussinov", "syrk"):
            profile = profile_kernel(load(name))
            best = min(
                cobayn_space(),
                key=lambda config: compiler.compile(profile, config).total_cycles,
            )
            winners[name] = best.label
        assert len(set(winners.values())) >= 2


def _reference_label(config):
    """The label formula: the level, then the flags sorted by value."""
    parts = [config.level.gcc_name]
    parts.extend(flag.gcc_name for flag in sorted(config.flags, key=lambda f: f.value))
    return " ".join(parts)


_ALL_CONFIGS = standard_levels() + cobayn_space()


class TestLabelPins:
    """``label`` is a cache key everywhere (compile cache, engine point
    keys, knowledge-base knobs): it must stay the reference string on
    every copy of a configuration, and reading it must not change the
    configuration's identity."""

    def test_one_label_per_distinct_configuration(self):
        # -O2 and -O3 are both standard levels and COBAYN points
        assert len(_ALL_CONFIGS) == 132
        assert len(set(_ALL_CONFIGS)) == 130
        assert len({config.label for config in _ALL_CONFIGS}) == 130

    @pytest.mark.parametrize("read_first", [False, True])
    def test_label_survives_copies_and_round_trips(self, read_first):
        import copy
        import pickle

        for template in _ALL_CONFIGS:
            config = FlagConfiguration(template.level, frozenset(template.flags))
            if read_first:
                config.label
            expected = _reference_label(template)
            copies = [pickle.loads(pickle.dumps(config)), copy.deepcopy(config)]
            assert config == template and hash(config) == hash(template)
            assert hash(config) == hash((template.level, template.flags))
            assert repr(config) == repr(template)
            assert config.label == expected and str(config) == expected
            for copied in copies:
                assert copied == config and hash(copied) == hash(config)
                assert copied.label == expected
            parsed = parse_label(config.label)
            assert parsed == config and hash(parsed) == hash(config)
            assert parsed.label == expected
