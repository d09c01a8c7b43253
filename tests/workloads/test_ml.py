"""Tests for the ML workload substrate (framework + the five models)."""

import pytest

from repro.core import characterize
from repro.gpu import RTX_3080
from repro.workloads.ml import (
    DCGANTraining,
    LanguageTranslationTraining,
    NeuralStyleTraining,
    ReinforcementLearningTraining,
    SpatialTransformerTraining,
    TensorSpec,
    Trace,
)
from repro.gpu.kernel import LaunchStream
from repro.workloads.ml import kernels as K
from repro.workloads.ml.layers import (
    LSTM,
    Activation,
    BatchNorm2d,
    Conv2d,
    Linear,
    MaxPool2d,
    Sequential,
)
from repro.workloads.ml.optimizers import SGD, Adam


class TestTensorSpec:
    def test_numel_and_bytes(self):
        t = TensorSpec((2, 3, 4))
        assert t.numel == 24
        assert t.bytes == 96

    def test_reshape_with_wildcard(self):
        t = TensorSpec((2, 3, 4)).reshape(2, -1)
        assert t.shape == (2, 12)

    def test_reshape_rejects_mismatch(self):
        with pytest.raises(ValueError):
            TensorSpec((2, 3)).reshape(4, 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            TensorSpec((0, 3))
        with pytest.raises(ValueError):
            TensorSpec(())


class TestKernelLowering:
    def test_gemm_tile_names_shape_dependent(self):
        small = K.gemm_kernel(16, 16, 64)
        large = K.gemm_kernel(4096, 4096, 4096)
        assert small.name != large.name
        assert small.name.startswith("ampere_sgemm_")

    def test_gemm_flops_counted(self):
        kernel = K.gemm_kernel(128, 128, 128)
        fmas = 128 ** 3
        assert kernel.warp_insts == pytest.approx(fmas * 1.25 / 32)

    def test_gemm_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            K.gemm_kernel(0, 4, 4)

    def test_conv_algorithm_selection(self):
        winograd = K.conv2d_forward_kernel(32, 64, 32, 32, 64, 3, 1)
        assert "winograd" in winograd.name
        implicit = K.conv2d_forward_kernel(32, 64, 32, 32, 64, 4, 2)
        assert "convolve_sgemm" in implicit.name
        pointwise = K.conv2d_forward_kernel(32, 64, 32, 32, 64, 1, 1)
        assert pointwise.name.startswith("ampere_sgemm")

    def test_conv_names_encode_channels(self):
        a = K.conv2d_forward_kernel(32, 64, 32, 32, 64, 4, 2)
        b = K.conv2d_forward_kernel(32, 128, 32, 32, 64, 4, 2)
        assert a.name != b.name

    def test_tiny_conv_uses_explicit_engine(self):
        tiny = K.conv2d_forward_kernel(1, 4, 20, 20, 32, 8, 4)
        assert tiny.name.startswith("explicit_convolve_sgemm")

    def test_compute_kernels_are_compute_intensive(self):
        from repro.gpu import GPUSimulator

        metrics = GPUSimulator().run_kernel(K.gemm_kernel(2048, 2048, 2048))
        assert metrics.instruction_intensity > RTX_3080.roofline_elbow

    def test_streaming_kernels_are_memory_intensive(self):
        from repro.gpu import GPUSimulator

        metrics = GPUSimulator().run_kernel(
            K.elementwise_kernel("relu", 64e6)
        )
        assert metrics.instruction_intensity < RTX_3080.roofline_elbow

    def test_small_working_sets_carry_in_l2(self):
        assert K._carry_in(100_000.0) > K._carry_in(100_000_000.0)


class TestLayersAndAutograd:
    def _run(self, module, shape):
        stream = LaunchStream()
        trace = Trace(stream)
        out = module(trace, TensorSpec(shape))
        trace.backward()
        return out, stream

    def test_conv_shapes_and_backward(self):
        out, stream = self._run(Conv2d(3, 16, 4, stride=2), (8, 3, 32, 32))
        assert out.shape == (8, 16, 16, 16)
        names = " ".join(stream.kernel_names)
        assert "dgrad" in names and "wgrad" in names

    def test_conv_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            self._run(Conv2d(3, 16, 3), (8, 4, 32, 32))

    def test_linear_backward_emits_two_gemms(self):
        _, stream = self._run(Linear(64, 32), (16, 64))
        gemms = [n for n in (l.name for l in stream) if "sgemm" in n]
        assert len(gemms) == 3  # forward + dX + dW

    def test_sequential_parameter_count(self):
        net = Sequential(Conv2d(3, 8, 3), BatchNorm2d(8), Linear(8, 4))
        assert net.parameter_count == (8 * 3 * 9 + 8) + 16 + (8 * 4 + 4)

    def test_no_grad_suppresses_backward(self):
        stream = LaunchStream()
        trace = Trace(stream)
        layer = Activation("relu")
        with trace.no_grad():
            layer(trace, TensorSpec((4, 8)))
        before = len(stream)
        trace.backward()
        assert len(stream) == before

    def test_maxpool_halves_spatial(self):
        out, _ = self._run(MaxPool2d(2), (4, 8, 16, 16))
        assert out.shape == (4, 8, 8, 8)

    def test_lstm_emits_per_step_kernels(self):
        _, stream = self._run(LSTM(32, 64), (5, 8, 32))
        pointwise = [l for l in stream if "lstm_cell" in l.name]
        assert len(pointwise) == 10  # 5 forward + 5 backward steps

    def test_activation_validation(self):
        with pytest.raises(ValueError):
            Activation("swish")


class TestOptimizers:
    def test_adam_six_kernel_sequence(self):
        stream = LaunchStream()
        Adam(1000).step(Trace(stream))
        assert len(stream) == 6

    def test_sgd_three_kernel_sequence(self):
        stream = LaunchStream()
        SGD(1000).step(Trace(stream))
        assert len(stream) == 3

    def test_zero_grad(self):
        stream = LaunchStream()
        SGD(1000).zero_grad(Trace(stream))
        assert stream[0].name == "tensor_apply_zero"

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam(0)


@pytest.fixture(scope="module")
def ml_profiles():
    return {
        w.abbr: characterize(w).profile
        for w in (
            DCGANTraining(scale=1.0, iterations=6),
            NeuralStyleTraining(scale=1.0, iterations=6),
            ReinforcementLearningTraining(scale=1.0, iterations=6),
            SpatialTransformerTraining(scale=1.0, iterations=6),
            LanguageTranslationTraining(scale=1.0, iterations=4),
        )
    }


class TestTableIKernelCounts:
    """The distinct-kernel counts of Table I, matched exactly."""

    @pytest.mark.parametrize(
        "abbr,expected",
        [("DCG", 50), ("NST", 44), ("RFL", 50), ("SPT", 37), ("LGT", 66)],
    )
    def test_kernel_count(self, ml_profiles, abbr, expected):
        assert ml_profiles[abbr].num_kernels == expected

    def test_ml_needs_many_kernels_for_70_percent(self, ml_profiles):
        """Observation #1: a dozen-ish kernels cover 70% for ML apps."""
        for profile in ml_profiles.values():
            assert profile.num_kernels_for_fraction(0.70) >= 6

    def test_lgt_has_largest_menu(self, ml_profiles):
        lgt = ml_profiles["LGT"].num_kernels
        assert all(
            lgt >= p.num_kernels for p in ml_profiles.values()
        )


class TestRooflineShape:
    def test_ml_mostly_memory_intensive(self, ml_profiles):
        """Observation #5: ML apps are memory-side in aggregate, with SPT
        the only exception (close to the boundary)."""
        elbow = RTX_3080.roofline_elbow
        for abbr, profile in ml_profiles.items():
            if abbr == "SPT":
                assert profile.instruction_intensity > elbow * 0.8
            else:
                assert profile.instruction_intensity < elbow

    def test_kernels_span_both_sides(self, ml_profiles):
        """Observation #7: every ML app mixes compute- and
        memory-intensive kernels."""
        elbow = RTX_3080.roofline_elbow
        for profile in ml_profiles.values():
            sides = {
                k.instruction_intensity > elbow for k in profile.kernels
            }
            assert sides == {True, False}

    def test_lgt_dominant_kernel_memory_bound(self, ml_profiles):
        """Observation #7: only LGT's top kernel is memory-intensive."""
        elbow = RTX_3080.roofline_elbow
        assert (
            ml_profiles["LGT"].dominant_kernel.metrics.instruction_intensity
            < elbow
        )

    def test_dominant_kernels_near_memory_roof(self, ml_profiles):
        """Observation #8: several ML dominant kernels are pinned to the
        DRAM-bandwidth roof."""
        near_roof = 0
        for profile in ml_profiles.values():
            for kernel in profile.dominant_kernels:
                roof = (
                    kernel.instruction_intensity * RTX_3080.peak_gtxn_per_s
                )
                if (
                    kernel.instruction_intensity < RTX_3080.roofline_elbow
                    and kernel.gips > 0.6 * roof
                ):
                    near_roof += 1
        assert near_roof >= 3


class TestDeterminismAndScaling:
    def test_same_seed_same_stream(self):
        a = DCGANTraining(scale=0.25, iterations=2).launch_stream()
        b = DCGANTraining(scale=0.25, iterations=2).launch_stream()
        assert [l.name for l in a] == [l.name for l in b]
        assert a.total_warp_insts == b.total_warp_insts

    def test_scale_shrinks_batch_and_work(self):
        full = DCGANTraining(scale=1.0, iterations=2)
        half = DCGANTraining(scale=0.5, iterations=2)
        assert half.batch == full.batch // 2
        assert (
            half.launch_stream().total_warp_insts
            < full.launch_stream().total_warp_insts
        )

    def test_iterations_validation(self):
        with pytest.raises(ValueError):
            DCGANTraining(iterations=0)
