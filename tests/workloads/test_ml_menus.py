"""Kernel-menu regression fingerprints for the five ML models.

The exact kernel menus are the reproduction's Table-I anchor; these
tests freeze the *structural* parts of each menu (family membership
and signature kernels) so a refactor of the lowering layer cannot
silently change what the models launch.
"""

import pytest

from repro.core import characterize
from repro.workloads.ml import (
    DCGANTraining,
    LanguageTranslationTraining,
    NeuralStyleTraining,
    ReinforcementLearningTraining,
    SpatialTransformerTraining,
)


@pytest.fixture(scope="module")
def menus():
    workloads = {
        "DCG": DCGANTraining(scale=1.0, iterations=6),
        "NST": NeuralStyleTraining(scale=1.0, iterations=6),
        "RFL": ReinforcementLearningTraining(scale=1.0, iterations=6),
        "SPT": SpatialTransformerTraining(scale=1.0, iterations=6),
        "LGT": LanguageTranslationTraining(scale=1.0, iterations=4),
    }
    return {
        abbr: {k.name for k in characterize(w).profile.kernels}
        for abbr, w in workloads.items()
    }


def _family(menu, prefix):
    return {name for name in menu if name.startswith(prefix)}


class TestSignatureKernels:
    def test_dcg_signature(self, menus):
        menu = menus["DCG"]
        assert _family(menu, "dgrad2d_alg1")  # ConvTranspose forward
        assert _family(menu, "implicit_convolve_sgemm")
        assert _family(menu, "wgrad_alg0_engine")
        assert _family(menu, "bn_fw_tr_1C11")
        assert "bce_loss_forward" in menu
        assert "vectorized_elementwise_tanh" in menu  # generator output
        assert "vectorized_elementwise_addcdiv" in menu  # unfused Adam

    def test_nst_signature(self, menus):
        menu = menus["NST"]
        assert _family(menu, "ampere_scudnn_winograd")  # 3x3 VGG convs
        assert _family(menu, "winograd_input_transform")
        assert _family(menu, "gram_sgemm")  # style losses
        assert "mse_loss_forward" in menu
        assert "vectorized_elementwise_lbfgs_direction" in menu

    def test_rfl_signature(self, menus):
        menu = menus["RFL"]
        assert _family(menu, "explicit_convolve_sgemm")  # batch-1 acting
        assert "cat_array_batched_replay_gather" in menu
        assert "reduce_argmax" in menu
        assert "cat_array_batched_param_sync" in menu  # target net
        assert "vectorized_elementwise_td_target" in menu

    def test_spt_signature(self, menus):
        menu = menus["SPT"]
        assert "grid_sampler_2d_kernel" in menu
        assert "grid_sampler_2d_backward" in menu
        assert "vectorized_elementwise_affine_grid_generator" in menu
        assert "fused_dropout_kernel" in menu
        assert "vectorized_elementwise_axpy" in menu  # SGD, not Adam

    def test_lgt_signature(self, menus):
        menu = menus["LGT"]
        assert "indexSelectLargeIndex" in menu  # embeddings
        assert "embedding_backward_feature_kernel" in menu
        assert _family(menu, "gemv2T_kernel")  # attention v-dot
        assert _family(menu, "vectorized_elementwise_gru_")  # unfused GRU
        assert "log_softmax_warp_forward" in menu
        assert "vectorized_elementwise_clip_grad_scale" in menu


class TestMenuDisjointness:
    def test_models_have_distinct_identities(self, menus):
        """Each model's menu contains kernels no other model launches."""
        for abbr, menu in menus.items():
            others = set().union(
                *(m for other, m in menus.items() if other != abbr)
            )
            assert menu - others, f"{abbr} has no unique kernels"

    def test_shared_framework_kernels_exist(self, menus):
        """The Adam models share the unfused optimizer kernels."""
        adam_models = [menus[a] for a in ("DCG", "RFL", "LGT")]
        shared = set.intersection(*adam_models)
        assert "vectorized_elementwise_addcmul" in shared

    def test_optimizer_split_matches_models(self, menus):
        # SGD-trained SPT must not launch Adam kernels.
        assert "vectorized_elementwise_addcdiv" not in menus["SPT"]
        assert "vectorized_elementwise_axpy" not in menus["DCG"]
