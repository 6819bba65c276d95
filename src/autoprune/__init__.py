"""Learned channel pruning for small CNNs on plain CPUs.

The package trains a continuous per-layer "remaining ratio" alongside the
network weights.  A differentiable channel mask turns each ratio into a
soft on/off pattern over importance-ranked channels, a FLOPs term pushes
the ratios down, and cross entropy pushes back.  Once the search settles,
the ratios are rounded into a pruning plan, channels are physically
sliced out, and the smaller network is fine-tuned.

Everything runs on numpy through a small reverse-mode tensor engine; no
GPU or external ML framework is involved.
"""

__version__ = "0.1.0"

from .tensor import (
    Tensor,
    RunningStats,
    backward,
    conv2d,
    linear,
    relu,
    pool2d,
    batch_norm2d,
    softmax_cross_entropy,
    channel_scale,
    finite_diff_check,
    no_grad,
    use_dtype,
    zero_grad,
)
from .masking import (
    ChannelMask,
    ChannelRanking,
    MaskDiagnostics,
    build_mask,
    mask_grad_wrt_ratio,
    rank_channels,
    ratio_mask_tensor,
    refresh_ranking,
)
from .objective import flops_cost, flops_cost_grad, combined_loss
from .model import (
    LayerSpec,
    ModelGraph,
    build_model,
    forward,
    exact_flops_by_layer,
    exact_model_flops,
    evaluate,
)
from .data import Dataset, load_mnist, load_cifar10, split_validation, batches, substream
from .search import SearchConfig, SearchResult, cosine_lr, run_search
from .pruner import (
    PruningPlan,
    finalize_plan,
    export_pruned,
    finetune,
    train_supervised,
    save_checkpoint,
    load_checkpoint,
)

__all__ = [
    "Tensor",
    "RunningStats",
    "backward",
    "conv2d",
    "linear",
    "relu",
    "pool2d",
    "batch_norm2d",
    "softmax_cross_entropy",
    "channel_scale",
    "finite_diff_check",
    "no_grad",
    "use_dtype",
    "zero_grad",
    "ChannelMask",
    "ChannelRanking",
    "MaskDiagnostics",
    "build_mask",
    "mask_grad_wrt_ratio",
    "rank_channels",
    "ratio_mask_tensor",
    "refresh_ranking",
    "flops_cost",
    "flops_cost_grad",
    "combined_loss",
    "LayerSpec",
    "ModelGraph",
    "build_model",
    "forward",
    "exact_flops_by_layer",
    "exact_model_flops",
    "evaluate",
    "Dataset",
    "load_mnist",
    "load_cifar10",
    "split_validation",
    "batches",
    "substream",
    "SearchConfig",
    "SearchResult",
    "cosine_lr",
    "run_search",
    "PruningPlan",
    "finalize_plan",
    "export_pruned",
    "finetune",
    "train_supervised",
    "save_checkpoint",
    "load_checkpoint",
    "__version__",
]
