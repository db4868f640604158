"""Parameter-free classical image filtering via learned basis blending.

Build a filtered basis (one filter's outputs under several sampled parameter
configurations), then train a tiny dual-branch linear model that blends the
basis and its residuals into a result that beats any single configuration.
"""

__version__ = "0.1.0"

from .basis import (
    BILATERAL_CANDIDATE_GRID,
    BUILTIN_PRESETS,
    Candidate,
    FBCache,
    FilteredBasis,
    ResidualBasis,
    build_basis,
    build_residuals,
    calibrate,
    dis_grid,
    iis_select,
    parse_grid,
    read_preset,
    write_preset,
)
from .filters import (
    Bilateral,
    FilterConfig,
    Gaussian,
    Median,
    RollingGuidance,
    bilateral,
    gaussian_blur,
    joint_bilateral,
    median,
    parse_config,
    rolling_guidance,
)
from .image import Image
from .metrics import MetricReport, psnr, ssim
from .model import (
    CompositionModel,
    ForwardOutputs,
    LossWeights,
    forward,
    gradients,
    init_model,
    load_model,
    save_model,
    total_loss,
)
from .noise import add_gaussian_noise, add_impulse_noise
from .pnm import read_image, write_image
from .trainer import (
    AblationReport,
    AdamState,
    DatasetSpec,
    Sample,
    TrainHistory,
    TrainingConfig,
    ablate_residual,
    adam_step,
    evaluate,
    lr_at,
    train,
)

__all__ = [
    "BILATERAL_CANDIDATE_GRID",
    "BUILTIN_PRESETS",
    "AblationReport",
    "AdamState",
    "Bilateral",
    "Candidate",
    "CompositionModel",
    "DatasetSpec",
    "FBCache",
    "FilterConfig",
    "FilteredBasis",
    "ForwardOutputs",
    "Gaussian",
    "Image",
    "LossWeights",
    "Median",
    "MetricReport",
    "ResidualBasis",
    "RollingGuidance",
    "Sample",
    "TrainHistory",
    "TrainingConfig",
    "ablate_residual",
    "adam_step",
    "add_gaussian_noise",
    "add_impulse_noise",
    "bilateral",
    "build_basis",
    "build_residuals",
    "calibrate",
    "dis_grid",
    "evaluate",
    "forward",
    "gaussian_blur",
    "gradients",
    "iis_select",
    "init_model",
    "joint_bilateral",
    "load_model",
    "lr_at",
    "median",
    "parse_config",
    "parse_grid",
    "psnr",
    "read_image",
    "read_preset",
    "rolling_guidance",
    "save_model",
    "ssim",
    "total_loss",
    "train",
    "write_image",
    "write_preset",
]
