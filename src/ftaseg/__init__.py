"""Semi-supervised volumetric segmentation with Fourier-domain augmentation.

Core pieces: VOL1 volume/mask containers and I/O, intensity windowing and
3-axis slicing, amplitude-exchange augmentation of slice pairs, the
Dice/IoU/Hausdorff challenge score, a patch-MLP segmenter with in-house
AdamW and poly LR, the two-stage pseudo-label + consistency trainer, and
seeded phantom volumes for desk-scale benchmarks.
"""

from .errors import (
    ConfigError,
    DataError,
    FtasegError,
    NumericError,
    UndefinedMetricError,
)
from .fourier import (
    AugmentedPair,
    FtaConfig,
    dft2_forward,
    fta_augment_pair,
    make_center_mask,
    symmetrize_mask,
)
from .metrics import (
    MetricsReport,
    challenge_score,
    dice,
    evaluate_masks,
    hausdorff_l1,
    iou,
    normalize_hd,
)
from .model import (
    AdamWState,
    ModelShape,
    PatchMLP,
    TrainSchedule,
    adamw_step,
    load_checkpoint,
    poly_lr,
    save_checkpoint,
)
from .phantom import (
    BenchmarkSpec,
    apply_domain_shift,
    ellipsoid_mask,
    gen_phantom,
)
from .pipeline import (
    PipelineConfig,
    generate_benchmark,
    render_overlay,
    run_pipeline,
)
from .preprocess import (
    SliceManifest,
    WindowSpec,
    slice_volume,
    split_train_val,
    window_normalize,
)
from .ssl import (
    PseudoLabel,
    StageConfig,
    ThresholdState,
    TrainSlice,
    consistency_loss,
    generate_pseudo_labels,
    run_stage1,
    run_stage2,
    update_threshold,
)
from .volume import (
    MaskVolume,
    Volume,
    load_mask,
    load_volume,
    save_mask,
    save_volume,
)

__version__ = "0.1.0"
