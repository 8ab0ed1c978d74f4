"""barseg: unsupervised barwise-compression music structure analysis.

Pipeline: audio -> time-frequency feature -> barwise TF matrix ->
compression (PCA / NMF / single-song convolutional autoencoder / none)
-> cosine autosimilarity -> dynamic-programming segmentation ->
boundary hit-rate evaluation.
"""

from .autoencoder import AENetwork, train_single_song
from .bars import BarGrid, BarwiseTF, barwise_tf, load_downbeats, select_frames
from .evaluate import (
    BoundarySet,
    align_to_downbeats,
    evaluate_boundaries,
    hit_rate,
    load_annotations,
)
from .features import AudioSignal, compute_feature, load_wav
from .lowrank import LowRankModel, nmf_compress, pca_compress
from .pipeline import PipelineConfig, run_batch, run_song
from .segment import (
    Segmentation,
    compute_ck8max,
    cosine_autosimilarity,
    dp_segment,
    kernel,
    penalty,
    segment_cost,
    segment_score,
)

__version__ = "0.1.0"
