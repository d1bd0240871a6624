"""spectrune: covariance eigenspectrum analysis for embedding spaces.

Decomposes an embedding space into a high-variance signal component and a
shared low-variance noise subspace via the eigenspectrum of (trace-
normalized) covariance matrices, measures subspace overlap with the mean
squared cosine of principal angles, and evaluates how harmless pruning the
noise span is on downstream zero-shot and alignment tasks.
"""

import os

# Read by OpenBLAS once, as numpy loads: idle workers spin ~0.5 ms, not ~128 ms, before they sleep.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from spectrune.covariance import (
    CovarianceAccumulator,
    CovarianceMatrix,
    accumulate,
    average,
    covariance_of,
    finalize,
    load_covariance,
    merge,
    normalize_rows,
    normalize_trace,
    per_class_covariances,
    save_covariance,
)
from spectrune.errors import (
    DataError,
    DegenerateCovarianceError,
    DimError,
    EmptySubspaceError,
    FormatError,
    InsufficientSamplesError,
    IoError,
    MissingLabelsError,
    NoKneeError,
    NumericalError,
    PreconditionError,
    ShapeError,
    SpectruneError,
)
from spectrune.evaluation import (
    Activation,
    AlignmentDeltaReport,
    SyntheticBenchmark,
    ZeroShotTask,
    alignment_delta,
    random_ablation,
    rank_activations,
    synth_benchmark,
    zero_shot_topk,
)
from spectrune.spectral import (
    Spectrum,
    decompose,
    detect_knee,
    log_spectrum,
    noise_threshold,
)
from spectrune.store import (
    DatasetManifest,
    EmbeddingDump,
    EmbeddingMatrix,
    ManifestEntry,
    load_array_file,
    load_label_file,
    load_manifest,
    save_array_file,
    save_label_file,
    save_manifest,
    split_by_label,
)
from spectrune.subspaces import (
    ClassSpectrumDistances,
    OverlapReport,
    Subspace,
    apply_removal,
    class_overlap,
    class_spectrum_distance,
    load_subspace,
    mscsa,
    noise_subspace,
    per_class_overlap,
    projection_remove,
    remove_component,
    save_subspace,
)

__version__ = "0.1.0"
