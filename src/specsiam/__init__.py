"""Case-control EEG classification from spectral images.

The pipeline: multichannel recordings become per-channel short-time Fourier
magnitude images; a weight-shared twin convolutional network trained with a
cosine contrastive loss on same-channel subject pairs maps each image to a
small feature vector; downstream classifiers score subjects under
leave-one-subject-out cross-validation. Gaussian-process Bayesian
optimization tunes every stage.
"""

from .signals import (
    BandComponent,
    Dataset,
    EegRecording,
    Label,
    TEN_TWENTY_CHANNELS,
    dataset_subset,
    generate_synthetic_cohort,
    load_dataset,
    save_dataset,
)
from .spectral import (
    SpectralImage,
    StftConfig,
    WindowFn,
    compute_images,
    dstft,
    fft_features,
    normalize_magnitudes,
)
from .pairing import PairBatch, PairExample, batch_iter, build_pairs
from .siamese import (
    NetConfig,
    SiameseModel,
    base_forward,
    contrastive_loss,
    cosine_distance,
    extract_features,
    init_model,
    load_checkpoint,
    pair_accuracy,
    save_checkpoint,
    train,
)
from .bayesopt import (
    BoState,
    Continuous,
    Discrete,
    LogContinuous,
    SearchSpace,
    expected_improvement,
    gp_fit,
    optimize,
    propose_next,
)
from .classify import (
    ClassifierKind,
    ClassifierSpec,
    GaussianNbClassifier,
    GradientBoostingClassifier,
    KnnClassifier,
    LabeledFeatures,
    RandomForestClassifier,
    SmoSvmClassifier,
)
from .evaluate import (
    MetricsReport,
    PIPELINES,
    PipelineConfig,
    compute_metrics,
    kfold_classifier_objective,
    kfold_snn_objective,
    loocv,
    run_pipeline,
    tune_classifier,
    tune_snn,
)
from .errors import DataError, NumericalError

__version__ = "0.1.0"
