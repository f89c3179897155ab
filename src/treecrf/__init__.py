"""Partially-observed TreeCRF engine for nested span recognition."""

from .chart import (
    ChartMask,
    LabelSchema,
    NodeKind,
    PartialTree,
    Span,
    SymbolTree,
    build_mask,
    classify_nodes,
    smooth_mask,
    validate_annotation,
)
from .data import (
    CorpusRecord,
    Entity,
    SynthConfig,
    corpus_schema,
    corpus_vocab,
    gen_synthetic,
    preprocess,
    read_corpus,
    split_corpus,
    write_corpus,
)
from .errors import (
    BadConfig,
    CrossingSpans,
    DegenerateChart,
    DimensionMismatch,
    EmptyCorpus,
    EmptySentence,
    EmptySpan,
    ModelFormatError,
    NonFiniteLoss,
    OutOfBounds,
    ParseError,
    TooLarge,
    TreecrfError,
    UnknownLabel,
)
from .inference import (
    LOG_ZERO,
    FullTree,
    MarginalChart,
    ScoreChart,
    batch_loss_and_score_gradient,
    batched_masked_inside,
    cky_decode,
    extract_entities,
    inside,
    log_prob,
    loss_and_score_gradient,
    marginals,
    mask_from_full_tree,
    masked_inside,
    tree_score,
    vanilla_partial_marginalization,
)
from .scorer import (
    ScorerConfig,
    ScorerParams,
    Vocab,
    biaffine_scores,
    encode,
    forward,
    init_params,
    load_model,
    potential_normalize,
    save_model,
)
from .train import (
    EvalReport,
    TrainConfig,
    TrainResult,
    evaluate,
    predict,
    sweep_latent_labels,
    train,
)

__version__ = "0.1.0"
