"""Partially-observed TreeCRF engine for nested span recognition."""

from .chart import (
    ChartMask,
    LabelSchema,
    NodeKind,
    PartialTree,
    ScoreChart,
    Span,
    build_mask,
    classify_nodes,
    pack_cells,
    smooth_mask,
    smoothed_masks,
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
    FullTree,
    batch_cky_decode,
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
    forward_batch,
    init_params,
    load_model,
    save_model,
)
from .train import (
    EvalReport,
    TrainConfig,
    TrainResult,
    batch_predict,
    evaluate,
    predict,
    train,
)

__version__ = "0.1.0"
