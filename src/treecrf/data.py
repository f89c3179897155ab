"""Corpus file format, synthetic corpus generation, and preprocessing.

Corpus files are line-delimited JSON.  Each line holds one record with two
fields (the names are normative)::

    {"tokens": ["w3", "<e0>", "w1", "</e0>"],
     "entities": [{"start": 1, "end": 4, "label": "E0"}]}

Entity offsets in files are 0-based and end-EXCLUSIVE; they are converted
to the package-internal end-inclusive convention by
:func:`treecrf.chart.validate_annotation` and nowhere else.

The synthetic generator renders each entity of type ``t`` as a dedicated
opening marker ``<et>``, a body of filler tokens and nested child
entities, and a closing marker ``</et>``.  Within one sentence each entity
type is used at most once, so a span is an entity exactly when its first
and last tokens are a matching marker pair; that keeps the task learnable
by a scorer whose features are width-3 token contexts, which is what the
training acceptance run relies on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .chart import (
    ChartMask,
    LabelSchema,
    build_mask,
    classify_nodes,
    smooth_mask,
    validate_annotation,
)
from .errors import BadConfig, EmptyCorpus, ParseError
from .scorer import Vocab


@dataclass(frozen=True)
class Entity:
    """File-convention entity: 0-based, end-exclusive, label by name."""

    start: int
    end: int
    label: str


@dataclass(frozen=True)
class CorpusRecord:
    tokens: tuple[str, ...]
    entities: tuple[Entity, ...]


@dataclass(frozen=True)
class SynthConfig:
    num_sentences: int
    vocab_size: int = 50
    num_entity_types: int = 3
    max_nesting_depth: int = 3
    max_length: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_sentences < 1:
            raise BadConfig("num_sentences must be at least 1")
        if self.vocab_size < 1:
            raise BadConfig("vocab_size must be at least 1")
        if self.num_entity_types < 1:
            raise BadConfig("num_entity_types must be at least 1")
        if self.max_nesting_depth < 1:
            raise BadConfig("max_nesting_depth must be at least 1")
        if self.max_length < 3:
            raise BadConfig("max_length must be at least 3")
        if self.max_nesting_depth >= 2:
            if self.num_entity_types < 2:
                raise BadConfig("nesting requires at least 2 entity types")
            if self.max_length < 5:
                raise BadConfig("nesting requires max_length of at least 5")


def label_name(entity_type: int) -> str:
    return f"E{entity_type}"


def _record_from_obj(obj: object, line: int) -> CorpusRecord:
    if not isinstance(obj, dict):
        raise ParseError(line, "record is not an object")
    tokens = obj.get("tokens")
    if not isinstance(tokens, list) or not tokens or not all(
        isinstance(t, str) and t for t in tokens
    ):
        raise ParseError(line, 'field "tokens" must be a non-empty string array')
    raw_entities = obj.get("entities")
    if not isinstance(raw_entities, list):
        raise ParseError(line, 'field "entities" must be an array')
    entities = []
    for ent in raw_entities:
        if not isinstance(ent, dict):
            raise ParseError(line, "entity is not an object")
        start, end, label = ent.get("start"), ent.get("end"), ent.get("label")
        if not isinstance(start, int) or isinstance(start, bool):
            raise ParseError(line, 'entity field "start" must be an integer')
        if not isinstance(end, int) or isinstance(end, bool):
            raise ParseError(line, 'entity field "end" must be an integer')
        if not isinstance(label, str) or not label:
            raise ParseError(line, 'entity field "label" must be a non-empty string')
        if start < 0:
            raise ParseError(line, f'entity field "start" is negative ({start})')
        if end <= start:
            raise ParseError(
                line, f'entity field "end" ({end}) must exceed "start" ({start})'
            )
        if end > len(tokens):
            raise ParseError(
                line, f'entity field "end" ({end}) exceeds sentence length {len(tokens)}'
            )
        entities.append(Entity(start=start, end=end, label=label))
    return CorpusRecord(tokens=tuple(tokens), entities=tuple(entities))


def read_corpus(path: str) -> list[CorpusRecord]:
    """Parse a line-delimited UTF-8 corpus file; blank lines are ignored.

    Lines break at ``\\n``, ``\\r\\n`` or ``\\r``.  Any line that is not
    valid UTF-8 or not a valid record raises :class:`ParseError` with its
    line number.
    """
    records: list[CorpusRecord] = []
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for line_no, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(line_no, f"invalid UTF-8 ({exc.reason})") from None
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid record ({exc.msg})") from None
        except (ValueError, RecursionError) as exc:
            raise ParseError(line_no, f"invalid record ({exc})") from None
        records.append(_record_from_obj(obj, line_no))
    return records


def record_to_line(record: CorpusRecord) -> str:
    """Canonical single-line serialization of one record."""
    return json.dumps(
        {
            "tokens": list(record.tokens),
            "entities": [
                {"start": e.start, "end": e.end, "label": e.label}
                for e in record.entities
            ],
        },
        separators=(",", ":"),
    )


def write_corpus(records: Sequence[CorpusRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record_to_line(record))
            fh.write("\n")


def _filler(rng: np.random.Generator, cfg: SynthConfig) -> str:
    return f"w{int(rng.integers(0, cfg.vocab_size))}"


def _gen_entity(
    rng: np.random.Generator,
    cfg: SynthConfig,
    entity_type: int,
    depth: int,
    size: int,
    available: list[int],
) -> tuple[list[str], list[Entity]]:
    """Entity of exactly ``size`` tokens: marker, body, marker."""
    body, spans = _gen_segment(rng, cfg, depth + 1, size - 2, available)
    tokens = [f"<e{entity_type}>", *body, f"</e{entity_type}>"]
    entities = [Entity(0, len(tokens), label_name(entity_type))]
    entities += [Entity(e.start + 1, e.end + 1, e.label) for e in spans]
    return tokens, entities


def _gen_segment(
    rng: np.random.Generator,
    cfg: SynthConfig,
    depth: int,
    size: int,
    available: list[int],
) -> tuple[list[str], list[Entity]]:
    """A run of exactly ``size`` tokens mixing fillers and entities.

    ``depth`` is the nesting depth an entity created here would have;
    ``available`` holds the entity types not yet used in this sentence and
    is consumed in place.
    """
    tokens: list[str] = []
    entities: list[Entity] = []
    remaining = size
    while remaining > 0:
        can_nest = depth <= cfg.max_nesting_depth and available and remaining >= 3
        if can_nest and rng.random() < 0.35:
            t = available.pop(int(rng.integers(0, len(available))))
            esize = int(rng.integers(3, min(remaining, 9) + 1))
            etoks, espans = _gen_entity(rng, cfg, t, depth, esize, available)
            offset = len(tokens)
            entities += [
                Entity(e.start + offset, e.end + offset, e.label) for e in espans
            ]
            tokens += etoks
            remaining -= esize
        else:
            tokens.append(_filler(rng, cfg))
            remaining -= 1
    return tokens, entities


def _gen_sentence(rng: np.random.Generator, cfg: SynthConfig) -> CorpusRecord:
    low = min(cfg.max_length, 6)
    size = int(rng.integers(low, cfg.max_length + 1))
    available = list(range(cfg.num_entity_types))
    tokens, entities = _gen_segment(rng, cfg, depth=1, size=size, available=available)
    return CorpusRecord(tokens=tuple(tokens), entities=tuple(entities))


def _coverage_sentence(types: Sequence[int]) -> CorpusRecord:
    tokens: list[str] = []
    entities: list[Entity] = []
    for t in types:
        entities.append(Entity(len(tokens), len(tokens) + 3, label_name(t)))
        tokens += [f"<e{t}>", "w0", f"</e{t}>"]
    return CorpusRecord(tokens=tuple(tokens), entities=tuple(entities))


def _nested_sentence() -> CorpusRecord:
    tokens = ("<e0>", "<e1>", "w0", "</e1>", "</e0>")
    entities = (Entity(0, 5, label_name(0)), Entity(1, 4, label_name(1)))
    return CorpusRecord(tokens=tokens, entities=entities)


def _has_nesting(record: CorpusRecord) -> bool:
    for outer in record.entities:
        for inner in record.entities:
            if inner is outer:
                continue
            if outer.start <= inner.start and inner.end <= outer.end:
                return True
    return False


def nesting_depths(record: CorpusRecord) -> list[int]:
    """Depth of each entity: 1 + the number of entities strictly containing it."""
    depths = []
    for ent in record.entities:
        depth = 1
        for other in record.entities:
            if other is ent:
                continue
            if (
                other.start <= ent.start
                and ent.end <= other.end
                and (other.start, other.end) != (ent.start, ent.end)
            ):
                depth += 1
        depths.append(depth)
    return depths


def gen_synthetic(cfg: SynthConfig) -> list[CorpusRecord]:
    """Deterministic synthetic nested-entity corpus.

    Guarantees every entity type occurs somewhere and, when nesting is
    enabled, that at least one sentence nests to depth 2; tiny corpora get
    these guarantees by replacing trailing sentences with fixed templates.
    """
    rng = np.random.default_rng(cfg.seed)
    records = [_gen_sentence(rng, cfg) for _ in range(cfg.num_sentences)]

    tail: list[CorpusRecord] = []
    if cfg.max_nesting_depth >= 2 and not any(_has_nesting(r) for r in records):
        tail.append(_nested_sentence())
    # Replacing the last k sentences may itself remove types, so find the
    # smallest k whose kept prefix plus k replacement sentences covers
    # every type; replacements pack several types each.
    per_sentence = max(1, cfg.max_length // 3)
    k = len(tail)
    while True:
        if k > len(records):
            raise BadConfig("corpus too small to cover every entity type")
        present = {e.label for r in records[: len(records) - k] for e in r.entities}
        present |= {e.label for r in tail for e in r.entities}
        missing = [
            t for t in range(cfg.num_entity_types) if label_name(t) not in present
        ]
        need = -(-len(missing) // per_sentence)  # ceil
        if len(tail) + need <= k:
            break
        k += 1
    replacements = [
        _coverage_sentence(missing[lo : lo + per_sentence])
        for lo in range(0, len(missing), per_sentence)
    ] + tail
    if replacements:
        records = records[: len(records) - len(replacements)] + replacements
    return records


def split_corpus(
    records: Sequence[CorpusRecord], seed: int
) -> tuple[list[CorpusRecord], list[CorpusRecord], list[CorpusRecord]]:
    """80/10/10 train/dev/test split by a stable hash of (seed, index)."""
    train: list[CorpusRecord] = []
    dev: list[CorpusRecord] = []
    test: list[CorpusRecord] = []
    for idx, record in enumerate(records):
        digest = hashlib.sha256(f"{seed}:{idx}".encode("ascii")).digest()
        bucket = int.from_bytes(digest[:8], "big") % 10
        (train if bucket < 8 else dev if bucket == 8 else test).append(record)
    return train, dev, test


def corpus_schema(
    records: Sequence[CorpusRecord], latent_label_count: int = 1
) -> LabelSchema:
    """Label schema with the corpus's entity labels, sorted by name."""
    if not records:
        raise EmptyCorpus("no records")
    labels = sorted({e.label for r in records for e in r.entities})
    if not labels:
        raise BadConfig("corpus has no entity annotations")
    return LabelSchema(
        observed_labels=tuple(labels), latent_label_count=latent_label_count
    )


def corpus_vocab(records: Sequence[CorpusRecord]) -> Vocab:
    return Vocab.build(t for r in records for t in r.tokens)


class PreprocessedExample(NamedTuple):
    token_ids: np.ndarray
    mask: ChartMask


def preprocess(
    records: Sequence[CorpusRecord],
    schema: LabelSchema,
    vocab: Vocab,
    epsilon: float,
) -> list[PreprocessedExample]:
    """Validate every record and cache its token ids and smoothed mask.

    Masks are built once here, ahead of training; the training loop only
    consumes the cache.
    """
    out = []
    for record in records:
        tree = validate_annotation(
            record.tokens,
            [(e.start, e.end, e.label) for e in record.entities],
            schema,
        )
        symbols = classify_nodes(tree)
        mask = smooth_mask(build_mask(symbols, schema), symbols, epsilon)
        out.append(
            PreprocessedExample(token_ids=vocab.encode(record.tokens), mask=mask)
        )
    return out
