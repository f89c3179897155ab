import collections
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecrf import (
    BadConfig,
    CorpusRecord,
    Entity,
    ParseError,
    SynthConfig,
    corpus_schema,
    corpus_vocab,
    gen_synthetic,
    preprocess,
    read_corpus,
    split_corpus,
    validate_annotation,
    write_corpus,
)
from treecrf.chart import build_mask, classify_nodes, smooth_mask
from treecrf.data import (
    _coverage_sentence,
    _gen_sentence,
    nesting_depths,
    record_to_line,
)


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        records = [
            CorpusRecord(tokens=("a", "b", "c"), entities=(Entity(0, 2, "PER"),)),
            CorpusRecord(tokens=("x",), entities=()),
        ]
        path = str(tmp_path / "corpus.jsonl")
        write_corpus(records, path)
        assert read_corpus(path) == records

    def test_byte_stable_after_normalization(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        messy = (
            '{"entities": [{"label": "PER", "end": 2, "start": 0}], '
            '"tokens": ["a", "b"]}\n'
        )
        open(path, "w").write(messy)
        records = read_corpus(path)
        write_corpus(records, path)
        first = open(path, "rb").read()
        write_corpus(read_corpus(path), path)
        assert open(path, "rb").read() == first

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").write("")
        assert read_corpus(path) == []

    def test_blank_lines_ignored(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        open(path, "w").write(
            "\n" + record_to_line(CorpusRecord(("a",), ())) + "\n\n"
        )
        assert len(read_corpus(path)) == 1

    def test_invalid_json_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        open(path, "w").write(
            record_to_line(CorpusRecord(("a",), ())) + "\n{not json}\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            read_corpus(path)

    def test_end_not_after_start_names_field(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        open(path, "w").write(
            '{"tokens":["a","b"],"entities":[{"start":2,"end":0,"label":"X"}]}\n'
        )
        with pytest.raises(ParseError, match='"end" \\(0\\) must exceed "start" \\(2\\)'):
            read_corpus(path)

    def test_missing_tokens_field(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        open(path, "w").write('{"entities":[]}\n')
        with pytest.raises(ParseError, match="tokens"):
            read_corpus(path)

    def test_entity_beyond_sentence(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        open(path, "w").write(
            '{"tokens":["a"],"entities":[{"start":0,"end":5,"label":"X"}]}\n'
        )
        with pytest.raises(ParseError, match="exceeds sentence length"):
            read_corpus(path)

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            (b'{"tokens":["\xff"],"entities":[]}', "invalid UTF-8"),
            (b"[" * 100_000, "invalid record"),
            (b'{"tokens":["a"],"entities":[{"start":' + b"9" * 5000 + b"}]}", "invalid record"),
        ],
        ids=["invalid-utf8", "deep-nesting", "oversized-integer"],
    )
    def test_unreadable_line_reports_line(self, tmp_path, bad_line, message):
        path = tmp_path / "bad.jsonl"
        good = record_to_line(CorpusRecord(("a",), ())).encode("utf-8")
        path.write_bytes(good + b"\n\n" + bad_line + b"\n")
        with pytest.raises(ParseError, match=f"line 3: {message}"):
            read_corpus(str(path))

    def test_carriage_returns_break_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = record_to_line(CorpusRecord(("a",), ()))
        path.write_bytes(f"{good}\r{good}\r\n\r{{bad".encode("utf-8"))
        with pytest.raises(ParseError, match="line 4"):
            read_corpus(str(path))
        path.write_bytes(f"{good}\r{good}\r\n".encode("utf-8"))
        assert len(read_corpus(str(path))) == 2


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_RECORDISH = st.fixed_dictionaries(
    {
        "tokens": st.one_of(_JSON, st.lists(st.text(max_size=3), max_size=4)),
        "entities": st.one_of(
            _JSON,
            st.lists(
                st.dictionaries(
                    st.sampled_from(["start", "end", "label"]), _JSON, max_size=3
                ),
                max_size=3,
            ),
        ),
    }
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"


class TestCorpusFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        line=st.one_of(
            st.binary(max_size=64),
            _JSON.map(lambda v: json.dumps(v).encode("utf-8")),
            _RECORDISH.map(lambda v: json.dumps(v).encode("utf-8")),
        )
    )
    def test_any_line_gives_records_or_parse_error(self, fuzz_path, line):
        fuzz_path.write_bytes(line + b"\n")
        try:
            records = read_corpus(str(fuzz_path))
        except ParseError as exc:
            assert exc.line >= 1
            return
        for record in records:
            assert isinstance(record, CorpusRecord) and record.tokens
            for ent in record.entities:
                assert 0 <= ent.start < ent.end <= len(record.tokens)


class TestGenSynthetic:
    def test_deterministic(self):
        cfg = SynthConfig(num_sentences=40, seed=11)
        assert gen_synthetic(cfg) == gen_synthetic(cfg)

    def test_seed_changes_corpus(self):
        a = gen_synthetic(SynthConfig(num_sentences=40, seed=1))
        b = gen_synthetic(SynthConfig(num_sentences=40, seed=2))
        assert a != b

    def test_all_annotations_validate(self):
        records = gen_synthetic(SynthConfig(num_sentences=120, seed=3))
        schema = corpus_schema(records)
        for record in records:
            validate_annotation(
                record.tokens,
                [(e.start, e.end, e.label) for e in record.entities],
                schema,
            )

    def test_every_type_present_and_nested(self):
        records = gen_synthetic(SynthConfig(num_sentences=60, seed=4))
        labels = {e.label for r in records for e in r.entities}
        assert labels == {"E0", "E1", "E2"}
        depths = [d for r in records for d in nesting_depths(r)]
        assert 2 in depths

    def test_depth_histogram_has_two(self):
        records = gen_synthetic(
            SynthConfig(num_sentences=50, max_nesting_depth=2, seed=5)
        )
        hist = collections.Counter(
            d for r in records for d in nesting_depths(r)
        )
        assert hist[2] > 0
        assert hist[3] == 0  # depth capped

    def test_max_length_respected(self):
        records = gen_synthetic(SynthConfig(num_sentences=80, max_length=12, seed=6))
        assert max(len(r.tokens) for r in records) <= 12

    def test_types_unique_per_sentence(self):
        records = gen_synthetic(SynthConfig(num_sentences=80, seed=7))
        for record in records:
            labels = [e.label for e in record.entities]
            assert len(labels) == len(set(labels))

    def test_tiny_corpus_gets_repaired(self):
        # the three raw draws hold only E2 and nest nothing, so the output
        # differs from them: the repair ran
        config = SynthConfig(num_sentences=3, max_length=8, seed=4)
        rng = np.random.default_rng(config.seed)
        raw = [_gen_sentence(rng, config) for _ in range(config.num_sentences)]
        records = gen_synthetic(config)
        assert records != raw
        labels = {e.label for r in records for e in r.entities}
        assert labels == {"E0", "E1", "E2"}
        assert any(2 in nesting_depths(r) for r in records)

    def test_missing_types_get_coverage_sentences(self, monkeypatch):
        # the three draws hold E0, E1 and E2 but no E3, so coverage
        # templates replace the tail
        made = []

        def spy(types):
            made.append(types)
            return _coverage_sentence(types)

        monkeypatch.setattr("treecrf.data._coverage_sentence", spy)
        config = SynthConfig(
            num_sentences=3, num_entity_types=4, max_length=9, seed=3
        )
        records = gen_synthetic(config)
        assert made
        assert len(records) == 3
        labels = {e.label for r in records for e in r.entities}
        assert labels == {"E0", "E1", "E2", "E3"}

    def test_nest_survives_the_coverage_repair(self):
        # the draws nest nothing and lack E0; a repair that decides on the
        # nested template over the whole draw and then lets the coverage
        # template replace it leaves no nest at all
        records = gen_synthetic(SynthConfig(num_sentences=3, max_length=8, seed=18))
        assert len(records) == 3
        assert {e.label for r in records for e in r.entities} == {"E0", "E1", "E2"}
        assert any(2 in nesting_depths(r) for r in records)

    def test_tiny_configs_meet_both_guarantees_or_are_refused(self):
        refused = kept = 0
        for n, types, depth, max_length, seed in itertools.product(
            range(1, 8), range(1, 7), range(1, 4), range(3, 21), range(3)
        ):
            if depth >= 2 and (types < 2 or max_length < 5):
                continue  # SynthConfig refuses these itself
            config = SynthConfig(
                num_sentences=n,
                num_entity_types=types,
                max_nesting_depth=depth,
                max_length=max_length,
                seed=seed,
            )
            try:
                records = gen_synthetic(config)
            except BadConfig as exc:
                refused += 1
                nest = " and a depth-2 nest" if depth >= 2 else ""
                assert str(exc) == f"corpus too small to cover every entity type{nest}"
                continue
            kept += 1
            assert len(records) == n
            assert max(len(r.tokens) for r in records) <= max_length
            labels = {e.label for r in records for e in r.entities}
            assert labels == {f"E{t}" for t in range(types)}
            if depth >= 2:
                assert any(2 in nesting_depths(r) for r in records)
        assert refused and kept

    @pytest.mark.parametrize(
        "config, digest",
        [
            # the standard corpus
            (
                SynthConfig(
                    num_sentences=2000,
                    num_entity_types=3,
                    max_nesting_depth=3,
                    max_length=20,
                    seed=0,
                ),
                "eab44a296406919f72510f66c556a1fc5b6cfc8724adb546a70d9cc2a5c04f3a",
            ),
            # three sentences with no nesting and only E2: the tail repair
            # puts the nested template (E0 around E1) in the last place
            (
                SynthConfig(num_sentences=3, max_length=8, seed=4),
                "1f631143ba73ac79ed791644678f0fe6b7c7f3894178b8b6bcdd0d3a45c38458",
            ),
            # the first pool perfbench's long_corpus draws for seed 41:
            # sentences of 6 to 100 tokens
            (
                SynthConfig(num_sentences=950, max_length=100, seed=41000),
                "e2d691d559727321510d0d9775c3b7623639654d610870cbb79db04eb3407316",
            ),
            # six types nested up to depth 5: one entity reaches depth 4
            (
                SynthConfig(
                    num_sentences=300,
                    num_entity_types=6,
                    max_nesting_depth=5,
                    max_length=60,
                    seed=3,
                ),
                "8a7598187ed10cad6537e5e0f890fff4c1aacecd01f37e4cc0146c591a59574b",
            ),
            # nesting off: every entity sits at depth 1
            (
                SynthConfig(
                    num_sentences=200, num_entity_types=4, max_nesting_depth=1, seed=3
                ),
                "265f3fa8bc056908234d06c2d32b72e85e1ae40b0f23128bcf45b81bb3b85647",
            ),
        ],
        ids=["standard", "tail-repair", "long-pool", "deep", "flat"],
    )
    def test_output_bytes_are_pinned(self, config, digest, tmp_path):
        # every benchmark corpus is generator output, so any change to the
        # generated bytes must be deliberate
        path = tmp_path / "corpus.jsonl"
        write_corpus(gen_synthetic(config), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_bad_configs(self):
        with pytest.raises(BadConfig):
            SynthConfig(num_sentences=0)
        with pytest.raises(BadConfig):
            SynthConfig(num_sentences=10, max_length=2)
        with pytest.raises(BadConfig):
            SynthConfig(num_sentences=10, num_entity_types=1, max_nesting_depth=2)
        with pytest.raises(BadConfig):
            SynthConfig(num_sentences=10, max_length=4, max_nesting_depth=2)


class TestSplitCorpus:
    def test_deterministic_partition(self):
        records = gen_synthetic(SynthConfig(num_sentences=200, seed=8))
        a = split_corpus(records, seed=0)
        b = split_corpus(records, seed=0)
        assert a == b
        train, dev, test = a
        assert len(train) + len(dev) + len(test) == 200
        # roughly 80/10/10
        assert 130 <= len(train) <= 195
        assert dev and test

    def test_seed_changes_split(self):
        records = gen_synthetic(SynthConfig(num_sentences=200, seed=8))
        assert split_corpus(records, 0) != split_corpus(records, 1)


class TestPreprocess:
    def test_empty_annotation_has_latent_only_mask(self, schema3):
        record = CorpusRecord(tokens=("a", "b"), entities=())
        vocab = corpus_vocab([record])
        (example,) = preprocess([record], schema3, vocab, 0.0)
        # packed cells (0, 0), (0, 1), (1, 1)
        assert example.mask.cells.tolist() == [[0.0, 0.0, 1.0]] * 3

    def test_cached_mask_matches_fresh_build(self, schema3):
        record = CorpusRecord(
            tokens=("a", "b", "c", "d"),
            entities=(Entity(0, 2, "PER"), Entity(0, 4, "ORG")),
        )
        vocab = corpus_vocab([record])
        (example,) = preprocess([record], schema3, vocab, 0.02)
        tree = validate_annotation(
            record.tokens, [(e.start, e.end, e.label) for e in record.entities], schema3
        )
        sym = classify_nodes(tree)
        fresh = smooth_mask(build_mask(sym, schema3), sym, 0.02)
        np.testing.assert_array_equal(example.mask.cells, fresh.cells)

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_masks_equal_per_sentence_build_on_standard_corpus(self, epsilon):
        records = gen_synthetic(SynthConfig(num_sentences=2000, seed=0))
        schema = corpus_schema(records)
        examples = preprocess(records, schema, corpus_vocab(records), epsilon)
        assert len(examples) == len(records)
        for record, example in zip(records, examples):
            tree = validate_annotation(
                record.tokens, [(e.start, e.end, e.label) for e in record.entities], schema
            )
            sym = classify_nodes(tree)
            fresh = smooth_mask(build_mask(sym, schema), sym, epsilon)
            np.testing.assert_array_equal(example.mask.cells, fresh.cells)

    def test_masks_are_stored_packed(self):
        # every mask holds only its span cells: the masks of a corpus take
        # sum n (n + 1) / 2 * L floats, in one packed array per length
        records = gen_synthetic(SynthConfig(num_sentences=300, seed=0))
        schema = corpus_schema(records)
        examples = preprocess(records, schema, corpus_vocab(records), 0.01)
        lengths = [len(record.tokens) for record in records]
        stored = {id(ex.mask.cells.base): ex.mask.cells.base for ex in examples}
        assert all(base is not None for base in stored.values())
        assert len(stored) == len(set(lengths))
        assert sum(base.size for base in stored.values()) == sum(
            n * (n + 1) // 2 * schema.n_labels for n in lengths
        )

    def test_token_ids_use_vocab(self, schema3):
        record = CorpusRecord(tokens=("b", "a"), entities=(Entity(0, 1, "PER"),))
        vocab = corpus_vocab([record])
        (example,) = preprocess([record], schema3, vocab, 0.0)
        assert example.token_ids.tolist() == [vocab.index["b"], vocab.index["a"]]


class TestCorpusSchema:
    def test_sorted_labels(self):
        records = [
            CorpusRecord(("a",), (Entity(0, 1, "Z"),)),
            CorpusRecord(("b",), (Entity(0, 1, "A"),)),
        ]
        schema = corpus_schema(records, latent_label_count=2)
        assert schema.observed_labels == ("A", "Z")
        assert schema.latent_label_count == 2

    def test_no_annotations(self):
        with pytest.raises(BadConfig):
            corpus_schema([CorpusRecord(("a",), ())])
