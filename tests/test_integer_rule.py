"""The one integer rule: every config, tree, model header, corpus offset and
checked flag takes a Python or numpy integer as a plain ``int`` and refuses
a bool, a float, a string or ``None``; every model the library saves, it
can load.  Beside it, the real-number rule of the smoothing epsilon and the
list-or-tuple rule of label names and vocabulary tokens."""

import dataclasses
import functools
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecrf import (
    BadConfig,
    LabelSchema,
    ModelFormatError,
    ParseError,
    ScorerConfig,
    SynthConfig,
    TrainConfig,
    Vocab,
)
from treecrf.chart import build_mask, smooth_mask, smoothed_masks, validate_annotation
from treecrf.errors import integer
from treecrf.scorer import PARAM_ORDER, init_params, load_model, save_model


class TestInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.int8(3), np.uint64(3)])
    def test_integers_come_back_plain(self, value):
        number = integer(value, "x", 0)
        assert number == 3 and type(number) is int

    @pytest.mark.parametrize(
        "value, shown",
        [
            (True, "True"),
            (np.True_, repr(np.True_)),
            (2.0, "2.0"),
            ("3", "'3'"),
            (None, "None"),
        ],
    )
    def test_non_integers_are_refused(self, value, shown):
        with pytest.raises(BadConfig) as info:
            integer(value, "x", 0)
        assert str(info.value) == f"x must be an integer, got {shown}"

    def test_bounds(self):
        assert integer(-2, "x", -2, 5) == -2 and integer(5, "x", -2, 5) == 5
        with pytest.raises(BadConfig) as info:
            integer(6, "x", -2, 5)
        assert str(info.value) == "x must be in -2 .. 5, got 6"
        with pytest.raises(BadConfig) as info:
            integer(np.int64(-1), "x", 0)
        assert str(info.value) == "x must be at least 0, got -1"

    def test_the_error_type_is_the_callers(self):
        with pytest.raises(ParseError) as info:
            integer(1.5, "end", 0, error=functools.partial(ParseError, 7))
        assert str(info.value) == "line 7: end must be an integer, got 1.5"
        assert info.value.line == 7


def _schema(**kwargs):
    return LabelSchema(observed_labels=("A",), **kwargs)


# A valid instance of each config, built from keyword arguments.
CONFIGS = {
    TrainConfig: lambda **kw: TrainConfig(**kw),
    SynthConfig: lambda **kw: SynthConfig(**{"num_sentences": 5, **kw}),
    LabelSchema: _schema,
    ScorerConfig: lambda **kw: ScorerConfig(
        **{"embed_dim": 4, "hidden_dim": 8, "schema": _schema(), **kw}
    ),
}

INT_FIELDS = [
    (cls, f.name)
    for cls in CONFIGS
    for f in dataclasses.fields(cls)
    if f.init and f.type in ("int", int)
]


def test_every_config_has_integer_fields():
    assert {cls for cls, _ in INT_FIELDS} == set(CONFIGS)


class TestEveryIntegerField:
    """An integer config field added without the rule fails here."""

    @pytest.mark.parametrize("value", [2.5, "3", None, True])
    @pytest.mark.parametrize(
        "cls, name", INT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in INT_FIELDS]
    )
    def test_refuses_non_integers(self, cls, name, value):
        with pytest.raises(BadConfig) as info:
            CONFIGS[cls](**{name: value})
        assert str(info.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize(
        "cls, name", INT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in INT_FIELDS]
    )
    def test_holds_a_plain_int_of_a_numpy_one(self, cls, name):
        valid = getattr(CONFIGS[cls](), name)
        config = CONFIGS[cls](**{name: np.int64(valid)})
        assert getattr(config, name) == valid
        assert type(getattr(config, name)) is int


class TestNames:
    def test_schema_label_names_are_strings(self):
        for labels in (("A", 3), (b"A",), ("A", None)):
            with pytest.raises(BadConfig, match="non-empty strings"):
                LabelSchema(labels)

    def test_vocab_tokens_are_strings(self):
        for tokens in (("<unk>", 3), ("<unk>", b"a"), ("<unk>", None)):
            with pytest.raises(BadConfig, match="vocabulary tokens must be strings"):
                Vocab(tokens=tokens)

    # a set's order follows string hashing, so it could index labels or
    # tokens differently from one run to the next
    @pytest.mark.parametrize(
        "make",
        [set, dict.fromkeys, lambda names: (name for name in names), "".join],
        ids=["set", "dict", "generator", "string"],
    )
    def test_names_and_tokens_are_a_list_or_tuple(self, make):
        labels = make(["PER", "ORG", "LOC", "GPE"])
        with pytest.raises(BadConfig) as info:
            LabelSchema(labels)
        message = f"observed labels must be a list or tuple, got {labels!r}"
        assert str(info.value) == message
        tokens = make(["<unk>", "a"])
        with pytest.raises(BadConfig) as info:
            Vocab(tokens=tokens)
        assert str(info.value) == f"vocabulary must be a list or tuple, got {tokens!r}"

    def test_a_list_built_vocab_is_a_tuple_and_round_trips(self, tmp_path):
        vocab = Vocab(tokens=["<unk>", "a", "b"])
        assert vocab.tokens == ("<unk>", "a", "b")
        assert vocab == Vocab(tokens=("<unk>", "a", "b"))
        config = ScorerConfig(4, 8, LabelSchema(["A"]))
        params = init_params(vocab, config, 0)
        assert _save_and_load(params, str(tmp_path / "model.tcrf")).vocab == vocab


class TestRealFields:
    @pytest.mark.parametrize("name", ["learning_rate", "epsilon_smoothing"])
    @pytest.mark.parametrize("value", ["0.1", None, True, False, 1j])
    def test_refuses_what_is_not_a_real_number(self, name, value):
        with pytest.raises(BadConfig) as info:
            TrainConfig(**{name: value})
        # the epsilon is checked by the masks' own rule
        what = {"epsilon_smoothing": "epsilon"}.get(name, name)
        assert str(info.value) == f"{what} must be a real number, got {value!r}"

    @pytest.mark.parametrize("value", ["0.1", None, True, False, 1j])
    def test_the_masks_refuse_what_is_not_a_real_number(self, value):
        schema = LabelSchema(("PER",))
        tree = validate_annotation(["a", "b"], [(0, 1, "PER")], schema)
        message = f"epsilon must be a real number, got {value!r}"
        with pytest.raises(BadConfig) as info:
            smooth_mask(build_mask(tree, schema), tree, value)
        assert str(info.value) == message
        with pytest.raises(BadConfig) as info:
            smoothed_masks([tree], schema, value)
        assert str(info.value) == message

    def test_the_masks_take_numpy_reals(self):
        schema = LabelSchema(("PER",))
        # span (1, 2) crosses the entity (0, 1), so its cell is rejected
        tree = validate_annotation(["a", "b", "c"], [(0, 2, "PER")], schema)
        for epsilon in (np.float64(0.25), np.float32(0.25), np.int64(0)):
            cells = smooth_mask(build_mask(tree, schema), tree, epsilon).cells
            assert cells.max() == 1.0 and epsilon in cells
            batched = smoothed_masks([tree], schema, epsilon)[0].cells
            assert np.array_equal(batched, cells)

    def test_numpy_reals_and_integers_are_taken(self):
        config = TrainConfig(learning_rate=np.float64(0.5), epsilon_smoothing=np.int64(0))
        assert config.learning_rate == 0.5 and config.epsilon_smoothing == 0

    @pytest.mark.parametrize("epsilon", [-0.1, 1.0, float("nan")])
    def test_epsilon_range_is_the_masks(self, epsilon):
        with pytest.raises(BadConfig) as info:
            TrainConfig(epsilon_smoothing=epsilon)
        assert str(info.value) == f"epsilon must be in [0, 1), got {epsilon}"


def _save_and_load(params, path):
    save_model(params, path)
    return load_model(path)


NAMES = st.text(min_size=1, max_size=6)
COUNTS = st.integers(1, 3).flatmap(
    lambda c: st.sampled_from([c, np.int64(c), np.int32(c), np.uint8(c)])
)


@st.composite
def models(draw):
    schema = LabelSchema(
        observed_labels=draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)),
        latent_label_count=draw(COUNTS),
    )
    embed = draw(st.integers(2, 5))
    half = draw(st.integers(1, 3))
    convert = draw(st.sampled_from([int, np.int64, np.int16]))
    config = ScorerConfig(convert(embed), convert(2 * half), schema)
    vocab = Vocab.build(draw(st.lists(NAMES, max_size=5)))
    return init_params(vocab, config, draw(st.integers(0, 2**32 - 1)))


class TestEverySavedModelLoads:
    @settings(deadline=None, max_examples=60)
    @given(params=models())
    def test_round_trip(self, params, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("models") / "model.tcrf")
        loaded = _save_and_load(params, path)
        assert loaded.config == params.config
        assert loaded.vocab == params.vocab
        for name in PARAM_ORDER:
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_numpy_sizes_are_written_as_json_integers(self, tmp_path):
        schema = LabelSchema(("A",), latent_label_count=np.int64(2))
        config = ScorerConfig(np.int64(4), np.int64(8), schema)
        path = str(tmp_path / "model.tcrf")
        loaded = _save_and_load(init_params(Vocab.build(["a"]), config, 0), path)
        assert loaded.config == config
        sizes = (config.embed_dim, config.hidden_dim, schema.latent_label_count)
        assert sizes == (4, 8, 2)

    def test_a_bool_count_is_refused_before_saving(self):
        with pytest.raises(BadConfig):
            LabelSchema(("A",), latent_label_count=True)

    @pytest.mark.parametrize("key", ["latent_label_count", "embed_dim", "hidden_dim"])
    @pytest.mark.parametrize("value", [True, 4.0, "4", None])
    def test_header_sizes_that_are_not_integers(self, tmp_path, key, value):
        config = ScorerConfig(4, 8, LabelSchema(("A",), latent_label_count=4))
        path = tmp_path / "model.tcrf"
        save_model(init_params(Vocab.build(["a"]), config, 0), str(path))
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<Q", blob, 8)
        header = json.loads(blob[16 : 16 + header_len])
        header[key] = value
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(
            blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + header_len :]
        )
        with pytest.raises(ModelFormatError) as info:
            load_model(str(path))
        assert str(info.value) == f"{path}: {key} must be an integer, got {value!r}"
