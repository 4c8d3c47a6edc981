import json
from pathlib import Path, PurePath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctctag as c
from ctctag.synth import _windows, embedding_table


def tiny_config(**overrides):
    defaults = dict(seed=5, n_utterances=12)
    defaults.update(overrides)
    return c.SynthConfig(**defaults)


class TestSynthConfig:
    def test_defaults(self):
        cfg = c.default_config()
        assert cfg.seed == 42
        assert cfg.n_utterances == 2200
        assert cfg.feature_dim == 16
        assert cfg.frames_per_token == (2, 4)
        assert cfg.noise_sigma == 0.3
        assert cfg.speaker_change_probability == 0.0

    def test_lexicons_must_be_disjoint(self):
        with pytest.raises(ValueError, match="appears in both"):
            tiny_config(filler_lexicon=("with", "put"))

    def test_lexicon_words_must_be_plain(self):
        with pytest.raises(ValueError, match="bad lexicon word"):
            tiny_config(filler_lexicon=("with", "two words"))
        with pytest.raises(ValueError, match="bad lexicon word"):
            tiny_config(filler_lexicon=("with", "a@b"))

    def test_entities_capped_by_filler_minimum(self):
        with pytest.raises(ValueError, match="preceding filler"):
            tiny_config(entities_per_utterance=(0, 3), fillers_per_utterance=(2, 4))

    def test_entities_capped_by_type_count(self):
        with pytest.raises(ValueError):
            tiny_config(entities_per_utterance=(0, 5), fillers_per_utterance=(5, 5))

    def test_phrase_words_capped_by_smallest_lexicon(self):
        with pytest.raises(ValueError, match="smallest entity lexicon"):
            tiny_config(phrase_words=(2, 5))

    def test_ranges_must_be_nonempty(self):
        with pytest.raises(ValueError):
            tiny_config(frames_per_token=(4, 2))
        with pytest.raises(ValueError):
            tiny_config(fillers_per_utterance=(0, 2))

    def test_scalar_bounds(self):
        with pytest.raises(ValueError):
            tiny_config(n_utterances=0)
        with pytest.raises(ValueError):
            tiny_config(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            tiny_config(speaker_change_probability=1.5)

    @pytest.mark.parametrize("overrides, message", [
        ({"frames_per_token": (0, 2)}, "frames_per_token must be >= 1"),
        ({"entities_per_utterance": (-1, 1)}, "entities_per_utterance must be >= 0"),
        ({"filler_lexicon": ("with",)}, "filler lexicon needs at least 2 words"),
        ({"phrase_words": (0, 2)}, "phrase_words must be >= 1"),
        ({"intents": {}}, "need at least one intent"),
        ({"intents": {"CALENDER_SET": ()}}, "intent CALENDER_SET lexicon is empty"),
    ])
    def test_each_refusal_names_its_rule(self, overrides, message):
        with pytest.raises(c.UsageError, match=message):
            tiny_config(**overrides)

    def test_dict_round_trip(self):
        cfg = tiny_config(speaker_change_probability=0.25)
        assert c.SynthConfig.from_dict(cfg.to_dict()) == cfg
        assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        doc = tiny_config().to_dict()
        doc["upsampling"] = 3
        with pytest.raises(c.FormatError):
            c.SynthConfig.from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("filler_lexicon", "abcdefgh"),  # a string is not a tuple
        ("intents", {"A": "xyz"}),
        ("frames_per_token", [2, 3, 4]),
        ("frames_per_token", [2, 3.5]),
        ("seed", 1.5),  # a float is not an int
        ("n_utterances", True),  # a bool is not an int
        ("noise_sigma", "0.3"),
        ("noise_sigma", float("nan")),  # NaN and Infinity are not JSON numbers
        ("speaker_change_probability", float("-inf")),
    ])
    def test_from_dict_rejects_a_wrong_json_type_naming_the_field(self, field, value):
        with pytest.raises(c.FormatError, match=repr(field)):
            c.SynthConfig.from_dict({field: value})

    def test_field_defaults_and_json_forms(self):
        assert c.SynthConfig() == c.default_config(seed=42, n_utterances=2200)
        assert c.TrainConfig().epochs == 30
        cfg = c.TrainConfig.from_dict({"learning_rate": 1, "strip_tags": True})
        assert cfg == c.TrainConfig(learning_rate=1.0, strip_tags=True)
        assert type(cfg.learning_rate) is float
        assert c.TrainConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(c.FormatError, match="'strip_tags'"):
            c.TrainConfig.from_dict({"strip_tags": 1})


class TestRegistryAndEmbeddings:
    def test_build_registry_binds_every_tag(self):
        cfg = tiny_config()
        registry = c.build_registry(cfg)
        for name in cfg.intents:
            assert registry.binding_for_surface(f"@{name}@") is not None
        for name in cfg.entity_types:
            binding = registry.binding_for_surface(f"!{name}!")
            assert binding.entity_type == name
        assert registry.end_binding is not None
        assert registry.speaker_change_binding() is not None

    def test_build_registry_is_deterministic(self):
        cfg = tiny_config()
        assert c.build_registry(cfg) == c.build_registry(cfg)

    def test_placeholder_budget_is_checked(self):
        with pytest.raises(ValueError, match="placeholders"):
            c.build_registry(tiny_config(), placeholder_count=3)

    def test_embedding_table_is_seed_deterministic(self):
        cfg = tiny_config()
        first = embedding_table(cfg)
        second = embedding_table(cfg)
        assert set(first) == set(cfg.all_words())
        for word in first:
            np.testing.assert_array_equal(first[word], second[word])
        other = embedding_table(tiny_config(seed=6))
        assert any(not np.array_equal(first[w], other[w]) for w in first)


class TestSampleUtterance:
    def test_deterministic_per_index(self):
        cfg = tiny_config()
        registry = c.build_registry(cfg)
        table = embedding_table(cfg)
        text_a, labels_a, feats_a = c.sample_utterance(cfg, registry, 3, table)
        text_b, labels_b, feats_b = c.sample_utterance(cfg, registry, 3, table)
        assert text_a == text_b
        assert labels_a == labels_b
        np.testing.assert_array_equal(feats_a, feats_b)
        text_c, _, _ = c.sample_utterance(cfg, registry, 4, table)
        assert text_c != text_a

    def test_fixed_frame_count_case(self):
        # 1 lead word + 2 fillers, no entities, exactly 2 frames per word
        cfg = tiny_config(
            n_utterances=1,
            entities_per_utterance=(0, 0),
            fillers_per_utterance=(3, 3),
            frames_per_token=(2, 2),
        )
        registry = c.build_registry(cfg)
        _, labels, features = c.sample_utterance(cfg, registry, 0, embedding_table(cfg))
        assert len(labels) == 4  # intent tag + 3 words
        assert features.shape == (6, cfg.feature_dim)

    def test_a_filler_minimum_of_one_is_drawn(self):
        cfg = tiny_config(n_utterances=1, entities_per_utterance=(1, 1),
                          fillers_per_utterance=(1, 2))
        registry = c.build_registry(cfg)
        _, labels, _ = c.sample_utterance(cfg, registry, 0, embedding_table(cfg))
        transcript = c.parse(labels, registry)
        assert transcript.anomalies == ()
        assert len(transcript.entities) == 1
        assert 1 <= len(transcript.words) - len(transcript.entities[0].phrase.split()) <= 2

    def test_grammar_invariants(self, small_corpus):
        cfg, registry, items = small_corpus
        lead_words = {w: name for name, lex in cfg.intents.items() for w in lex}
        for text, labels, features in items:
            t = c.parse(labels, registry)
            assert t.anomalies == ()
            assert t.intent is not None
            assert lead_words[t.words[0]] == t.intent
            types = [e.entity_type for e in t.entities]
            assert len(types) == len(set(types))
            for a, b in zip(t.words, t.words[1:]):
                assert a != b
            for e in t.entities:
                phrase = e.phrase.split()
                assert len(phrase) == len(set(phrase))
            assert features.shape[0] >= len(labels) + sum(
                1 for a, b in zip(labels, labels[1:]) if a == b
            )

    def test_frame_budget_respects_per_word_range(self, small_corpus):
        cfg, registry, items = small_corpus
        lo, hi = cfg.frames_per_token
        for _, labels, features in items[:50]:
            n_words = len(c.strip_tags(labels, registry))
            assert lo * n_words <= features.shape[0] <= hi * n_words

    def test_entity_and_intent_marginals(self):
        cfg = c.default_config(seed=7, n_utterances=2000)
        registry = c.build_registry(cfg)
        table = embedding_table(cfg)
        type_counts = {name: 0 for name in cfg.entity_types}
        intent_counts = {name: 0 for name in cfg.intents}
        total_entities = 0
        for idx in range(cfg.n_utterances):
            text, _, _ = c.sample_utterance(cfg, registry, idx, table)
            for name in type_counts:
                if f"!{name}!" in text:
                    type_counts[name] += 1
                    total_entities += 1
            for name in intent_counts:
                if f"@{name}@" in text:
                    intent_counts[name] += 1
        # each type appears in n_entities/4 of utterances; 3 sigma binomial bands
        expected_type = total_entities / len(type_counts)
        sigma_type = (total_entities * 0.25 * 0.75) ** 0.5
        for name, count in type_counts.items():
            assert abs(count - expected_type) <= 3 * sigma_type, (name, count)
        expected_intent = cfg.n_utterances / 3
        sigma_intent = (cfg.n_utterances * (1 / 3) * (2 / 3)) ** 0.5
        for name, count in intent_counts.items():
            assert abs(count - expected_intent) <= 3 * sigma_intent, (name, count)


class TestGenCorpus:
    def test_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_config(speaker_change_probability=0.3)
        registry = c.build_registry(cfg)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        records_a = c.gen_corpus(cfg, registry, dir_a)
        records_b = c.gen_corpus(cfg, registry, dir_b)
        assert records_a == records_b
        manifest_a = (dir_a / "manifest.jsonl").read_bytes()
        assert manifest_a == (dir_b / "manifest.jsonl").read_bytes()
        for record in records_a:
            assert (dir_a / record.feature_path).read_bytes() == (
                dir_b / record.feature_path
            ).read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        cfg = tiny_config()
        records = c.gen_corpus(cfg, c.build_registry(cfg), tmp_path)
        from ctctag.synth import read_manifest

        path = tmp_path / "manifest.jsonl"
        assert read_manifest(path) == records
        # blank and whitespace-only lines hold no record
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["", lines[0], " \t", *lines[1:], ""]) + "\n")
        assert read_manifest(path) == records

    def test_unbound_grammar_tag_is_rejected(self, tmp_path):
        cfg = tiny_config()
        bare = c.TagRegistry(c.build_vocab(cfg.all_words(), 16))
        with pytest.raises(c.UnknownToken):
            c.gen_corpus(cfg, bare, tmp_path)

    def test_bad_manifest_line(self, tmp_path):
        from ctctag.synth import read_manifest

        path = tmp_path / "manifest.jsonl"
        path.write_text('{"id": "utt_00000"}\n')
        with pytest.raises(c.FormatError):
            read_manifest(path)

    @pytest.mark.parametrize("key", ["id", "tagged_text", "features"])
    @pytest.mark.parametrize("value", [None, 3, ["a"], {"a": 1}])
    def test_manifest_field_of_the_wrong_type(self, tmp_path, key, value):
        from ctctag.synth import read_manifest

        doc = {"id": "utt_00000", "tagged_text": "put", "features": "f.ctcf", key: value}
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(c.FormatError, match="must be strings"):
            read_manifest(path)

    def test_repeated_id_names_both_lines(self, tmp_path):
        from ctctag.synth import read_manifest

        lines = [json.dumps({"id": uid, "tagged_text": "put", "features": f"{uid}.ctcf"})
                 for uid in ("a", "b", "a")]
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(c.FormatError, match=r"manifest.jsonl:3: id 'a' repeats line 1"):
            read_manifest(path)

    def test_manifest_that_is_not_utf8(self, tmp_path):
        from ctctag.synth import read_manifest

        path = tmp_path / "manifest.jsonl"
        path.write_bytes(b'{"id": "u\xff", "tagged_text": "put", "features": "f.ctcf"}\n')
        with pytest.raises(c.FormatError, match="UTF-8"):
            read_manifest(path)

    def test_feature_path_holding_a_nul(self):
        # no file has such a path; opening it would raise a bare ValueError
        from ctctag.synth import manifest_feature_path

        with pytest.raises(c.FormatError, match="NUL"):
            manifest_feature_path("corpus/manifest.jsonl", "f\0.ctcf")

    @given(
        manifest=st.sampled_from(["manifest.jsonl", "corpus/manifest.jsonl", "/data/corpus/m.jsonl",
                                  Path("corpus/manifest.jsonl")]),
        feature_path=st.lists(st.sampled_from(["/", "//", ".", "..", "...", "\0", "f", "a.ctcf"]),
                              max_size=6).map("".join),
    )
    @settings(max_examples=500, deadline=None)
    def test_feature_path_rule_is_the_pure_path_rule(self, manifest, feature_path):
        from ctctag.synth import manifest_feature_path

        rel = PurePath(feature_path)
        if rel.is_absolute() or ".." in rel.parts or "\0" in feature_path:
            with pytest.raises(c.FormatError, match="must be relative"):
                manifest_feature_path(manifest, feature_path)
        else:
            assert Path(manifest_feature_path(manifest, feature_path)) == Path(manifest).parent / rel

    def test_samples_load_against_manifest(self, tmp_path):
        cfg = tiny_config()
        registry = c.build_registry(cfg)
        c.gen_corpus(cfg, registry, tmp_path)
        samples = c.load_training_samples(tmp_path / "manifest.jsonl", registry)
        assert len(samples) == cfg.n_utterances
        stripped = c.load_training_samples(
            tmp_path / "manifest.jsonl", registry, strip_tags=True
        )
        for (_, tagged), (_, words) in zip(samples, stripped):
            assert words == [t for t in tagged if registry.binding_for_id(t) is None]


class TestToyModel:
    def rng(self):
        return np.random.default_rng(8)

    def test_window_stacking(self):
        features = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        stacked = _windows(features, 3)
        assert stacked.shape == (3, 6)
        np.testing.assert_array_equal(stacked[0], [0, 0, 1, 10, 2, 20])
        np.testing.assert_array_equal(stacked[1], [1, 10, 2, 20, 3, 30])
        np.testing.assert_array_equal(stacked[2], [2, 20, 3, 30, 0, 0])

    @pytest.mark.parametrize("t_frames", [1, 2, 18, 54])
    @pytest.mark.parametrize("receptive_field", [1, 3, 5])
    def test_windows_match_a_frame_by_frame_reference(self, t_frames, receptive_field):
        features = np.random.default_rng(t_frames).normal(size=(t_frames, 4))
        half = receptive_field // 2
        zero = np.zeros(4)
        expected = np.array([
            np.concatenate([features[u] if 0 <= u < t_frames else zero
                            for u in range(t - half, t + half + 1)])
            for t in range(t_frames)
        ])
        np.testing.assert_array_equal(_windows(features, receptive_field), expected)

    def test_predict_shape_and_row_sums(self):
        model = c.ToyModel.init(16, 50, self.rng())
        features = self.rng().normal(size=(23, 16))
        emissions = model.predict(features)
        assert emissions.t_frames == 23
        assert emissions.v_total == 50
        np.testing.assert_allclose(emissions.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_rejects_wrong_width(self):
        model = c.ToyModel.init(16, 50, self.rng())
        with pytest.raises(c.ShapeError):
            model.predict(np.zeros((4, 7)))

    def test_receptive_field_must_be_odd(self):
        with pytest.raises(ValueError):
            c.ToyModel.init(4, 8, self.rng(), receptive_field=4)

    def test_save_load_round_trip(self, tmp_path):
        model = c.ToyModel.init(6, 9, self.rng())
        path = tmp_path / "model.json"
        c.save_model(model, path)
        loaded = c.load_model(path)
        np.testing.assert_array_equal(loaded.w1, model.w1)
        np.testing.assert_array_equal(loaded.b1, model.b1)
        np.testing.assert_array_equal(loaded.w2, model.w2)
        np.testing.assert_array_equal(loaded.b2, model.b2)
        assert loaded.receptive_field == model.receptive_field

    @pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
    def test_weight_of_the_wrong_rank(self, name):
        model = c.ToyModel.init(4, 6, self.rng(), receptive_field=3, hidden_width=5)
        weights = {k: getattr(model, k) for k in ("w1", "b1", "w2", "b2")}
        for bad in (np.float64(1.0), weights[name][..., None]):
            with pytest.raises(c.ShapeError, match="2-D"):
                c.ToyModel(**{**weights, name: bad}, receptive_field=3)

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
    def test_load_model_refuses_non_finite_weights(self, tmp_path, weight):
        # json reads these spellings as floats; the model would only fail
        # later, with non-finite logits
        path = tmp_path / "model.json"
        c.save_model(c.ToyModel.init(2, 3, self.rng(), receptive_field=1, hidden_width=2), path)
        doc = json.loads(path.read_text())
        doc["b1"][1] = "WEIGHT"
        path.write_text(json.dumps(doc).replace('"WEIGHT"', weight))
        with pytest.raises(c.FormatError, match="finite"):
            c.load_model(path)

    def test_load_model_error_ladder(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        with pytest.raises(c.FormatError):
            c.load_model(bad)
        versioned = tmp_path / "versioned.json"
        versioned.write_text(json.dumps({"version": 3}))
        with pytest.raises(c.UnsupportedVersion):
            c.load_model(versioned)
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text(json.dumps({"version": 1, "w1": [[1.0]]}))
        with pytest.raises(c.FormatError):
            c.load_model(incomplete)


class TestTrain:
    def train_config(self, **overrides):
        defaults = dict(epochs=2, seed=0)
        defaults.update(overrides)
        return c.TrainConfig(**defaults)

    def test_loss_decreases(self, small_corpus):
        _, registry, items = small_corpus
        samples = [(features, labels) for _, labels, features in items[:48]]
        _, losses = c.train(samples, registry.vocab.v_total, self.train_config(epochs=4))
        assert losses[-1] < losses[0]

    def test_same_seed_same_weights(self, small_corpus):
        _, registry, items = small_corpus
        samples = [(features, labels) for _, labels, features in items[:16]]
        first, losses_a = c.train(samples, registry.vocab.v_total, self.train_config())
        second, losses_b = c.train(samples, registry.vocab.v_total, self.train_config())
        assert losses_a == losses_b
        np.testing.assert_array_equal(first.w1, second.w1)
        np.testing.assert_array_equal(first.w2, second.w2)
        np.testing.assert_array_equal(first.b1, second.b1)
        np.testing.assert_array_equal(first.b2, second.b2)

    def test_stripped_training_never_decodes_placeholders(self, small_corpus):
        _, registry, items = small_corpus
        samples = [
            (features, [t for t in labels if registry.binding_for_id(t) is None])
            for _, labels, features in items[:64]
        ]
        model, _ = c.train(samples, registry.vocab.v_total, self.train_config(epochs=6))
        vocab = registry.vocab
        placeholder_ids = set(range(vocab.l_count, vocab.l_count + vocab.d_count))
        for features, _ in samples[:20]:
            decoded = c.greedy_decode(model.predict(features))
            assert placeholder_ids.isdisjoint(decoded.labels)

    def test_infeasible_sample_skipped_with_warning(self, small_corpus):
        _, registry, items = small_corpus
        _, labels, features = items[0]
        too_short = (features[:2], [labels[0]] * 5)
        with pytest.warns(UserWarning,
                          match="^utterance 1: 2 frames cannot fit 9 alignment slots; skipped$"):
            model, _ = c.train(
                [(features, labels), too_short],
                registry.vocab.v_total,
                self.train_config(epochs=1),
            )
        assert model.v_total == registry.vocab.v_total

    # two equal labels need 3 frames: a label, the blank between, a label
    def test_a_sample_with_exactly_the_frames_its_labels_need_is_kept(self, small_corpus):
        _, registry, items = small_corpus
        _, labels, features = items[0]
        exact, short = (features[:3], [labels[1]] * 2), (features[:2], [labels[1]] * 2)
        with pytest.warns(UserWarning) as caught:
            _, losses = c.train([exact, short, exact], registry.vocab.v_total,
                                self.train_config(epochs=1))
        assert [str(w.message) for w in caught] == [
            "utterance 1: 2 frames cannot fit 3 alignment slots; skipped"]
        assert np.isfinite(losses).all()

    def test_all_infeasible_is_an_error(self, small_corpus):
        _, registry, items = small_corpus
        _, labels, features = items[0]
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="infeasible"):
                c.train(
                    [(features[:2], [labels[0]] * 5)],
                    registry.vocab.v_total,
                    self.train_config(epochs=1),
                )

    def test_mixed_feature_widths_are_a_shape_error(self, small_corpus):
        _, registry, items = small_corpus
        samples = [(features, labels) for _, labels, features in items[:3]]
        samples[2] = (samples[2][0][:, :-1], samples[2][1])
        with pytest.raises(c.ShapeError, match="utterance 2 has 15 features per frame"):
            c.train(samples, registry.vocab.v_total, self.train_config(epochs=1))

    def test_a_loss_failing_before_any_step_names_no_step(self, small_corpus):
        # no weight has moved, so the data (here a NaN feature) is at fault
        _, registry, items = small_corpus
        samples = [(features.copy(), labels) for _, labels, features in items[:3]]
        samples[0][0][1, 2] = np.nan
        with pytest.raises(c.InvalidValue, match="^utterance 0: CTC log-probability is nan"):
            c.train(samples, registry.vocab.v_total, self.train_config(epochs=1, batch_size=4))

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            c.train([], 10, self.train_config())

    def test_warm_start_requires_matching_shapes(self, small_corpus):
        _, registry, items = small_corpus
        samples = [(features, labels) for _, labels, features in items[:8]]
        wrong = c.ToyModel.init(4, registry.vocab.v_total, np.random.default_rng(0))
        with pytest.raises(c.ShapeError):
            c.train(samples, registry.vocab.v_total, self.train_config(), init_model=wrong)
        # the corpus fits, but the config asks for another network
        feature_dim = samples[0][0].shape[1]
        small = c.ToyModel.init(
            feature_dim, registry.vocab.v_total, np.random.default_rng(0), hidden_width=8
        )
        for receptive_field, hidden_width in ((7, 32), (7, 8), (5, 32)):
            cfg = self.train_config(receptive_field=receptive_field, hidden_width=hidden_width)
            with pytest.raises(c.ShapeError):
                c.train(samples, registry.vocab.v_total, cfg, init_model=small)

    def test_warm_start_continues_from_given_weights(self, small_corpus):
        _, registry, items = small_corpus
        samples = [(features, labels) for _, labels, features in items[:16]]
        cfg = self.train_config(epochs=1)
        warm, _ = c.train(samples, registry.vocab.v_total, cfg)
        before = {name: getattr(warm, name).copy() for name in ("w1", "b1", "w2", "b2")}
        tuned, _ = c.train(samples, registry.vocab.v_total, cfg, init_model=warm)
        for name, weight in before.items():
            np.testing.assert_array_equal(getattr(warm, name), weight)  # input untouched
            assert not np.array_equal(getattr(tuned, name), weight)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            c.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            c.TrainConfig(epochs=1, momentum=1.0)
        with pytest.raises(ValueError):
            c.TrainConfig(epochs=1, learning_rate=0.0)

    @pytest.mark.parametrize("field, value", [
        ("receptive_field", 0), ("receptive_field", 4), ("hidden_width", 0),
    ])
    def test_network_shape_is_checked_with_the_config(self, field, value):
        with pytest.raises(ValueError, match=field):
            c.TrainConfig(**{field: value})
