import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctctag as c
from ctctag.vocab import PLACEHOLDER_TEMPLATE


def test_build_vocab_small_counts():
    vocab = c.build_vocab(["put", "meeting"], 2)
    assert vocab.v_total == 5
    assert vocab.blank_id == 4
    assert vocab.surface_of(0) == "put"
    assert vocab.surface_of(2) == PLACEHOLDER_TEMPLATE.format(0)
    assert vocab.surface_of(4) == c.BLANK_SURFACE


def test_build_vocab_full_scale_sizes():
    surfaces = [f"w{i}" for i in range(624)]
    vocab = c.build_vocab(surfaces, 400)
    assert vocab.v_total == 1025
    assert vocab.blank_id == 1024
    roles = [vocab.role_of(i) for i in range(vocab.v_total)]
    assert roles.count(c.TokenRole.TRANSCRIPTION) == 624
    assert roles.count(c.TokenRole.PLACEHOLDER) == 400
    assert roles.count(c.TokenRole.BLANK) == 1


def test_roles_partition_id_space():
    vocab = c.build_vocab(["a", "b", "c"], 2)
    assert [vocab.role_of(i) for i in range(6)] == [
        c.TokenRole.TRANSCRIPTION,
        c.TokenRole.TRANSCRIPTION,
        c.TokenRole.TRANSCRIPTION,
        c.TokenRole.PLACEHOLDER,
        c.TokenRole.PLACEHOLDER,
        c.TokenRole.BLANK,
    ]


def test_build_vocab_rejects_bad_surfaces():
    with pytest.raises(c.InvalidToken):
        c.build_vocab([], 0)
    with pytest.raises(c.InvalidToken):
        c.build_vocab([""], 1)
    with pytest.raises(c.InvalidToken):
        c.build_vocab(["two words"], 1)
    with pytest.raises(c.DuplicateToken):
        c.build_vocab(["a", "a"], 1)


def test_assign_tag_takes_lowest_free_placeholder():
    vocab = c.build_vocab(["put"], 3)
    registry = c.TagRegistry(vocab)
    registry = c.assign_tag(registry, "!PERSON!", c.TagKind.ENTITY_BEGIN, entity_type="PERSON")
    binding = registry.binding_for_surface("!PERSON!")
    assert binding.token_id == 1  # first placeholder sits right after "put"
    assert binding.kind is c.TagKind.ENTITY_BEGIN
    assert binding.entity_type == "PERSON"
    registry = c.assign_tag(registry, "!END!", c.TagKind.ENTITY_END)
    assert registry.binding_for_surface("!END!").token_id == 2


def test_assign_tag_exhaustion_at_full_scale():
    vocab = c.build_vocab([f"w{i}" for i in range(624)], 400)
    registry = c.TagRegistry(vocab)
    for i in range(400):
        registry = c.assign_tag(registry, f"@I{i}@", c.TagKind.INTENT)
    with pytest.raises(c.NoFreePlaceholder):
        c.assign_tag(registry, "@I400@", c.TagKind.INTENT)


def test_assign_tag_single_shared_end():
    registry = c.TagRegistry(c.build_vocab(["put"], 3))
    registry = c.assign_tag(registry, "!END!", c.TagKind.ENTITY_END)
    with pytest.raises(c.DuplicateEndTag):
        c.assign_tag(registry, "!STOP!", c.TagKind.ENTITY_END)


def test_assign_tag_rejects_duplicate_surface():
    registry = c.TagRegistry(c.build_vocab(["put"], 3))
    registry = c.assign_tag(registry, "@A@", c.TagKind.INTENT)
    with pytest.raises(c.DuplicateToken):
        c.assign_tag(registry, "@A@", c.TagKind.INTENT)


def test_bindings_only_on_placeholders():
    registry = c.TagRegistry(c.build_vocab(["put", "meeting"], 4))
    registry = c.assign_tag(registry, "@A@", c.TagKind.INTENT)
    registry = c.assign_tag(registry, "<SPK>", c.TagKind.SPEAKER_CHANGE)
    for binding in registry.bindings:
        assert registry.vocab.role_of(binding.token_id) is c.TokenRole.PLACEHOLDER


def test_encode_listing_token_by_token(calendar_registry, listing_text):
    reg = calendar_registry
    got = c.encode_tagged_text(reg, listing_text)
    vid = reg.vocab.id_of
    tid = lambda s: reg.binding_for_surface(s).token_id
    assert got == [
        tid("@CALENDER_SET@"), vid("put"),
        tid("!EVENT_NAME!"), vid("meeting"), tid("!END!"),
        vid("with"),
        tid("!PERSON!"), vid("paul"), tid("!END!"),
        vid("for"),
        tid("!DATE!"), vid("tomorrow"), tid("!END!"),
        tid("!TIME!"), vid("ten"), vid("am"), tid("!END!"),
    ]


def test_encode_empty_and_unknown(calendar_registry):
    assert c.encode_tagged_text(calendar_registry, "") == []
    with pytest.raises(c.UnknownToken, match="zorp"):
        c.encode_tagged_text(calendar_registry, "put zorp")
    with pytest.raises(c.UnknownToken, match="!NOPE!"):
        c.encode_tagged_text(calendar_registry, "!NOPE! put")


def test_decode_tokens_edges(calendar_registry):
    reg = calendar_registry
    assert c.decode_tokens(reg, []) == ""
    with pytest.raises(c.BlankInLabelSequence):
        c.decode_tokens(reg, [reg.vocab.blank_id])
    with pytest.raises(c.UnknownToken):
        c.decode_tokens(reg, [reg.vocab.v_total])


def test_listing_round_trip(calendar_registry, listing_text):
    ids = c.encode_tagged_text(calendar_registry, listing_text)
    assert c.decode_tokens(calendar_registry, ids) == listing_text


def test_round_trip_over_generated_corpus(small_corpus):
    _, registry, items = small_corpus
    for text, labels, _ in items:
        assert c.decode_tokens(registry, labels) == text
        assert c.encode_tagged_text(registry, text) == labels


def test_surfaces_read_bound_placeholders_as_their_tags(calendar_registry):
    reg = calendar_registry
    assert len(reg.surfaces) == reg.vocab.v_total
    for token_id, text in enumerate(reg.surfaces):
        binding = reg.binding_for_id(token_id)
        assert text == (binding.surface if binding else reg.vocab.surface_of(token_id))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_encode_inverts_decode_for_every_blank_free_sequence(data, calendar_registry):
    # unbound placeholders included: decode writes their auto-names
    reg = calendar_registry
    ids = data.draw(st.lists(st.integers(0, reg.vocab.blank_id - 1), max_size=30))
    assert c.encode_tagged_text(reg, c.decode_tokens(reg, ids)) == ids


def test_bound_auto_names_and_the_blank_do_not_encode(calendar_registry):
    reg = calendar_registry
    bound_auto_name = reg.vocab.surface_of(reg.bindings[0].token_id)
    for piece in (bound_auto_name, c.BLANK_SURFACE):
        with pytest.raises(c.UnknownToken, match="neither a bound tag nor a word"):
            c.encode_tagged_text(reg, f"put {piece}")


def test_tag_surface_clashing_with_a_word_encodes_as_the_tag():
    # assign_tag refuses the clash; a registry built directly can hold one
    vocab = c.build_vocab(["put", "!END!"], 1)
    reg = c.TagRegistry(vocab, (c.TagBinding("!END!", 2, c.TagKind.ENTITY_END),))
    assert c.encode_tagged_text(reg, "put !END!") == [0, 2]


def test_vocab_file_round_trip(tmp_path, calendar_registry):
    path = tmp_path / "vocab.json"
    c.save_vocab(calendar_registry, path)
    loaded = c.load_vocab(path)
    assert loaded == calendar_registry
    again = tmp_path / "again.json"
    c.save_vocab(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_vocab_file_round_trip_at_full_scale(tmp_path):
    registry = c.TagRegistry(c.build_vocab([f"w{i}" for i in range(624)], 400))
    registry = c.assign_tag(registry, "!END!", c.TagKind.ENTITY_END)
    path = tmp_path / "vocab.json"
    c.save_vocab(registry, path)
    assert c.load_vocab(path) == registry


def test_vocab_document_is_sorted_and_newline_terminated(calendar_registry):
    doc = c.vocab_document(calendar_registry)
    assert doc.endswith("\n")
    parsed = json.loads(doc)
    assert parsed["version"] == 1
    assert parsed["L"] + parsed["D"] + 1 == len(parsed["tokens"])
    assert doc == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_load_vocab_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(c.FormatError):
        c.load_vocab(bad)
    versioned = tmp_path / "v9.json"
    versioned.write_text(json.dumps({"version": 9, "L": 1, "D": 0, "blank_id": 1, "tokens": []}))
    with pytest.raises(c.UnsupportedVersion):
        c.load_vocab(versioned)
