import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctctag as c
from ctctag.vocab import PLACEHOLDER_TEMPLATE, check_label_ids


def test_build_vocab_small_counts():
    vocab = c.build_vocab(["put", "meeting"], 2)
    assert vocab.v_total == 5
    assert vocab.blank_id == 4
    assert vocab.surface_of(0) == "put"
    assert vocab.surface_of(2) == PLACEHOLDER_TEMPLATE.format(0)
    assert vocab.surface_of(4) == c.BLANK_SURFACE
    for lookup, bad in ((vocab.surface_of, 5), (vocab.role_of, -1), (vocab.id_of, "zorp")):
        with pytest.raises(c.UnknownToken):
            lookup(bad)


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
    with pytest.raises(c.UsageError, match="placeholder_count"):
        c.build_vocab(["a"], -1)


T, D, BLANK = c.TokenRole.TRANSCRIPTION, c.TokenRole.PLACEHOLDER, c.TokenRole.BLANK


@pytest.mark.parametrize("roles, message", [
    ([T, D], "exactly one blank"),
    ([T, BLANK, BLANK], "exactly one blank"),
    ([T, BLANK, D], "exactly one blank"),
    ([D, T, BLANK], "contiguous blocks"),
    ([T, D, T, BLANK], "contiguous blocks"),
])
def test_vocabulary_roles_must_be_words_placeholders_blank(roles, message):
    with pytest.raises(c.InvalidToken, match=message):
        c.Vocabulary([(f"t{i}", role) for i, role in enumerate(roles)])


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


# names collide: "@A@", "!A!", "<A>", "A" and "@A" all strip to "A"
_TAG_SURFACES = [f"{left}{name}{right}" for name in "AB"
                 for left, right in [("@", "@"), ("!", "!"), ("<", ">"), ("", ""), ("@", "")]]


@st.composite
def binding_sets(draw, placeholder_ids):
    """Bindings on distinct placeholders in any id order, with colliding
    intent names and entity types, several speaker-change tags and at most
    one entity-end tag."""
    ids = draw(st.permutations(placeholder_ids))[: draw(st.integers(0, len(placeholder_ids)))]
    surfaces = draw(st.permutations(_TAG_SURFACES))
    kinds = [draw(st.sampled_from([c.TagKind.INTENT, c.TagKind.ENTITY_BEGIN,
                                   c.TagKind.SPEAKER_CHANGE])) for _ in ids]
    if ids and draw(st.booleans()):
        kinds[draw(st.integers(0, len(ids) - 1))] = c.TagKind.ENTITY_END
    return tuple(
        c.TagBinding(surface, token_id, kind, draw(
            st.sampled_from(["X", "Y"] if kind is c.TagKind.ENTITY_BEGIN else [None, ""])))
        for surface, token_id, kind in zip(surfaces, ids, kinds)
    )


@given(bindings=binding_sets(range(2, 10)))
@settings(max_examples=300, deadline=None)
def test_every_lookup_is_the_first_match_in_bindings(bindings):
    vocab = c.build_vocab(["a", "b"], 8)
    reg = c.TagRegistry(vocab, bindings)

    def first(**fields):
        return next((b for b in bindings
                     if all(getattr(b, k) == v for k, v in fields.items())), None)

    for surface in [*_TAG_SURFACES, *(s for s, _ in vocab.tokens), "!END!"]:
        assert reg.binding_for_surface(surface) is first(surface=surface)
    for token_id in range(-1, vocab.v_total + 1):
        assert reg.binding_for_id(token_id) is first(token_id=token_id)
    assert reg.end_binding is first(kind=c.TagKind.ENTITY_END)
    assert reg.speaker_change_binding() is first(kind=c.TagKind.SPEAKER_CHANGE)
    for name in ["A", "B", "@A", "X", ""]:
        assert reg.intent_binding(name) is first(kind=c.TagKind.INTENT, name=name)
    for entity_type in ["X", "Y", None, ""]:
        expected = first(kind=c.TagKind.ENTITY_BEGIN, entity_type=entity_type)
        if expected is None:
            with pytest.raises(c.UnknownToken, match="no entity-begin tag bound for type"):
                reg.begin_binding_for_type(entity_type)
        else:
            assert reg.begin_binding_for_type(entity_type) is expected
    free = sorted(set(range(2, 10)) - {b.token_id for b in bindings})
    if free:
        assert c.assign_tag(reg, "@NEW@", c.TagKind.INTENT).binding_for_surface(
            "@NEW@").token_id == free[0]
    else:
        with pytest.raises(c.NoFreePlaceholder):
            c.assign_tag(reg, "@NEW@", c.TagKind.INTENT)


def test_bindings_only_on_placeholders():
    registry = c.TagRegistry(c.build_vocab(["put", "meeting"], 4))
    registry = c.assign_tag(registry, "@A@", c.TagKind.INTENT)
    registry = c.assign_tag(registry, "<SPK>", c.TagKind.SPEAKER_CHANGE)
    for binding in registry.bindings:
        assert registry.vocab.role_of(binding.token_id) is c.TokenRole.PLACEHOLDER
    vocab = registry.vocab
    with pytest.raises(c.InvalidToken, match="token id 0 is not a placeholder"):
        c.TagRegistry(vocab, (c.TagBinding("@A@", 0, c.TagKind.INTENT),))
    with pytest.raises(c.DuplicateToken, match="token id 2 bound twice"):
        c.TagRegistry(vocab, (c.TagBinding("@A@", 2, c.TagKind.INTENT),
                              c.TagBinding("@B@", 2, c.TagKind.INTENT)))


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


def test_binding_table_has_one_entry_per_id(calendar_registry):
    reg = calendar_registry
    v_total = reg.vocab.v_total
    assert len(reg.binding_by_id) == v_total
    assert [reg.binding_for_id(i) for i in range(v_total)] == list(reg.binding_by_id)
    assert {i: b for i, b in enumerate(reg.binding_by_id) if b is not None} == {
        b.token_id: b for b in reg.bindings
    }
    # negative ids would index the table from its end, where tags are bound
    assert any(reg.binding_by_id[i] is not None for i in range(-v_total, 0))
    for token_id in [*range(-v_total - 1, 0), v_total, v_total + 1, 10**20]:
        assert reg.binding_for_id(token_id) is None


def first_label_error(labels, v_total):
    """(type, message) of the error for the first bad label id, walking the
    ids one by one, or None if every id is a label."""
    for i, token_id in enumerate(labels):
        if not isinstance(token_id, (int, np.integer)):
            return c.UnknownToken, f"label id {token_id!r} at index {i} is not an integer"
        if not 0 <= token_id < v_total:
            return c.UnknownToken, f"label id {token_id} at index {i} out of range 0..{v_total - 1}"
        if token_id == v_total - 1:
            return c.BlankInLabelSequence, f"blank id at label index {i}"
    return None


@given(st.lists(st.integers(0, 4), max_size=12), st.lists(
    st.tuples(st.integers(0, 12), st.sampled_from(
        [-7, -1, 5, 6, 10**20, 0.9, 1.99, 2.0, "3", float("nan"), None, np.float64(1.0)])),
    max_size=3))
@settings(max_examples=300, deadline=None)
def test_check_label_ids_names_the_first_bad_index(labels, bad):
    v_total = 6  # the blank is 5
    for position, token_id in bad:
        labels.insert(position, token_id)
    expected = first_label_error(labels, v_total)
    if expected is None:
        assert check_label_ids(np.array(labels, dtype=np.int64), v_total) == labels
    else:
        with pytest.raises(c.CtcTagError) as info:
            check_label_ids(labels, v_total)
        assert (type(info.value), str(info.value)) == expected


def test_callers_refuse_a_label_id_that_is_not_an_integer(calendar_registry):
    # truncated to an int, each would compute on another label
    with pytest.raises(c.UnknownToken, match="label id 0.9 at index 0 is not an integer"):
        c.nll_and_gradient(np.zeros((3, 3)), [0.9])
    with pytest.raises(c.UnknownToken, match="label id 1.99 at index 1 is not an integer"):
        c.decode_tokens(calendar_registry, [0, 1.99])
    with pytest.raises(c.UnknownToken, match="label id '3' at index 0 is not an integer"):
        c.parse(["3"], calendar_registry)


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


def test_tag_surface_clashing_with_a_word_is_rejected():
    # the word could never be encoded: its text would read as the tag
    vocab = c.build_vocab(["put", "!END!"], 1)
    with pytest.raises(c.DuplicateToken, match="shadows"):
        c.TagRegistry(vocab, (c.TagBinding("!END!", 2, c.TagKind.ENTITY_END),))


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


def _edited_vocab(tmp_path, registry, edit):
    doc = json.loads(c.vocab_document(registry))
    edit(doc)
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(doc))
    return path


def _bound_entry(doc, kind):
    return next(e for e in doc["tokens"] if e.get("tag_kind") == kind)


@pytest.mark.parametrize("edit", [
    lambda doc: _bound_entry(doc, "entity_end").update(surface="put"),
    lambda doc: _bound_entry(doc, "entity_end").update(surface=""),
    lambda doc: _bound_entry(doc, "entity_end").update(surface="!END !"),
    lambda doc: _bound_entry(doc, "entity_begin").pop("entity_type"),
    lambda doc: _bound_entry(doc, "intent").update(entity_type="PERSON"),
    lambda doc: _bound_entry(doc, "intent").update(tag_kind="entity_end"),
], ids=["shadows_a_word", "empty", "whitespace", "begin_without_type",
        "intent_with_type", "second_end"])
def test_load_vocab_applies_the_binding_rules_of_assign_tag(tmp_path, calendar_registry, edit):
    with pytest.raises(c.FormatError):
        c.load_vocab(_edited_vocab(tmp_path, calendar_registry, edit))


@pytest.mark.parametrize("surface", ["a m", "", "tab\there"])
def test_load_vocab_refuses_a_word_that_is_not_one_token(tmp_path, calendar_registry, surface):
    # decoded text holding it would not encode back to the ids it came from
    path = _edited_vocab(tmp_path, calendar_registry,
                         lambda doc: doc["tokens"][0].update(surface=surface))
    with pytest.raises(c.FormatError, match="id 0"):
        c.load_vocab(path)
    with pytest.raises(c.InvalidToken):
        c.Vocabulary([(surface, c.TokenRole.TRANSCRIPTION), ("<blank>", c.TokenRole.BLANK)])


def test_load_vocab_refuses_a_file_that_is_not_utf8(tmp_path, calendar_registry):
    path = tmp_path / "vocab.json"
    path.write_bytes(c.vocab_document(calendar_registry).encode().replace(b"put", b"p\xffut"))
    with pytest.raises(c.FormatError, match="UTF-8"):
        c.load_vocab(path)


@pytest.mark.parametrize("key, value", [
    (key, value)
    for key in ("L", "D", "blank_id", "tokens")
    for value in (None, "3", 2.0, [], {})
    if (key, value) != ("tokens", [])
])
def test_load_vocab_field_of_the_wrong_type_is_a_format_error(
    tmp_path, calendar_registry, key, value
):
    path = _edited_vocab(tmp_path, calendar_registry, lambda doc: doc.update({key: value}))
    with pytest.raises(c.FormatError, match="L, D and blank_id must be integers"):
        c.load_vocab(path)
