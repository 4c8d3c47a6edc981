"""Extended vocabulary and event-tag registry.

The token table partitions ids into three contiguous blocks: transcription
tokens first, then placeholder tokens reserved for event tags, then a single
blank token with the last id. Placeholders start out unbound; binding one to
a tag surface (intent, entity begin, shared entity end, speaker change) never
mutates the table, it produces a new registry.

The registry owns the id <-> text table: `TagRegistry.surfaces` gives the
text of every id (a bound placeholder reads as its tag surface, any other id
as its vocabulary surface), and encoding inverts it over the non-blank ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import (
    BlankInLabelSequence,
    DuplicateEndTag,
    DuplicateToken,
    FormatError,
    InvalidToken,
    NoFreePlaceholder,
    UnknownToken,
    UnsupportedVersion,
)

PLACEHOLDER_TEMPLATE = "<unused_{}>"
BLANK_SURFACE = "<blank>"

#: Full-scale defaults: 624 transcription tokens, 400 placeholders, 1 blank.
DEFAULT_TRANSCRIPTION_COUNT = 624
DEFAULT_PLACEHOLDER_COUNT = 400


class TokenRole(Enum):
    TRANSCRIPTION = "transcription"
    PLACEHOLDER = "placeholder"
    BLANK = "blank"


class TagKind(Enum):
    INTENT = "intent"
    ENTITY_BEGIN = "entity_begin"
    ENTITY_END = "entity_end"
    SPEAKER_CHANGE = "speaker_change"


@dataclass(frozen=True)
class TagBinding:
    """One placeholder token bound to a tag surface."""

    surface: str
    token_id: int
    kind: TagKind
    entity_type: str | None = None

    @property
    def name(self) -> str:
        """Tag surface with the decoration characters stripped, e.g.
        "@CALENDER_SET@" -> "CALENDER_SET"."""
        return self.surface.strip("@!<>")


class Vocabulary:
    """Immutable token table: L transcription ids, D placeholder ids, blank last."""

    def __init__(self, tokens: list[tuple[str, TokenRole]]):
        self.tokens = tuple(tokens)
        self._id_by_surface = {s: i for i, (s, _) in enumerate(self.tokens)}
        if len(self._id_by_surface) != len(self.tokens):
            raise DuplicateToken("vocabulary surfaces are not unique")
        roles = [r for _, r in self.tokens]
        self.l_count = sum(1 for r in roles if r is TokenRole.TRANSCRIPTION)
        self.d_count = sum(1 for r in roles if r is TokenRole.PLACEHOLDER)
        if roles.count(TokenRole.BLANK) != 1 or roles[-1] is not TokenRole.BLANK:
            raise InvalidToken("exactly one blank token is required, at the last id")
        expected = (
            [TokenRole.TRANSCRIPTION] * self.l_count
            + [TokenRole.PLACEHOLDER] * self.d_count
            + [TokenRole.BLANK]
        )
        if roles != expected:
            raise InvalidToken("token roles must form contiguous blocks L, D, blank")
        if self.l_count == 0:
            raise InvalidToken("a vocabulary needs at least one transcription token")

    @property
    def v_total(self) -> int:
        return len(self.tokens)

    @property
    def blank_id(self) -> int:
        return self.v_total - 1

    def surface_of(self, token_id: int) -> str:
        if not 0 <= token_id < self.v_total:
            raise UnknownToken(f"token id {token_id} out of range 0..{self.v_total - 1}")
        return self.tokens[token_id][0]

    def role_of(self, token_id: int) -> TokenRole:
        if not 0 <= token_id < self.v_total:
            raise UnknownToken(f"token id {token_id} out of range 0..{self.v_total - 1}")
        return self.tokens[token_id][1]

    def id_of(self, surface: str) -> int:
        try:
            return self._id_by_surface[surface]
        except KeyError:
            raise UnknownToken(f"surface {surface!r} is not in the vocabulary") from None

    def __contains__(self, surface: str) -> bool:
        return surface in self._id_by_surface

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def __repr__(self) -> str:
        return f"Vocabulary(L={self.l_count}, D={self.d_count}, V_total={self.v_total})"


def build_vocab(
    transcription_surfaces: list[str],
    placeholder_count: int = DEFAULT_PLACEHOLDER_COUNT,
) -> Vocabulary:
    """Build a vocabulary from word surfaces plus auto-named placeholders.

    Ids are assigned in order: the given surfaces, then placeholders
    "<unused_0>".."<unused_{D-1}>", then the blank token last.
    """
    if placeholder_count < 0:
        raise ValueError("placeholder_count must be >= 0")
    if not transcription_surfaces:
        raise InvalidToken("at least one transcription surface is required")
    seen: set[str] = set()
    tokens: list[tuple[str, TokenRole]] = []
    for surface in transcription_surfaces:
        if not surface or surface.split() != [surface]:
            raise InvalidToken(f"bad transcription surface {surface!r}")
        if surface in seen:
            raise DuplicateToken(f"duplicate transcription surface {surface!r}")
        seen.add(surface)
        tokens.append((surface, TokenRole.TRANSCRIPTION))
    for k in range(placeholder_count):
        surface = PLACEHOLDER_TEMPLATE.format(k)
        if surface in seen:
            raise DuplicateToken(f"surface {surface!r} collides with a placeholder name")
        seen.add(surface)
        tokens.append((surface, TokenRole.PLACEHOLDER))
    if BLANK_SURFACE in seen:
        raise DuplicateToken(f"surface {BLANK_SURFACE!r} is reserved for the blank token")
    tokens.append((BLANK_SURFACE, TokenRole.BLANK))
    return Vocabulary(tokens)


class TagRegistry:
    """Immutable map from tag surfaces to bound placeholder tokens.

    Carries the vocabulary it binds into, so parsing and rendering code can
    resolve both tag and word surfaces from one object: `surfaces[i]` is the
    text that id i reads as.
    """

    def __init__(self, vocab: Vocabulary, bindings: tuple[TagBinding, ...] = ()):
        self.vocab = vocab
        self.bindings = tuple(bindings)
        self._by_surface: dict[str, TagBinding] = {}
        self._by_id: dict[int, TagBinding] = {}
        # where several bindings share a kind and type or name, the first wins
        self._end: TagBinding | None = None
        self._speaker_change: TagBinding | None = None
        self._begin_by_type: dict[str, TagBinding] = {}
        self._intent_by_name: dict[str, TagBinding] = {}
        end_count = 0
        surfaces = [surface for surface, _ in vocab.tokens]
        for b in self.bindings:
            if vocab.role_of(b.token_id) is not TokenRole.PLACEHOLDER:
                raise InvalidToken(f"token id {b.token_id} is not a placeholder")
            if b.surface in self._by_surface:
                raise DuplicateToken(f"tag surface {b.surface!r} bound twice")
            if b.token_id in self._by_id:
                raise DuplicateToken(f"token id {b.token_id} bound twice")
            if b.kind is TagKind.ENTITY_END:
                end_count += 1
                self._end = b
            elif b.kind is TagKind.SPEAKER_CHANGE and self._speaker_change is None:
                self._speaker_change = b
            elif b.kind is TagKind.ENTITY_BEGIN:
                self._begin_by_type.setdefault(b.entity_type, b)
            elif b.kind is TagKind.INTENT:
                self._intent_by_name.setdefault(b.name, b)
            self._by_surface[b.surface] = b
            self._by_id[b.token_id] = b
            surfaces[b.token_id] = b.surface
        if end_count > 1:
            raise DuplicateEndTag("only one shared entity-end tag is allowed")
        self.surfaces = tuple(surfaces)
        # inverse over the non-blank ids; a tag surface that clashes with
        # another id's text resolves to the tag
        self._id_by_text = {text: i for i, text in enumerate(surfaces[:-1])}
        self._id_by_text.update((b.surface, b.token_id) for b in self.bindings)

    def binding_for_surface(self, surface: str) -> TagBinding | None:
        return self._by_surface.get(surface)

    def binding_for_id(self, token_id: int) -> TagBinding | None:
        return self._by_id.get(token_id)

    @property
    def end_binding(self) -> TagBinding | None:
        return self._end

    def begin_binding_for_type(self, entity_type: str) -> TagBinding:
        try:
            return self._begin_by_type[entity_type]
        except KeyError:
            raise UnknownToken(f"no entity-begin tag bound for type {entity_type!r}") from None

    def speaker_change_binding(self) -> TagBinding | None:
        return self._speaker_change

    def intent_binding(self, name: str) -> TagBinding | None:
        """The intent tag whose name (surface without decoration) is `name`."""
        return self._intent_by_name.get(name)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TagRegistry)
            and self.vocab == other.vocab
            and self.bindings == other.bindings
        )

    def __repr__(self) -> str:
        return f"TagRegistry({len(self.bindings)} bindings over {self.vocab!r})"


def assign_tag(
    registry: TagRegistry,
    tag_surface: str,
    kind: TagKind,
    entity_type: str | None = None,
) -> TagRegistry:
    """Bind a tag surface to the lowest-id unbound placeholder.

    Returns a new registry; the input is untouched. Assignment order is
    deterministic, so the same sequence of calls always yields the same ids.
    """
    vocab = registry.vocab
    if not tag_surface or tag_surface.split() != [tag_surface]:
        raise InvalidToken(f"bad tag surface {tag_surface!r}")
    if tag_surface in vocab:
        raise DuplicateToken(f"tag surface {tag_surface!r} shadows a vocabulary token")
    if registry.binding_for_surface(tag_surface) is not None:
        raise DuplicateToken(f"tag surface {tag_surface!r} already bound")
    if kind is TagKind.ENTITY_END and registry.end_binding is not None:
        raise DuplicateEndTag("the shared entity-end tag is already bound")
    if kind is TagKind.ENTITY_BEGIN:
        if not entity_type:
            raise InvalidToken("entity-begin tags need an entity_type")
    elif entity_type is not None:
        raise InvalidToken(f"{kind.value} tags do not take an entity_type")

    bound = {b.token_id for b in registry.bindings}
    token_id = next(
        (i for i in range(vocab.l_count, vocab.l_count + vocab.d_count) if i not in bound),
        None,
    )
    if token_id is None:
        raise NoFreePlaceholder("all placeholder tokens are bound")
    binding = TagBinding(tag_surface, token_id, kind, entity_type)
    return TagRegistry(vocab, registry.bindings + (binding,))


def encode_tagged_text(registry: TagRegistry, text: str) -> list[int]:
    """Encode whitespace-tokenized tagged text into token ids.

    Each whitespace token must be the text of a non-blank id: a bound tag
    surface, a word, or an unbound placeholder's auto-name (which is how
    `decode_tokens` writes one). Tags take precedence over any clash.
    """
    id_by_text = registry._id_by_text
    try:
        return [id_by_text[piece] for piece in text.split()]
    except KeyError as exc:
        raise UnknownToken(f"surface {exc.args[0]!r} is neither a bound tag nor a word") from None


def check_label_ids(labels, v_total: int) -> list[int]:
    """Label ids as ints, each in range and none the blank (the last id)."""
    out = []
    for i, token_id in enumerate(labels):
        token_id = int(token_id)
        if not 0 <= token_id < v_total:
            raise UnknownToken(f"label id {token_id} at index {i} out of range 0..{v_total - 1}")
        if token_id == v_total - 1:
            raise BlankInLabelSequence(f"blank id at label index {i}")
        out.append(token_id)
    return out


def decode_tokens(registry: TagRegistry, ids: list[int]) -> str:
    """Space-join the surfaces for a blank-free id sequence.

    Bound placeholders decode to their tag surface; unbound ones fall back
    to the vocabulary's auto-name. `encode_tagged_text` inverts it.
    """
    surfaces = registry.surfaces
    return " ".join([surfaces[i] for i in check_label_ids(ids, registry.vocab.v_total)])


# ---------------------------------------------------------------------------
# Vocab file format: one JSON document, keys sorted, newline-terminated.
# Bound placeholders are listed under their tag surface with kind metadata;
# the loader restores auto-names in the Vocabulary and surfaces in the
# registry, so save/load round-trips both.
# ---------------------------------------------------------------------------

VOCAB_FILE_VERSION = 1


def vocab_document(registry: TagRegistry) -> str:
    vocab = registry.vocab
    tokens = []
    for token_id, (_, role) in enumerate(vocab.tokens):
        entry: dict[str, object] = {"surface": registry.surfaces[token_id], "role": role.value}
        binding = registry.binding_for_id(token_id)
        if binding is not None:
            entry["tag_kind"] = binding.kind.value
            if binding.entity_type is not None:
                entry["entity_type"] = binding.entity_type
        tokens.append(entry)
    doc = {
        "version": VOCAB_FILE_VERSION,
        "L": vocab.l_count,
        "D": vocab.d_count,
        "blank_id": vocab.blank_id,
        "tokens": tokens,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_vocab(registry: TagRegistry, path: str | Path) -> None:
    Path(path).write_text(vocab_document(registry), encoding="utf-8")


def load_vocab(path: str | Path) -> TagRegistry:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not a valid vocab document: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise FormatError(f"{path}: missing version field")
    if doc["version"] != VOCAB_FILE_VERSION:
        raise UnsupportedVersion(f"{path}: vocab file version {doc['version']!r}")
    try:
        entries = doc["tokens"]
        l_count, d_count, blank_id = doc["L"], doc["D"], doc["blank_id"]
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from exc
    if len(entries) != l_count + d_count + 1 or blank_id != len(entries) - 1:
        raise FormatError(f"{path}: token count does not match L + D + 1")

    tokens: list[tuple[str, TokenRole]] = []
    bindings: list[TagBinding] = []
    for token_id, entry in enumerate(entries):
        try:
            role = TokenRole(entry["role"])
            surface = entry["surface"]
        except (KeyError, ValueError, TypeError) as exc:
            raise FormatError(f"{path}: bad token entry at id {token_id}: {exc}") from exc
        if "tag_kind" in entry:
            if role is not TokenRole.PLACEHOLDER:
                raise FormatError(f"{path}: tag metadata on non-placeholder id {token_id}")
            try:
                kind = TagKind(entry["tag_kind"])
            except ValueError as exc:
                raise FormatError(f"{path}: bad tag kind at id {token_id}") from exc
            bindings.append(TagBinding(surface, token_id, kind, entry.get("entity_type")))
            surface = PLACEHOLDER_TEMPLATE.format(token_id - l_count)
        tokens.append((surface, role))
    try:
        vocab = Vocabulary(tokens)
    except (InvalidToken, DuplicateToken) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if vocab.l_count != l_count or vocab.d_count != d_count:
        raise FormatError(f"{path}: role blocks disagree with the L/D header")
    return TagRegistry(vocab, tuple(bindings))
