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
import operator
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
    UsageError,
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
    """Immutable token table: L transcription ids, D placeholder ids, blank last.

    Every surface is one non-empty token without whitespace, and no two are
    equal, so decoded text splits back into the ids it came from.
    """

    def __init__(self, tokens: list[tuple[str, TokenRole]]):
        self.tokens = tuple(tokens)
        self._id_by_surface = {}
        for i, (surface, _) in enumerate(self.tokens):
            if not surface or surface.split() != [surface]:
                raise InvalidToken(f"bad surface {surface!r} at id {i}")
            first = self._id_by_surface.setdefault(surface, i)
            if first != i:
                raise DuplicateToken(f"surface {surface!r} at ids {first} and {i}")
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
    "<unused_0>".."<unused_{D-1}>", then the blank token last. A given
    surface equal to one of those names is a DuplicateToken.
    """
    if placeholder_count < 0:
        raise UsageError("placeholder_count must be >= 0")
    tokens = [(surface, TokenRole.TRANSCRIPTION) for surface in transcription_surfaces]
    tokens += [(PLACEHOLDER_TEMPLATE.format(k), TokenRole.PLACEHOLDER)
               for k in range(placeholder_count)]
    tokens.append((BLANK_SURFACE, TokenRole.BLANK))
    return Vocabulary(tokens)


class TagRegistry:
    """Immutable map from tag surfaces to bound placeholder tokens.

    Carries the vocabulary it binds into, so parsing and rendering code can
    resolve both tag and word surfaces from one object: `surfaces[i]` is the
    text that id i reads as, and `binding_by_id[i]` the binding of id i, or
    None where it has none.
    """

    def __init__(self, vocab: Vocabulary, bindings: tuple[TagBinding, ...] = ()):
        self.vocab = vocab
        self.bindings = tuple(bindings)
        surfaces = [surface for surface, _ in vocab.tokens]
        binding_by_id: list[TagBinding | None] = [None] * vocab.v_total
        # inverse of `surfaces` over the non-blank ids
        id_by_text = {text: i for i, text in enumerate(surfaces[:-1])}
        # (kind, intent name or entity type) -> the first binding with that key
        self._first_by_key: dict[tuple[TagKind, str | None], TagBinding] = {}
        for b in self.bindings:
            if vocab.role_of(b.token_id) is not TokenRole.PLACEHOLDER:
                raise InvalidToken(f"token id {b.token_id} is not a placeholder")
            if not b.surface or b.surface.split() != [b.surface]:
                raise InvalidToken(f"bad tag surface {b.surface!r}")
            if b.surface in vocab:
                raise DuplicateToken(f"tag surface {b.surface!r} shadows a vocabulary token")
            if (b.kind is TagKind.ENTITY_BEGIN) != bool(b.entity_type):
                raise InvalidToken(f"{b.surface!r}: only entity-begin tags, and all of them, "
                                   "take an entity_type")
            if b.surface in id_by_text:  # not a vocabulary token, so an earlier tag
                raise DuplicateToken(f"tag surface {b.surface!r} bound twice")
            if binding_by_id[b.token_id] is not None:
                raise DuplicateToken(f"token id {b.token_id} bound twice")
            key = b.name if b.kind is TagKind.INTENT else b.entity_type or None
            self._first_by_key.setdefault((b.kind, key), b)
            binding_by_id[b.token_id] = b
            del id_by_text[surfaces[b.token_id]]
            id_by_text[b.surface] = b.token_id
            surfaces[b.token_id] = b.surface
        if sum(b.kind is TagKind.ENTITY_END for b in self.bindings) > 1:
            raise DuplicateEndTag("only one shared entity-end tag is allowed")
        self.surfaces = tuple(surfaces)
        self.binding_by_id = tuple(binding_by_id)
        self._id_by_text = id_by_text

    def binding_for_surface(self, surface: str) -> TagBinding | None:
        token_id = self._id_by_text.get(surface)
        return None if token_id is None else self.binding_by_id[token_id]

    def binding_for_id(self, token_id: int) -> TagBinding | None:
        """The binding of `token_id`; None if it is unbound or out of range."""
        return self.binding_by_id[token_id] if 0 <= token_id < len(self.binding_by_id) else None

    @property
    def end_binding(self) -> TagBinding | None:
        return self._first_by_key.get((TagKind.ENTITY_END, None))

    def begin_binding_for_type(self, entity_type: str) -> TagBinding:
        try:
            return self._first_by_key[TagKind.ENTITY_BEGIN, entity_type]
        except KeyError:
            raise UnknownToken(f"no entity-begin tag bound for type {entity_type!r}") from None

    def speaker_change_binding(self) -> TagBinding | None:
        return self._first_by_key.get((TagKind.SPEAKER_CHANGE, None))

    def intent_binding(self, name: str) -> TagBinding | None:
        """The intent tag whose name (surface without decoration) is `name`."""
        return self._first_by_key.get((TagKind.INTENT, name))

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
    The new registry checks the binding, as it checks every loaded one.
    """
    vocab = registry.vocab
    try:
        token_id = registry.binding_by_id.index(None, vocab.l_count, vocab.l_count + vocab.d_count)
    except ValueError:
        raise NoFreePlaceholder("all placeholder tokens are bound") from None
    binding = TagBinding(tag_surface, token_id, kind, entity_type)
    return TagRegistry(vocab, registry.bindings + (binding,))


def encode_tagged_text(registry: TagRegistry, text: str) -> list[int]:
    """Encode whitespace-tokenized tagged text into token ids.

    Each whitespace token must be the text of a non-blank id: a bound tag
    surface, a word, or an unbound placeholder's auto-name (which is how
    `decode_tokens` writes one).
    """
    id_by_text = registry._id_by_text
    try:
        return [id_by_text[piece] for piece in text.split()]
    except KeyError as exc:
        raise UnknownToken(f"surface {exc.args[0]!r} is neither a bound tag nor a word") from None


def check_label_ids(labels, v_total: int) -> list[int]:
    """Label ids as ints, each an integer (Python or numpy), in range and
    none the blank (the last id)."""
    if not isinstance(labels, (list, tuple)):
        labels = list(labels)  # walked again below if it fails
    try:
        out = list(map(operator.index, labels))
    except TypeError:
        out = None
    if out is None or out and not (min(out) >= 0 and max(out) < v_total - 1):
        # only a failing sequence is walked, to name its first bad index
        for i, token_id in enumerate(labels):
            try:
                token_id = operator.index(token_id)
            except TypeError:
                raise UnknownToken(f"label id {token_id!r} at index {i} is not an integer") from None
            if not 0 <= token_id < v_total:
                raise UnknownToken(f"label id {token_id} at index {i} out of range 0..{v_total - 1}")
            if token_id == v_total - 1:
                raise BlankInLabelSequence(f"blank id at label index {i}")
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
        binding = registry.binding_by_id[token_id]
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


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents; FormatError naming the file if its
    bytes are not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def read_json_object(path: str | Path) -> dict:
    """The JSON object a UTF-8 file holds; FormatError naming the file if it
    is not UTF-8, not JSON, or not an object."""
    try:
        doc = json.loads(read_text(path))
    except ValueError as exc:  # not JSON, or an integer too long to convert
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return doc


def load_vocab(path: str | Path) -> TagRegistry:
    doc = read_json_object(path)
    if "version" not in doc:
        raise FormatError(f"{path}: missing version field")
    if doc["version"] != VOCAB_FILE_VERSION:
        raise UnsupportedVersion(f"{path}: vocab file version {doc['version']!r}")
    try:
        entries = doc["tokens"]
        l_count, d_count, blank_id = doc["L"], doc["D"], doc["blank_id"]
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from exc
    header = (l_count, d_count, blank_id)
    if not isinstance(entries, list) or any(type(n) is not int for n in header):
        raise FormatError(f"{path}: L, D and blank_id must be integers and tokens a list")
    if blank_id != len(entries) - 1:
        raise FormatError(f"{path}: blank_id {blank_id} is not the last token id "
                          f"{len(entries) - 1}")

    tokens: list[tuple[str, TokenRole]] = []
    bindings: list[TagBinding] = []
    for token_id, entry in enumerate(entries):
        try:
            role = TokenRole(entry["role"])
            surface = entry["surface"]
        except (KeyError, ValueError, TypeError) as exc:
            raise FormatError(f"{path}: bad token entry at id {token_id}: {exc}") from exc
        if not isinstance(surface, str) or not isinstance(entry.get("entity_type", ""), str):
            raise FormatError(f"{path}: surface and entity_type at id {token_id} must be strings")
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
        registry = TagRegistry(Vocabulary(tokens), tuple(bindings))
    except (InvalidToken, DuplicateToken, DuplicateEndTag) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if registry.vocab.l_count != l_count or registry.vocab.d_count != d_count:
        raise FormatError(f"{path}: role blocks disagree with the L/D header")
    return registry
