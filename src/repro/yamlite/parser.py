"""yamlite — a minimal YAML subset parser.

SmartchainDB defines every transaction type with a YAML schema (paper
Fig. 5).  The execution environment has no PyYAML, so this module
implements the subset of YAML those schemas need, from scratch:

* block mappings (``key: value``) with arbitrary nesting by indentation
* block sequences (``- item``), including sequences of mappings
* flow sequences (``[a, b, c]``) of scalars
* scalars: strings (plain, single- and double-quoted), integers, floats,
  booleans (``true``/``false``), ``null``/``~``
* comments (``# ...``) and blank lines
* multi-document is *not* supported — one document per string

The grammar is strict: tabs are rejected, indentation must be consistent,
and unsupported constructs (anchors, tags, block scalars) raise
:class:`~repro.common.errors.YamlParseError` rather than silently
misparsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.common.errors import YamlParseError

_KEY_RE = re.compile(r"^(?P<key>[^:#]+?)\s*:(?:\s+(?P<value>.*))?$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+|\d+\.\d*[eE][+-]?\d+)$")


@dataclass
class _Line:
    """A significant (non-blank, non-comment) source line."""

    number: int
    indent: int
    content: str


def _strip_comment(text: str) -> str:
    """Remove a trailing comment, respecting quoted strings."""
    in_single = False
    in_double = False
    for index, char in enumerate(text):
        if char == "'" and not in_double:
            in_single = not in_single
        elif char == '"' and not in_single:
            in_double = not in_double
        elif char == "#" and not in_single and not in_double:
            if index == 0 or text[index - 1] in " \t":
                return text[:index].rstrip()
    return text.rstrip()


def _significant_lines(source: str) -> list[_Line]:
    """Split source into indentation-annotated significant lines.

    Raises:
        YamlParseError: if a line is indented with tabs.
    """
    lines: list[_Line] = []
    for number, raw in enumerate(source.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise YamlParseError("tabs are not allowed in indentation", number)
        stripped = _strip_comment(raw)
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        lines.append(_Line(number, indent, stripped.strip()))
    return lines


def parse_scalar(token: str, line: int | None = None) -> Any:
    """Parse a scalar token into its Python value.

    Quoted strings keep their exact contents (double-quoted strings honour
    ``\\n``, ``\\t``, ``\\\"`` and ``\\\\`` escapes); plain tokens are
    resolved to bool/null/int/float where they match, else string.
    """
    token = token.strip()
    if token.startswith('"'):
        if not token.endswith('"') or len(token) < 2:
            raise YamlParseError(f"unterminated double-quoted string: {token}", line)
        body = token[1:-1]
        return (
            body.replace("\\\\", "\x00")
            .replace('\\"', '"')
            .replace("\\n", "\n")
            .replace("\\t", "\t")
            .replace("\x00", "\\")
        )
    if token.startswith("'"):
        if not token.endswith("'") or len(token) < 2:
            raise YamlParseError(f"unterminated single-quoted string: {token}", line)
        return token[1:-1].replace("''", "'")
    lowered = token.lower()
    if lowered in ("null", "~"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if _INT_RE.match(token):
        return int(token)
    if _FLOAT_RE.match(token):
        return float(token)
    if token.startswith("&") or token.startswith("*") or token.startswith("!"):
        raise YamlParseError(f"anchors/aliases/tags are not supported: {token}", line)
    if token in ("|", ">") or token.startswith(("| ", "> ")):
        raise YamlParseError("block scalars are not supported", line)
    return token


def _parse_flow_sequence(token: str, line: int) -> list[Any]:
    """Parse a ``[a, b, c]`` flow sequence of scalars."""
    body = token[1:-1].strip()
    if not body:
        return []
    items: list[str] = []
    depth = 0
    in_single = False
    in_double = False
    current = ""
    for char in body:
        if char == "'" and not in_double:
            in_single = not in_single
        elif char == '"' and not in_single:
            in_double = not in_double
        elif char == "[" and not (in_single or in_double):
            depth += 1
        elif char == "]" and not (in_single or in_double):
            depth -= 1
        if char == "," and depth == 0 and not in_single and not in_double:
            items.append(current)
            current = ""
        else:
            current += char
    items.append(current)
    result = []
    for item in items:
        item = item.strip()
        if item.startswith("[") and item.endswith("]"):
            result.append(_parse_flow_sequence(item, line))
        else:
            result.append(parse_scalar(item, line))
    return result


def _parse_value_token(token: str, line: int) -> Any:
    """Parse an inline value (scalar, flow sequence, or empty flow map)."""
    token = token.strip()
    if token.startswith("[") and token.endswith("]"):
        return _parse_flow_sequence(token, line)
    if token == "{}":
        return {}
    if token.startswith("{"):
        raise YamlParseError("flow mappings are not supported (except {})", line)
    return parse_scalar(token, line)


class _Parser:
    """Recursive-descent block parser over significant lines."""

    def __init__(self, lines: list[_Line]):
        self._lines = lines
        self._position = 0

    def _peek(self) -> _Line | None:
        if self._position < len(self._lines):
            return self._lines[self._position]
        return None

    def parse_block(self, indent: int) -> Any:
        """Parse the block starting at the current position at ``indent``."""
        line = self._peek()
        if line is None:
            return None
        if line.content.startswith("- ") or line.content == "-":
            return self._parse_sequence(indent)
        return self._parse_mapping(indent)

    def _parse_sequence(self, indent: int) -> list[Any]:
        items: list[Any] = []
        while True:
            line = self._peek()
            if line is None or line.indent < indent:
                return items
            if line.indent > indent:
                raise YamlParseError("unexpected indentation in sequence", line.number)
            if not (line.content.startswith("- ") or line.content == "-"):
                return items
            self._position += 1
            rest = line.content[1:].strip()
            if not rest:
                # Nested block under the dash.
                next_line = self._peek()
                if next_line is not None and next_line.indent > indent:
                    items.append(self.parse_block(next_line.indent))
                else:
                    items.append(None)
            elif _KEY_RE.match(rest) and not rest.startswith(("[", '"', "'")):
                # Inline mapping entry: "- key: value" starts a mapping whose
                # keys continue at indent + 2.
                items.append(self._parse_inline_sequence_mapping(rest, line, indent))
            else:
                items.append(_parse_value_token(rest, line.number))

    def _parse_inline_sequence_mapping(self, first: str, line: _Line, indent: int) -> dict[str, Any]:
        match = _KEY_RE.match(first)
        if match is None:  # pragma: no cover - guarded by caller
            raise YamlParseError(f"malformed mapping entry: {first}", line.number)
        mapping: dict[str, Any] = {}
        key = parse_scalar(match.group("key"), line.number)
        value_token = match.group("value")
        child_indent = indent + 2
        if value_token is None:
            next_line = self._peek()
            if next_line is not None and next_line.indent > child_indent:
                mapping[key] = self.parse_block(next_line.indent)
            else:
                mapping[key] = None
        else:
            mapping[key] = _parse_value_token(value_token, line.number)
        # Subsequent keys of this mapping sit at indent + 2.
        rest = self._parse_mapping(child_indent) if self._continues_at(child_indent) else {}
        for extra_key, extra_value in rest.items():
            if extra_key in mapping:
                raise YamlParseError(f"duplicate key: {extra_key}", line.number)
            mapping[extra_key] = extra_value
        return mapping

    def _continues_at(self, indent: int) -> bool:
        line = self._peek()
        return line is not None and line.indent == indent and not line.content.startswith("- ")

    def _parse_mapping(self, indent: int) -> dict[str, Any]:
        mapping: dict[str, Any] = {}
        while True:
            line = self._peek()
            if line is None or line.indent < indent:
                return mapping
            if line.indent > indent:
                raise YamlParseError("unexpected indentation", line.number)
            if line.content.startswith("- "):
                return mapping
            match = _KEY_RE.match(line.content)
            if match is None:
                raise YamlParseError(f"expected 'key: value', got {line.content!r}", line.number)
            key = parse_scalar(match.group("key"), line.number)
            if key in mapping:
                raise YamlParseError(f"duplicate key: {key}", line.number)
            self._position += 1
            value_token = match.group("value")
            if value_token is None:
                next_line = self._peek()
                if next_line is not None and next_line.indent > indent:
                    mapping[key] = self.parse_block(next_line.indent)
                else:
                    mapping[key] = None
            else:
                mapping[key] = _parse_value_token(value_token, line.number)


def loads(source: str) -> Any:
    """Parse a yamlite document into Python values.

    Returns ``None`` for an empty document.

    Raises:
        YamlParseError: on any construct outside the supported subset.
    """
    lines = _significant_lines(source)
    if not lines:
        return None
    parser = _Parser(lines)
    result = parser.parse_block(lines[0].indent)
    leftover = parser._peek()
    if leftover is not None:
        raise YamlParseError(f"trailing content: {leftover.content!r}", leftover.number)
    return result
