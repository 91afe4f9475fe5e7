"""Structured text scenario format.

Grammar ('#' starts a comment; blocks may span lines or sit on one):

    key = value [value ...]         scalar or list entry
    name { ... }                    nested section (repeatable)

Values parse as int, float, bool (true/false) or bare/quoted string, in that
order of preference.  Section names and keys are lower_snake identifiers.
Each section records its dotted path and the line of its header and of each
key, so that schema checks can point at the source.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import ConfigError


def _parse_scalar(tok: str):
    if len(tok) >= 2 and tok[0] == tok[-1] == '"':
        return tok[1:-1]
    if tok.lower() in ("true", "false"):
        return tok.lower() == "true"
    for kind in (int, float):
        try:
            return kind(tok)
        except ValueError:
            pass
    return tok


# a quoted string, a brace or '=', a bare word, a comment, or a lone quote
_TOKEN = re.compile(r'"[^"]*"|[{}=]|[^\s{}="#]+|#.*|"')


def _tokenize(text: str):
    """(token, line_number) pairs; braces are their own tokens, quotes group."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in _TOKEN.findall(line):
            if tok == '"':
                raise ConfigError(f"line {lineno}: unterminated quote")
            if tok.startswith("#"):
                break
            out.append((tok, lineno))
    return out


@dataclass
class Section:
    name: str = ""
    entries: dict = field(default_factory=dict)       # key -> value or [values]
    children: list = field(default_factory=list)      # (name, Section)
    path: str = ""                                    # dotted, "" for the root
    line: int = 0                                     # line of the header
    lines: dict = field(default_factory=dict)         # key -> line

    def get(self, key, default=None):
        return self.entries.get(key, default)

    def child(self, name) -> "Section | None":
        return next((sec for n, sec in self.children if n == name), None)

    def children_named(self, name):
        return [sec for n, sec in self.children if n == name]


def parse_config(text: str) -> Section:
    tokens = _tokenize(text)
    root = Section("")
    pos = _parse_body(tokens, 0, root)
    if pos < len(tokens):
        raise ConfigError(f"line {tokens[pos][1]}: unmatched '}}'")
    return root


def _parse_body(tokens: list, pos: int, section: Section) -> int:
    """Read entries and sections into ``section`` from ``pos`` up to a
    closing brace or the end; return the position reached."""
    def tok(i):
        return tokens[i][0] if i < len(tokens) else None

    while tok(pos) not in (None, "}"):
        name, lineno = tokens[pos]
        if not name.isidentifier():
            raise ConfigError(f"line {lineno}: expected a key or section name, "
                              f"got {name!r}")
        if tok(pos + 1) == "{":
            child = Section(name, path=f"{section.path}.{name}".lstrip("."),
                            line=lineno)
            section.children.append((name, child))
            pos = _parse_body(tokens, pos + 2, child)
            if tok(pos) != "}":
                raise ConfigError(f"line {lineno}: unclosed section {name!r}")
            pos += 1
        elif tok(pos + 1) == "=":
            if name in section.entries:
                raise ConfigError(f"line {lineno}: duplicate key {name!r}")
            values = []
            pos += 2
            # the values end where the next entry or section starts
            while tok(pos) not in (None, "}") and not (
                    tok(pos).isidentifier() and tok(pos + 1) in ("=", "{")):
                if tok(pos) in ("=", "{"):
                    raise ConfigError(f"line {lineno}: stray {tok(pos)!r}")
                values.append(_parse_scalar(tok(pos)))
                pos += 1
            if not values:
                raise ConfigError(f"line {lineno}: empty value for {name!r}")
            section.entries[name] = values[0] if len(values) == 1 else values
            section.lines[name] = lineno
        else:
            raise ConfigError(f"line {lineno}: {name!r} must be followed "
                              "by '=' or '{'")
    return pos


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        # quote whatever would not re-read as this same bare string
        bare = v and _parse_scalar(v) == v and not any(
            ch.isspace() or ch in '#{}="' for ch in v)
        return v if bare else f'"{v}"'
    if isinstance(v, float):
        # ".17g" writes -0.0 as "-0", which re-reads as the int 0
        return "-0.0" if v == 0 and math.copysign(1.0, v) < 0 else format(v, ".17g")
    return str(v)


def canonical_text(section: Section, *, drop: tuple = (), indent: int = 0) -> str:
    """Stable re-serialisation (sorted keys) used for hashing; ``drop`` removes
    top-level entries such as the seed."""
    pad = "    " * indent
    lines = []
    for key in sorted(section.entries):
        if indent == 0 and key in drop:
            continue
        v = section.entries[key]
        vals = v if isinstance(v, list) else [v]
        lines.append(f"{pad}{key} = " + " ".join(_fmt_value(x) for x in vals))
    for name, child in section.children:
        lines.append(f"{pad}{name} {{")
        lines.append(canonical_text(child, indent=indent + 1))
        lines.append(f"{pad}}}")
    return "\n".join(x for x in lines if x != "")
