"""Structured text scenario format.

Grammar ('#' starts a comment; blocks may span lines or sit on one):

    key = value [value ...]         scalar or list entry
    name { ... }                    nested section (repeatable)

Values parse as int, float, bool (true/false) or bare/quoted string, in that
order of preference.  Section names and keys are lower_snake identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError


def _parse_scalar(tok: str):
    if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
        return tok[1:-1]
    low = tok.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok


def _tokenize(text: str):
    """(token, line_number) pairs; braces are their own tokens, quotes group."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        cur, quoted = "", False
        for ch in line:
            if ch == '"':
                quoted = not quoted
                cur += ch
                continue
            if quoted:
                cur += ch
                continue
            if ch in "{}=":
                if cur.strip():
                    out.append((cur.strip(), lineno))
                cur = ""
                out.append((ch, lineno))
            elif ch.isspace():
                if cur.strip():
                    out.append((cur.strip(), lineno))
                cur = ""
            else:
                cur += ch
        if quoted:
            raise ConfigError(f"line {lineno}: unterminated quote")
        if cur.strip():
            out.append((cur.strip(), lineno))
    return out


@dataclass
class Section:
    name: str = ""
    entries: dict = field(default_factory=dict)       # key -> value or [values]
    children: list = field(default_factory=list)      # (name, Section)

    def get(self, key, default=None):
        return self.entries.get(key, default)

    def require(self, key, context=""):
        if key not in self.entries:
            raise ConfigError("missing required entry",
                              field=f"{context or self.name}.{key}")
        return self.entries[key]

    def child(self, name) -> "Section | None":
        for n, sec in self.children:
            if n == name:
                return sec
        return None

    def children_named(self, name):
        return [sec for n, sec in self.children if n == name]

    def child_names(self):
        return [n for n, _ in self.children]


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead=0):
        i = self.pos + ahead
        return self.tokens[i][0] if i < len(self.tokens) else None

    def line(self):
        i = min(self.pos, len(self.tokens) - 1)
        return self.tokens[i][1] if self.tokens else 0

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok[0]

    def parse_body(self, section: Section, *, top: bool) -> None:
        while self.pos < len(self.tokens):
            tok = self.peek()
            if tok == "}":
                if top:
                    raise ConfigError(f"line {self.line()}: unmatched '}}'")
                return
            if not isinstance(tok, str) or not tok.isidentifier():
                raise ConfigError(f"line {self.line()}: expected a key or section "
                                  f"name, got {tok!r}")
            follower = self.peek(1)
            lineno = self.line()
            name = self.take()
            if follower == "{":
                self.take()
                child = Section(name)
                section.children.append((name, child))
                self.parse_body(child, top=False)
                if self.peek() != "}":
                    raise ConfigError(f"line {self.line()}: unclosed section {name!r}")
                self.take()
            elif follower == "=":
                if name in section.entries:
                    raise ConfigError(f"line {lineno}: duplicate key {name!r}")
                self.take()
                values = []
                while True:
                    nxt = self.peek()
                    if nxt is None or nxt in ("}",):
                        break
                    # stop when the next token starts a new entry or section
                    if nxt.isidentifier() and self.peek(1) in ("=", "{"):
                        break
                    if nxt in ("=", "{"):
                        raise ConfigError(f"line {self.line()}: stray {nxt!r}")
                    values.append(_parse_scalar(self.take()))
                if not values:
                    raise ConfigError(f"line {self.line()}: empty value for {name!r}")
                section.entries[name] = values[0] if len(values) == 1 else values
            else:
                raise ConfigError(f"line {self.line()}: {name!r} must be followed "
                                  "by '=' or '{'")


def parse_config(text: str) -> Section:
    root = Section("")
    parser = _Parser(_tokenize(text))
    parser.parse_body(root, top=True)
    return root


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v}"' if (" " in v or not v) else v
    if isinstance(v, float):
        return format(v, ".17g")
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
