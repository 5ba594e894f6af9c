"""Diagnostics and the inline-waiver syntax.

A diagnostic pins one rule violation to a file/line. Violations are
waived — never silenced — with an inline comment carrying the rule code
*and a reason*, so every deliberate exception to an invariant stays
grep-able::

    self.cache.put_many(keys, sizes)  # repro: allow S301 — untimed warm-up

The waiver may sit on the flagged line or on the line directly above it
(for lines too long to share with a comment). A module-level waiver
(``# repro: allow-module K201 — reason``, anywhere in the file) waives
the rule for the whole file; use it only for deliberately-frozen modules.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Matches ``repro: allow <code>[, <code>] <sep> reason`` where <sep> is
#: an em-dash, ``--`` or ``:`` — the reason itself is mandatory.
_WAIVER_RE = re.compile(
    r"#\s*repro:\s*allow(?P<module>-module)?\s+"
    r"(?P<codes>[A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)"
    r"\s*(?:—|--|:)\s*(?P<reason>\S.*)$"
)

#: A waiver comment that parses *except* for the mandatory reason — kept
#: distinct so the engine can reject it loudly instead of ignoring it.
_REASONLESS_RE = re.compile(
    r"#\s*repro:\s*allow(-module)?\s+[A-Z]\d{3}"
)


@dataclass(frozen=True)
class Waiver:
    """One parsed inline waiver."""

    code: str
    reason: str
    line: int  # 1-based line the comment sits on
    module_level: bool = False


@dataclass
class Diagnostic:
    """One rule violation at a file/line."""

    code: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False
    waiver_reason: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "waived": self.waived,
            "waiver_reason": self.waiver_reason,
        }

    def render(self) -> str:
        mark = " (waived: %s)" % self.waiver_reason if self.waived else ""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}{mark}"


@dataclass
class WaiverTable:
    """Waivers of one source file, indexed for the engine."""

    #: line -> list of waivers declared on that line.
    by_line: Dict[int, List[Waiver]] = field(default_factory=dict)
    #: rule code -> module-level waiver.
    module: Dict[str, Waiver] = field(default_factory=dict)
    #: malformed waiver comments (missing reason): (line, text).
    malformed: List[Tuple[int, str]] = field(default_factory=list)

    def lookup(self, code: str, line: int) -> Waiver | None:
        """The waiver covering ``code`` at ``line``, if any.

        Checks the flagged line, the line directly above, then the
        module-level table.
        """
        for candidate in (line, line - 1):
            for waiver in self.by_line.get(candidate, ()):
                if waiver.code == code:
                    return waiver
        return self.module.get(code)

    def all_waivers(self) -> List[Waiver]:
        out = [w for waivers in self.by_line.values() for w in waivers]
        out.extend(self.module.values())
        return out


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """(line, text) of every real comment token in ``source``.

    Tokenizing (rather than scanning raw lines) keeps waiver *examples*
    inside docstrings from registering as actual waivers.
    """
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        # Unparseable source is reported by the engine as a parse error;
        # waivers in it are moot.
        pass
    return comments


def parse_waivers(source: str) -> WaiverTable:
    """Extract every waiver comment from ``source``."""
    table = WaiverTable()
    for lineno, text in _comment_tokens(source):
        if "repro:" not in text:
            continue
        match = _WAIVER_RE.search(text)
        if match is None:
            if _REASONLESS_RE.search(text):
                table.malformed.append((lineno, text.strip()))
            continue
        module_level = match.group("module") is not None
        reason = match.group("reason").strip()
        for code in re.split(r"\s*,\s*", match.group("codes")):
            waiver = Waiver(code=code, reason=reason, line=lineno,
                            module_level=module_level)
            if module_level:
                table.module[code] = waiver
            else:
                table.by_line.setdefault(lineno, []).append(waiver)
    return table


__all__ = ["Diagnostic", "Waiver", "WaiverTable", "parse_waivers"]
