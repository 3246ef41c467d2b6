"""The AST lint engine: file discovery, parsing, rule dispatch, ``noqa``.

The engine parses each Python file once with :mod:`ast`, hands the module
to every selected per-module rule from :mod:`repro.analysis.rules`, runs
the project-level rules over the whole-program model (built lazily, only
when a :class:`~repro.analysis.rules.ProjectRule` is selected), and
filters the resulting findings through line-level ``# noqa: RPRxxx``
suppressions.  Suppressions must name the rule code (a bare ``# noqa``
is ignored: silent blanket suppression is exactly the kind of hole this
gate exists to close).

The engine also implements **RPR011** (noqa hygiene) itself, because only
the engine knows which suppressions were *used*: after the rule pass,
every ``# noqa: RPRxxx`` must carry a justification after the codes, and
a suppression whose rule ran but no longer fires on that line is stale.
Staleness is only judged against rules that actually ran in this
invocation (a ``--select RPR002`` run cannot call an RPR005 suppression
stale), and never against RPR011 itself.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.report import Finding, Severity

#: ``# noqa: RPR001`` or ``# noqa: RPR001, RPR002`` (case-insensitive tag).
_NOQA_RE = re.compile(r"#\s*noqa\s*:\s*(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)", re.IGNORECASE)

#: A *suppression comment* for the RPR011 audit: the comment itself starts
#: with the noqa tag (``# noqa: RPR005 — reason``).  The stricter anchor
#: keeps prose that merely mentions ``# noqa: ...`` — docstrings are
#: excluded by tokenization already, but comments talk about noqa too —
#: from being audited as if it were a live suppression.
_NOQA_COMMENT_RE = re.compile(
    r"\A#+\s*noqa\s*:\s*(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)",
    re.IGNORECASE,
)

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file, as seen by the rules."""

    path: Path
    display_path: str
    tree: ast.Module
    lines: tuple[str, ...]

    def line(self, lineno: int) -> str:
        """The 1-based source line, stripped ('' when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def iter_python_files(paths: Sequence[Path | str]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, skipping cache dirs."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            if not any(part in _SKIP_DIRS for part in candidate.parts):
                yield candidate


def parse_module(path: Path, root: Path | None = None) -> ModuleInfo | Finding:
    """Parse ``path`` into a :class:`ModuleInfo`, or an RPR000 finding.

    RPR000 (syntax error) is not suppressible: an unparseable file can hide
    any number of violations.
    """
    display = _display_path(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            rule="RPR000",
            path=display,
            line=exc.lineno or 0,
            message=f"syntax error: {exc.msg}",
            severity=Severity.ERROR,
        )
    return ModuleInfo(
        path=path,
        display_path=display,
        tree=tree,
        lines=tuple(source.splitlines()),
    )


def suppressed_codes(line: str) -> frozenset[str]:
    """Rule codes suppressed by a ``# noqa: ...`` comment on ``line``."""
    match = _NOQA_RE.search(line)
    if match is None:
        return frozenset()
    return frozenset(code.strip().upper() for code in match.group("codes").split(","))


def noqa_justification(line: str) -> str | None:
    """The justification text after a ``# noqa: RPRxxx`` tag, or ``None``.

    ``None`` means the line has no coded noqa at all; ``""`` means it has
    one with no justification (an RPR011 violation when the audit runs).
    """
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    return line[match.end() :].strip(" \t-—–:;,.()")


def lint_paths(
    paths: Sequence[Path | str],
    select: Iterable[str] | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Run the selected rules over every Python file under ``paths``.

    Per-module rules run file by file; if any project rule is selected the
    whole-program model is built once and handed to each of them.  The
    noqa audit (RPR011) runs last, over the suppression-usage map the rule
    pass produced.

    Parameters
    ----------
    paths:
        Files or directories to analyze.
    select:
        Rule codes to run (default: all registered rules).
    root:
        Base directory findings are reported relative to (default: cwd).
    """
    # Imported here so rules can import engine types without a cycle.
    from repro.analysis.rules import ProjectRule, active_rules

    rules = active_rules(select)
    module_rules = [
        r for r in rules if not isinstance(r, ProjectRule) and not r.engine_level
    ]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    audit_noqa = any(r.code == "RPR011" for r in rules)

    findings: list[Finding] = []
    modules: list[ModuleInfo] = []
    for path in iter_python_files(paths):
        parsed = parse_module(path, root)
        if isinstance(parsed, Finding):
            findings.append(parsed)
        else:
            modules.append(parsed)

    raw: list[Finding] = []
    for module in modules:
        for rule in module_rules:
            raw.extend(rule.check(module))
    if project_rules:
        from repro.analysis.project import build_project

        project = build_project(modules)
        for rule in project_rules:
            raw.extend(rule.check_project(project))

    by_display = {module.display_path: module for module in modules}
    used_suppressions: set[tuple[str, int, str]] = set()
    for finding in raw:
        module = by_display.get(finding.path)
        line = module.line(finding.line) if module is not None else ""
        if finding.rule in suppressed_codes(line):
            used_suppressions.add((finding.path, finding.line, finding.rule))
            continue
        findings.append(finding)

    if audit_noqa:
        ran_codes = frozenset(r.code for r in rules)
        findings.extend(_audit_noqa(modules, ran_codes, used_suppressions))
    return findings


def _suppression_comments(module: ModuleInfo) -> Iterator[tuple[int, str]]:
    """``(lineno, comment_text)`` for every noqa suppression comment.

    Tokenizes the source so noqa tags quoted inside strings and docstrings
    never count; only real ``# noqa: ...``-leading comments do.
    """
    source = "\n".join(module.lines) + "\n"
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            if _NOQA_COMMENT_RE.match(token.string):
                yield token.start[0], token.string
    except tokenize.TokenizeError:  # pragma: no cover - parse already passed
        return


def _audit_noqa(
    modules: Iterable[ModuleInfo],
    ran_codes: frozenset[str],
    used: set[tuple[str, int, str]],
) -> Iterator[Finding]:
    """RPR011: flag unjustified and stale ``# noqa`` suppressions."""
    for module in modules:
        for lineno, comment in _suppression_comments(module):
            codes = suppressed_codes(comment)
            if not codes:
                continue
            if "RPR011" in codes:
                # An explicit, coded opt-out of the audit for this line;
                # justification for it is checked like any other, below.
                codes = codes - {"RPR011"}
                audit_suppressed = True
            else:
                audit_suppressed = False
            justification = noqa_justification(comment) or ""
            if not justification and not audit_suppressed:
                yield Finding(
                    rule="RPR011",
                    path=module.display_path,
                    line=lineno,
                    message=(
                        f"suppression of {', '.join(sorted(codes))} carries no "
                        "justification — say why after the codes "
                        "(`# noqa: RPRxxx — reason`)"
                    ),
                    severity=Severity.ERROR,
                    snippet=module.line(lineno),
                )
            if audit_suppressed:
                continue
            for code in sorted(codes):
                if code not in ran_codes:
                    continue
                if (module.display_path, lineno, code) not in used:
                    yield Finding(
                        rule="RPR011",
                        path=module.display_path,
                        line=lineno,
                        message=(
                            f"stale suppression: {code} no longer fires on "
                            "this line — delete the noqa"
                        ),
                        severity=Severity.ERROR,
                        snippet=module.line(lineno),
                    )


def _display_path(path: Path, root: Path | None) -> str:
    base = root if root is not None else Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()
