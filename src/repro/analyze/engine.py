"""The invariant-linter engine: rule registry, suppressions, reporting.

The simulator stack's correctness rests on conventions that ordinary
tests cannot see — seeded RNGs, picklable cells, the ``ReproError``
hierarchy, registered obs event names, fsync-before-rename persistence.
This module turns those conventions into *rules*: small classes that
walk a file's ``ast`` and yield :class:`Finding` objects.  The engine
owns everything around the rules — discovering files, parsing, scoping
rules to the subtrees they guard, honouring suppression comments, and
rendering text or JSON reports — so a rule is nothing but a ``check``
method and a few class attributes.

Suppressions mirror the linter idiom the repo already uses, under a
distinct marker so they never collide with ruff's:

* ``# repro: noqa[DET001]`` on the offending line silences the named
  rule(s) for that line (comma-separate several codes);
* a bare ``# repro: noqa`` silences every rule for that line;
* ``# repro: noqa-file[DET001]`` anywhere in the file silences the
  named rule(s) for the whole file.

Every suppression should carry a justification in the surrounding
comment — the analyzer cannot enforce that, but review can.

Scoping: each rule declares ``scope`` — path prefixes (or exact file
paths) *relative to the repro package root*.  For files inside the
package the engine matches against the part of the path after the last
``repro/`` component; for analyzer test fixtures it matches after
``fixtures/`` (so fixtures mirror the package layout); anything else is
matched against the path as given.  An empty scope entry (``""``)
matches everything.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

from ..errors import AnalysisError

#: Severities, in increasing order of gravity.
SEVERITIES = ("warning", "error")

#: Marker for an all-rules suppression.
ALL_RULES = "*"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<file>-file)?(?:\[(?P<codes>[A-Z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    severity: str
    message: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.severity}] {self.message}")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class FileContext:
    """Everything a rule may want to know about the file under analysis."""

    path: Path
    source: str
    tree: ast.Module
    #: Scope key: package-relative path used for rule scoping (see module
    #: docstring).  Posix separators, e.g. ``"runner/store.py"``.
    scope_key: str
    #: line -> suppressed rule codes (or :data:`ALL_RULES`).
    line_noqa: dict[int, set[str]] = field(default_factory=dict)
    #: rule codes suppressed for the whole file (or :data:`ALL_RULES`).
    file_noqa: set[str] = field(default_factory=set)

    def is_suppressed(self, code: str, line: int) -> bool:
        if ALL_RULES in self.file_noqa or code in self.file_noqa:
            return True
        codes = self.line_noqa.get(line)
        return codes is not None and (ALL_RULES in codes or code in codes)


class Rule:
    """Base class: subclass, set the class attributes, implement check().

    ``scope`` entries ending in ``/`` are directory prefixes; entries
    ending in ``.py`` are exact files; ``""`` matches every file.
    """

    code: ClassVar[str] = ""
    title: ClassVar[str] = ""
    severity: ClassVar[str] = "error"
    rationale: ClassVar[str] = ""
    scope: ClassVar[tuple[str, ...]] = ("",)

    def applies_to(self, scope_key: str) -> bool:
        for entry in self.scope:
            if not entry:
                return True
            if entry.endswith("/") and scope_key.startswith(entry):
                return True
            if scope_key == entry:
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(path=str(ctx.path), line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       code=self.code, severity=self.severity, message=message)


class ProjectRule(Rule):
    """Base class for whole-program rules (phase two of the analyzer).

    Per-file :class:`Rule` subclasses see one ``ast.Module``;
    ``ProjectRule`` subclasses see the :class:`~.callgraph.Project`
    fact base built from *every* parse-clean file of the run, so they
    can reason across module boundaries (call graphs, lock sets,
    spawn edges).  ``check`` is intentionally a no-op — the engine
    calls :meth:`check_project` exactly once per run instead.

    Scoping and suppressions still apply, keyed by the file each
    finding is anchored in.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Any) -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(self, path: str, node: ast.AST,
                        message: str) -> Finding:
        return Finding(path=path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       code=self.code, severity=self.severity,
                       message=message)


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the default registry."""
    if not rule_cls.code:
        raise AnalysisError(f"rule {rule_cls.__name__} has no code")
    if rule_cls.severity not in SEVERITIES:
        raise AnalysisError(
            f"rule {rule_cls.code}: unknown severity {rule_cls.severity!r}")
    if rule_cls.code in _REGISTRY:
        raise AnalysisError(f"duplicate rule code {rule_cls.code}")
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_rules() -> dict[str, type[Rule]]:
    """The default rule registry (populated by the rule modules on import)."""
    from . import concurrency as _concurrency  # noqa: F401
    from . import rules as _rules  # noqa: F401  (import registers the rules)

    return dict(_REGISTRY)


# -- suppression parsing ----------------------------------------------------

def _parse_noqa(source: str) -> tuple[dict[int, set[str]], set[str]]:
    line_noqa: dict[int, set[str]] = {}
    file_noqa: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        raw = match.group("codes")
        codes = ({c.strip() for c in raw.split(",") if c.strip()}
                 if raw else {ALL_RULES})
        if match.group("file"):
            file_noqa |= codes
        else:
            line_noqa.setdefault(lineno, set()).update(codes)
    return line_noqa, file_noqa


def _scope_key(path: Path) -> str:
    """Package-relative scoping key for ``path`` (see module docstring)."""
    parts = path.as_posix().split("/")
    for anchor in ("repro", "fixtures"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            rest = parts[idx + 1:]
            if rest:
                return "/".join(rest)
    return path.as_posix()


# -- the analyzer -----------------------------------------------------------

#: Deterministic finding order: byte-stable across filesystems and
#: dict-iteration accidents (satellite: registry determinism).
_FINDING_ORDER = (lambda f: (f.path, f.line, f.col, f.code, f.message))


class Analyzer:
    """Run rules over files in two phases and collect findings.

    Phase one runs the per-file :class:`Rule` set on each file; phase
    two builds a :class:`~.callgraph.Project` from every parse-clean
    file of the run and hands it to each :class:`ProjectRule` once.
    Rules execute in sorted code order and findings are globally
    sorted by ``(path, line, col, code, message)``, so reports are
    byte-stable regardless of filesystem enumeration order.
    """

    def __init__(self, rules: Iterable[type[Rule]] | None = None) -> None:
        registry = all_rules()
        selected = list(rules) if rules is not None else list(registry.values())
        selected.sort(key=lambda cls: cls.code)
        instances = [cls() for cls in selected]
        self.rules: list[Rule] = instances
        self.file_rules: list[Rule] = [
            r for r in instances if not isinstance(r, ProjectRule)]
        self.project_rules: list[ProjectRule] = [
            r for r in instances if isinstance(r, ProjectRule)]

    def _context_for(self, source: str, path: Path,
                     ) -> tuple[FileContext | None, list[Finding]]:
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return None, [Finding(path=str(path), line=exc.lineno or 1,
                                  col=(exc.offset or 0) + 1, code="PARSE000",
                                  severity="error",
                                  message=f"cannot parse file: {exc.msg}")]
        line_noqa, file_noqa = _parse_noqa(source)
        return FileContext(path=path, source=source, tree=tree,
                           scope_key=_scope_key(path),
                           line_noqa=line_noqa, file_noqa=file_noqa), []

    def _run_file_rules(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for rule in self.file_rules:
            if not rule.applies_to(ctx.scope_key):
                continue
            findings.extend(f for f in rule.check(ctx)
                            if not ctx.is_suppressed(f.code, f.line))
        return findings

    def _run_project_rules(self, contexts: list[FileContext]) -> list[Finding]:
        if not self.project_rules or not contexts:
            return []
        from .callgraph import Project

        project = Project.build(contexts)
        by_path = {str(ctx.path): ctx for ctx in contexts}
        findings: list[Finding] = []
        for rule in self.project_rules:
            for f in rule.check_project(project):
                ctx = by_path.get(f.path)
                if ctx is None or not rule.applies_to(ctx.scope_key):
                    continue
                if not ctx.is_suppressed(f.code, f.line):
                    findings.append(f)
        return findings

    def check_source(self, source: str, path: str | Path = "<string>") -> list[Finding]:
        """Analyze one in-memory source blob (the unit tests' entry point).

        Runs both phases, with the project built from just this file —
        cross-file resolution needs :meth:`check_paths`.
        """
        ctx, parse_findings = self._context_for(source, Path(path))
        if ctx is None:
            return parse_findings
        findings = self._run_file_rules(ctx)
        findings.extend(self._run_project_rules([ctx]))
        findings.sort(key=_FINDING_ORDER)
        return findings

    def check_paths(self, paths: Iterable[str | Path]) -> list[Finding]:
        findings: list[Finding] = []
        contexts: list[FileContext] = []
        for path in self.iter_files(paths):
            try:
                source = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise AnalysisError(f"cannot read {path}: {exc}") from exc
            ctx, parse_findings = self._context_for(source, path)
            if ctx is None:
                findings.extend(parse_findings)
                continue
            contexts.append(ctx)
            findings.extend(self._run_file_rules(ctx))
        findings.extend(self._run_project_rules(contexts))
        findings.sort(key=_FINDING_ORDER)
        return findings

    @staticmethod
    def iter_files(paths: Iterable[str | Path]) -> Iterator[Path]:
        """Expand files and directories into sorted ``.py`` files."""
        seen: set[Path] = set()
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                candidates: Iterable[Path] = sorted(
                    p for p in path.rglob("*.py")
                    if "__pycache__" not in p.parts
                    and not any(part.startswith(".") for part in p.parts))
            elif path.is_file():
                candidates = [path]
            else:
                raise AnalysisError(f"no such file or directory: {path}")
            for candidate in candidates:
                if candidate not in seen:
                    seen.add(candidate)
                    yield candidate


# -- reporting --------------------------------------------------------------

def render_text(findings: list[Finding]) -> str:
    if not findings:
        return "no findings"
    lines = [f.render() for f in findings]
    n_err = sum(1 for f in findings if f.severity == "error")
    n_warn = len(findings) - n_err
    lines.append(f"{len(findings)} finding(s): {n_err} error(s), "
                 f"{n_warn} warning(s)")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    return json.dumps([f.to_dict() for f in findings], indent=2)


def describe_rules() -> str:
    rows = []
    for code in sorted(all_rules()):
        rule = all_rules()[code]
        scope = ", ".join(s or "(everywhere)" for s in rule.scope)
        rows.append(f"{code} [{rule.severity}] {rule.title}\n"
                    f"    scope: {scope}\n"
                    f"    {rule.rationale}")
    return "\n".join(rows)


# -- CLI --------------------------------------------------------------------

def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="AST-based invariant linter for the repro simulator stack")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze (default: src)")
    parser.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text", help="report format (default text)")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run (default all)")
    parser.add_argument("--ignore", default=None, metavar="CODES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline file: fingerprinted findings in it are "
                             "reported as pre-existing and do not fail the run")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the current findings to --baseline "
                             "and exit 0")
    parser.add_argument("--changed", action="store_true",
                        help="report only findings in files changed vs git "
                             "HEAD (the call graph is still built over all "
                             "paths, so cross-module resolution stays exact)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    return parser


def _resolve_rules(select: str | None, ignore: str | None) -> list[type[Rule]]:
    registry = all_rules()
    if select:
        codes = [c.strip() for c in select.split(",") if c.strip()]
        unknown = [c for c in codes if c not in registry]
        if unknown:
            raise AnalysisError(
                f"unknown rule code(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(registry))}")
        chosen = [registry[c] for c in codes]
    else:
        chosen = list(registry.values())
    if ignore:
        dropped = {c.strip() for c in ignore.split(",") if c.strip()}
        unknown = sorted(dropped - set(registry))
        if unknown:
            raise AnalysisError(
                f"unknown rule code(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(registry))}")
        chosen = [cls for cls in chosen if cls.code not in dropped]
    return chosen


def _git_changed_files() -> set[Path]:
    """Python files changed vs HEAD (staged + unstaged + untracked)."""
    import subprocess

    changed: set[Path] = set()
    commands = (["git", "diff", "--name-only", "HEAD", "--"],
                ["git", "ls-files", "--others", "--exclude-standard"])
    for command in commands:
        try:
            out = subprocess.run(command, capture_output=True, text=True,
                                 check=True, timeout=30)
        except (OSError, subprocess.SubprocessError) as exc:
            raise AnalysisError(
                f"--changed needs a git checkout: {exc}") from exc
        for line in out.stdout.splitlines():
            if line.endswith(".py"):
                changed.add(Path(line).resolve())
    return changed


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.analyze`` / ``domino-repro analyze``.

    Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error
    (including paths that contain no Python files at all — a run that
    analyzed nothing must not look like a clean run).
    """
    from .baseline import apply_baseline, load_baseline, write_baseline

    args = build_arg_parser().parse_args(argv)
    if args.list_rules:
        print(describe_rules())
        return 0
    if args.write_baseline and not args.baseline:
        print("error: --write-baseline requires --baseline PATH",
              file=sys.stderr)
        return 2
    if args.write_baseline and args.changed:
        print("error: --write-baseline must cover the whole tree; "
              "drop --changed", file=sys.stderr)
        return 2
    try:
        files = list(Analyzer.iter_files(args.paths))
        if not files:
            raise AnalysisError(
                "no Python files found under: "
                + " ".join(str(p) for p in args.paths))
        analyzer = Analyzer(_resolve_rules(args.select, args.ignore))
        findings = analyzer.check_paths(files)
        if args.changed:
            changed = _git_changed_files()
            findings = [f for f in findings
                        if Path(f.path).resolve() in changed]
        if args.write_baseline:
            write_baseline(Path(args.baseline), findings)
            print(f"wrote baseline for {len(findings)} finding(s) "
                  f"to {args.baseline}")
            return 0
        baselined: list[Finding] = []
        if args.baseline:
            counts = load_baseline(Path(args.baseline))
            findings, baselined = apply_baseline(findings, counts)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        from .sarif import render_sarif

        print(render_sarif(findings, baselined))
    else:
        print(render_text(findings))
        if baselined:
            print(f"{len(baselined)} pre-existing finding(s) suppressed "
                  f"by baseline {args.baseline}")
    return 1 if findings else 0
