"""Project-specific invariant rules for the repro simulator stack.

Each rule encodes one convention the repo's correctness rests on; the
rationale lines below are the short form of the discussion in
``docs/ANALYSIS.md``.  Rules are deliberately conservative: they flag
the patterns they can prove from the AST and leave judgement calls to
``# repro: noqa[...]`` suppressions with justifying comments.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..obs import names as obs_names
from .engine import FileContext, Finding, Rule, register

#: Directories whose results feed published numbers; everything here
#: must be bit-reproducible across runs, seeds, and --jobs settings.
DETERMINISTIC_SCOPES = ("sim/", "core/", "prefetchers/", "memory/", "workloads/")


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` attribute chains as a dotted string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


# ---------------------------------------------------------------------------
# DET001 — no unseeded nondeterminism in result-producing code


@register
class NoUnseededNondeterminism(Rule):
    """Reject module-level RNG, wall-clock reads, and set iteration."""

    code = "DET001"
    title = "unseeded nondeterminism in result-producing code"
    severity = "error"
    rationale = ("Domino's evaluation depends on bit-reproducible miss "
                 "streams: every RNG must be a constructor-seeded "
                 "random.Random / numpy Generator, no wall-clock value may "
                 "reach a result, and sets must be sorted before iteration "
                 "feeds anything ordered.")
    scope = DETERMINISTIC_SCOPES

    #: ``random.<fn>`` calls that are fine (constructing seeded RNGs).
    _RANDOM_OK = frozenset({"Random", "SystemRandom"})
    #: ``numpy.random.<fn>`` calls that are fine (seeded generator APIs).
    _NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence",
                               "PCG64", "Philox", "MT19937", "SFC64"})
    _CLOCKS = frozenset({"time.time", "time.time_ns"})
    _DATETIME_NOW = frozenset({"now", "utcnow", "today"})
    _UUIDS = frozenset({"uuid.uuid1", "uuid.uuid4"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_calls(ctx)
        yield from self._check_set_iteration(ctx)

    def _check_calls(self, ctx: FileContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx.tree):
            dotted = _dotted(call.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[0] == "random" and len(parts) == 2 \
                    and parts[1] not in self._RANDOM_OK:
                yield self.finding(
                    ctx, call,
                    f"module-level random.{parts[1]}() shares global RNG "
                    "state across cells; use a constructor-seeded "
                    "random.Random instance")
            elif len(parts) >= 2 and parts[-2] == "random" \
                    and parts[0] in ("np", "numpy") \
                    and parts[-1] not in self._NP_RANDOM_OK:
                yield self.finding(
                    ctx, call,
                    f"global numpy RNG call {dotted}() is not seed-scoped; "
                    "use numpy.random.default_rng(seed)")
            elif dotted in self._CLOCKS:
                yield self.finding(
                    ctx, call,
                    f"{dotted}() reads the wall clock; results must depend "
                    "only on (trace, config, seed)")
            elif parts[-1] in self._DATETIME_NOW \
                    and any(p in ("datetime", "date") for p in parts[:-1]):
                yield self.finding(
                    ctx, call,
                    f"{dotted}() reads the wall clock; results must depend "
                    "only on (trace, config, seed)")
            elif dotted in self._UUIDS:
                yield self.finding(
                    ctx, call, f"{dotted}() is nondeterministic; derive ids "
                               "from the cell key or seed instead")

    def _check_set_iteration(self, ctx: FileContext) -> Iterator[Finding]:
        set_names = self._set_valued_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.comprehension)):
                continue
            target = node.iter
            if self._is_set_expr(target) or self._names_set(target, set_names):
                where = _dotted(target) or "a set"
                yield self.finding(
                    ctx, node if isinstance(node, ast.For) else target,
                    f"iterating {where} is unordered and can reorder "
                    "results between runs; wrap it in sorted(...)")

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    @classmethod
    def _set_valued_names(cls, tree: ast.AST) -> set[str]:
        """Dotted names assigned a set display / set() call anywhere in
        the file (includes annotated ``x: set[int] = set()`` forms)."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not cls._is_set_expr(value):
                continue
            for target in targets:
                dotted = _dotted(target)
                if dotted is not None:
                    names.add(dotted)
        return names

    @staticmethod
    def _names_set(node: ast.AST, set_names: set[str]) -> bool:
        dotted = _dotted(node)
        return dotted is not None and dotted in set_names


# ---------------------------------------------------------------------------
# PICKLE001 — runner-registered callables must be module-level


@register
class PicklableCellFunctions(Rule):
    """Reject lambdas/closures where the pool needs picklable callables."""

    code = "PICKLE001"
    title = "non-picklable callable handed to the runner"
    severity = "error"
    rationale = ("Cells cross the multiprocessing boundary by pickle; "
                 "lambdas and nested functions cannot be pickled, so "
                 "executor/experiment registries and pool submissions must "
                 "reference module-level functions.")
    scope = ("runner/", "experiments/", "serve/")

    #: Call attributes that ship their callable argument to workers.
    _SUBMIT_ATTRS = frozenset({"apply_async", "apply", "map", "map_async",
                               "imap", "imap_unordered", "starmap",
                               "starmap_async", "submit"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_registries(ctx)
        yield from self._check_submissions(ctx)

    def _check_registries(self, ctx: FileContext) -> Iterator[Finding]:
        """Module-level CONSTANT-case dict registries of callables."""
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            named = [t.id for t in targets
                     if isinstance(t, ast.Name) and t.id.strip("_").isupper()]
            if not named or not isinstance(value, ast.Dict):
                continue
            for entry in value.values:
                if isinstance(entry, ast.Lambda):
                    yield self.finding(
                        ctx, entry,
                        f"registry {named[0]} holds a lambda; worker "
                        "processes cannot unpickle it — use a module-level "
                        "function")

    def _check_submissions(self, ctx: FileContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx.tree):
            func = call.func
            is_submit = (isinstance(func, ast.Attribute)
                         and func.attr in self._SUBMIT_ATTRS)
            is_run_cells = (isinstance(func, ast.Name)
                            and func.id == "run_cells")
            if not (is_submit or is_run_cells):
                continue
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                if isinstance(arg, ast.Lambda):
                    yield self.finding(
                        ctx, arg,
                        "lambda submitted to the worker pool cannot be "
                        "pickled; pass a module-level function")


# ---------------------------------------------------------------------------
# ERR001 — error discipline: ReproError hierarchy, no assert control flow


@register
class ErrorHierarchyDiscipline(Rule):
    """Reject raise Exception/RuntimeError and assert statements in src."""

    code = "ERR001"
    title = "error raised outside the ReproError hierarchy"
    severity = "error"
    rationale = ("Callers catch library failures via the ReproError tree "
                 "(errors.py); raise Exception/RuntimeError escapes it, and "
                 "assert disappears under python -O, so neither may carry "
                 "control flow in library code.  ValueError/TypeError stay "
                 "allowed for argument-contract violations.")
    scope = ("",)

    #: NotImplementedError stays allowed — it marks abstract hooks.
    _BANNED = frozenset({"Exception", "BaseException", "RuntimeError"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        name = ctx.scope_key.rsplit("/", 1)[-1]
        if name.startswith("test_") or name == "conftest.py":
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise):
                yield from self._check_raise(ctx, node)
            elif isinstance(node, ast.Assert):
                yield self.finding(
                    ctx, node,
                    "assert vanishes under python -O; raise a ReproError "
                    "subclass (or restructure) for runtime invariants")

    def _check_raise(self, ctx: FileContext, node: ast.Raise) -> Iterator[Finding]:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in self._BANNED:
            yield self.finding(
                ctx, node,
                f"raise {exc.id} bypasses the ReproError hierarchy; raise "
                "the matching errors.py class so callers can catch library "
                "failures uniformly")


# ---------------------------------------------------------------------------
# OBS001 — emit sites must use registered event/metric names


@register
class RegisteredObsNames(Rule):
    """Event/metric names at emit sites must come from obs/names.py."""

    code = "OBS001"
    title = "unregistered obs event or metric name"
    severity = "error"
    rationale = ("obs summary and docs/OBSERVABILITY.md explain events by "
                 "name; an emit site using an unregistered or computed name "
                 "silently falls out of both.  Names must be constants from "
                 "repro.obs.names (the literal value or a names.X "
                 "reference).")
    scope = ("",)
    #: The obs framework itself forwards caller-supplied names, and the
    #: analyzer quotes names in messages; both are exempt.
    _EXEMPT = ("obs/", "analyze/")

    _EVENT_ATTRS = frozenset({"emit", "debug", "info", "warning", "error"})
    _METRIC_ATTRS = frozenset({"counter", "histogram"})

    def applies_to(self, scope_key: str) -> bool:
        if any(scope_key.startswith(prefix) for prefix in self._EXEMPT):
            return False
        return super().applies_to(scope_key)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scope_vars = self._scope_bound_names(ctx.tree)
        if not scope_vars:
            return
        names_aliases, imported_constants = self._names_imports(ctx.tree)
        for call in _walk_calls(ctx.tree):
            func = call.func
            if not (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in scope_vars):
                continue
            if func.attr in self._EVENT_ATTRS:
                registry, kind = obs_names.EVENT_NAMES, "event"
            elif func.attr in self._METRIC_ATTRS:
                registry, kind = obs_names.METRIC_NAMES, "metric"
            else:
                continue
            if not call.args:
                continue
            arg = call.args[0]
            problem = self._validate(arg, registry, names_aliases,
                                     imported_constants)
            if problem is not None:
                yield self.finding(
                    ctx, arg,
                    f"{kind} name {problem} at this emit site; register it "
                    "in repro.obs.names and reference the constant")

    @staticmethod
    def _validate(arg: ast.expr, registry: frozenset[str],
                  names_aliases: set[str],
                  imported_constants: set[str]) -> str | None:
        """None when valid, else a description of what is wrong."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value in registry:
                return None
            return f"{arg.value!r} is not registered in repro.obs.names"
        if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name) \
                and arg.value.id in names_aliases:
            value = getattr(obs_names, arg.attr, None)
            if isinstance(value, str) and value in registry:
                return None
            return f"names.{arg.attr} does not exist (or is the wrong kind)"
        if isinstance(arg, ast.Name) and arg.id in imported_constants:
            value = getattr(obs_names, arg.id, None)
            if isinstance(value, str) and value in registry:
                return None
            return f"{arg.id} does not exist in repro.obs.names"
        return "is not a string constant"

    @classmethod
    def _scope_bound_names(cls, tree: ast.AST) -> set[str]:
        """Variables holding a repro.obs Scope (incl. plain aliases)."""
        bound: set[str] = set()
        # Two passes so `tel = _OBS` resolves regardless of order.
        for _ in range(2):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Assign):
                    continue
                if cls._is_scope_expr(node.value, bound):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            bound.add(target.id)
        return bound

    @staticmethod
    def _is_scope_expr(value: ast.expr, bound: set[str]) -> bool:
        if isinstance(value, ast.Name) and value.id in bound:
            return True  # alias of a known scope
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if isinstance(func, ast.Name):
            return func.id in ("scope", "obs_scope")
        if isinstance(func, ast.Attribute):
            if func.attr == "scope":
                return True  # obs.scope(...)
            if func.attr == "child" and isinstance(func.value, ast.Name) \
                    and func.value.id in bound:
                return True  # known_scope.child(...)
        return False

    @staticmethod
    def _names_imports(tree: ast.AST) -> tuple[set[str], set[str]]:
        """(aliases of the names module, constants imported from it)."""
        aliases: set[str] = set()
        constants: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.endswith("obs.names") or module == "names":
                    for alias in node.names:
                        constants.add(alias.asname or alias.name)
                elif module.endswith("obs") or module == "repro.obs":
                    for alias in node.names:
                        if alias.name == "names":
                            aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.endswith("obs.names"):
                        aliases.add(alias.asname or alias.name.split(".")[0])
        return aliases, constants


# ---------------------------------------------------------------------------
# OBS002 — spans use registered names, context-manager form only


@register
class RegisteredSpanSites(Rule):
    """``span(...)`` sites must use registered names, via ``with``."""

    code = "OBS002"
    title = "unregistered span name or bare span() call"
    severity = "error"
    rationale = ("The span forest is only analysable (critical path, "
                 "chrome trace, cross-process reparenting) if span names "
                 "come from repro.obs.names.SPAN_NAMES and every span is "
                 "opened as `with span(...)` — a bare call leaks an "
                 "unclosed span that corrupts the tree on export.")
    scope = ("",)
    #: trace.py itself constructs spans from caller names, and the
    #: analyzer quotes names in messages; both are exempt (same split
    #: as OBS001).
    _EXEMPT = ("obs/", "analyze/")

    def applies_to(self, scope_key: str) -> bool:
        if any(scope_key.startswith(prefix) for prefix in self._EXEMPT):
            return False
        return super().applies_to(scope_key)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        span_callables, module_aliases = self._span_bindings(ctx.tree)
        if not span_callables and not module_aliases:
            return
        with_items = self._with_context_exprs(ctx.tree)
        names_aliases, imported_constants = \
            RegisteredObsNames._names_imports(ctx.tree)
        for call in _walk_calls(ctx.tree):
            if not self._is_span_call(call, span_callables, module_aliases):
                continue
            if id(call) not in with_items:
                yield self.finding(
                    ctx, call,
                    "bare span() call never records; open spans as "
                    "`with span(...):` so the context manager closes and "
                    "records them")
            if not call.args:
                yield self.finding(
                    ctx, call, "span() call without a name argument")
                continue
            problem = self._validate_name(call.args[0], names_aliases,
                                          imported_constants)
            if problem is not None:
                yield self.finding(
                    ctx, call.args[0],
                    f"span name {problem}; register it as a SPAN_ constant "
                    "in repro.obs.names and reference it")

    @staticmethod
    def _validate_name(arg: ast.expr, names_aliases: set[str],
                       imported_constants: set[str]) -> str | None:
        """None when valid, else a description of what is wrong."""
        registry = obs_names.SPAN_NAMES
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value in registry:
                return None
            return f"{arg.value!r} is not registered in repro.obs.names"
        if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name) \
                and arg.value.id in names_aliases:
            value = getattr(obs_names, arg.attr, None)
            if isinstance(value, str) and value in registry:
                return None
            return f"names.{arg.attr} does not exist (or is not a SPAN_ name)"
        if isinstance(arg, ast.Name) and arg.id in imported_constants:
            value = getattr(obs_names, arg.id, None)
            if isinstance(value, str) and value in registry:
                return None
            return f"{arg.id} is not a SPAN_ name in repro.obs.names"
        return "is not a string constant"

    @staticmethod
    def _span_bindings(tree: ast.AST) -> tuple[set[str], set[str]]:
        """(names bound to trace.span, aliases of obs / obs.trace).

        The first set covers ``from ..obs.trace import span [as X]``;
        the second covers module imports whose ``.span`` attribute is
        the same callable (``from repro import obs``, ``from ..obs
        import trace``, ``import repro.obs.trace as T``).
        """
        callables: set[str] = set()
        modules: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                from_obs_pkg = module.endswith("obs") or module == "repro.obs"
                from_trace = module.endswith("obs.trace") or module == "trace"
                for alias in node.names:
                    if alias.name == "span" and (from_obs_pkg or from_trace):
                        callables.add(alias.asname or alias.name)
                    elif alias.name == "obs" and (module.endswith("repro")
                                                  or module == ""):
                        modules.add(alias.asname or alias.name)
                    elif alias.name == "trace" and from_obs_pkg:
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.endswith("obs.trace") \
                            or alias.name.endswith("repro.obs"):
                        modules.add(alias.asname or alias.name.split(".")[0])
        return callables, modules

    @staticmethod
    def _is_span_call(call: ast.Call, span_callables: set[str],
                      module_aliases: set[str]) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id in span_callables
        return (isinstance(func, ast.Attribute) and func.attr == "span"
                and isinstance(func.value, ast.Name)
                and func.value.id in module_aliases)

    @staticmethod
    def _with_context_exprs(tree: ast.AST) -> set[int]:
        """ids of Call nodes used as `with` context expressions."""
        exprs: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    exprs.add(id(item.context_expr))
        return exprs


# ---------------------------------------------------------------------------
# IO001 — durable writes must fsync


@register
class DurableWritesFsync(Rule):
    """Byte-writing functions in persistence modules must fsync."""

    code = "IO001"
    title = "durable write without fsync"
    severity = "error"
    rationale = ("A stored artifact is what a re-run of a killed sweep "
                 "serves as a finished cell, which is only safe if every "
                 "byte that reached the artifact store was fsync'd before "
                 "the atomic rename; a write path without os.fsync "
                 "silently weakens crash safety.")
    scope = ("runner/store.py",)

    _WRITE_ATTRS = frozenset({"write", "writelines"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            writes, fsyncs = self._scan(node)
            for write in writes if not fsyncs else []:
                yield self.finding(
                    ctx, write,
                    f"{node.name}() writes bytes but never calls os.fsync; "
                    "follow the write -> flush -> fsync -> os.replace "
                    "pattern (or suppress with a justification)")

    def _scan(self, func: ast.AST) -> tuple[list[ast.Call], bool]:
        writes: list[ast.Call] = []
        fsyncs = False
        for call in _walk_calls(func):
            dotted = _dotted(call.func)
            if dotted == "os.fsync":
                fsyncs = True
            elif dotted in ("json.dump",):
                writes.append(call)
            elif isinstance(call.func, ast.Attribute) \
                    and call.func.attr in self._WRITE_ATTRS:
                writes.append(call)
        return writes, fsyncs
