"""Project loader: one parse of the whole tree, shared by every analyzer.

``repro check`` is *whole-program*: the layering pass needs every
import edge at once, and the tracepoints pass resolves a tracepoint name
imported from another module.  So every analyzer — the per-file lint
rules included — shares a single :class:`Project`: every ``.py`` file
parsed once, plus each module's resolved import aliases.

Module names are derived structurally: walk up from each file while an
``__init__.py`` is present, so ``src/repro/sim/link.py`` loads as
``repro.sim.link`` and a test fixture tree ``fixtures/x/repro/sim/a.py``
loads as ``repro.sim.a`` — analyzers never special-case where a tree
happens to sit on disk.

Each module carries a :class:`LintContext`: path scoping for the
per-file rules, and suppression for every check id — line-scoped via
``# repro: noqa[check-id]`` (or a blanket ``# repro: noqa``) on the
flagged line, file-scoped via ``# repro: noqa-file[check-id]`` anywhere
in the file.  File-level suppression always names explicit ids — there
is deliberately no blanket ``noqa-file``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

#: Directory names skipped when expanding a directory argument.  Fixture
#: corpora are deliberate rule violations — checking a whole test tree
#: must not trip over them.  Naming a file (or a fixtures dir) directly
#: still works: the skip only applies during expansion.
SKIP_DIR_NAMES = frozenset({"fixtures", "__pycache__"})


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.update(
                candidate
                for candidate in path.rglob("*.py")
                if not SKIP_DIR_NAMES
                & set(candidate.relative_to(path).parts[:-1])
            )
        elif path.suffix == ".py":
            found.add(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return sorted(found)


# The lookahead keeps a `noqa-file[...]` marker from doubling as a
# blanket line-level `noqa` on its own line.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?!-file)(?:\[([A-Za-z0-9_,\s\-]+)\])?")
_NOQA_FILE_RE = re.compile(r"#\s*repro:\s*noqa-file\[([A-Za-z0-9_,\s\-]+)\]")

ALL_RULES = "*"
"""Sentinel stored in a noqa map entry for a blanket suppression."""


class LintContext:
    """Per-file state: path scoping for the rules, suppression for every check."""

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        self.parts = tuple(part for part in path.parts if part not in (".", ".."))
        self._noqa: dict[int, set[str]] | None = None
        self._noqa_file: set[str] | None = None

    def in_package(self, *names: str) -> bool:
        """True when the file lives under any of the named directories."""
        return any(name in self.parts[:-1] for name in names)

    def is_file(self, *tail: str) -> bool:
        """True when the file path ends with the given components."""
        return self.parts[-len(tail):] == tail

    # ------------------------------------------------------------------
    def noqa_map(self) -> dict[int, set[str]]:
        """Line number -> suppressed rule ids (or ``ALL_RULES``)."""
        if self._noqa is None:
            mapping: dict[int, set[str]] = {}
            for lineno, line in enumerate(self.source.splitlines(), start=1):
                match = _NOQA_RE.search(line)
                if match is None:
                    continue
                ids = match.group(1)
                if ids is None:
                    mapping[lineno] = {ALL_RULES}
                else:
                    mapping[lineno] = {
                        part.strip() for part in ids.split(",") if part.strip()
                    }
            self._noqa = mapping
        return self._noqa

    def file_suppressions(self) -> set[str]:
        """Rule ids suppressed file-wide via ``# repro: noqa-file[...]``."""
        if self._noqa_file is None:
            ids: set[str] = set()
            for line in self.source.splitlines():
                match = _NOQA_FILE_RE.search(line)
                if match is not None:
                    ids.update(
                        part.strip()
                        for part in match.group(1).split(",")
                        if part.strip()
                    )
            self._noqa_file = ids
        return self._noqa_file

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        if rule_id in self.file_suppressions():
            return True
        suppressed = self.noqa_map().get(line)
        if suppressed is None:
            return False
        return ALL_RULES in suppressed or rule_id in suppressed


@dataclass
class ModuleInfo:
    """One parsed source file plus its per-module symbol tables."""

    name: str  # dotted module name, e.g. "repro.sim.link"
    path: Path
    tree: ast.Module
    ctx: LintContext
    # local alias -> absolute dotted target, e.g. {"Rng": "repro.core.rng.Rng"}
    imports: dict[str, str] = field(default_factory=dict)
    # absolute dotted modules imported at module scope (layering edges),
    # mapped to the first import node for finding locations
    module_imports: dict[str, ast.stmt] = field(default_factory=dict)
    # subset of module_imports only ever imported under `if TYPE_CHECKING:`
    # (coupling, but invisible at runtime — exempt from cycle detection)
    typing_only: set[str] = field(default_factory=set)

    @property
    def is_package(self) -> bool:
        return self.path.name == "__init__.py"

    @property
    def package(self) -> str:
        """The package relative imports resolve against.

        A package's ``__init__.py`` is its own package (``from . import
        x`` in ``repro/apps/__init__.py`` means ``repro.apps.x``).
        """
        if self.is_package:
            return self.name
        return self.name.rpartition(".")[0]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_dataclass_def(node: ast.ClassDef) -> bool:
    """Does the class carry a ``@dataclass`` / ``@dataclass(...)`` decorator?"""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def module_name_for(path: Path) -> str:
    """Dotted module name from package structure (``__init__.py`` walk)."""
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


class Project:
    """Every module of the analyzed tree, parsed once, plus its imports."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.syntax_errors: list[tuple[Path, SyntaxError]] = []

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, paths: Iterable[str | Path]) -> "Project":
        project = cls()
        for path in iter_python_files(paths):
            project.add_file(path)
        return project

    def add_file(self, path: str | Path) -> None:
        self.add_source(path, Path(path).read_text())

    def add_source(self, path: str | Path, source: str) -> None:
        """Add one module from an in-memory ``source`` filed under ``path``.

        ``path`` need not exist: rules scope themselves by its
        components (``sim/x.py``, ``examples/demo.py``), which is how
        tests plant a source blob at a logical location.
        """
        path = Path(path)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            self.syntax_errors.append((path, exc))
            return
        name = module_name_for(path)
        if name in self.modules:
            # Two files mapping to one module name (e.g. twin fixture
            # trees): disambiguate so neither shadows the other.
            base, counter = name, 2
            while name in self.modules:
                name = f"{base}#{counter}"
                counter += 1
        module = ModuleInfo(
            name=name,
            path=path,
            tree=tree,
            ctx=LintContext(path, source),
        )
        self.modules[name] = module
        for stmt in tree.body:
            self._index_stmt(module, stmt)

    # ------------------------------------------------------------------
    def _index_stmt(
        self, module: ModuleInfo, stmt: ast.stmt, typing_only: bool = False
    ) -> None:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._index_import(module, stmt, typing_only)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Imports under `if TYPE_CHECKING:` / try-except fallbacks are
            # still module-scope edges.
            guarded = typing_only or _is_type_checking_test(stmt)
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._index_stmt(module, child, typing_only=guarded)

    def _index_import(
        self,
        module: ModuleInfo,
        stmt: ast.Import | ast.ImportFrom,
        typing_only: bool = False,
    ) -> None:
        def record(target: str) -> None:
            first_time = target not in module.module_imports
            module.module_imports.setdefault(target, stmt)
            if typing_only:
                if first_time:
                    module.typing_only.add(target)
            else:
                module.typing_only.discard(target)

        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module.imports[local] = target
                record(alias.name)
        else:
            base = self._resolve_from_base(module, stmt)
            if base is None:
                return
            record(base)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = f"{base}.{alias.name}" if base else alias.name

    @staticmethod
    def _resolve_from_base(module: ModuleInfo, stmt: ast.ImportFrom) -> str | None:
        """Absolute dotted base of a ``from X import ...`` statement."""
        if stmt.level == 0:
            return stmt.module or None
        # Relative import: climb from the containing package.
        package_parts = module.package.split(".") if module.package else []
        climb = stmt.level - 1
        if climb > len(package_parts):
            return None
        base_parts = package_parts[: len(package_parts) - climb]
        if stmt.module:
            base_parts.append(stmt.module)
        return ".".join(base_parts) if base_parts else None


def _is_type_checking_test(stmt: ast.stmt) -> bool:
    test = getattr(stmt, "test", None)
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False
