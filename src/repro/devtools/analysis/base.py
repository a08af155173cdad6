"""Analyzer framework for ``repro check``: findings, registry, baseline.

Every finding is a :class:`Violation` (path/line/col/rule/message), so
suppression, sorting and rendering are written once, and each analyzer
declares the check ids it can emit (``repro check --list-checks``).

The **baseline** is the incremental-adoption valve: a committed JSON
file of *justified* exceptions.  A finding is baselined when an entry's
``rule`` matches, its ``path`` suffix-matches the finding's path, and
its ``match`` string (if any) occurs in the message.  Baselined findings
don't fail the build; entries the run could have matched but did not
are reported as stale so the file can only shrink honestly.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterator, Sequence, TypeVar

from .loader import ModuleInfo, Project


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: where, which rule, and why."""

    path: str
    line: int  # 1-based
    col: int  # 1-based
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


T = TypeVar("T")


class Registry(dict[str, T]):
    """Id -> instance of self-registering classes (rules, analyzers)."""

    def __init__(self, kind: str) -> None:
        super().__init__()
        self.kind = kind

    def register(self, cls: type[T]) -> type[T]:
        """Class decorator: instantiate ``cls`` and file it under its ``id``."""
        item = cls()
        item_id = item.id  # type: ignore[attr-defined]
        if not item_id:
            raise ValueError(f"{self.kind} {cls.__name__} has no id")
        if item_id in self:
            raise ValueError(f"duplicate {self.kind} id {item_id}")
        self[item_id] = item
        return cls

    def all(self) -> list[T]:
        """Every registered instance, ordered by id."""
        return [self[item_id] for item_id in sorted(self)]


class Analyzer:
    """Base class: one whole-program pass over a loaded :class:`Project`."""

    id: str = ""
    description: str = ""
    check_ids: tuple[str, ...] = ()
    # Optional one-liner per check id for ``--list-checks``.
    check_help: dict[str, str] = {}

    def analyze(self, project: Project) -> Iterator[Violation]:
        raise NotImplementedError  # pragma: no cover - abstract

    @staticmethod
    def finding(
        module: ModuleInfo, node: ast.AST, check_id: str, message: str
    ) -> Violation:
        return Violation(
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=check_id,
            message=message,
        )


ANALYZERS: Registry[Analyzer] = Registry("analyzer")
register_analyzer = ANALYZERS.register


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BaselineEntry:
    """One justified exception: which findings it covers, and why."""

    rule: str
    path: str
    reason: str
    match: str = ""

    def matches_path(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return normalized == self.path or normalized.endswith("/" + self.path)

    def covers(self, finding: Violation) -> bool:
        return (
            finding.rule_id == self.rule
            and self.matches_path(finding.path)
            and self.match in finding.message
        )

    def to_dict(self) -> dict:
        record = {"rule": self.rule, "path": self.path, "reason": self.reason}
        if self.match:
            record["match"] = self.match
        return record


@dataclass
class Baseline:
    """The committed exception list plus bookkeeping from one filter run."""

    entries: list[BaselineEntry] = field(default_factory=list)
    path: Path | None = None

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        path = Path(path)
        data = json.loads(path.read_text())
        entries = [
            BaselineEntry(
                rule=entry["rule"],
                path=entry["path"],
                reason=entry.get("reason", ""),
                match=entry.get("match", ""),
            )
            for entry in data.get("entries", [])
        ]
        return cls(entries=entries, path=path)

    def apply(
        self,
        findings: Sequence[Violation],
        check_ids: Collection[str],
        paths: Collection[str],
    ) -> tuple[list[Violation], list[Violation], list[BaselineEntry]]:
        """Split ``findings`` into (kept, baselined); also stale entries.

        ``check_ids`` are the ids the analyzers that ran can emit and
        ``paths`` the files they saw.  An unused entry is stale only if
        this run could have matched it: its rule ran, and its file was
        loaded — or exists nowhere any more (judged from the working
        directory, where baseline paths are rooted), so a run over one
        analyzer or one subtree does not condemn the rest of the file.
        """
        kept: list[Violation] = []
        baselined: list[Violation] = []
        used: set[BaselineEntry] = set()
        for finding in findings:
            entry = next((e for e in self.entries if e.covers(finding)), None)
            if entry is None:
                kept.append(finding)
            else:
                baselined.append(finding)
                used.add(entry)
        stale = [
            entry
            for entry in self.entries
            if entry not in used
            and entry.rule in check_ids
            and (
                any(entry.matches_path(path) for path in paths)
                or not Path(entry.path).exists()
            )
        ]
        return kept, baselined, stale

    def write(self, path: str | Path) -> None:
        payload = {
            "_comment": (
                "repro check baseline: justified exceptions only. Each entry "
                "suppresses findings of `rule` in files whose path ends with "
                "`path` and whose message contains `match`. Keep `reason` "
                "honest - stale entries fail the gate."
            ),
            "entries": [entry.to_dict() for entry in self.entries],
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")

    @classmethod
    def from_findings(cls, findings: Sequence[Violation]) -> "Baseline":
        """Seed a baseline covering ``findings`` (reasons left to edit)."""
        entries: list[BaselineEntry] = []
        seen: set[tuple[str, str]] = set()
        for finding in findings:
            key = (finding.rule_id, finding.path.replace("\\", "/"))
            if key in seen:
                continue
            seen.add(key)
            entries.append(
                BaselineEntry(
                    rule=finding.rule_id,
                    path=key[1],
                    reason="TODO: justify this exception",
                )
            )
        return cls(entries=entries)
