"""Analyzer framework for ``repro check``: findings and the registry.

Every finding is a :class:`Violation` (path/line/col/rule/message), so
suppression, sorting and rendering are written once, and each analyzer
declares the check ids it can emit (``repro check --list-checks``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, TypeVar

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
