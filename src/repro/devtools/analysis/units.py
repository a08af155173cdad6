"""Unit dataflow analysis over the ``_s/_ms/_bps/_bytes`` convention.

The repo's defence against seconds-vs-milliseconds (and Mbps-vs-bps,
bytes-vs-bits) bugs is a naming convention: every quantity says its unit
in its suffix.  The ``unit-suffix`` lint rule enforces that the names
exist; this analyzer makes the names *mean something* by propagating
units through expressions and flagging places where two different units
meet.

Model: a unit is a **dimension vector** (time, data, packets — data
measured in bits) plus a **scale** relative to the canonical unit
(seconds / bits / packets).  ``_ms`` is time at 1e-3; ``_bytes`` is
data at 8; ``_mbps`` is data/time at 1e6.  Propagation rules:

* multiplying or dividing by a numeric *literal* keeps the dimension
  but forgets the scale — ``rtt_s * 1e3`` is still *time*, at an
  unknown scale, so assigning it to ``rtt_ms`` is fine while adding it
  to ``x_bytes`` is not.  Multiplying by an *unknown* expression (an
  unsuffixed name) yields unknown: the expression may well carry a unit
  the analyzer cannot see, so claiming a dimension would be unsound;
* multiplying/dividing two known units combines dimensions
  (``rate_bps * dur_s`` → data, ``size_bytes / rate_bps`` → time);
  packet counts act as dimensionless counts under × and ÷;
* addition, subtraction, comparison and assignment require units to
  agree: different dimensions always clash, equal dimensions clash when
  both scales are known and differ (``_ms`` vs ``_s``).

Call sites are checked across module boundaries: a keyword argument
whose name carries a suffix must receive a matching value, and
positional arguments are matched against the callee's parameter names
via the project symbol table (functions, methods, dataclass
constructors).

Check ids: ``unit-mismatch`` (arithmetic/comparison/assignment/return),
``unit-call-mismatch`` (call sites).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from .base import Analyzer, Violation, register_analyzer
from .loader import ClassInfo, FunctionInfo, ModuleInfo, Project

Dim = tuple[int, int, int]  # exponents of (time, data[bits], packets)

_TIME: Dim = (1, 0, 0)
_DATA: Dim = (0, 1, 0)
_PKTS: Dim = (0, 0, 1)
_RATE: Dim = (-1, 1, 0)
_FREQ: Dim = (-1, 0, 0)


@dataclass(frozen=True)
class Unit:
    dim: Dim
    scale: float | None  # relative to s / bits / pkts; None = unknown
    label: str  # for messages: "_ms", "_bytes", "derived"


SUFFIX_UNITS: dict[str, Unit] = {
    "s": Unit(_TIME, 1.0, "_s"),
    "ms": Unit(_TIME, 1e-3, "_ms"),
    "us": Unit(_TIME, 1e-6, "_us"),
    "ns": Unit(_TIME, 1e-9, "_ns"),
    "bps": Unit(_RATE, 1.0, "_bps"),
    "kbps": Unit(_RATE, 1e3, "_kbps"),
    "mbps": Unit(_RATE, 1e6, "_mbps"),
    "gbps": Unit(_RATE, 1e9, "_gbps"),
    "bytes": Unit(_DATA, 8.0, "_bytes"),
    "kb": Unit(_DATA, 8e3, "_kb"),
    "mb": Unit(_DATA, 8e6, "_mb"),
    "pkts": Unit(_PKTS, 1.0, "_pkts"),
    "hz": Unit(_FREQ, 1.0, "_hz"),
}

_SUFFIX_RE = re.compile(r"_(%s)$" % "|".join(SUFFIX_UNITS))

_DIM_NAMES = {
    _TIME: "time",
    _DATA: "data",
    _PKTS: "packets",
    _RATE: "rate",
    _FREQ: "frequency",
}


def unit_of_name(name: str) -> Unit | None:
    match = _SUFFIX_RE.search(name)
    if match is None:
        return None
    return SUFFIX_UNITS[match.group(1)]


def describe(unit: Unit) -> str:
    if unit.label != "derived":
        return unit.label
    return _DIM_NAMES.get(unit.dim, f"dim{unit.dim}")


def clash(a: Unit, b: Unit) -> str | None:
    """Why ``a`` and ``b`` cannot meet in +/-/compare, or None if they can."""
    if a.dim != b.dim:
        return (
            f"incompatible dimensions ({describe(a)} vs {describe(b)})"
        )
    if a.scale is not None and b.scale is not None and a.scale != b.scale:
        return f"same dimension, different units ({describe(a)} vs {describe(b)})"
    return None


def _drop_pkts(unit: Unit) -> tuple[Dim, bool]:
    """Packet counts act as plain counts under × and ÷."""
    t, d, p = unit.dim
    return (t, d, 0), p != 0


def _combine(a: Unit, b: Unit, sign: int) -> Unit | None:
    """Unit of ``a * b`` (sign=+1) or ``a / b`` (sign=-1)."""
    dim_a, a_had_pkts = _drop_pkts(a)
    dim_b, b_had_pkts = _drop_pkts(b)
    dim = tuple(x + sign * y for x, y in zip(dim_a, dim_b))
    if dim == (0, 0, 0):
        return None  # dimensionless result: no longer tracked
    if a.scale is None or b.scale is None or a_had_pkts or b_had_pkts:
        scale = None
    else:
        scale = a.scale * b.scale if sign > 0 else a.scale / b.scale
    return Unit(dim, scale, "derived")  # type: ignore[arg-type]


def _scaled_unknown(unit: Unit) -> Unit:
    """Unit after × or ÷ with a unitless value: dimension kept, scale lost."""
    return Unit(unit.dim, None, "derived")


def _is_numeric_literal(node: ast.AST) -> bool:
    """Literal numeric expression: provably unitless (``8.0``, ``-1e3``)."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(
            node.value, bool
        )
    if isinstance(node, ast.UnaryOp):
        return _is_numeric_literal(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_numeric_literal(node.left) and _is_numeric_literal(node.right)
    return False


_UNIFYING_CALLS = frozenset({"min", "max", "abs", "sum", "sorted", "round"})


class _FunctionChecker:
    """Infers units through one function (or module) body, in source order."""

    def __init__(self, analyzer: "UnitDataflow", project: Project, module: ModuleInfo,
                 cls: ClassInfo | None = None):
        self.analyzer = analyzer
        self.project = project
        self.module = module
        self.cls = cls
        self.env: dict[str, Unit] = {}
        self.findings: list[Violation] = []

    # ------------------------------------------------------------------
    def check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            unit = unit_of_name(arg.arg)
            if unit is not None:
                self.env[arg.arg] = unit
        self.return_unit = unit_of_name(node.name)
        self.return_name = node.name
        for stmt in node.body:
            self._stmt(stmt)

    def check_module_body(self, tree: ast.Module) -> None:
        self.return_unit = None
        self.return_name = ""
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self._stmt(stmt)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs get their own checker
        if isinstance(stmt, ast.Assign):
            unit = self.infer(stmt.value)
            for target in stmt.targets:
                self._bind(target, unit, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.infer(stmt.value), stmt)
        elif isinstance(stmt, ast.AugAssign):
            value_unit = self.infer(stmt.value)
            target_unit = self._target_unit(stmt.target)
            if (
                isinstance(stmt.op, (ast.Add, ast.Sub))
                and value_unit is not None
                and target_unit is not None
            ):
                why = clash(target_unit, value_unit)
                if why is not None:
                    self._flag(
                        stmt,
                        "unit-mismatch",
                        f"augmented assignment to {self._show(stmt.target)} "
                        f"mixes units: {why}",
                    )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                unit = self.infer(stmt.value)
                if unit is not None and self.return_unit is not None:
                    why = clash(self.return_unit, unit)
                    if why is not None:
                        self._flag(
                            stmt,
                            "unit-mismatch",
                            f"'{self.return_name}()' declares "
                            f"{describe(self.return_unit)} by its name but "
                            f"returns a mismatched value: {why}",
                        )
        elif isinstance(stmt, ast.Expr):
            self.infer(stmt.value)
        else:
            # Compound statements: walk nested statements in order and
            # infer over the controlling expressions for their call/compare
            # checks.
            for expr in _control_exprs(stmt):
                self.infer(expr)
            for body in _nested_bodies(stmt):
                for inner in body:
                    self._stmt(inner)

    def _bind(self, target: ast.AST, unit: Unit | None, stmt: ast.stmt) -> None:
        declared = self._target_unit(target)
        if declared is not None and unit is not None:
            why = clash(declared, unit)
            if why is not None:
                self._flag(
                    stmt,
                    "unit-mismatch",
                    f"assignment to {self._show(target)} mixes units: {why}",
                )
        if isinstance(target, ast.Name):
            if declared is not None:
                self.env[target.id] = declared
            elif unit is not None:
                self.env[target.id] = unit
            else:
                self.env.pop(target.id, None)

    @staticmethod
    def _target_unit(target: ast.AST) -> Unit | None:
        if isinstance(target, ast.Name):
            return unit_of_name(target.id)
        if isinstance(target, ast.Attribute):
            return unit_of_name(target.attr)
        return None

    # ------------------------------------------------------------------
    # Expression inference (with checks as a side effect)
    # ------------------------------------------------------------------
    def infer(self, node: ast.AST) -> Unit | None:
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            self.infer(node.value)
            return unit_of_name(node.attr)
        if isinstance(node, ast.Subscript):
            self.infer(node.slice)
            # Elements of `samples_s[...]` carry the collection's unit.
            return self.infer(node.value)
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.Compare):
            self._check_compare(node)
            return None
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.IfExp):
            self.infer(node.test)
            left = self.infer(node.body)
            right = self.infer(node.orelse)
            if left is not None and right is not None and clash(left, right) is None:
                return left
            return None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.infer(value)
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for el in node.elts:
                self.infer(el)
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.infer(key)
            for value in node.values:
                self.infer(value)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self.infer(node.elt)
            return None
        if isinstance(node, ast.Starred):
            return self.infer(node.value)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.infer(value.value)
            return None
        return None

    def _infer_binop(self, node: ast.BinOp) -> Unit | None:
        left = self.infer(node.left)
        right = self.infer(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left is not None and right is not None:
                why = clash(left, right)
                if why is not None:
                    op = "+" if isinstance(node.op, ast.Add) else "-"
                    self._flag(
                        node,
                        "unit-mismatch",
                        f"'{self._show(node.left)} {op} {self._show(node.right)}' "
                        f"mixes units: {why}",
                    )
                    return None
                scale = left.scale if left.scale is not None else right.scale
                return Unit(left.dim, scale, left.label)
            return left if left is not None else right
        if isinstance(node.op, ast.Mult):
            if left is not None and right is not None:
                return _combine(left, right, +1)
            if left is not None and _is_numeric_literal(node.right):
                return _scaled_unknown(left)
            if right is not None and _is_numeric_literal(node.left):
                return _scaled_unknown(right)
            return None  # known x unknown expr: dimension unknowable
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if left is not None and right is not None:
                return _combine(left, right, -1)
            if left is not None and _is_numeric_literal(node.right):
                return _scaled_unknown(left)
            return None  # an unknown operand: dimension unknowable
        if isinstance(node.op, ast.Mod):
            return left
        return None

    def _check_compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        units = [self.infer(op) for op in operands]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)):
                continue
            left, right = units[i], units[i + 1]
            if left is None or right is None:
                continue
            why = clash(left, right)
            if why is not None:
                self._flag(
                    node,
                    "unit-mismatch",
                    f"comparison '{self._show(operands[i])}' vs "
                    f"'{self._show(operands[i + 1])}' mixes units: {why}",
                )

    # ------------------------------------------------------------------
    # Call sites
    # ------------------------------------------------------------------
    def _infer_call(self, node: ast.Call) -> Unit | None:
        arg_units = [self.infer(arg) for arg in node.args]
        kw_units = {
            kw.arg: self.infer(kw.value) for kw in node.keywords if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:
                self.infer(kw.value)

        func_name = _terminal(node.func)

        # Keyword arguments: the keyword's own suffix declares the unit.
        for kw in node.keywords:
            if kw.arg is None:
                continue
            declared = unit_of_name(kw.arg)
            value_unit = kw_units.get(kw.arg)
            if declared is None or value_unit is None:
                continue
            why = clash(declared, value_unit)
            if why is not None:
                shown = func_name or "call"
                self._flag(
                    kw.value,
                    "unit-call-mismatch",
                    f"keyword '{kw.arg}' of '{shown}()' receives a "
                    f"mismatched value ('{self._show(kw.value)}'): {why}",
                )

        # Positional arguments: resolve the callee's parameter names.
        params = self._callee_params(node)
        if params is not None:
            callee_label, names = params
            for index, (arg, unit) in enumerate(zip(node.args, arg_units)):
                if isinstance(arg, ast.Starred) or index >= len(names):
                    break
                declared = unit_of_name(names[index])
                if declared is None or unit is None:
                    continue
                why = clash(declared, unit)
                if why is not None:
                    self._flag(
                        arg,
                        "unit-call-mismatch",
                        f"argument {index + 1} of '{callee_label}()' fills "
                        f"parameter '{names[index]}' with a mismatched value "
                        f"('{self._show(arg)}'): {why}",
                    )

        # Return unit: unify-style builtins pass units through; otherwise
        # the callee's name suffix declares it.
        if func_name in _UNIFYING_CALLS:
            known = [u for u in arg_units if u is not None]
            if not known:
                return None
            mismatch = next(
                (clash(known[0], u) for u in known[1:] if clash(known[0], u)), None
            )
            if mismatch is not None:
                self._flag(
                    node,
                    "unit-mismatch",
                    f"'{func_name}()' arguments mix units: {mismatch}",
                )
                return None
            return known[0]
        if func_name is not None:
            return unit_of_name(func_name)
        return None

    def _callee_params(self, node: ast.Call) -> tuple[str, list[str]] | None:
        func = node.func
        # self.method / cls.method within a class body.
        if (
            self.cls is not None
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            method = self.cls.methods.get(func.attr)
            if method is not None:
                return func.attr, method.positional_params()
            return None
        resolved = self.project.resolve_callable(self.module, func)
        if isinstance(resolved, FunctionInfo):
            return resolved.name, resolved.positional_params()
        if isinstance(resolved, ClassInfo):
            return resolved.node.name, resolved.init_params()
        return None

    # ------------------------------------------------------------------
    def _flag(self, node: ast.AST, check_id: str, message: str) -> None:
        self.findings.append(
            Analyzer.finding(self.module, node, check_id, message)
        )

    @staticmethod
    def _show(node: ast.AST) -> str:
        try:
            text = ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return "<expr>"
        return text if len(text) <= 40 else text[:37] + "..."


def _control_exprs(stmt: ast.stmt) -> list[ast.expr]:
    exprs: list[ast.expr] = []
    if isinstance(stmt, (ast.If, ast.While)):
        exprs.append(stmt.test)
    elif isinstance(stmt, ast.For):
        exprs.append(stmt.iter)
    elif isinstance(stmt, ast.With):
        exprs.extend(item.context_expr for item in stmt.items)
    elif isinstance(stmt, ast.Assert):
        exprs.append(stmt.test)
    elif isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exprs.append(stmt.exc)
    return exprs


def _nested_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies: list[list[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []):
        bodies.append(handler.body)
    return bodies


def _terminal(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@register_analyzer
class UnitDataflow(Analyzer):
    id = "units"
    description = (
        "propagate _s/_ms/_bps/_bytes suffix units through expressions and "
        "call sites; flag mixed-unit arithmetic, comparisons and arguments"
    )
    check_ids = ("unit-mismatch", "unit-call-mismatch")

    def analyze(self, project: Project) -> Iterator[Violation]:
        for module in project.modules.values():
            checker = _FunctionChecker(self, project, module)
            checker.check_module_body(module.tree)
            yield from checker.findings
        for info in project.functions.values():
            checker = _FunctionChecker(self, project, info.module, cls=info.cls)
            checker.check_function(info.node)
            yield from checker.findings
