"""REPRO-F001: robustness features are off by default.

The repo's contract: every optional capability — fault injection,
journaling, degraded reads — must leave behavior and counters
untouched unless explicitly switched on.  (Compiled plans are not
optional: they are the only SHIFT-SPLIT kernel path.)  This rule
enforces the mechanical half of that contract
on the feature modules (:mod:`repro.fault`, ``repro.storage.journal``,
``repro.core.plans``): a keyword default that *enables* something is a
finding.

Checked on public functions, public-class constructors and dataclass
fields of the target modules:

* boolean defaults must be ``False``;
* probability/rate-style numeric defaults (parameter name containing
  ``rate``, ``probability`` or ``prob``) must be ``0``;

``# lint: allow=flag-hygiene (reason)`` on the parameter's line (or
the ``def`` line) records a reviewed exception — e.g. checksum
verification defaulting on *inside* an opt-in wrapper.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional, Tuple

from repro.analysis.engine import AnalysisReport, Rule
from repro.analysis.model import ProjectModel
from repro.analysis.source import SourceFile

_RATE_NAME_RE = re.compile(r"(rate|probability|prob)(_|$)")

#: module suffixes the off-by-default contract covers
_TARGET_MODULES = ("fault", "storage.journal", "core.plans")


def _in_scope(module: str) -> bool:
    return any(
        module.endswith(suffix) or f".{suffix}." in f"{module}."
        for suffix in _TARGET_MODULES
    )


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


class FlagHygieneRule(Rule):
    rule_id = "REPRO-F001"
    name = "flag-hygiene"

    def check(self, model: ProjectModel, report: AnalysisReport) -> None:
        for sf in model.files:
            if not _in_scope(sf.module):
                continue
            for node in sf.tree.body:
                if isinstance(node, ast.FunctionDef):
                    if not node.name.startswith("_"):
                        self._check_signature(sf, node.name, node, report)
                elif isinstance(node, ast.ClassDef):
                    if node.name.startswith("_"):
                        continue
                    for item in node.body:
                        if (
                            isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")
                            or (
                                isinstance(item, ast.FunctionDef)
                                and item.name == "__init__"
                            )
                        ):
                            self._check_signature(
                                sf, f"{node.name}.{item.name}", item, report
                            )
                    if _is_dataclass(node):
                        self._check_dataclass(sf, node, report)

    # ------------------------------------------------------------------

    def _defaults(
        self, func: ast.FunctionDef
    ) -> Iterable[Tuple[ast.arg, ast.expr]]:
        positional = list(func.args.posonlyargs) + list(func.args.args)
        for arg, default in zip(
            positional[len(positional) - len(func.args.defaults):],
            func.args.defaults,
        ):
            yield arg, default
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield arg, default

    def _check_signature(
        self,
        sf: SourceFile,
        label: str,
        func: ast.FunctionDef,
        report: AnalysisReport,
    ) -> None:
        for arg, default in self._defaults(func):
            self._check_default(
                sf, label, arg.arg, default, func, report
            )

    def _check_dataclass(
        self, sf: SourceFile, node: ast.ClassDef, report: AnalysisReport
    ) -> None:
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                if item.value is not None:
                    self._check_default(
                        sf,
                        node.name,
                        item.target.id,
                        item.value,
                        None,
                        report,
                        at=item,
                    )

    def _check_default(
        self,
        sf: SourceFile,
        label: str,
        param: str,
        default: ast.expr,
        func: Optional[ast.FunctionDef],
        report: AnalysisReport,
        at: Optional[ast.AST] = None,
    ) -> None:
        where = at if at is not None else default
        if not isinstance(default, ast.Constant):
            return
        value = default.value
        message: Optional[str] = None
        if value is True:
            message = (
                f"{label}: flag '{param}' defaults to True — robustness "
                f"features must be off by default"
            )
        elif (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value != 0
            and _RATE_NAME_RE.search(param)
        ):
            message = (
                f"{label}: rate parameter '{param}' defaults to {value!r} "
                f"— injection rates must default to 0"
            )
        if message is None:
            return
        if sf.allows(self.name, where, def_node=func):
            return
        report.findings.append(self.finding(sf, where.lineno, message))
