"""Structured run reports with deterministic serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional

from .errors import IoFailure


@dataclass
class CheckRecord:
    check: str
    manifold: str
    value: float
    residual: Optional[float]
    tol: Optional[float]
    passed: bool


@dataclass
class Report:
    """Command echo plus per-check records; overall pass iff every record
    passes and the run that filled it exited 0."""

    command: str
    records: List[CheckRecord] = field(default_factory=list)
    verdicts: List[str] = field(default_factory=list)
    timing: float = 0.0
    exit_code: int = 0

    def add(self, check, manifold, value, residual=None, tol=None, passed=True):
        """Append a record; one whose value or residual is not finite fails."""
        value = float(value)
        residual = None if residual is None else float(residual)
        finite = math.isfinite(value) and (residual is None or math.isfinite(residual))
        self.records.append(CheckRecord(check, manifold, value, residual,
                                        None if tol is None else float(tol),
                                        bool(passed) and finite))

    @property
    def overall_pass(self) -> bool:
        return self.exit_code == 0 and all(r.passed for r in self.records)


def _num(x: Optional[float]) -> str:
    """A JSON number at 17 significant digits; nan and +-inf as the strings
    "nan", "inf" and "-inf", since JSON has no non-finite numbers."""
    if x is None:
        return "null"
    x = float(x)
    if not math.isfinite(x):
        return f'"{x}"'
    return format(x, ".17g")


def _float(v) -> Optional[float]:
    """Inverse of _num on a field parsed with integers read as floats."""
    return None if v is None else float(v)


def emit_report(report: Report, fmt: str = "text") -> str:
    """Serialize a report.

    Text mode is an aligned human table (with verdicts and timing);
    records mode is line-delimited self-describing JSON records with
    numeric fields at 17 significant digits, byte-stable across identical
    runs; a non-finite field is the string "nan", "inf" or "-inf".
    """
    if fmt == "records":
        lines = []
        for r in report.records:
            lines.append(
                "{"
                + f'"check": "{r.check}", "manifold": "{r.manifold}", '
                + f'"value": {_num(r.value)}, "residual": {_num(r.residual)}, '
                + f'"tol": {_num(r.tol)}, "pass": {"true" if r.passed else "false"}'
                + "}"
            )
        for v in report.verdicts:
            lines.append(json.dumps({"verdict": v}))
        return "\n".join(lines) + ("\n" if lines else "")
    if fmt != "text":
        raise IoFailure(f"unknown report format {fmt!r}")

    head = f"{'check':<34} {'manifold':<26} {'value':>14} {'residual':>11} {'tol':>9} pass"
    lines = [f"# {report.command}", head, "-" * len(head)]
    for r in report.records:
        res = "" if r.residual is None else f"{r.residual:.3e}"
        tol = "" if r.tol is None else f"{r.tol:.1e}"
        lines.append(
            f"{r.check:<34} {r.manifold:<26} {r.value:>14.6g} {res:>11} {tol:>9} "
            + ("PASS" if r.passed else "FAIL")
        )
    for v in report.verdicts:
        lines.append(f"verdict: {v}")
    lines.append(f"# elapsed {report.timing:.2f}s  overall {'PASS' if report.overall_pass else 'FAIL'}")
    return "\n".join(lines) + "\n"


def parse_records(text: str):
    """Round-trip parser for records mode (bit-exact on numeric fields).

    Integers are read as floats so that "-0" keeps its sign.
    """
    out = []
    for line in filter(None, text.splitlines()):
        obj = json.loads(line, parse_int=float)
        if "verdict" in obj:
            out.append(obj)
            continue
        out.append(
            CheckRecord(
                obj["check"], obj["manifold"], _float(obj["value"]),
                _float(obj["residual"]), _float(obj["tol"]), obj["pass"],
            )
        )
    return out
