"""Shared infrastructure for the experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.utils.tables import Table


@dataclass
class ExperimentResult:
    """One experiment's output: a table of rows plus summary findings.

    Attributes
    ----------
    experiment_id:
        E1..E12 identifier from DESIGN.md.
    title:
        Human-readable description of the reproduced claim.
    table:
        The rows the experiment reports (the analogue of a paper table).
    findings:
        Named scalar conclusions (fitted exponents, gaps, error rates) that
        the benchmark assertions and EXPERIMENTS.md reference.
    """

    experiment_id: str
    title: str
    table: Table
    findings: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """Render the table and findings as printable text."""
        lines = [f"[{self.experiment_id}] {self.title}", self.table.render()]
        if self.findings:
            lines.append("findings:")
            for key in sorted(self.findings):
                lines.append(f"  {key} = {self.findings[key]}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
