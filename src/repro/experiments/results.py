"""Result containers shared by all experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ExperimentResult:
    """Rows of one reproduced figure, ready for table rendering.

    Attributes:
        name: figure identifier, e.g. ``"fig6"``.
        title: what the figure shows.
        columns: ordered column names.
        rows: one dict per table row (keys = columns).
        notes: caveats and context recorded by the experiment.
        params: the parameters the experiment ran with.
    """

    name: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    params: dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def to_json(self) -> str:
        """Serialize the result (rows, notes, params) as pretty JSON."""
        import json
        payload = {"name": self.name, "title": self.title,
                   "columns": self.columns, "rows": self.rows,
                   "notes": self.notes, "params": self.params}
        return json.dumps(payload, indent=2, default=str)

    def save(self, path) -> None:
        """Write :meth:`to_json` to ``path`` atomically — a crashed or
        killed run never leaves a truncated artifact behind."""
        from repro.core.ioutil import atomic_write_text
        atomic_write_text(path, self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output."""
        import json
        payload = json.loads(text)
        return cls(name=payload["name"], title=payload["title"],
                   columns=list(payload["columns"]),
                   rows=list(payload.get("rows", [])),
                   notes=list(payload.get("notes", [])),
                   params=dict(payload.get("params", {})))

    @classmethod
    def load(cls, path) -> "ExperimentResult":
        """Read a result previously written by :meth:`save`."""
        from pathlib import Path
        return cls.from_json(Path(path).read_text())

    def to_table(self) -> str:
        """Render as an aligned ASCII table (via :mod:`repro.analysis`)."""
        from repro.analysis.tables import render_table
        return render_table(self.columns, self.rows,
                            title=f"{self.name}: {self.title}",
                            notes=self.notes)
