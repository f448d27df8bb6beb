"""Report bundles and their deterministic file emission.

A bundle carries the raw samples, per-cell aggregates, comparator metric
rows, and hybrid actual-vs-predicted series of one scenario run. Emission
is deterministic: the same bundle always produces byte-identical CSV,
JSON, and SVG files (fixed row order, shortest round-trip float text, no
timestamps), so reports can be diffed across runs.
"""

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

FORMATS = ("csv", "json", "svg")

TABLE_COLUMNS = ("environment", "nodes", "ranks", "mean_s", "stddev_s", "cpu_pct")


class ReportError(Exception):
    pass


@dataclass
class ReportBundle:
    kind: str
    seed: int
    config: dict = field(default_factory=dict)
    # raw walltime samples: (environment, nodes, ranks, iteration, seconds)
    lammps_samples: list = field(default_factory=list)
    # aggregate cells: dicts keyed by TABLE_COLUMNS
    lammps_cells: list = field(default_factory=list)
    # benchmark curves: dicts (environment, nodes, benchmark, message_bytes, value)
    osu_series: list = field(default_factory=list)
    # comparator metric rows
    taxonomy_rows: list = field(default_factory=list)
    # per-model hybrid results: {"models": {name: {"pairs": [[true, pred]..],
    #   "r_squared": float|None, "samples_seen": int}}, ...}
    hybrid: dict = field(default_factory=dict)

    def to_json(self) -> str:
        # the fields as they are: `asdict` would deep-copy every row first
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)},
                          sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ReportBundle":
        """The bundle in `text`; ValueError unless it is a JSON object of the
        bundle's fields, each holding the JSON type its field declares."""
        raw = json.loads(text)
        names = sorted(f.name for f in fields(cls))
        if not isinstance(raw, dict) or sorted(raw) != names:
            raise ValueError(f"not a report bundle (a JSON object with keys {names})")
        for f in fields(cls):
            if type(raw[f.name]) is not f.type:  # exact: `true` is no int seed
                raise ValueError(f"field {f.name!r} has type {type(raw[f.name]).__name__},"
                                 f" not {f.type.__name__}")
        return cls(**raw)

    def verify_aggregates(self) -> None:
        """Recompute every aggregate cell from the raw samples (and check
        that each cell carries exactly the configured iteration count).
        Each sum is rounded once (`math.fsum`), so the check shares no
        arithmetic with the numpy mean and stddev that made the cells."""
        by_cell: dict[tuple, list[float]] = {}
        for env, nodes, ranks, _, value in self.lammps_samples:
            by_cell.setdefault((env, int(nodes), int(ranks)), []).append(float(value))
        iterations = self.config.get("iterations")
        for cell in self.lammps_cells:
            key = (cell["environment"], int(cell["nodes"]), int(cell["ranks"]))
            values = by_cell.get(key)
            if values is None:
                raise ReportError(f"aggregate cell {key} has no raw samples")
            if iterations is not None and len(values) != iterations:
                raise ReportError(
                    f"aggregate cell {key} has {len(values)} samples, "
                    f"expected {iterations}"
                )
            n = len(values)
            mean = math.fsum(values) / n
            squares = math.fsum((v - mean) ** 2 for v in values)
            std = math.sqrt(squares / (n - 1)) if n > 1 else 0.0
            if abs(mean - cell["mean_s"]) > 1e-9 or abs(std - cell["stddev_s"]) > 1e-9:
                raise ReportError(f"aggregate cell {key} does not match its samples")


def render_value(value) -> str:
    """A CSV cell's or a service reply's text: null, true/false, a float's
    repr (numpy scalars as plain floats), lists comma-joined, else str()."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(render_value(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


# --- minimal deterministic SVG charts ----------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 160, 40, 50


def _ranges(series):
    xs = [p[0] for _, points in series for p in points]
    ys = [p[1] for _, points in series for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x0 == x1:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y0 == y1:
        y0, y1 = y0 - 1.0, y1 + 1.0
    return x0, x1, y0, y1


def _chart(title, xlabel, ylabel, series, scatter):
    """series: list of (label, [(x, y), ...]); a scatter is drawn over the
    diagonal on square axes, a line chart joins points in x order."""
    x0, x1, y0, y1 = _ranges(series)
    if scatter:
        lo, hi = min(x0, y0), max(x1, y1)
        x0 = y0 = lo
        x1 = y1 = hi
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(x):
        return _ML + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return _MT + ph - (y - y0) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333"/>',
    ]
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4
        fy = y0 + (y1 - y0) * i / 4
        out.append(
            f'<text x="{sx(fx):.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{fx:.6g}</text>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{sy(fy):.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{fy:.6g}</text>'
        )
    out.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{_MT + ph / 2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_MT + ph / 2:.1f})">'
        f"{ylabel}</text>"
    )
    if scatter:
        out.append(
            f'<line x1="{sx(x0):.1f}" y1="{sy(y0):.1f}" x2="{sx(x1):.1f}" '
            f'y2="{sy(y1):.1f}" stroke="#999" stroke-dasharray="4,3"/>'
        )
    for i, (label, points) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        if scatter:
            for x, y in points:
                out.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                    f'fill="{color}" fill-opacity="0.6"/>'
                )
        else:
            pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"/>'
            )
        ly = _MT + 16 + 18 * i
        out.append(
            f'<rect x="{_W - _MR + 10}" y="{ly - 9}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        out.append(
            f'<text x="{_W - _MR + 28}" y="{ly + 2}" font-size="11" '
            f'font-family="sans-serif">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- emission -----------------------------------------------------------------


def _csv_files(bundle: ReportBundle):
    """Yield (file name, CSV text) for each table the bundle has rows for;
    a row is a mapping keyed by column or a sequence in column order."""
    tables = []
    if bundle.lammps_cells:
        tables += [
            ("lammps_table.csv", TABLE_COLUMNS, bundle.lammps_cells),
            ("lammps_samples.csv", ("environment", "nodes", "ranks", "iteration", "walltime_s"),
             bundle.lammps_samples),
        ]
    if bundle.osu_series:
        tables.append(("osu_series.csv",
                       ("environment", "nodes", "benchmark", "message_bytes", "value"),
                       bundle.osu_series))
    if bundle.taxonomy_rows:
        tables.append(("taxonomy_metrics.csv",
                       ("mode", "gang_size", "conflict_fraction", "busyness", "deadlocked",
                        "throughput", "completed", "attempts", "conflicts", "rejected",
                        "makespan_s"),
                       bundle.taxonomy_rows))
    if bundle.hybrid:
        models = sorted(bundle.hybrid.get("models", {}).items())
        tables += [(f"hybrid_{name}.csv", ("index", "actual_s", "predicted_s"),
                    [(i, a, p) for i, (a, p) in enumerate(info["pairs"])])
                   for name, info in models]
        tables.append(("hybrid_summary.csv", ("model", "r_squared", "samples_seen", "pairs"),
                       [(name, info["r_squared"], info["samples_seen"], len(info["pairs"]))
                        for name, info in models]))
    for name, columns, rows in tables:
        rows = (r if isinstance(r, dict) else dict(zip(columns, r)) for r in rows)
        yield name, _csv_text(columns, rows)


def _series(rows, label, x, y):
    """[(label, points sorted by x)] grouping `rows` by `label`, in first-seen order."""
    groups: dict[str, list] = {}
    for row in rows:
        groups.setdefault(row[label], []).append((float(row[x]), float(row[y])))
    return [(key, sorted(points)) for key, points in groups.items()]


def _svg_files(bundle: ReportBundle):
    """Yield (file name, SVG text): a line chart per table, a scatter per model."""
    if bundle.lammps_cells:
        yield "scaling_walltime.svg", _chart(
            "Walltime strong scaling", "nodes", "mean walltime (s)",
            _series(bundle.lammps_cells, "environment", "nodes", "mean_s"), scatter=False)
    if bundle.taxonomy_rows:
        yield "taxonomy_conflict.svg", _chart(
            "Scheduling conflicts by gang size", "gang size", "conflict fraction",
            sorted(_series(bundle.taxonomy_rows, "mode", "gang_size", "conflict_fraction")),
            scatter=False)
    for name, info in sorted(bundle.hybrid.get("models", {}).items()):
        yield f"hybrid_{name}.svg", _chart(
            f"Actual vs predicted walltime ({name})", "actual walltime (s)",
            "predicted walltime (s)", [(name, [(float(a), float(p)) for a, p in info["pairs"]])],
            scatter=True)


def emit_report(bundle: ReportBundle, out_dir, formats=FORMATS) -> list[Path]:
    """Write the bundle's report files as UTF-8; returns the paths written.
    Every file renders before any is written: a bad row writes nothing."""
    unknown = set(formats) - set(FORMATS)
    if unknown:
        raise ReportError(f"unknown report formats {sorted(unknown)}")
    generators = {"json": lambda b: [("bundle.json", b.to_json() + "\n")],
                  "csv": _csv_files, "svg": _svg_files}
    out = Path(out_dir)
    files = [(out / name, text.encode("utf-8"))
             for fmt, render in generators.items() if fmt in formats
             for name, text in render(bundle)]
    for path, data in files:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return [path for path, _ in files]
