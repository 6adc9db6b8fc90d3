"""Artifact writers: RFC-4180 CSV, minimal SVG line plots, run manifests.

All numbers are written with 17 significant digits and a '.' decimal
separator so repeated runs with the same config and seed are byte-identical
(the determinism contract is checked through the manifest checksums).
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np


def fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    return path


def write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return path


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def field_rows(grid, values):
    pts = grid.coords
    for i in range(grid.num_nodes):
        yield [i, *pts[i], values[i]]


def measure_rows(measure):
    """(node, velocity, mass) for the nonzero masses, in node-major order."""
    mass = measure.mass
    for i, m in zip(*np.nonzero(mass)):
        yield [i, m, mass[i, m]]


# ---------------------------------------------------------------------------
# SVG line plot (no plotting dependency)
# ---------------------------------------------------------------------------

def write_line_svg(path, xs, ys, title="", xlabel="", ylabel=""):
    """Log-log plot of the positive finite points (xs, ys), 640 x 420."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys) & (xs > 0) & (ys > 0)
    W, H = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    tx = np.log10(xs[keep])
    ty = np.log10(ys[keep])

    def span(v):
        lo, hi = float(np.min(v)), float(np.max(v))
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        return lo, hi

    xlo, xhi = span(tx)
    ylo, yhi = span(ty)
    sx = lambda v: ml + (v - xlo) / (xhi - xlo) * (W - ml - mr)
    sy = lambda v: H - mb - (v - ylo) / (yhi - ylo) * (H - mt - mb)
    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(tx, ty))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W} {H}" '
        f'font-family="monospace" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{ml}" y1="{H-mb}" x2="{W-mr}" y2="{H-mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H-mb}" stroke="black"/>',
        f'<text x="{W/2:.0f}" y="20" text-anchor="middle">{title}</text>',
        f'<text x="{W/2:.0f}" y="{H-12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{H/2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {H/2:.0f})">{ylabel}</text>',
    ]
    for v in np.linspace(xlo, xhi, 4):
        lab = f"{10**v:.3g}"
        parts.append(f'<line x1="{sx(v):.1f}" y1="{H-mb}" x2="{sx(v):.1f}" '
                     f'y2="{H-mb+5}" stroke="black"/>')
        parts.append(f'<text x="{sx(v):.1f}" y="{H-mb+18}" '
                     f'text-anchor="middle">{lab}</text>')
    for v in np.linspace(ylo, yhi, 4):
        lab = f"{10**v:.3g}"
        parts.append(f'<line x1="{ml-5}" y1="{sy(v):.1f}" x2="{ml}" '
                     f'y2="{sy(v):.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml-8}" y="{sy(v)+4:.1f}" '
                     f'text-anchor="end">{lab}</text>')
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1965b0" '
                 f'stroke-width="2"/>')
    for a, b in zip(tx, ty):
        parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3.5" '
                     f'fill="#1965b0"/>')
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, config, seed, artifact_paths, warnings=(), extra=None):
    """Written last: inputs, versions, and a checksum per artifact."""
    from . import __version__
    out_dir = Path(out_dir)
    artifacts = []
    for p in sorted(Path(a) for a in artifact_paths):
        artifacts.append({"name": p.name, "sha256": sha256_of(p),
                          "bytes": p.stat().st_size})
    payload = {
        "tool": "weakkam",
        "version": __version__,
        "numpy": np.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "seed": seed,
        "config": config,
        "warnings": list(warnings),
        "artifacts": artifacts,
    }
    if extra:
        payload.update(extra)
    return write_json(out_dir / "manifest.json", payload)
