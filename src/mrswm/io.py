"""CSV and manifest output.

Floats are written with 17 significant digits, enough to round-trip
binary64 exactly, so reruns of a deterministic configuration produce
byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write named columns; all floats at 17 significant digits."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("column lengths differ")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for i in range(n):
            f.write(",".join(format_float(c[i]) for c in columns) + "\n")


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
