"""The shared BENCH_*.json schema: one writer for every benchmark record.

Every ``BENCH_*.json`` record the repo ships goes through
:func:`write_bench_json`, so they all share four top-level keys:

``headline``
    One human sentence: what this run showed.
``env``
    Where it ran (:func:`bench_env`): python, platform, cpu count,
    numpy presence — the context a perf number is meaningless without.
``runs``
    The measured configurations, one JSON object each.
``digests``
    The determinism block — whatever byte-identity evidence this
    benchmark pins (invoice totals, sha256 of per-tenant counts, ...).

Benchmark-specific fields ride alongside via ``**extra``.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["bench_env", "write_bench_json"]


def bench_env() -> Dict[str, object]:
    """The host context every benchmark record carries."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy ships in the image
        numpy_version = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
    }


def write_bench_json(
    path: Union[str, Path],
    *,
    headline: str,
    runs: List[Dict[str, object]],
    digests: Dict[str, object],
    env: Optional[Dict[str, object]] = None,
    **extra: object,
) -> Path:
    """Write one benchmark record in the shared schema; returns the path.

    ``headline``/``env``/``runs``/``digests`` always lead the record (in
    that order), then any benchmark-specific ``extra`` fields, sorted —
    so diffs between regenerated records stay readable.
    """
    record: Dict[str, object] = {
        "headline": headline,
        "env": env if env is not None else bench_env(),
        "runs": runs,
        "digests": digests,
    }
    for key in sorted(extra):
        record[key] = extra[key]
    path = Path(path)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path
