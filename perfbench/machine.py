"""The environment a result was measured in."""
from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    """Unified and data cache sizes of CPU 0, keyed like "L2"."""
    out = {}
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                level = (index / "level").read_text().strip()
                out[f"L{level}" if kind == "Unified" else f"L{level}d"] = (
                    (index / "size").read_text().strip())
    except OSError:
        pass
    return out


def environment() -> dict:
    import robust_makespan

    accel = getattr(robust_makespan, "_accel", None)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # False means the compiled kernel path is never measured here
        "have_kernels": getattr(accel, "HAVE_KERNELS", "absent"),
    }
