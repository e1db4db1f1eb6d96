"""Machine and BLAS descriptor, as seen by a process that imports the CLI.

Run as a script under the CLI's environment; prints one JSON object.
numpy and scipy each bundle their own scipy-openblas build, so both are
queried through ctypes (``threadpoolctl`` is not a dependency).  Nothing
here sets a thread count: the benchmark must measure the default BLAS
threading the CLI gets.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys


def _openblas(libs_dir: str) -> list[dict]:
    found = []
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for key, stem, restype in (("config", "get_config", ctypes.c_char_p),
                                   ("corename", "get_corename", ctypes.c_char_p),
                                   ("num_threads", "get_num_threads", ctypes.c_int)):
            for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}",
                         f"openblas_{stem}64_", f"openblas_{stem}"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    val = fn()
                    info[key] = val.decode() if isinstance(val, bytes) else val
                    break
        found.append(info)
    return found


def describe() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    import hyperblock.cli  # noqa: F401  (same imports as a CLI run)
    import hyperblock

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {
            "numpy": _openblas(os.path.dirname(numpy.__file__) + ".libs"),
            "scipy": _openblas(os.path.dirname(scipy.__file__) + ".libs"),
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "hyperblock": os.path.dirname(hyperblock.__file__),
    }


if __name__ == "__main__":
    json.dump(describe(), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
