"""One benchmark repetition: import ``secradius.cli`` from a source tree and
call ``main`` once, in a fresh single process.

Usage: python3 worker.py SRC [REPORT [--trace SPANS] -- CLI_ARGS...]

``SRC`` is put first on ``sys.path`` and the imported package must lie
under it, so the run cannot measure a stale installed copy.  ``main`` writes
its JSON report to ``REPORT``.  The worker prints one JSON line: the import
time, the time inside ``main``, its exit code, the numpy and BLAS versions,
and, with ``--trace``, the per-layer aggregates (the raw spans go to
``SPANS``).  Given only ``SRC``, it imports and reports the import time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _blas() -> dict:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}
    except (AttributeError, KeyError, TypeError):
        return {"name": "unknown", "version": "unknown"}


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    opts, cli_args = argv[:split], argv[split + 1 :]
    src = Path(opts[0]).resolve()
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import secradius.cli

    setup_s = time.perf_counter() - start
    package = Path(sys.modules["secradius"].__file__).resolve()
    if src not in package.parents:
        raise SystemExit(f"imported secradius from {package}, not from {src}")
    if len(opts) == 1:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    rc = secradius.cli.main(cli_args + ["--out", opts[1]])
    main_s = time.perf_counter() - start

    import numpy as np

    result = {
        "setup_s": setup_s,
        "main_s": main_s,
        "rc": rc,
        "package": str(package),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
    }
    if tracer is not None:
        result["layers"] = {k: v.as_dict() for k, v in tracer.layers.items()}
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
