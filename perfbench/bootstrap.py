"""Child-process entry: time ``import nrq``, then run one nrq command.

    python perfbench/bootstrap.py RECORD TRACE [nrq arguments ...]

Imports nrq from the checkout's ``src/`` and notes the moment the import
returned (``time.perf_counter`` is system-wide, so the parent can subtract
its spawn time).  With arguments it then runs the nrq command line: with
TRACE=0 exactly as ``python -m nrq.cli`` does; otherwise TRACE is the
wrapper cost the parent calibrated (``spans.Tracer.cost`` as JSON), and the
command runs through ``nrq.cli.main`` after the layer wrappers are
installed.  The import time, exit code and trace totals are written to
RECORD as JSON; the command's own stdout and stderr pass through untouched.
"""

import json
import runpy
import sys
import time
from pathlib import Path


def main() -> int:
    record_path, trace, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import nrq

    record = {"import_done": time.perf_counter(), "nrq_file": nrq.__file__}
    if not Path(nrq.__file__).resolve().is_relative_to(src):
        print(f"nrq imported from {nrq.__file__}, not from {src}", file=sys.stderr)
        return 4
    rc = 0
    tracer = None
    try:
        if argv and trace != "0":
            import nrq.cli
            from spans import Tracer

            tracer = Tracer(cost=json.loads(trace)).install()
            with tracer.op(0, "cli"):
                rc = nrq.cli.main(argv)
        elif argv:
            sys.argv = ["nrq", *argv]
            try:
                runpy.run_module("nrq.cli", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        record["rc"] = rc
        if tracer is not None:
            tracer.uninstall()
            record.update(tracer.snapshot())
            record["spans"] = tracer.spans
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
