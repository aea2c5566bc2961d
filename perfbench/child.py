"""Fresh-process helper for the benchmark; run.py starts it, not users.

  child.py setup <workload> <seed>      time one cold set-up, print {"setup_s": ...}
  child.py cli <trace-file|-> <args...>  run latcsim.cli.main(args); with a trace
                                         file, record spans and write their summary
"""

from __future__ import annotations

import json
import sys
import time

import run


def main(argv: list[str]) -> int:
    run.prepare()
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        workload = run.make_workload(rest[0], int(rest[1]))
        start = time.perf_counter()
        workload.setup()
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    if mode == "cli":
        import latcsim.cli
        import spans

        trace_file, args = rest[0], rest[1:]
        if trace_file == "-":
            return latcsim.cli.main(args)
        rec = spans.Recorder()
        rec.install()
        try:
            code = latcsim.cli.main(args)
        finally:
            rec.uninstall()
        with open(trace_file, "w") as fh:
            json.dump(rec.summary(), fh)
        return code
    print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
