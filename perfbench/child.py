"""One CLI invocation in a fresh interpreter, as a user runs it.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds "src" (directory holding the kostka_forge package),
"argv" (CLI arguments, or null to only import), "trace" (path to write
spans to, or null) and "result" (path of the JSON result).  The CLI's
stdout is whatever file the parent passed as this process's stdout.

The result records the CLOCK_MONOTONIC time at which kostka_forge.cli
finished importing (the parent subtracts its spawn time to get set-up
time), the exit code of cli.main and the wall time spent inside it,
flushing the output included.
"""

import json
import sys
import time


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import kostka_forge.cli as cli

    result = {"imported": time.monotonic()}
    if spec["argv"] is not None:
        trace = None
        if spec["trace"]:
            from tracer import Trace

            trace = Trace().install()
        start = time.perf_counter()
        result["code"] = cli.main(spec["argv"])
        sys.stdout.flush()
        result["wall"] = time.perf_counter() - start
        if trace is not None:
            trace.write(spec["trace"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return result.get("code", 0)


if __name__ == "__main__":
    sys.exit(main())
