"""One cold pforge CLI invocation, timed from inside the process.

    python3 perfbench/child.py TIMING_JSON [--trace SPANS_JSON] -- CLI_ARGS...

Imports pforge from the checkout's `src/`, builds the family catalog once
(set-up), then runs `pforge.cli.main(CLI_ARGS)` exactly as the `pforge`
entry point does and exits with its code.  TIMING_JSON receives the set-up
and post-set-up times; with --trace the pforge layers are wrapped first and
their spans are written to SPANS_JSON at the end.
"""

import time

_START_NS = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    timing_path = own[0]
    spans_path = own[own.index("--trace") + 1] if "--trace" in own else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pforge
    import pforge.cli  # imports every traced module

    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    pforge.builtin_catalog()
    setup_ns = time.perf_counter_ns()
    code = pforge.cli.main(cli_args)
    end_ns = time.perf_counter_ns()
    sys.stdout.flush()

    with open(timing_path, "w") as fh:
        json.dump(
            {
                "setup_s": (setup_ns - _START_NS) / 1e9,
                "work_s": (end_ns - setup_ns) / 1e9,
                "code": code,
                "pforge_file": pforge.__file__,
            },
            fh,
        )
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
