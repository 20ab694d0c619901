"""Run ``satiot serve`` in this process with layer spans installed.

Usage, from the checkout root with ``src`` on ``PYTHONPATH``::

    python perfbench/traced_serve.py SPANS_OUT serve [serve options...]

The spans are written to ``SPANS_OUT`` when the server shuts down on
SIGINT.  The server itself is the unmodified CLI entry point.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main(argv) -> int:
    recorder = tracing.SpanRecorder()
    status = tracing.install(recorder)
    from satiot.cli import main as satiot_main
    try:
        return satiot_main(argv[2:])
    finally:
        recorder.dump(argv[1], status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
