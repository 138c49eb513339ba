"""Start ``repro serve`` for the serve workloads.

    python3 perfbench/serve_launcher.py [--spans OUT.json] serve --socket S

With ``--spans``, the benchmark's wrappers (`layers.SERVE_PROBES`) are
installed in this process before it hands over to ``repro.cli.main``;
the spans are written to OUT.json after the service drains, and every
wrapped attribute is restored first.  Untraced runs start through the
same launcher, so both pay the same start-up path.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from spans import Patcher, Recorder  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    if argv[:1] != ["--spans"]:
        return repro_main(argv)
    out, rest = Path(argv[1]), argv[2:]
    recorder = Recorder()
    with Patcher(recorder) as patcher:
        layers.install(patcher, layers.SERVE_PROBES)
        code = repro_main(rest)
    out.write_text(json.dumps(recorder.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
