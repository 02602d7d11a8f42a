"""One timed ``judgeval run`` in a fresh process.

Run: ``python3 perfbench/child.py --src DIR --stamp PATH --config INI --out DIR
[--setup-only] [--trace PATH]``, with ``DIR`` on ``PYTHONPATH``.

Imports ``judgeval.cli``, loads the config, and records the moment both are
done (``time.monotonic``, comparable with the parent's clock) in the stamp
file: that is the end of set-up. Then it calls
``judgeval.cli.main(["run", ...])``, unless ``--setup-only`` is given. With
``--trace`` every layer is wrapped first and the spans are written to that
path after the run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import judgeval.cli
from judgeval.config import load_config


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True, help="the src/ dir judgeval must come from")
    parser.add_argument("--stamp", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()

    load_config(args.config)
    setup_done = time.monotonic()
    stamp = {"setup_done": setup_done, "judgeval": judgeval.cli.__file__}
    if not Path(judgeval.cli.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        stamp["error"] = "judgeval imported from outside the checkout"
        Path(args.stamp).write_text(json.dumps(stamp), encoding="utf-8")
        return 3

    code = 0
    if not args.setup_only:
        argv = ["run", "--config", args.config, "--out", args.out]
        if args.trace:
            import tracer  # next to this script, so on sys.path

            spans = tracer.Tracer()
            tracer.install(spans)
            code = spans.wrap("cli.main", judgeval.cli.main)(argv)
            spans.dump(args.trace)
        else:
            code = judgeval.cli.main(argv)
    stamp["exit"] = code
    Path(args.stamp).write_text(json.dumps(stamp), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
