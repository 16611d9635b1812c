"""One traced CLI request, run in a fresh interpreter.

Usage: python3 -X importtime perfbench/cli_child.py SPANS_JSON ARGS...
Imports heckeblocks.cli, installs the tracer, runs the command under one
"op" span and writes the tracer summary to SPANS_JSON.  The exit code,
stdout and stderr are the command's own, so the same checks apply as for
`python -m heckeblocks.cli ARGS...`.
"""

import json
import sys
from pathlib import Path

import heckeblocks.cli as cli

from tracer import Tracer


def main():
    spans_path, args = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        with tracer.root("op"):
            cli.main(args=args, prog_name="heckeblocks")
    except SystemExit as exc:
        code = exc.code
    finally:
        spans_path.write_text(json.dumps(tracer.summary()), "utf-8")
    sys.exit(code)


if __name__ == "__main__":
    main()
