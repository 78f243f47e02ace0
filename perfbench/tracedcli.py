"""``python -m momentspectra`` with every public function traced; the traced
run of the readme-cli workload launches this in place of the plain CLI.

    python3 perfbench/tracedcli.py SPANS.json SUBCOMMAND [ARGS...]

Writes the spans to SPANS.json and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from momentspectra import cli
from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    tracer.job = Path(sys.argv[1]).stem
    code = tracer.call("cli", cli.main, sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps(tracer.spans))
    sys.exit(code)
