"""`python -m momentspectra` and the `momentspectra` script.

The process exits right after its one command, so the interpreter's last
full collection would only walk every object that numpy and the package
made, for the OS to free them anyway.  gc.freeze() moves them out of that
collection's reach; atexit handlers, stdio flushing and library destructors
still run.  `cli.main` itself never touches the collector, so library
callers and in-process runs keep a normal one.
"""

import gc
import sys

from . import cli


def main() -> None:
    """Runs the command of sys.argv and exits with its code."""
    code = cli.main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
