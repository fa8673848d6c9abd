"""Run one flutterspec CLI command with span tracing (traced cli_session passes).

    python3 bench/cli_child.py TABLE.json flutter --config run.json

Imports the CLI, installs the tracer, runs the command, writes the span
table (plus the count of logged polish failures) to TABLE.json and exits
with the command's exit code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    table_path, argv = sys.argv[1], sys.argv[2:]
    import flutterspec.cli

    tracer = tracing.Tracer()
    tracer.install()
    counter = tracing.PolishFailureCounter().attach()
    tracer.active = True
    try:
        code = flutterspec.cli.main(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
        counter.detach()
    table = tracer.table()
    table["flutter.polish.logged_failures"] = {"calls": counter.count}
    with open(table_path, "w", encoding="utf-8") as fh:
        json.dump(table, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
