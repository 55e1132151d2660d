"""Traced CLI entry: installs the span recorder, then runs spdc_cascade.cli.main.

    python3 perfbench/cli_entry.py TRACE_PATH OP_ID SUBCOMMAND [ARGS...]

The package is imported from PYTHONPATH, as for `python -m spdc_cascade.cli`;
the import time is recorded as cli.import_s.  The spans are written to
TRACE_PATH when main returns, and the process exits with main's code.
"""

import sys
import time


def main() -> int:
    trace_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    import spdc_cascade.cli

    import_s = time.perf_counter() - start
    from spans import Recorder

    recorder = Recorder()
    recorder.op_id = op_id
    recorder.install()
    try:
        code = spdc_cascade.cli.main(argv)
    finally:
        recorder.uninstall()
    recorder.dump(trace_path, {"import_s": import_s, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
