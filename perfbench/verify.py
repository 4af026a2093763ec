"""Re-verify run directories with the CLI's offline `check` command.

Usage:  python3 perfbench/verify.py MANIFEST...

Prints one JSON line: a list with, per manifest, the exit code of
`bfamily2c check` and the problems it printed.  Needs `src` on
PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

FAILED_PREFIX = "check FAILED: "


def check_manifest(cli, path: str) -> dict:
    """Run `check` on one manifest through `cli.main`, capturing its output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", path])
    problems = [ln[len(FAILED_PREFIX):] for ln in buf.getvalue().splitlines()
                if ln.startswith(FAILED_PREFIX)]
    return {"manifest": path, "code": code, "problems": problems}


def main(paths: list[str]) -> int:
    import bfamily2c.cli as cli

    print(json.dumps([check_manifest(cli, p) for p in paths]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
