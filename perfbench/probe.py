"""Set-up probe: the work a CLI invocation does before its first step.

Usage:  python3 perfbench/probe.py CONFIG

Imports `bfamily2c.cli`, parses the config (for a sweep, its first
member, built the way `bfamily2c sweep` builds it), which constructs the
Grid, and builds the initial state.  It then prints `time.monotonic()`,
which the parent subtracts from the time at which it launched this
interpreter; CLOCK_MONOTONIC is shared by all processes of the machine.
"""

from __future__ import annotations

import json
import sys
import time


def main(config_path: str) -> int:
    import bfamily2c.cli as cli
    from bfamily2c.initdata import build_initial

    with open(config_path) as fh:
        cfg = json.load(fh)
    sweep = cfg.pop("sweep", None)
    if sweep is not None:
        cfg["model"] = {"case": sweep["case"][0], "b": sweep["b"][0]}
        cfg["initial"]["u"]["amplitude"] = sweep["amplitude"][0]
    setup = cli.parse_config(cfg)
    build_initial(setup.spec_u, setup.spec_rho, setup.grid)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
