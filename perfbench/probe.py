"""Set-up probe: the work a ``memstep`` invocation does before its first step.

Run as ``python3 perfbench/probe.py <memstep arguments>``.  Imports the
package, resolves the configuration and loads the kernel, then prints
``time.monotonic()``; the caller subtracts the moment it started this
process.  It imports nothing else, so the figure is the program's own.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from memstep import cli  # noqa: E402

cli.resolve_config(cli.build_parser().parse_args(sys.argv[1:])).experiment_spec()
print(repr(time.monotonic()))
