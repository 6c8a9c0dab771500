#!/usr/bin/env python3
"""Run a command and fail when its peak resident set size exceeds a bound.

The peak is the maximum RSS the kernel reports for the finished child
through wait4(), the number GNU `time -v` prints as "Maximum resident
set size". The command's stdout and stderr pass through. Run it from
the repository root:

    python3 scripts/peak_rss.py MAX_MB COMMAND [ARGS...]

It exits with the command's status when the command fails, with 1 when
the peak exceeds MAX_MB, and with 0 otherwise.
"""

import resource
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bound_mb = float(sys.argv[1])
    command = sys.argv[2:]
    status = subprocess.call(command)
    # Linux reports ru_maxrss in KiB.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(
        f"peak RSS {peak_mb:.1f} MB (bound {bound_mb:.0f} MB): {' '.join(command)}",
        file=sys.stderr,
    )
    if status != 0:
        return status
    if peak_mb > bound_mb:
        print(f"peak RSS exceeds {bound_mb:.0f} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
