"""Runs commands for the benchmark and reports their wall time and peak RSS.

Linux carries ``ru_maxrss`` across fork+exec, so a command started by a
large process reports that process's footprint as its own peak.  The
harness therefore starts this script first, while it is still small, and
sends it one JSON request per line on stdin:
``{"argv": [...], "stdout": "path"}``.  For each it writes back one line:
``{"rc": int, "wall_s": float, "maxrss_mb": float}``.  It imports only the
standard library and holds nothing between requests.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it does not wait for it again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
