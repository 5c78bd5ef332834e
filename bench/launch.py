"""Run one command, then print its exit code, wall time and rusage as one JSON line.

Usage: python3 -I -S launch.py TIMEOUT_S STDOUT_PATH STDERR_PATH -- COMMAND...

The benchmark starts every CLI child through this small stdlib-only process.
On Linux a child's ru_maxrss includes the resident size of the process it
was forked from, so forking straight from the benchmark, which holds numpy
and parsed outputs, would inflate peak_rss_mb. The command is killed after
TIMEOUT_S seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout, stdout_path, stderr_path, separator, *command = sys.argv[1:]
    if separator != "--" or not command:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=stdout, stderr=stderr)
        killer = threading.Timer(float(timeout), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    print(json.dumps({
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
