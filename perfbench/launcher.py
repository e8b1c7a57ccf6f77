"""Child-process launcher for run.py.

Linux starts a child's peak-RSS count (``ru_maxrss``) at the resident size
of the process that forked it, so children forked by run.py, which holds
the package and its arrays, would all report run.py's size.  run.py
therefore has this small process spawn every timed child.

Protocol: one JSON object ``{"cmd", "cwd", "env", "log"}`` per line on
stdin; for each, one line ``{"rc", "wall", "rss_mb"}`` on stdout after the
child has exited.  End of input ends the launcher.
"""
import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"],
                                    env=req["env"],
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "wall": wall,
                          "rss_mb": usage.ru_maxrss / 1024.0}), flush=True)


if __name__ == "__main__":
    main()
