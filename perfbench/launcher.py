"""Starts the benchmark's child processes and reaps them with `os.wait4`.

Linux carries the RSS high-water mark of the process that forks a child into
the child's `ru_maxrss` across `exec`. The benchmark's main process holds a
corpus and an index in memory, so children it spawned itself would all
report at least its peak. This launcher imports nothing heavy and stays small, so the
peak RSS `wait4` reports for each child it starts is that child's own.

Protocol: one JSON request per line on stdin,
`{"cmd": [...], "out": path, "err": path, "limit_s": seconds}`; one JSON
reply per line on stdout, `{"code": int, "wall_s": float, "rss_mb": float}`.
The launcher exits at end of input.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(cmd, out, err, limit_s):
    with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out_fh, stderr=err_fh)
        timer = threading.Timer(limit_s, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    # reaped above; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall_s, "rss_mb": usage.ru_maxrss / 1024}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["cmd"], request["out"], request["err"], request["limit_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
