"""Spawns and times benchmark requests on behalf of run.py, from a lean process.

On Linux a child's peak RSS (ru_maxrss) starts at the resident size of the
process that forked it, so a harness that had parsed a large output would
show up in every later child's reading. Requests are therefore forked from
this small process, which run.py starts with ``python -I -S`` and which
imports nothing beyond the interpreter's built-in modules.

Usage: launcher.py STDOUT_PATH STDERR_PATH TIMEOUT_S

Reads one request per line on stdin, its argv fields separated by NUL
bytes. Runs it with standard output piped back here and copied to
STDOUT_PATH, times it from the fork to the last byte read, and answers one
line: ``latency_s exit_code maxrss_kb cpu_s finished own_hwm_kb``, where
the last field is this process's own peak resident size.
"""

import os
import select
import signal
import sys
import time


def _own_hwm_kb():
    # VmHWM is this address space's peak alone; getrusage(RUSAGE_SELF)
    # would also carry the parent's size from before this process's exec
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _spawn(argv, out_path, err_path, timeout_s):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(out_path, flags, 0o644)
    err_fd = os.open(err_path, flags, 0o644)
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(write_fd, 1)
            os.dup2(err_fd, 2)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    os.close(write_fd)
    os.close(err_fd)
    finished = False
    try:
        deadline = start + timeout_s
        while True:
            wait = deadline - time.perf_counter()
            if wait <= 0 or not select.select([read_fd], [], [], wait)[0]:
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                finished = True
                break
            view = memoryview(chunk)
            while view:
                view = view[os.write(out_fd, view) :]
        latency = time.perf_counter() - start
    finally:
        if not finished:
            os.kill(pid, signal.SIGKILL)
        os.close(read_fd)
        os.close(out_fd)
        _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return f"{latency!r} {code} {usage.ru_maxrss} {cpu!r} {int(finished)} {_own_hwm_kb()}"


def main():
    # SIGTERM from run.py unwinds through _spawn, which kills the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out_path, err_path, timeout_s = sys.argv[1], sys.argv[2], float(sys.argv[3])
    for line in sys.stdin:
        argv = line.rstrip("\n").split("\0")
        sys.stdout.write(_spawn(argv, out_path, err_path, timeout_s) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
