"""A small process that starts the CLI children of a run, one at a time.

Linux counts in a child's peak RSS the peak of the memory it ran in before
exec, and ``posix_spawn`` (like ``vfork``) runs the child in its parent's
memory until then.  A child started by the benchmark process, which holds
numpy, the package and the generated inputs, would report that process's
peak instead of its own.  So ``run.py`` starts this launcher before it
imports numpy, and every CLI child is started from here, carrying only the
launcher's few MB.

Usage: python perfbench/launcher.py PYCACHE_DIR  (requests on stdin)

Children run with the launcher's environment and the checkout as working
directory, stdin from /dev/null, stdout into a file named by the request
and stderr discarded.  Their compiled bytecode goes to PYCACHE_DIR
(``PYTHONPYCACHEPREFIX``), so every run loads it the same way whatever
``__pycache__`` directories the checkout holds.  The launcher itself
keeps the usual bytecode: compiling its own imports would raise its peak
RSS, and with it every child's, by about 5 MB.

Protocol, one JSON line each way per child:
request ``{"argv": [...], "stdout": PATH}``; reply ``{"code": C, "ns": N,
"maxrss_kb": K, "launcher_maxrss_kb": L}``: the exit code (negative when
killed by a signal, as after ``TIMEOUT_S``), the wall time from spawn to
exit, the child's own peak RSS and the launcher's (``VmHWM``, which
leaves out what the launcher itself inherited), the floor under every
child's figure.
"""

import json
import os
import signal
import sys
from time import perf_counter_ns

TIMEOUT_S = 120


class Launcher:
    """The benchmark's end: starts the launcher and hands it one call at a time."""

    def __init__(self, root, workdir):
        import subprocess

        # Whatever the caller's environment: the package from the checkout,
        # bytecode cached per run, stdout buffered as when piped normally.
        pythonpath = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        skip = ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
        env = {
            **{k: v for k, v in os.environ.items() if k not in skip},
            "PYTHONPATH": os.pathsep.join(pythonpath),
        }
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(workdir / "pycache")],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv, stdout_path):
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": str(stdout_path)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher stopped")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=TIMEOUT_S + 10)
        finally:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


def _own_peak_rss_kb():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _spawn(argv, stdout_path, env):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    start = perf_counter_ns()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(TIMEOUT_S)
    _, status, usage = os.wait4(pid, 0)
    ns = perf_counter_ns() - start
    signal.alarm(0)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "ns": ns,
        "maxrss_kb": usage.ru_maxrss,
        "launcher_maxrss_kb": _own_peak_rss_kb(),
    }


def main():
    env = {**os.environ, "PYTHONPYCACHEPREFIX": sys.argv[1]}
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(_spawn(request["argv"], request["stdout"], env)), flush=True)


if __name__ == "__main__":
    main()
