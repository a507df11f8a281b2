"""Start benchmark children one at a time and report each one's wall time, peak RSS
and the host's speed while it ran.

Run as ``python3 -S spawner.py`` in the directory the children should run
in.  Each stdin line is a JSON request {"argv", "env", "stdout", "stderr",
"timeout", "refs"}; each reply line is {"wall_s", "rss_kb", "status",
"timed_out", "refs"}.

This is a separate, small process because Linux charges a child's
``ru_maxrss`` with the high-water RSS of the process that spawned it: spawned
from the benchmark itself, every child would report at least the
benchmark's own peak.  Wall time runs from the spawn to the reaping
``os.wait4``, whose rusage gives the peak RSS of that child alone.

The speed of a shared host drifts by a fifth and more, over seconds and over
minutes.  When a request asks for ``refs``, the spawner stops the child every
PERIOD_S seconds (SIGSTOP), times ``reference_s`` once, and lets the child go
on (SIGCONT); it takes one more reading after the child ends if it took none.
The pauses are left out of the child's wall time, and the readings sample
the host's speed at the moments the child ran.  The benchmark and its
children share one CPU (``run.py`` pins them), so the readings run where the
child does.
"""

import json
import os
import select
import signal
import sys
from math import comb
from time import perf_counter

PERIOD_S = 0.25


def reference_s() -> float:
    """Seconds taken by a fixed computation on binomials of the size zsr's lemma grids reach.

    Of the candidates tried (Fractions of small binomials, an interpreter
    loop of small-int calls, dict building, and mixes of these), products of
    big binomials slowed most nearly in step with zsr's commands, start-up
    included, when the host's speed changed.
    """
    start = perf_counter()
    acc = 0
    for n in range(700, 800, 4):
        for k in range(300, 400, 7):
            acc ^= comb(n, k) * comb(n, k - 1) // (k + 1)
    return perf_counter() - start


def pause_for_reference(pid: int) -> float | None:
    """Stop the child, time reference_s, continue it; None if the child had already ended."""
    os.kill(pid, signal.SIGSTOP)
    # WNOWAIT leaves an exit to be reaped by os.wait4.
    info = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
    if info.si_code != os.CLD_STOPPED:
        return None
    os.waitid(os.P_PID, pid, os.WSTOPPED)
    reading = reference_s()
    os.kill(pid, signal.SIGCONT)
    return reading


def run(request: dict) -> dict:
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], create, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], create, 0o644),
    ]
    start = perf_counter()
    deadline = start + request["timeout"]
    pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"], file_actions=actions)
    exited = select.poll()
    pidfd = os.pidfd_open(pid)
    exited.register(pidfd, select.POLLIN)
    refs, paused, timed_out = [], 0.0, False
    while True:
        left = deadline - perf_counter()
        if left <= 0:
            os.kill(pid, signal.SIGKILL)
            timed_out = True
            break
        wait = min(left, PERIOD_S) if request["refs"] else left
        if exited.poll(1000 * wait):
            break
        if request["refs"] and perf_counter() < deadline:
            pause_start = perf_counter()
            reading = pause_for_reference(pid)
            paused += perf_counter() - pause_start
            if reading is None:
                break
            refs.append(reading)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - start - paused
    os.close(pidfd)
    if request["refs"] and not refs:
        refs.append(reference_s())
    return {"wall_s": wall, "rss_kb": usage.ru_maxrss, "status": status,
            "timed_out": timed_out, "refs": refs}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
