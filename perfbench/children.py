"""Run zsr commands as child processes, one at a time, and measure each one.

Children are started by ``spawner.py`` (see there for why it is a separate
process), with a fixed environment (PYTHONHASHSEED=0, PYTHONPATH pointing at
the checkout's ``src``), in the run's work directory, with stdout and stderr
going to files there so that no pipe can fill up while a child runs.
For an untraced child the spawner also samples the host's speed while the
child runs (see there); a call's ``wall_ref`` is its wall time divided by
the harmonic mean of those readings.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The same entry point as the `zsr` console script.
ENTRY = "import sys; from zsr.cli import main; sys.exit(main())"


@dataclass
class Call:
    """One finished child process."""

    args: list[str]
    wall_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: str
    stderr: str
    spans: Path | None = None
    refs: list[float] = field(default_factory=list)  # reference_s readings; none for a traced call

    @property
    def wall_ref(self) -> float:
        """Wall time in reference units.

        The readings are taken at even intervals of the child's run, so the
        mean of the speeds they give (1 / reading) is the child's mean speed:
        the harmonic mean of the readings, not their median, which jumps
        when the host switches between a fast and a slow state.
        """
        return self.wall_s / statistics.harmonic_mean(self.refs)


class Runner:
    """Runs zsr commands from the checkout at ``root`` in ``workdir``; use as a context manager."""

    def __init__(self, root: Path, workdir: Path, timeout_s: float = 150.0):
        self.root = root
        self.workdir = workdir
        self.timeout_s = timeout_s
        self.calls = 0
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONHASHSEED": "0",
            "PYTHONPATH": str(root / "src"),
            "LC_ALL": "C.UTF-8",
            "TMPDIR": str(workdir),
        }
        self._spawner = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=workdir, env=self.env, text=True, start_new_session=True)

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the spawner, killing its process group if a child is still running."""
        spawner = self._spawner
        if spawner.poll() is None:
            spawner.stdin.close()
            try:
                spawner.wait(timeout=5)
            except subprocess.TimeoutExpired:
                os.killpg(spawner.pid, signal.SIGKILL)
                spawner.wait()
        spawner.stdout.close()

    def zsr(self, args: list[str], trace: bool = False) -> Call:
        """Run `zsr ARGS`, under the span tracer when ``trace`` is set."""
        self.calls += 1
        stem = self.workdir / f"call{self.calls}"
        spans = stem.with_suffix(".spans") if trace else None
        if trace:
            argv = [sys.executable, str(HERE / "zsrtrace.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-c", ENTRY, *args]
        out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
        request = {"argv": argv, "env": self.env, "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": self.timeout_s, "refs": not trace}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        line = self._spawner.stdout.readline()
        if not line:
            raise RuntimeError(f"the child spawner exited with status {self._spawner.wait()}")
        reply = json.loads(line)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        err_path.unlink()
        return Call(args, reply["wall_s"], reply["rss_kb"] / 1024,
                    os.waitstatus_to_exitcode(reply["status"]), reply["timed_out"],
                    stdout, stderr, spans, reply["refs"])
