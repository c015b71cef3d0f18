"""One ``repro serve`` process tree: launch, readiness, CPU accounting, stop.

The server runs as its own process (``python -m repro serve``) in a new
session, so the benchmark's client never shares an interpreter with it
and the whole tree — server plus worker fleet — can be found, measured
and reaped through ``/proc`` without reaching into the program.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

_READY = re.compile(rb"http://[0-9.]+:(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _proc_table() -> dict[int, tuple[int, int, str, float]]:
    """``pid -> (ppid, pgrp, state, cpu seconds)`` for every process.

    CPU is user + system time of the process and its reaped children.
    """
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                raw = fh.read()
        except OSError:
            continue  # exited while we scanned
        # The command name may hold spaces or parentheses: split after it.
        fields = raw[raw.rindex(b")") + 2:].split()
        ticks = sum(int(value) for value in fields[11:15])
        table[int(entry)] = (
            int(fields[1]), int(fields[2]), fields[0].decode(), ticks / _CLK_TCK
        )
    return table


class ServerProcess:
    """``repro serve`` over one dataset directory, on a free local port."""

    def __init__(self, root: Path, data_dir: Path, network: str, workers: int,
                 log_path: Path) -> None:
        self.root = root
        self.data_dir = data_dir
        self.network = network
        self.workers = workers
        self.log_path = log_path
        self.port: int | None = None
        self._proc: subprocess.Popen | None = None
        self._log = None

    def start(self, timeout: float = 60.0) -> None:
        """Launch the server and return once it accepts requests."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"  # the ready line must not sit in a buffer
        env["TMPDIR"] = str(self.log_path.parent)
        self._log = open(self.log_path, "ab")
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--register", f"{self.network}={self.data_dir}",
                "--port", "0",
                "--workers", str(self.workers),
            ],
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        fd = self._proc.stdout.fileno()
        seen = b""
        deadline = time.monotonic() + timeout
        while True:
            match = _READY.search(seen)
            if match:
                self.port = int(match.group(1))
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"server not ready after {timeout}s")
            readable, _, _ = select.select([fd], [], [], remaining)
            chunk = os.read(fd, 4096) if readable else b""
            if readable and not chunk:
                raise RuntimeError(
                    f"server exited with {self._proc.wait()} before it was ready"
                )
            seen += chunk

    def cpu_seconds(self) -> tuple[float, float]:
        """CPU time so far of ``(server process, its descendants)``.

        The descendants are the worker fleet (and multiprocessing's
        helpers); a worker that dies between two readings takes the CPU
        it used since the first reading with it.
        """
        table = _proc_table()
        children: dict[int, list[int]] = {}
        for pid, (ppid, _, _, _) in table.items():
            children.setdefault(ppid, []).append(pid)
        server = table[self._proc.pid][3]
        fleet = 0.0
        stack = list(children.get(self._proc.pid, ()))
        while stack:
            pid = stack.pop()
            fleet += table[pid][3]
            stack.extend(children.get(pid, ()))
        return server, fleet

    def stop(self, timeout: float = 10.0) -> None:
        """Interrupt the server, wait for it and for every process it left."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.send_signal(signal.SIGINT)  # the CLI's graceful shutdown
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                _kill_group(proc.pid)
                proc.wait()
            # Workers the server failed to join outlive it in its session.
            if not _group_exited(proc.pid, timeout):
                _kill_group(proc.pid)
                if not _group_exited(proc.pid, timeout):
                    raise RuntimeError("server processes survived SIGKILL")
        finally:
            proc.stdout.close()
            self._log.close()


def _group_exited(pgrp: int, timeout: float) -> bool:
    """Wait up to ``timeout`` for every live process of the group to end."""
    deadline = time.monotonic() + timeout
    while any(
        group == pgrp and state != "Z"
        for _, group, state, _ in _proc_table().values()
    ):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def _kill_group(pgrp: int) -> None:
    try:
        os.killpg(pgrp, signal.SIGKILL)
    except ProcessLookupError:
        pass  # everyone already exited
