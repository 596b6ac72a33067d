"""Child-process plumbing: launching the program, waiting for readiness, memory, shutdown."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import threading
import time
from typing import Dict, List, Optional


def child_env(root: str, workdir: str) -> Dict[str, str]:
    """The program's environment: the checkout's ``src`` on the path, temp files in the workdir."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = workdir
    env["PYTHONUNBUFFERED"] = "1"
    return env


def launch(argv: List[str], root: str, workdir: str, log_name: str,
           stdin: bool = False) -> subprocess.Popen:
    """Start the program in a process group of its own, so :func:`stop` can find its workers."""
    log = open(os.path.join(workdir, log_name), "ab")
    try:
        return subprocess.Popen(argv, cwd=root, env=child_env(root, workdir),
                                stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=log, start_new_session=True)
    finally:
        log.close()


class LineReader:
    """Reads a child's stdout line by line with a deadline (the child may hang)."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.proc = proc
        self._buffer = b""

    def line(self, prefix: str, timeout: float) -> str:
        """The next stdout line starting with ``prefix``; raises if the child dies or times out."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            newline = self._buffer.find(b"\n")
            while newline >= 0:
                line = self._buffer[:newline].decode("utf-8", "replace")
                self._buffer = self._buffer[newline + 1:]
                if line.startswith(prefix):
                    return line
                newline = self._buffer.find(b"\n")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {prefix!r} line from {self.proc.args[:3]} "
                                   f"within {timeout:.0f}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(f"{self.proc.args[:3]} exited with code "
                                       f"{self.proc.wait()} before printing {prefix!r}")
                self._buffer += chunk

    def protocol(self, timeout: float) -> dict:
        """The next ``@@ {json}`` line of :mod:`program`, decoded."""
        return json.loads(self.line("@@ ", timeout)[3:])


def stop(proc: Optional[subprocess.Popen], timeout: float = 30.0) -> None:
    """SIGTERM, wait, and SIGKILL if the child outlives ``timeout``; then its leftovers.

    A program that exits normally has already shut its worker pools down.
    Any process still in its group afterwards is stuck (a forked pool worker
    can deadlock on a lock held by another thread at fork time), so it is
    killed outright and waited for.
    """
    if proc is None:
        return
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    deadline = time.monotonic() + timeout
    while True:
        left = group_members(proc.pid)
        if not left or time.monotonic() > deadline:
            break
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class RssSampler:
    """Peak resident memory of a program process plus its pool workers.

    Every ``interval`` seconds it sums the high-water marks (``VmHWM``) of the
    live processes in the program's process group (see :func:`launch`) and
    keeps the largest sum.  Each process's
    own peak is exact whenever it is sampled, so short spikes between polls
    still count; a pool that is torn down and rebuilt is not counted twice.
    """

    def __init__(self, pid: int, interval: float = 0.5) -> None:
        self.pid = pid
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        self.peak_kb = max(self.peak_kb, sum(hwm_kb(p) for p in group_members(self.pid)))

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def stop(self) -> float:
        """Stop polling (call before the process exits); returns the peak in MB."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._sample()
        return self.peak_kb / 1024.0
