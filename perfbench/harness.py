"""Server process control and the keep-alive HTTP client of the benchmark.

The server under test is always a separate process started from the
checkout's ``src/`` tree: ``python -m repro serve`` for untraced passes,
or ``perfbench/traced_server.py`` (the same CLI entry point, with span
wrappers installed first) for traced ones.  Only the ``--port 0`` and,
for the mutation workload, ``--state-dir`` flags are passed; every other
serving flag keeps its default.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
_SERVING_RE = re.compile(r"serving explanations on http://([0-9.]+):([0-9]+)")

#: how long a server may take to print its bound port.
START_TIMEOUT_S = 60.0


@contextlib.contextmanager
def workspace():
    """A fresh directory under ``.perfbench_tmp/`` in the checkout, removed on exit."""
    root = ROOT / ".perfbench_tmp"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.rmdir()


def server_env() -> dict:
    """Environment of a server process: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Server:
    """One ``repro serve`` process on an ephemeral port.

    ``traced=True`` starts it through ``traced_server.py``, which wraps
    the layers' public functions before serving and writes the recorded
    spans to ``spans_path`` at shutdown.
    """

    def __init__(self, workdir: Path, *, state_dir: Path | None = None,
                 traced: bool = False, spans_path: Path | None = None):
        serve_args = ["serve", "--port", "0"]
        if state_dir is not None:
            serve_args += ["--state-dir", str(state_dir)]
        if traced:
            argv = [sys.executable, str(HERE / "traced_server.py"),
                    "--spans", str(spans_path), *serve_args]
        else:
            argv = [sys.executable, "-m", "repro", *serve_args]
        self.log_path = workdir / f"server-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=server_env(),
            cwd=str(ROOT),
        )
        self.host, self.port = self._await_port()

    def _await_port(self) -> tuple[str, int]:
        """Read stdout until the server prints its bound address."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _SERVING_RE.search(line.decode("utf-8", "replace"))
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError(
            f"server did not start; log tail: {self.log_tail()!r}"
        )

    def log_tail(self, size: int = 2000) -> str:
        """The last bytes of the server's stderr log."""
        try:
            return self.log_path.read_bytes()[-size:].decode("utf-8", "replace")
        except OSError:
            return ""

    def rss_peak_mb(self) -> float:
        """The server process's peak resident set size (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown path), then wait; kill on timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Client:
    """One keep-alive HTTP/1.1 connection speaking the JSON API."""

    def __init__(self, server: Server):
        self.conn = http.client.HTTPConnection(server.host, server.port, timeout=120)

    def call(self, verb: str, path: str, body: bytes | None = None,
             request_id: str | None = None) -> tuple[int, dict | str]:
        """Send one request; returns ``(status, decoded body)``."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if request_id is not None:
            headers["X-Request-ID"] = request_id
        self.conn.request(verb, path, body=body, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")

    def json(self, verb: str, path: str, payload=None) -> dict:
        """A request that must succeed; returns its JSON body."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        status, reply = self.call(verb, path, body)
        if status != 200:
            raise RuntimeError(f"{verb} {path} answered {status}: {reply}")
        return reply

    def close(self) -> None:
        """Close the connection."""
        self.conn.close()


def prometheus_values(text: str) -> dict[str, float]:
    """``{series with labels: value}`` from a Prometheus text page."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out
