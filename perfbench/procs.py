"""Building the program and running its processes. Every process the
benchmark starts is waited for, and its peak resident set (the kernel's
VmHWM, as `ru_maxrss`) is read from that one child's rusage."""

import os
import select
import subprocess
import time


class BenchError(Exception):
    """The benchmark cannot produce a result (build, start or check)."""


def build(root, target_dir):
    """Build `mimd` and the tracer in release mode; return their paths."""
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        raise BenchError(f"no Cargo.toml in {root}: run from the repository root")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--quiet", "-p", "mimd-cli", "--bin", "mimd"],
        [
            "cargo",
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            os.path.join("perfbench", "tracer", "Cargo.toml"),
        ],
    ]
    for cmd in steps:
        proc = subprocess.run(
            cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        if proc.returncode != 0:
            raise BenchError(
                f"build failed: {' '.join(cmd)}\n{proc.stderr.decode(errors='replace')[-3000:]}"
            )
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "mimd"), os.path.join(release, "perfbench-tracer")


def try_reap(proc):
    """Reap `proc` if it has exited: (exit code, peak RSS MB) or None.
    Uses wait4 rather than Popen.poll, which would discard the rusage."""
    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    if not pid:
        return None
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, usage.ru_maxrss / 1024.0


def reap(proc, timeout_s):
    """Wait for `proc`, killing it after `timeout_s`."""
    end = time.monotonic() + timeout_s
    while True:
        done = try_reap(proc)
        if done is not None:
            return done
        if time.monotonic() > end:
            proc.kill()
            end = time.monotonic() + 10.0
        time.sleep(0.002)


def run_batch(mimd, jobs_path, out_path, timeout_s=120.0):
    """One `mimd batch - --threads 2` invocation on the job lines in
    `jobs_path`. Returns (seconds from spawn to exit, result lines,
    stderr text, peak RSS MB)."""
    err_path = out_path + ".err"
    with open(jobs_path, "rb") as jobs, open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [mimd, "batch", "-", "--threads", "2"], stdin=jobs, stdout=out, stderr=err
        )
        code, rss = reap(proc, timeout_s)
        wall = time.perf_counter() - start
    with open(out_path) as f:
        lines = f.read().splitlines()
    with open(err_path, errors="replace") as f:
        stderr = f.read()
    if code != 0:
        raise BenchError(f"mimd batch exited {code}: {stderr[-2000:]}")
    return wall, lines, stderr, rss


class Server:
    """`mimd serve --listen <socket> --shards N --queue-depth D`,
    drained by closing its stdin."""

    def __init__(self, mimd, sock_path, shards, queue_depth, timeout_s=60.0):
        cmd = [mimd, "serve", "--listen", sock_path, "--shards", str(shards)]
        cmd += ["--queue-depth", str(queue_depth)]
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self.stderr = b""
        self.exit = None
        end = time.monotonic() + timeout_s
        while b"listening on" not in self.stderr:
            if time.monotonic() > end or not self._read_stderr(0.2):
                self.stop()
                raise BenchError(
                    f"mimd serve did not start: {self.stderr.decode(errors='replace')}"
                )

    def _read_stderr(self, wait_s):
        """Read what stderr has; False once it reached end of file."""
        fd = self.proc.stderr.fileno()
        ready, _, _ = select.select([fd], [], [], wait_s)
        if ready:
            chunk = os.read(fd, 65536)
            if not chunk:
                return False
            self.stderr += chunk
        return True

    def stop(self, timeout_s=60.0):
        """Drain and reap; returns (exit code, peak RSS MB, stderr)."""
        if self.exit is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            end = time.monotonic() + timeout_s
            # Read stderr to its end so the drain summary never blocks.
            while time.monotonic() < end and self._read_stderr(0.2):
                pass
            self.exit = reap(self.proc, max(1.0, end - time.monotonic()))
            self.proc.stderr.close()
        code, rss = self.exit
        return code, rss, self.stderr.decode(errors="replace")
