"""The benchmark's own open-loop client for `mimd serve --listen`.

One thread, two Unix-socket connections. Connection 0 carries all
session traffic, so the server reserves session ids in the order this
client sends opens and the id of every session is known before its open
is answered. Connection 1 carries `map_once` (on a fixed schedule, at
most one in flight) and `stats` polls.

Every request is timed in nanoseconds from the moment it was due, not
from when it was written. Responses are matched to their own request:
`session_opened`, `applied` (by session and record index) and
`session_closed` by session id, `map_result` by job id, an error on a
session by that session's oldest unanswered request (each session's
requests are served in order), and an error on connection 1 by the one
`map_once` in flight. An `overloaded` rejection names only its shard; it
is charged to the newest unanswered request sent to that shard, the one
whose intake found the queue full.
"""

import gc
import json
import re
import selectors
import socket
import time

from stats import Ledger

SESSION_ERROR = re.compile(r"session (\d+) not open")
SHARD_FULL = re.compile(r"shard (\d+) queue full")


class Script:
    """One session's request lines and due times (ns from start)."""

    def __init__(self, k, sid, open_line, open_due, event_lines, event_dues, close_due):
        self.k = k
        self.sid = sid
        self.lines = [open_line.encode()]
        self.lines += [
            b'{"op":"apply","session":%d,"event":%s}' % (sid, e.encode()) for e in event_lines
        ]
        self.lines.append(b'{"op":"close_session","session":%d}' % sid)
        self.dues = [open_due] + list(event_dues) + [close_due]
        self.responses = [None] * len(self.lines)

    def key(self, i):
        if i == 0:
            return ("open", self.sid)
        if i == len(self.lines) - 1:
            return ("close", self.sid)
        return ("apply", self.sid, i)

    def kind(self, i):
        return self.key(i)[0]


class Connection:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()

    def queue(self, line):
        self.out += line
        self.out += b"\n"

    def flush(self):
        while self.out:
            try:
                n = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:n]

    def read_lines(self):
        lines = []
        while True:
            try:
                chunk = self.sock.recv(1 << 20)
            except BlockingIOError:
                break
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.inbuf += chunk
            if len(chunk) < (1 << 20):
                break
        while True:
            nl = self.inbuf.find(b"\n")
            if nl < 0:
                break
            lines.append(bytes(self.inbuf[:nl]).decode())
            del self.inbuf[: nl + 1]
        return lines

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class MapSchedule:
    """`map_once` jobs due at fixed times. At most one is in flight: a
    job due while the previous one is unanswered is sent when that
    answer arrives, and its latency still runs from its due time."""

    def __init__(self, jobs):
        # jobs: (due ns from start, job id, request line), in due order
        self.jobs = jobs
        self.next = 0
        self.inflight = None
        self.responses = {}


class Client:
    def __init__(self, shards, scripts, maps=None, stats_period_s=None):
        self.shards = shards
        self.scripts = scripts
        self.by_sid = {s.sid: s for s in scripts}
        self.maps = maps
        self.stats_period_ns = int(stats_period_s * 1e9) if stats_period_s else None
        self.ledger = Ledger()
        self.conns = []
        self.pending_by_sid = {}  # sid -> ordered list of unanswered indices
        self.sent_by_shard = {}  # shard -> list of (script, i) sent on conn 0
        self.stats = []  # (t_ns, stats dict)
        self.errors = []

    def connect(self, path):
        self.conns = [Connection(path), Connection(path)]

    def schedule(self):
        """Enter every scripted request in the ledger; return the
        session requests in due order."""
        events = []
        for s in self.scripts:
            for i, due in enumerate(s.dues):
                self.ledger.due(s.key(i), s.kind(i), due)
                events.append((due, s.sid, i))
        for due, job_id, _ in self.maps.jobs if self.maps else []:
            self.ledger.due(("map", job_id), "map", due)
        events.sort()
        return events

    def run(self, drain_ns):
        """Send every scheduled request at its due time, then wait up to
        `drain_ns` for the answers still owed."""
        events = self.schedule()
        # A collector pause would read as server latency: keep it out
        # of the timed phase.
        gc.collect()
        gc.disable()
        try:
            self._run(events, drain_ns)
        finally:
            gc.enable()

    def _run(self, events, drain_ns):
        sel = selectors.DefaultSelector()
        for idx, c in enumerate(self.conns):
            sel.register(c.sock, selectors.EVENT_READ, idx)
        t0 = time.perf_counter_ns()
        maps = self.maps.jobs if self.maps else []
        nxt = 0
        next_stats = self.stats_period_ns
        deadline = None
        while True:
            now = time.perf_counter_ns() - t0
            while nxt < len(events) and events[nxt][0] <= now:
                due, sid, i = events[nxt]
                self._send_session(self.by_sid[sid], i, now)
                nxt += 1
            if self.maps and self.maps.inflight is None and self.maps.next < len(maps):
                if maps[self.maps.next][0] <= now:
                    self._send_map(now)
            if self.stats_period_ns is not None and now >= next_stats:
                self.conns[1].queue(b'{"op":"stats"}')
                next_stats += self.stats_period_ns
            for c in self.conns:
                c.flush()
            if nxt >= len(events) and (not self.maps or self.maps.next >= len(maps)):
                if deadline is None:
                    deadline = now + drain_ns
                if self.ledger.outstanding() == 0 or now >= deadline:
                    break
            wake = events[nxt][0] if nxt < len(events) else now + 50_000_000
            if self.maps and self.maps.inflight is None and self.maps.next < len(maps):
                wake = min(wake, maps[self.maps.next][0])
            if self.stats_period_ns is not None:
                wake = min(wake, next_stats)
            timeout = max(0.0, (wake - (time.perf_counter_ns() - t0)) / 1e9)
            if any(c.out for c in self.conns):
                timeout = min(timeout, 0.001)
            for key, _ in sel.select(timeout):
                conn = key.data
                for line in self.conns[conn].read_lines():
                    self._on_line(conn, line, time.perf_counter_ns() - t0)
        sel.close()

    def close(self):
        for c in self.conns:
            c.close()

    # -- sending --------------------------------------------------------

    def _send_session(self, s, i, now):
        self.conns[0].queue(s.lines[i])
        self.ledger.sent(s.key(i), now)
        self.pending_by_sid.setdefault(s.sid, []).append(i)
        self.sent_by_shard.setdefault(s.sid % self.shards, []).append((s, i))

    def _send_map(self, now):
        maps = self.maps
        _, job_id, line = maps.jobs[maps.next]
        maps.next += 1
        key = ("map", job_id)
        self.ledger.sent(key, now)
        maps.inflight = key
        self.conns[1].queue(line.encode())

    # -- receiving ------------------------------------------------------

    def _on_line(self, conn, line, now):
        try:
            msg = json.loads(line)
        except ValueError:
            self.errors.append(f"unparseable response: {line[:200]}")
            return
        kind = msg.get("kind")
        if kind == "stats":
            self.stats.append((now, msg["stats"]))
            return
        if conn == 1:
            self._on_map(msg, line, now)
            return
        if kind in ("session_opened", "applied", "session_closed"):
            sid = msg["session"]
            s = self.by_sid.get(sid)
            if s is None:
                self.errors.append(f"response for a session never opened: {line[:200]}")
                return
            if kind == "session_opened":
                i = 0
            elif kind == "session_closed":
                i = len(s.lines) - 1
            else:
                i = msg["record"]["index"]
            self._settle(s, i, line, now, "ok")
        elif kind == "error":
            self._on_session_error(msg, line, now)
        else:
            self.errors.append(f"unexpected response: {line[:200]}")

    def _settle(self, s, i, line, now, outcome):
        pending = self.pending_by_sid.get(s.sid, [])
        if i not in pending:
            self.errors.append(f"unmatched response for session {s.sid} request {i}")
            return
        pending.remove(i)
        s.responses[i] = line
        self.ledger.answered(s.key(i), now, outcome)

    def _on_session_error(self, msg, line, now):
        error = msg["error"]
        if error["code"] == "overloaded":
            m = SHARD_FULL.search(error["message"])
            shard = int(m.group(1)) if m else None
            for s, i in reversed(self.sent_by_shard.get(shard, [])):
                if i in self.pending_by_sid.get(s.sid, []):
                    self._settle(s, i, line, now, "overloaded")
                    return
            self.errors.append(f"unmatched rejection: {line[:200]}")
            return
        m = SESSION_ERROR.search(error["message"])
        s = self.by_sid.get(int(m.group(1))) if m else None
        pending = self.pending_by_sid.get(s.sid, []) if s else []
        if not pending:
            self.errors.append(f"unmatched error: {line[:200]}")
            return
        self._settle(s, pending[0], line, now, error["code"])

    def _on_map(self, msg, line, now):
        maps = self.maps
        key = maps.inflight if maps else None
        if key is None:
            self.errors.append(f"unexpected response on the map connection: {line[:200]}")
            return
        if msg.get("kind") == "map_result":
            if msg["result"]["id"] != key[1]:
                self.errors.append(f"map result for {msg['result']['id']}, expected {key[1]}")
                return
            outcome = "ok"
        else:
            outcome = msg.get("error", {}).get("code", "error")
        maps.responses[key[1]] = line
        self.ledger.answered(key, now, outcome)
        maps.inflight = None
