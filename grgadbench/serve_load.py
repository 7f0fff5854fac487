"""Traffic for `grgad serve`: one unix-socket connection, two client threads.

The sender (the calling thread) issues requests; a receiver thread reads the
replies, which the daemon writes in admission order, and checks each one
against the request it answers. Request contents come from a seeded
TrafficGenerator that only issues requests that can succeed:

- `what-if` draws its `contains` node from groups the daemon currently
  holds: every group, from a warm-up `rescore` with a `top` covering them
  all, then the top REFRESH_TOP groups of each `refresh` reply (a small
  `top` keeps reply rendering out of the refresh latency);
- `remove-edge` removes an edge that exists and `add-edge` adds a pair that
  is absent, so every mutation replies `applied: true`.

A `refresh` replaces the resident groups, so a `what-if` is held while a
refresh is outstanding, and so is everything scheduled after it. Held
requests still count their latency from their due time.
"""

import collections
import json
import random
import re
import socket
import threading
import time

import benchlib

REPLY_HEAD = re.compile(
    rb'^\{"id": (\d+), "op": "([a-z-]+)", "status": "([A-Za-z]+)"')
GROUP_NODES = re.compile(rb'"nodes": \[([0-9, ]*)\]')
ALL_GROUPS = 1000000  # A `top` that returns every resident group.
REFRESH_TOP = 20


def nodes_in_reply(line):
    """Every node id named by a reply's top_groups."""
    nodes = set()
    for members in GROUP_NODES.findall(line):
        nodes.update(int(v) for v in members.split(b",") if v.strip())
    return nodes


class TrafficGenerator:
    """Seeded stream of requests over a what-if / rescore / mutation mix,
    with a refresh after every `refresh_every` mutations.

    `mix` gives whole counts per deck, e.g. (("what-if", 17), ...): kinds
    are dealt from shuffled decks, so every stretch of traffic holds the
    mix's exact shares whatever the seed, and phases of equal length do equal
    work.
    """

    def __init__(self, seed, num_nodes, edges, mix, refresh_every):
        self.rng = random.Random(seed)
        self.num_nodes = num_nodes
        self.edges = [tuple(sorted(e)) for e in edges]
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        self.mix = mix
        self.deck = []
        self.refresh_every = refresh_every
        self.since_refresh = 0
        self.pool = []

    def set_pool(self, nodes):
        if not nodes:
            raise ValueError("the daemon holds no groups to query")
        self.pool = sorted(nodes)

    def start_phase(self):
        """Restarts the deck and the refresh cadence, so a phase's refreshes
        fall at the same offsets in every run: the first after half a
        cadence, which keeps them clear of the daemon's snapshots when the
        snapshot cadence is a multiple of the refresh cadence."""
        self.since_refresh = self.refresh_every // 2
        self.deck = []

    def next_kind(self):
        if self.since_refresh >= self.refresh_every:
            self.since_refresh = 0
            return "refresh"
        if not self.deck:
            self.deck = [kind for kind, count in self.mix for _ in range(count)]
            self.rng.shuffle(self.deck)
        kind = self.deck.pop()
        if kind == "mutation":
            self.since_refresh += 1
        return kind

    def request(self, kind, req_id):
        """The request body for `kind`; "mutation" picks add or remove."""
        if kind == "what-if":
            return {"id": req_id, "op": "what-if",
                    "contains": self.rng.choice(self.pool)}
        if kind == "rescore":
            return {"id": req_id, "op": "rescore", "detector": "ecod"}
        if kind == "refresh":
            return {"id": req_id, "op": "refresh", "top": REFRESH_TOP}
        if kind == "mutation":
            if self.edges and self.rng.random() < 0.5:
                u, v = self._remove_edge()
                return {"id": req_id, "op": "remove-edge", "u": u, "v": v}
            u, v = self._add_edge()
            return {"id": req_id, "op": "add-edge", "u": u, "v": v}
        raise ValueError("unknown request kind " + kind)

    def _remove_edge(self):
        i = self.rng.randrange(len(self.edges))
        edge = self.edges[i]
        last = self.edges.pop()
        if i < len(self.edges):
            self.edges[i] = last
            self.edge_index[last] = i
        del self.edge_index[edge]
        return edge

    def _add_edge(self):
        while True:
            u = self.rng.randrange(self.num_nodes)
            v = self.rng.randrange(self.num_nodes)
            edge = (min(u, v), max(u, v))
            if u != v and edge not in self.edge_index:
                self.edge_index[edge] = len(self.edges)
                self.edges.append(edge)
                return edge


def kind_of(op):
    return "mutation" if op in ("add-edge", "remove-edge") else op


def connect(path, timeout_s):
    """Connects to the daemon's socket, retrying until it listens."""
    deadline = time.perf_counter() + timeout_s
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.001)


class Client:
    """One connection: the caller sends, a receiver thread collects replies.

    Every reply must carry the id and op of the oldest unanswered request
    and status "ok"; mutations must also reply `applied: true`. Anything
    else is recorded in `errors` and counts as a failed request.
    """

    def __init__(self, path, timeout_s=60.0):
        self.sock = connect(path, timeout_s)
        self.reader = self.sock.makefile("rb")
        self.cv = threading.Condition()
        self.pending = collections.deque()
        self.outstanding = 0
        self.refreshes_outstanding = 0
        self.completed = []  # (kind, due, sent, received, ok)
        self.errors = []
        self.failed = 0
        self.last_line = {}  # id -> raw reply, for requests sent with keep=True
        self.pool = None  # Latest group nodes seen in a refresh reply.
        self.closed = False
        self.thread = threading.Thread(target=self._receive, daemon=True)
        self.thread.start()

    def send(self, request, due=None, keep=False):
        """Sends one request; returns its send time. `due` defaults to the
        send time (closed-loop requests)."""
        with self.cv:
            sent = time.perf_counter()
            self.pending.append((request["id"], request["op"],
                                 sent if due is None else due, sent, keep))
            self.outstanding += 1
            if request["op"] == "refresh":
                self.refreshes_outstanding += 1
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        return sent

    def wait_until(self, predicate, timeout_s=120.0):
        with self.cv:
            if not self.cv.wait_for(lambda: predicate() or self.closed,
                                    timeout_s):
                raise TimeoutError("daemon did not answer in time")

    def wait_idle(self):
        self.wait_until(lambda: self.outstanding == 0)
        if self.outstanding:
            raise ConnectionError("daemon closed the connection with " +
                                  str(self.outstanding) + " requests open")

    def call(self, request):
        """Sends one request, waits for every reply; returns its raw reply."""
        self.send(request, keep=True)
        self.wait_idle()
        return self.last_line.pop(request["id"], b"")

    def _receive(self):
        try:
            for line in self.reader:
                received = time.perf_counter()
                self._check(line, received)
        except (OSError, ValueError):
            pass
        with self.cv:
            self.closed = True
            self.cv.notify_all()

    def _check(self, line, received):
        with self.cv:
            if not self.pending:
                self.errors.append("unexpected reply: " + line[:120].decode())
                return
            req_id, op, due, sent, keep = self.pending.popleft()
        head = REPLY_HEAD.match(line)
        ok = (head is not None and int(head.group(1)) == req_id and
              head.group(2).decode() == op and head.group(3) == b"ok")
        if ok and op in ("add-edge", "remove-edge"):
            ok = b'"applied": true' in line
        pool = nodes_in_reply(line) if ok and op == "refresh" else None
        with self.cv:
            if not ok:
                self.failed += 1
                self.errors.append("request %d (%s) got: %s" %
                                   (req_id, op, line[:160].decode(errors="replace")))
            if keep:
                self.last_line[req_id] = line
            if pool is not None:
                self.pool = pool
            if op == "refresh":
                self.refreshes_outstanding -= 1
            self.completed.append((kind_of(op), due, sent, received, ok))
            self.outstanding -= 1
            self.cv.notify_all()

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.thread.join()
        self.reader.close()
        self.sock.close()


class Session:
    """Drives one daemon through the measured phases of a workload."""

    def __init__(self, client, generator):
        self.client = client
        self.gen = generator
        self.next_id = 1000
        self.ready = []  # Per open-loop request: when it could be sent.

    def _take_id(self):
        self.next_id += 1
        return self.next_id

    def _hold_for_refresh(self):
        """Blocks while a refresh is outstanding; then adopts the groups it
        returned. Returns the release time, or None when nothing was held."""
        c = self.client
        with c.cv:
            busy = c.refreshes_outstanding > 0
        if busy:
            c.wait_until(lambda: c.refreshes_outstanding == 0)
        with c.cv:
            pool, c.pool = c.pool, None
        if pool is not None:
            self.gen.set_pool(pool)
        return time.perf_counter() if busy else None

    def warm_up(self):
        """Brings the daemon to its serving steady state with one refresh
        (the first primes the refresh cache and swaps in the embeddings that
        every later refresh produces), then learns the resident groups from
        a rescore whose `top` covers them all."""
        self.client.call({"id": self._take_id(), "op": "refresh"})
        line = self.client.call({"id": self._take_id(), "op": "rescore",
                                 "detector": "ecod", "top": ALL_GROUPS})
        self.gen.set_pool(nodes_in_reply(line))

    def open_loop(self, rate, seconds, window):
        """Open loop with Poisson arrivals at a mean of `rate` requests per
        second; returns the (first, end) indices of its requests in
        client.completed.

        At most `window` requests are outstanding: an overloaded daemon
        delays the requests behind the window, which still count their
        latency from their due time, instead of refusing them from a full
        admission queue (a refusal would also desynchronise the
        generator's edge model)."""
        c = self.client
        first = len(c.completed)
        self.gen.start_phase()
        start = time.perf_counter() + 0.01
        release = 0.0
        for due in benchlib.due_times(start, rate, seconds, self.gen.rng):
            with c.cv:
                full = c.outstanding >= window
            if full:
                c.wait_until(lambda: c.outstanding < window)
                release = time.perf_counter()
            kind = self.gen.next_kind()
            if kind == "what-if":
                held = self._hold_for_refresh()
                if held is not None:
                    release = held
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.client.send(self.gen.request(kind, self._take_id()), due=due)
            self.ready.append(max(due, release))
        self.client.wait_idle()
        return first, len(self.client.completed)

    def saturate(self, window, seconds):
        """Closed loop with `window` requests outstanding; returns completed
        requests per second over the phase."""
        c = self.client
        self.gen.start_phase()
        start = time.perf_counter()
        end = start + seconds
        while time.perf_counter() < end:
            c.wait_until(lambda: c.outstanding < window)
            kind = self.gen.next_kind()
            if kind == "what-if":
                self._hold_for_refresh()
            c.send(self.gen.request(kind, self._take_id()))
        c.wait_idle()
        done = sum(1 for _, _, sent, received, _ in c.completed
                   if start <= sent and received <= end)
        return done / seconds

    def mutate(self, count, refreshes=1):
        """`count` mutations split into `refreshes` rounds, each followed by a
        refresh, one request at a time."""
        for r in range(refreshes):
            for _ in range(count * (r + 1) // refreshes - count * r // refreshes):
                self.client.call(self.gen.request("mutation", self._take_id()))
            self.client.call(self.gen.request("refresh", self._take_id()))
