"""The serve_mixed workload: a dise_serve daemon under two tenants.

Each *round* spawns a fresh daemon (its own socket, observability
directory and empty cell-cache directory) and drives it from this one
single-threaded load generator over two connections:

* the `bulk` tenant is closed-loop: it keeps BULK_BACKLOG `fig6_top
  <bench>` jobs admitted until it has run one job per benchmark, in a
  seeded order;
* the `interactive` tenant is open-loop: it sends one `baseline|mfi|
  rewrite <bench>` job, picked by the seed, every 1/INTERACTIVE_RATE
  seconds from a seeded phase, whether or not earlier ones finished,
  until the bulk tenant is done.

The rate keeps the interactive backlog from growing on the commit that
introduced the benchmark: the daemon runs one job at a time and
alternates tenants, so each interactive job costs one bulk job's turn
(about 105 ms on average at SERVE_DYN, 220 ms at most), and 4 jobs/s
keeps the alternation under half busy. Waits grow steeply with load, so
a busier setting amplifies the host's speed swings into latency: at 5
jobs/s, ten runs that drifted from a fast to a slow stretch of the host
spread 0.25 in median latency. `max_in_flight` shows the backlog stays
small and drains every round. Interactive latency runs from a
job's *scheduled* send time to its final `ok` line, so a late generator
or a stalled daemon both show.

Rounds repeat until the time budget is spent and at least
MIN_INTERACTIVE interactive jobs have finished, or stop early (short
samples then count as failed operations) when a round finishes no
interactive job or MAX_BUDGETS times the budget (or the time
MIN_INTERACTIVE arrivals take, if longer) is spent, so a broken
daemon cannot keep the benchmark looping. Before each round,
SETUP_PROBES spawn -> first accepted connection -> shutdown cycles time
the daemon's set-up; each takes milliseconds, so the run reports the
median of many. `dise_serve` jobs carry
no seed, so the daemon always runs seed-0 programs; the seed picks the
arrival schedule, the interactive job mix and the bulk order.
"""

import json
import random
import re
import selectors
import shutil
import socket
import subprocess
import time
from pathlib import Path

SERVE_DYN = 25_000
BULK_BACKLOG = 2
INTERACTIVE_RATE = 4.0
MIN_INTERACTIVE = 100
MIN_ROUNDS = 3
MAX_BUDGETS = 3
SETUP_PROBES = 10
HEARTBEAT_MS = 250
QUEUE_BOUND = 64
ROUND_TIMEOUT_S = 30.0
ORACLE_SECONDS = 5
BENCHES = ["bzip2", "crafty", "eon", "gap", "gcc", "gzip",
           "mcf", "parser", "perlbmk", "twolf", "vortex", "vpr"]
INTERACTIVE_KINDS = ["baseline", "mfi", "rewrite"]

QUEUED = re.compile(r"^queued (\d+)$")
TIMED = re.compile(r"^progress (\d+) \d+/\d+ wait=(\d+)ms run=(\d+)ms$")
OK = re.compile(r"^ok (\d+) ")
JOB_ERROR = re.compile(r"^error: (\d+) ")


class Job:
    def __init__(self, tenant, line, sched, sent):
        self.tenant, self.line, self.sched, self.sent = tenant, line, sched, sent
        self.cells = 6 if line.startswith("fig6_top") else 1
        self.id = None
        self.wait_ms = self.run_ms = None
        self.done = None
        self.error = None


class Conn:
    """One client connection: a line buffer plus the jobs sent on it
    that await their `queued` acknowledgement (acks arrive in send
    order, since one reader thread serves the connection)."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""
        self.unacked = []

    def send(self, line):
        self.sock.sendall((line + "\n").encode())

    def read_lines(self):
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("daemon closed the connection")
        self.buf += data
        *lines, self.buf = self.buf.split(b"\n")
        return [l.decode() for l in lines if l.strip()]


def connect(path, deadline):
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            s.settimeout(ROUND_TIMEOUT_S)  # a hung daemon fails the round, not the run
            return s
        except OSError:
            s.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.0002)


def peak_rss_kib(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM")


def profile_totals(obs_dir):
    """The daemon's cumulative wall-clock phase profile: its
    `harness.profile` metrics records are delta-encoded, so later
    records override earlier values."""
    totals = {}
    for path in sorted(Path(obs_dir).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if rec.get("kind") == "metrics" and rec.get("cell") == "harness.profile":
                totals.update(rec.get("stats", {}))
    return totals


def spawn_daemon(binary, env, rdir):
    """Starts a daemon with its own socket, cache, observability and
    stats paths under `rdir`. Returns (process, log file, socket path,
    spawn time)."""
    rdir.mkdir(parents=True)
    sock_path = str(rdir / "s.sock")
    daemon_env = dict(env, DISE_BENCH_DYN=str(SERVE_DYN), DISE_BENCH_CACHE=str(rdir / "cache"))
    log = open(rdir / "daemon.log", "wb")
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [binary, "--socket", sock_path, "--obs-dir", str(rdir / "obs"),
         "--heartbeat-ms", str(HEARTBEAT_MS), "--queue", str(QUEUE_BOUND),
         "--stats-json", str(rdir / "stats.json")],
        env=daemon_env, stdout=log, stderr=subprocess.STDOUT)
    return proc, log, sock_path, spawn


def shut_down(conn, proc, deadline):
    conn.send("shutdown")
    while not any(l == "ok shutting down" for l in conn.read_lines()):
        pass
    proc.wait(timeout=max(1.0, deadline - time.monotonic()))


def reap(proc, log):
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    log.close()


DAEMON_ERRORS = (OSError, ConnectionError, RuntimeError, subprocess.TimeoutExpired)


def setup_probe(binary, env, pdir):
    """One spawn -> first accepted connection -> shutdown cycle.
    Returns the seconds from spawn to the accepted connection."""
    proc, log, sock_path, spawn = spawn_daemon(binary, env, pdir)
    try:
        deadline = spawn + ROUND_TIMEOUT_S
        conn = Conn(connect(sock_path, deadline))
        setup_s = time.monotonic() - spawn
        shut_down(conn, proc, deadline)
        conn.sock.close()
        return setup_s
    finally:
        reap(proc, log)
        shutil.rmtree(pdir, ignore_errors=True)


def run_round(binary, env, rdir, rng, tracer, traced):
    """One daemon lifetime. Returns a dict of raw round measurements."""
    proc, log, sock_path, spawn = spawn_daemon(binary, env, rdir)
    result = {"failures": [], "jobs": []}
    try:
        deadline = spawn + ROUND_TIMEOUT_S
        bulk = Conn(connect(sock_path, deadline))
        connected = time.monotonic()
        inter = Conn(connect(sock_path, deadline))
        if traced:
            tracer.add("daemon_spawn", f"round{rdir.name}", spawn, connected)
        drive(bulk, inter, rng, deadline, result)
        result["rss_kib"] = peak_rss_kib(proc.pid)
        shut_down(bulk, proc, deadline)
        bulk.sock.close()
        inter.sock.close()
    except DAEMON_ERRORS as e:
        result["failures"].append(f"round {rdir.name}: {e}")
    finally:
        reap(proc, log)
    end = time.monotonic()
    result["wall_s"] = end - spawn
    if traced:
        tracer.add("round", f"round{rdir.name}", spawn, end)
        for j in result["jobs"]:
            record_job_spans(tracer, j)
    cache = rdir / "cache"
    result["cache_files"] = sum(1 for p in cache.rglob("*") if p.is_file()) if cache.exists() else 0
    stats_path = rdir / "stats.json"
    result["cells"] = json.loads(stats_path.read_text()) if stats_path.exists() else {}
    result["profile"] = profile_totals(rdir / "obs")
    return result


def drive(bulk, inter, rng, deadline, result):
    """The load generator's event loop for one round."""
    order = rng.sample(BENCHES, len(BENCHES))
    sel = selectors.DefaultSelector()
    sel.register(bulk.sock, selectors.EVENT_READ, bulk)
    sel.register(inter.sock, selectors.EVENT_READ, inter)
    jobs, by_id = result["jobs"], {}
    start = time.monotonic()
    next_arrival = start + rng.random() / INTERACTIVE_RATE
    bulk_sent = bulk_done = 0
    probe = None
    orphans = {}
    late = result.setdefault("late_ms", [])

    def send(conn, tenant, line, sched):
        now = time.monotonic()
        job = Job(tenant, line, sched, now)
        conn.send(line)
        conn.unacked.append(job)
        jobs.append(job)
        return now

    while True:
        now = time.monotonic()
        while bulk_sent < len(order) and bulk_sent - bulk_done < BULK_BACKLOG:
            send(bulk, "bulk", f"fig6_top {order[bulk_sent]}", now)
            bulk_sent += 1
        while bulk_done < len(order) and now >= next_arrival:
            line = f"{rng.choice(INTERACTIVE_KINDS)} {rng.choice(BENCHES)}"
            sent = send(inter, "interactive", line, next_arrival)
            late.append((sent - next_arrival) * 1e3)
            next_arrival += 1 / INTERACTIVE_RATE
        if bulk_done == len(order) and all(j.done or j.error for j in jobs):
            break
        if now > deadline:
            for j in jobs:
                if not (j.done or j.error):
                    j.error = "timed out"
            break
        if probe is None and bulk_done >= len(order) // 2:
            probe = time.monotonic()
            bulk.send("stats")
        timeout = max(0.0, min(next_arrival - now, 0.05)) if bulk_done < len(order) else 0.05
        for key, _ in sel.select(timeout):
            conn = key.data
            for line in conn.read_lines():
                t = time.monotonic()
                if line.startswith("{"):
                    result["probe_ms"] = (t - probe) * 1e3
                elif m := QUEUED.match(line):
                    job = conn.unacked.pop(0)
                    job.id = int(m.group(1))
                    by_id[job.id] = job
                    # A cache-hit job's final can overtake its ack.
                    for early, at in orphans.pop(job.id, []):
                        bulk_done += apply(job, early, at)
                elif line.startswith(("busy:", "error:")) and not JOB_ERROR.match(line):
                    conn.unacked.pop(0).error = line
                elif m := (TIMED.match(line) or OK.match(line) or JOB_ERROR.match(line)):
                    job_id = int(m.group(1))
                    if job_id in by_id:
                        bulk_done += apply(by_id[job_id], line, t)
                    else:
                        orphans.setdefault(job_id, []).append((line, t))
    sel.close()
    result["busy"] = sum(1 for j in jobs if j.error and j.error.startswith("busy:"))
    for j in jobs:
        if j.error:
            result["failures"].append(f"{j.tenant} job {j.line!r}: {j.error}")
    done = [j.done for j in jobs if j.done]
    result["load_s"] = (max(done) if done else time.monotonic()) - start


def apply(job, line, t):
    """Applies a job's progress or final line received at `t`; returns 1
    when it finished a bulk job."""
    if m := TIMED.match(line):
        job.wait_ms, job.run_ms = int(m.group(2)), int(m.group(3))
        return 0
    if OK.match(line):
        job.done = t
    else:
        job.error = line
    return 1 if job.tenant == "bulk" else 0


def record_job_spans(tracer, job):
    """A job span from scheduled send to final line, with the daemon's
    queue-wait / run split placed just before the final line."""
    if not job.done:
        return
    req = f"{job.tenant}#{job.id}"
    parent = tracer.add("job", req, job.sched, job.done, args={"job": job.line})
    if job.run_ms is not None:
        run_start = job.done - job.run_ms / 1e3
        tracer.add("serve.queue_wait", req, run_start - job.wait_ms / 1e3, run_start, parent)
        tracer.add("serve.run", req, run_start, job.done, parent)


def max_in_flight(jobs, tenant):
    """The most `tenant` jobs sent and not yet finished at any moment:
    bounded and draining means the backlog does not grow."""
    events = sorted([(j.sent, 1) for j in jobs if j.tenant == tenant]
                    + [(j.done, -1) for j in jobs if j.tenant == tenant and j.done])
    depth = peak = 0
    for _, step in events:
        depth += step
        peak = max(peak, depth)
    return peak


def cell_kind(key):
    """(bench, oracle scenario) of a dise_serve cell key, e.g.
    `v3|dise_mfi|gcc|dyn=...|variant=Dise4,...` -> ("gcc", "mfi4")."""
    parts = key.split("|")
    kind, bench = parts[1], parts[2]
    if kind == "rewrite_mfi":
        return bench, "rewrite"
    if kind == "dise_mfi":
        return bench, "mfi4" if "variant=Dise4" in key else "mfi"
    return bench, kind


def interactive_done(r):
    return sum(1 for j in r["jobs"] if j.tenant == "interactive" and j.done)


def run(binary, env, work, seed, seconds, tracer, trace):
    """All rounds of one run: a dict with the raw round measurements
    (`rounds`), the set-up probes' times (`setup_s`), probe and stop
    failures (`failures`) and the interactive samples the run fell
    short of MIN_INTERACTIVE by (`shortfall`)."""
    rng = random.Random(seed)
    rounds, setups, failures = [], [], []
    start = time.monotonic()
    while True:
        n_inter = sum(interactive_done(r) for r in rounds)
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS and n_inter >= MIN_INTERACTIVE and elapsed >= seconds:
            break
        if elapsed >= MAX_BUDGETS * max(seconds, MIN_INTERACTIVE / INTERACTIVE_RATE):
            failures.append(f"stopped after {elapsed:.1f} s with {n_inter} interactive jobs done")
            break
        for i in range(SETUP_PROBES):
            try:
                setups.append(setup_probe(binary, env, work / f"probe{len(rounds)}.{i}"))
            except DAEMON_ERRORS as e:
                failures.append(f"set-up probe {len(rounds)}.{i}: {e}")
        traced = trace and len(rounds) % 2 == 1
        r = run_round(binary, env, work / f"{len(rounds)}", rng, tracer, traced)
        r["traced"] = traced
        rounds.append(r)
        shutil.rmtree(work / f"{len(rounds) - 1}" / "cache", ignore_errors=True)
        if not interactive_done(r):
            # The daemon finishes no interactive job: stop instead of looping.
            failures.append(f"round {len(rounds) - 1} finished no interactive job")
            break
    n_inter = sum(interactive_done(r) for r in rounds)
    return {"rounds": rounds, "setup_s": setups, "failures": failures,
            "shortfall": max(0, MIN_INTERACTIVE - n_inter)}
