#!/usr/bin/env python3
"""Multi-client soak for `lrsizer serve --listen` (CI smoke).

Default mode launches the server on an ephemeral port with a deliberately
tight LRU cache AND tight admission budgets (--max-pending 3,
--max-pending-per-client 2), drives N concurrent TCP clients through M
sizing jobs each in pipelined windows (with a bogus cancel and a stats poll
interleaved), honoring `retry_after_ms` with jittered exponential backoff
whenever a request is shed, then reconciles the server's `stats` counters
against the client-side tallies:

  * every client eventually received exactly M results, all well-formed;
  * results for the same (profile, seed) are byte-identical across clients
    modulo request-scoped fields (name/cache_hit) and wall-clock timings;
  * server stats: accepted == completed == N*M, shed == the overloaded
    rejections the clients counted, errors == shed + N ghost-cancel
    errors, timeouts == 0, queue_depth == 0, latency.count == N*M;
  * GET /metrics is scraped mid-soak (parses as Prometheus text, counters
    monotone) and once more at the quiescent end, where every shared series
    must equal the jsonl stats response exactly — the two surfaces read one
    registry, and a divergence is a hard failure;
  * the final stats snapshot is saved (CI uploads it as an artifact).

--chaos mode instead runs the fault-injection battery end to end: the
server starts with LRSIZER_FAULT arming json.parse and cache.write faults,
a disk cache, and a 400 ms default deadline; clients ride out injected
parse errors (resend) and deadline-cut slow jobs (timeout partials or
deadline errors); then SIGTERM lands mid-flight and the script asserts the
graceful-drain contract — /healthz flips to 503 draining, /metrics still
answers (draining gauge = 1, fault counters advanced), new jsonl clients
are turned away, the in-flight job still gets its result, and the server
exits 0 with every submitted job holding exactly one terminal response.

Usage: serve_soak.py /path/to/lrsizer [--clients N] [--jobs M] [--out FILE]
                     [--chaos]
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time


def parse_ports(stream):
    """The server announces `listening on 127.0.0.1:<port>` and
    `metrics on 127.0.0.1:<port>` on stderr (in that order)."""
    port = metrics_port = None
    while port is None or metrics_port is None:
        raw = stream.readline()
        if not raw:
            raise RuntimeError("server exited before announcing its ports")
        line = raw.decode("utf-8", "replace")
        sys.stderr.write(line)
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if m:
            port = int(m.group(1))
        m = re.search(r"metrics on 127\.0\.0\.1:(\d+)", line)
        if m:
            metrics_port = int(m.group(1))
    return port, metrics_port


def http_get(metrics_port, path):
    """One HTTP exchange on the metrics port; returns the raw response."""
    sock = socket.create_connection(("127.0.0.1", metrics_port), timeout=120)
    sock.settimeout(120)
    sock.sendall(b"GET " + path + b" HTTP/1.1\r\nHost: soak\r\n\r\n")
    response = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        response += chunk
    sock.close()
    return response


def scrape_metrics(metrics_port):
    """One GET /metrics exchange: returns {series: value} or raises."""
    response = http_get(metrics_port, b"/metrics")
    head, _, body = response.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0].decode()
    assert status == "HTTP/1.1 200 OK", status
    assert b"text/plain; version=0.0.4" in head, head
    samples = {}
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        samples[series] = float(value)
    assert samples, "empty exposition"
    return samples


def probe_healthz(metrics_port):
    response = http_get(metrics_port, b"/healthz")
    assert response.startswith(b"HTTP/1.1 200 OK\r\n"), response[:64]
    assert response.endswith(b"\r\n\r\nok\n"), response[-32:]


def scrape_during_soak(metrics_port, stop_event, observations, failures):
    """Scrape /metrics in a loop while clients hammer the jsonl port: the
    endpoint must answer from the shared poll loop mid-load, and counters
    must be monotone scrape over scrape."""
    last_accepted = -1.0
    try:
        while True:
            samples = scrape_metrics(metrics_port)
            accepted = samples.get("lrsizer_serve_accepted_total", 0.0)
            assert accepted >= last_accepted, (
                "accepted_total went backwards: %r -> %r"
                % (last_accepted, accepted))
            last_accepted = accepted
            observations.append(samples)
            if stop_event.wait(0.2):
                return
    except Exception as exc:  # noqa: BLE001 - report, don't hang the soak
        failures.append("metrics scraper: %s" % exc)


def reconcile_metrics(samples, stats, expected_accepted):
    """Hard-fail unless every series shared between /metrics and the jsonl
    stats response agrees exactly (both read the same registry, and the
    server is quiescent when this runs)."""
    jobs = stats["jobs"]
    expectations = {
        "lrsizer_serve_accepted_total": jobs["accepted"],
        'lrsizer_serve_responses_total{type="result"}': jobs["completed"],
        'lrsizer_serve_responses_total{type="cancelled"}': jobs["cancelled"],
        'lrsizer_serve_responses_total{type="error"}': jobs["errors"],
        "lrsizer_serve_cache_hits_total": jobs["cache_hits"],
        "lrsizer_serve_shed_total": jobs["shed"],
        "lrsizer_jobs_timeout_total": jobs["timeouts"],
        "lrsizer_serve_queue_depth": jobs["queue_depth"],
        "lrsizer_serve_draining": 0,
        "lrsizer_serve_clients": stats["clients"]["active"],
        "lrsizer_cache_entries": stats["cache"]["entries"],
        "lrsizer_cache_evictions_total": stats["cache"]["evictions"],
        "lrsizer_cache_corrupt_total": stats["cache"]["corrupt"],
        "lrsizer_serve_job_latency_seconds_count": stats["latency"]["count"],
        'lrsizer_build_info{version="%s"}' % stats["server"]["version"]: 1,
        "lrsizer_serve_job_latency_seconds_bucket{le=\"+Inf\"}":
            stats["latency"]["count"],
    }
    divergent = {
        series: (samples.get(series), expected)
        for series, expected in expectations.items()
        if samples.get(series) != float(expected)
    }
    assert not divergent, (
        "metrics/stats divergence (series: (scraped, expected)): %r"
        % divergent)
    # Client-side tallies close the loop: the registry's accepted count is
    # exactly the number of size requests the soak clients got admitted.
    assert samples["lrsizer_serve_accepted_total"] == expected_accepted, (
        samples["lrsizer_serve_accepted_total"], expected_accepted)


def drain(stream):
    while True:
        raw = stream.readline()
        if not raw:
            return
        sys.stderr.write(raw.decode("utf-8", "replace"))


def normalized(job):
    job = dict(job)
    job["name"] = None
    job["cache_hit"] = None
    for key in ("seconds", "stage1_seconds", "stage2_seconds"):
        job[key] = None
    return job


def backoff_sleep(retry_after_ms, attempt):
    """Honor the server's retry_after_ms hint: jittered exponential backoff
    so a fleet of shed clients does not stampede back in lockstep."""
    base = max(retry_after_ms, 1) / 1000.0
    time.sleep(min(base * (2 ** attempt) * (0.5 + random.random()), 5.0))


def run_client(index, port, jobs, failures, payloads, tallies, lock):
    """Pipelines jobs in windows of 3 against --max-pending-per-client 2 /
    --max-pending 3: overloaded rejections are expected, carry a
    retry_after_ms hint, and are retried until admitted."""
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        sock.settimeout(120)
        reader = sock.makefile("rb")
        hello = json.loads(reader.readline())
        assert hello["type"] == "hello", hello
        assert hello["schema"] == "lrsizer-serve-v3", hello
        results, shed, errors, stats = {}, 0, 0, 0
        # Job ids collide across clients on purpose: the per-client id
        # namespace must keep them independent.
        for base in range(0, jobs, 3):
            window = list(range(base, min(base + 3, jobs)))
            attempt = {k: 0 for k in window}
            outstanding = set()
            for k in window:
                request = {
                    "type": "size",
                    "id": "j%d" % k,
                    "seed": (k % 3) + 1,
                    "input": {"profile": "c17"},
                    "options": {"vectors": 8},
                }
                sock.sendall((json.dumps(request) + "\n").encode())
                outstanding.add("j%d" % k)
            if base == 0:
                sock.sendall(b'{"type":"cancel","id":"ghost"}\n')
                sock.sendall(b'{"type":"stats"}\n')
            while outstanding:
                line = reader.readline()
                if not line:
                    raise RuntimeError(
                        "client %d: EOF before all responses" % index)
                response = json.loads(line)
                rtype = response["type"]
                if rtype == "result":
                    results[response["id"]] = response["job"]
                    outstanding.discard(response["id"])
                elif rtype == "error":
                    if response.get("id") == "ghost":
                        assert response["code"] == "not_found", response
                        errors += 1
                        continue
                    # Admission pressure: back off as told, then resend.
                    assert response["code"] == "overloaded", response
                    job_id = response["id"]
                    assert job_id in outstanding, response
                    shed += 1
                    k = int(job_id[1:])
                    backoff_sleep(response["retry_after_ms"], attempt[k])
                    attempt[k] += 1
                    request = {
                        "type": "size",
                        "id": job_id,
                        "seed": (k % 3) + 1,
                        "input": {"profile": "c17"},
                        "options": {"vectors": 8},
                    }
                    sock.sendall((json.dumps(request) + "\n").encode())
                elif rtype == "stats":
                    stats += 1
                elif rtype not in ("accepted",):
                    raise RuntimeError(
                        "client %d: unexpected %r" % (index, rtype))
        assert len(results) == jobs, (len(results), jobs)
        assert errors == 1 and stats == 1, (errors, stats)
        with lock:
            tallies["shed"] += shed
            for job_id, job in results.items():
                seed = (int(job_id[1:]) % 3) + 1
                payloads.setdefault(seed, []).append(normalized(job))
        reader.close()
        sock.close()
    except Exception as exc:  # noqa: BLE001 - report, don't hang the soak
        failures.append("client %d: %s" % (index, exc))


def run_soak(args):
    server = subprocess.Popen(
        [
            args.lrsizer, "serve", "--listen", "0", "--metrics-port", "0",
            "--jobs", "2", "--cache-max-entries", "2", "--stats-dump",
            "--max-pending", "3", "--max-pending-per-client", "2",
            "--quiet",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        port, metrics_port = parse_ports(server.stderr)
        stderr_drain = threading.Thread(
            target=drain, args=(server.stderr,), daemon=True)
        stderr_drain.start()
        probe_healthz(metrics_port)

        failures, payloads, lock = [], {}, threading.Lock()
        tallies = {"shed": 0}
        scraper_stop = threading.Event()
        observations = []
        scraper = threading.Thread(
            target=scrape_during_soak,
            args=(metrics_port, scraper_stop, observations, failures))
        scraper.start()
        clients = [
            threading.Thread(
                target=run_client,
                args=(i, port, args.jobs, failures, payloads, tallies, lock))
            for i in range(args.clients)
        ]
        for c in clients:
            c.start()
        for c in clients:
            c.join(timeout=600)
        scraper_stop.set()
        scraper.join(timeout=600)
        assert not failures, failures
        assert observations, "no mid-soak /metrics scrapes landed"

        # Determinism across clients and cache/eviction churn: every payload
        # for a given seed is identical.
        for seed, jobs in sorted(payloads.items()):
            assert len(jobs) == args.clients * (args.jobs // 3 +
                                                (seed - 1 < args.jobs % 3)), (
                seed, len(jobs))
            assert all(j == jobs[0] for j in jobs), (
                "seed %d payloads differ across clients" % seed)

        # Fleet reconciliation from a final auditor connection.
        sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        sock.settimeout(120)
        reader = sock.makefile("rb")
        json.loads(reader.readline())  # hello
        sock.sendall(b'{"type":"stats","id":"audit"}\n')
        stats = json.loads(reader.readline())
        assert stats["type"] == "stats", stats
        total = args.clients * args.jobs
        jobs = stats["jobs"]
        assert jobs["accepted"] == total, jobs
        assert jobs["completed"] == total, jobs
        # Every shed the server counted reached a client as an overloaded
        # error and was retried to completion; the ghost cancels are the
        # only other errors.
        assert jobs["shed"] == tallies["shed"], (jobs, tallies)
        assert jobs["errors"] == args.clients + tallies["shed"], (
            jobs, tallies)
        assert jobs["timeouts"] == 0, jobs
        assert jobs["cancelled"] == 0, jobs
        assert jobs["queue_depth"] == 0, jobs
        assert jobs["cache_hits"] >= 1, jobs
        assert stats["clients"]["active"] == 1, stats["clients"]
        assert stats["server"]["state"] == "serving", stats["server"]
        cache = stats["cache"]
        assert cache["entries"] <= 2, cache
        assert cache["evictions"] >= 1, cache
        assert cache["corrupt"] == 0, cache
        latency = stats["latency"]
        assert latency["count"] == total, latency
        assert latency["p99_ms"] >= latency["p50_ms"] > 0, latency
        assert stats["server"]["version"].startswith("lrsizer"), stats["server"]
        assert stats["server"]["uptime_s"] > 0, stats["server"]

        # The server is quiescent now: a scrape taken here must agree with
        # the stats response series for series.
        reconcile_metrics(scrape_metrics(metrics_port), stats, total)

        with open(args.out, "w") as f:
            json.dump(stats, f, indent=2, sort_keys=True)
        print("serve soak: %d clients x %d jobs OK, %d shed+retried "
              "(%d mid-soak scrapes); stats saved to %s"
              % (args.clients, args.jobs, tallies["shed"],
                 len(observations), args.out))

        sock.sendall(b'{"type":"shutdown"}\n')
        reader.close()
        sock.close()
        server.wait(timeout=120)
        assert server.returncode == 0, server.returncode
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def chaos_terminal(reader, job_id):
    """Read until the named job's terminal response (result or error),
    skipping accepted/progress frames."""
    while True:
        line = reader.readline()
        if not line:
            return None  # EOF is terminal too (drain raced us)
        response = json.loads(line)
        if response["type"] in ("accepted", "progress"):
            continue
        assert response.get("id") == job_id, (response, job_id)
        return response


def deep_bench(width=32, depth=150):
    """`.bench` text of a mesh `depth` gates deep: 4800 two-input gates at
    the defaults, each level reading two gates of the level below. Sized at
    16 vectors it is slow because OGWS is: on a 4-core x86 VM (Release) it
    converges after ~935 iterations in ~1.5 s, of which stage 1 is ~7 ms.
    A slow job built from simulator work (c6288 at many vectors) would get
    fast whenever the simulator does."""
    lines = ["INPUT(i%d)" % j for j in range(width)]
    lines += ["OUTPUT(g%d_%d)" % (depth - 1, j) for j in range(width)]
    prev = ["i%d" % j for j in range(width)]
    ops = ("NAND", "NOR", "AND", "OR")
    for level in range(depth):
        cur = ["g%d_%d" % (level, j) for j in range(width)]
        for j in range(width):
            lines.append("%s = %s(%s, %s)" % (
                cur[j], ops[(level + j) % 4], prev[j],
                prev[(j + 1 + level) % width]))
        prev = cur
    return "\n".join(lines) + "\n"


SLOW_INPUT = {"bench": deep_bench()}
SLOW_OPTIONS = {"vectors": 16, "max_iterations": 2000}


def run_chaos_client(index, port, jobs, failures, tallies, lock):
    """Sequential requests, one terminal per job, under armed faults: an
    injected parse error is resent (the id is echoed), an overloaded shed
    backs off as told, and a deadline cut — timeout-marked partial result
    or deadline error — is terminal."""
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        sock.settimeout(120)
        reader = sock.makefile("rb")
        hello = json.loads(reader.readline())
        assert hello["schema"] == "lrsizer-serve-v3", hello
        completed = timeouts = parse_retries = shed = 0
        for k in range(jobs):
            job_id = "c%d-%d" % (index, k)
            slow = (k % 4) == 3
            request = {
                "type": "size",
                "id": job_id,
                "seed": k + 1,
                "input": SLOW_INPUT if slow else {"profile": "c17"},
                "options": SLOW_OPTIONS if slow else {"vectors": 8},
            }
            payload = (json.dumps(request) + "\n").encode()
            attempt = 0
            while True:
                sock.sendall(payload)
                response = chaos_terminal(reader, job_id)
                assert response is not None, "EOF before SIGTERM"
                if response["type"] == "result":
                    completed += 1
                    if response.get("timeout"):
                        timeouts += 1
                    break
                assert response["type"] == "error", response
                code = response["code"]
                if code == "parse":
                    parse_retries += 1  # injected json.parse fault: resend
                elif code == "overloaded":
                    shed += 1
                    backoff_sleep(response["retry_after_ms"], attempt)
                elif code == "deadline":
                    timeouts += 1  # cut before a partial existed: terminal
                    break
                else:
                    raise RuntimeError("unexpected error: %r" % response)
                attempt += 1
                assert attempt < 50, "job %s never terminal" % job_id
        with lock:
            tallies["completed"] += completed
            tallies["timeouts"] += timeouts
            tallies["parse_retries"] += parse_retries
            tallies["shed"] += shed
        reader.close()
        sock.close()
    except Exception as exc:  # noqa: BLE001 - report, don't hang the soak
        failures.append("chaos client %d: %s" % (index, exc))


def run_chaos(args):
    cache_dir = tempfile.mkdtemp(prefix="lrsizer_chaos_cache_")
    env = dict(os.environ)
    env["LRSIZER_FAULT"] = "json.parse:every=7,cache.write:every=2"
    server = subprocess.Popen(
        [
            args.lrsizer, "serve", "--listen", "0", "--metrics-port", "0",
            "--jobs", "2", "--cache-max-entries", "8",
            "--cache-dir", cache_dir,
            "--max-pending", "8", "--max-pending-per-client", "4",
            "--default-deadline-ms", "400",
            "--quiet",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        port, metrics_port = parse_ports(server.stderr)
        threading.Thread(target=drain, args=(server.stderr,),
                         daemon=True).start()
        probe_healthz(metrics_port)

        # Phase 1: chaos load. Every 4th job is the deep mesh, which the
        # 400 ms default deadline cuts mid-OGWS; every 7th request line hits
        # an injected parse fault; every 2nd disk-cache persist is dropped.
        failures, lock = [], threading.Lock()
        tallies = {"completed": 0, "timeouts": 0, "parse_retries": 0,
                   "shed": 0}
        clients = [
            threading.Thread(
                target=run_chaos_client,
                args=(i, port, args.jobs, failures, tallies, lock))
            for i in range(args.clients)
        ]
        for c in clients:
            c.start()
        for c in clients:
            c.join(timeout=600)
        assert not failures, failures
        total = args.clients * args.jobs
        # Exactly one terminal per submitted job, and the fault load left
        # visible scars: injected parse errors were survived via resend and
        # deadline cuts produced timeout terminals.
        assert tallies["completed"] + tallies["timeouts"] >= total, tallies
        assert tallies["parse_retries"] >= 1, tallies
        assert tallies["timeouts"] >= 1, tallies

        # Phase 2: anchor the deep mesh (deadline_ms: 0 opts out of the
        # server default) so the drain window below stays open.
        anchor = socket.create_connection(("127.0.0.1", port), timeout=120)
        anchor.settimeout(120)
        reader = anchor.makefile("rb")
        json.loads(reader.readline())  # hello
        request = (json.dumps({
            "type": "size", "id": "anchor", "seed": 991,
            "input": SLOW_INPUT, "options": SLOW_OPTIONS,
            "progress": 1, "deadline_ms": 0}) + "\n").encode()
        started = False
        while not started:
            anchor.sendall(request)
            line = reader.readline()
            assert line, "EOF waiting for anchor admission"
            response = json.loads(line)
            if response["type"] == "error" and response["code"] == "parse":
                continue  # injected fault ate the request line: resend
            assert response["type"] == "accepted", response
            while True:
                response = json.loads(reader.readline())
                if response["type"] == "progress":
                    started = True
                    break

        # Phase 3: SIGTERM mid-flight, then verify the drain contract.
        server.send_signal(signal.SIGTERM)
        deadline = time.time() + 60
        while True:
            response = http_get(metrics_port, b"/healthz")
            if response.startswith(b"HTTP/1.1 503 ") and b"draining" in response:
                break
            assert time.time() < deadline, "healthz never turned 503 draining"
            time.sleep(0.03)
        samples = scrape_metrics(metrics_port)
        assert samples["lrsizer_serve_draining"] == 1.0, samples
        assert samples["lrsizer_jobs_timeout_total"] >= 1, samples
        assert samples['lrsizer_fault_injected_total{point="json.parse"}'] >= 1
        assert samples['lrsizer_fault_injected_total{point="cache.write"}'] >= 1

        # New jsonl clients are turned away while draining (closed before
        # hello, reset, or refused once the listener is gone).
        try:
            late = socket.create_connection(("127.0.0.1", port), timeout=10)
            late.settimeout(10)
            try:
                assert late.recv(4096) == b"", "draining server sent data"
            except ConnectionError:
                pass
            late.close()
        except ConnectionError:
            pass

        # The in-flight job still completes: a full (untimed) result, then
        # EOF as the drained server closes up.
        while True:
            line = reader.readline()
            assert line, "EOF before the anchor result"
            response = json.loads(line)
            if response["type"] == "progress":
                continue
            assert response["type"] == "result", response
            assert response["id"] == "anchor", response
            assert "timeout" not in response, response
            break
        assert reader.readline() == b"", "expected EOF after drain"
        reader.close()
        anchor.close()

        server.wait(timeout=120)
        assert server.returncode == 0, (
            "drained server exited %r, want 0" % server.returncode)
        print("chaos soak: %d clients x %d jobs OK under LRSIZER_FAULT=%s "
              "(%d timeout terminals, %d parse retries, %d shed); "
              "SIGTERM drained cleanly, exit 0"
              % (args.clients, args.jobs, env["LRSIZER_FAULT"],
                 tallies["timeouts"], tallies["parse_retries"],
                 tallies["shed"]))
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        shutil.rmtree(cache_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("lrsizer")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=25)
    parser.add_argument("--out", default="serve_soak_stats.json")
    parser.add_argument("--chaos", action="store_true",
                        help="fault-injection + SIGTERM drain battery")
    args = parser.parse_args()
    if args.chaos:
        if args.jobs > 12:
            args.jobs = 12  # slow jobs dominate; keep the chaos pass bounded
        run_chaos(args)
    else:
        run_soak(args)


if __name__ == "__main__":
    main()
