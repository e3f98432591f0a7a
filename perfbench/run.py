#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of lrsizer (see perfbench/README.md).

    python3 perfbench/run.py --workload table1|serve_mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the library,
the `lrsizer` CLI and the benchmark driver (Release) into $CARGO_TARGET_DIR
or `.bench_build`. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end set, with --trace 1 the per-layer set.

Two developer modes sit beside the measured one:

    python3 perfbench/run.py --record-reference   rewrite reference.json
    python3 perfbench/run.py --sensitivity        injected-delay self-check
"""

import argparse
import hashlib
import json
import os
import random
import re
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("table1", "serve_mix")

# Area tolerance against the recorded reference, as a fraction. Upward it
# is taken from max(reference area, reference dual): the dual is a lower
# bound on the optimum, so an exact-feasibility repair (ROADMAP item 2) that
# lifts a result onto it, plus the 1% certificate gap, stays inside; a
# faster stop rule (item 4) must keep area within 0.5%. Where the recorded
# dual sits above the recorded area the upper limit is wider than 3%: c499
# +22.3%, c2670 +8.5%, c432 +7.4% (every other job +3%), and an early stop
# that stays feasible on those three goes unnoticed up to that width.
# Elsewhere 3% catches one: c6288 stopped after 10 of its 500 iterations is
# feasible yet 4.7% larger, and stopped before ~40 iterations every profile
# violates feas_tol.
AREA_TOL = 0.03
FEAS_TOL = 0.01  # OgwsOptions::feas_tol, the solver's own
# Tracing must leave no more than this share of the traced wall outside the
# layers' spans.
UNACCOUNTED_MAX = 0.05
# The sensitivity self-check's delay: this share of each OGWS iteration's
# own time, spun inside the IterationObserver.
INJECT = 0.2

SERVE_WORKERS = 2
SERVE_CONNECTIONS = 2
PROBE_CHAINS = 1  # chains of the serve_mix script table1's traced run probes

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "session.elaborate_s": "s",
    "session.simulate_and_order_s": "s",
    "session.derive_bounds_s": "s",
    "session.size_s": "s",
    "session.memory_bytes": "bytes",
    "netlist.generate_s": "s",
    "netlist.parse_ms": "ms",
    "sim.simulate_s": "s",
    "layout.channels_s": "s",
    "layout.woss_s": "s",
    "layout.coupling_s": "s",
    "ogws.iterations": "count",
    "ogws.capped_jobs": "count",
    "ogws.iteration_ms": "ms",
    "ogws.non_lrs_s": "s",
    "lrs.passes": "count",
    "lrs.nodes_processed": "count",
    "lrs.s": "s",
    "lrs.ns_per_node": "ns",
    "lrs.frontier_frac": "ratio",
    "timing.loads_ns": "ns",
    "timing.arrivals_ns": "ns",
    "core.dual_step_ns": "ns",
    "ogws.area_um2": "um2",
    "ogws.max_violation": "ratio",
    "ogws.rel_gap": "ratio",
    "ogws.converged_jobs": "count",
    "serve.accepted_ms": "ms",
    "serve.hit_p50_ms": "ms",
    "serve.cold_p50_ms": "ms",
    "serve.warm_p50_ms": "ms",
    "serve.eco_p50_ms": "ms",
    "serve.response_bytes": "bytes",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.warm_hits": "count",
    "cache.eco_hits": "count",
    "cache.hit_rate": "ratio",
    "eco.reused_nodes": "count",
    "eco.iterations": "count",
    "fig10b.ns_per_node_iter": "ns",
    "fig10b.r2": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def quantile(values, q):
    """Linear-interpolation quantile (numpy's default), matching the driver."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


# ---- build and provenance -----------------------------------------------------


def build():
    """Configure and build the Release driver and CLI; return their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no lrsizer source tree in {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.is_file():
        run_build_step(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"])
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
    if not build_type or build_type.group(1) != "Release":
        raise BenchError(f"{BUILD_DIR} is not a Release build; refusing to report numbers")
    run_build_step(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_driver",
                    "lrsizer_cli", "-j", str(os.cpu_count() or 1)])
    driver = BUILD_DIR / "perfbench_driver"
    cli = BUILD_DIR / "lrsizer" / "tools" / "lrsizer"
    for path in (driver, cli):
        if not path.is_file():
            raise BenchError(f"build produced no {path}")
    return driver, cli


def run_build_step(cmd):
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def provenance(build_info):
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = ROOT / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
    }


def run_driver(driver, *args):
    result = subprocess.run([str(driver), *map(str, args)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=BUILD_DIR)
    if result.returncode != 0:
        sys.stderr.write(result.stderr[-4000:])
        raise BenchError(f"driver {' '.join(map(str, args))} exited {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def area_ok(area, ref):
    return ref["area"] * (1 - AREA_TOL) <= area <= max(ref["area"], ref["dual"]) * (1 + AREA_TOL)


def area_problem(job, refs):
    """A failure message when a job's area misses its reference, else None."""
    ref = refs.get(job["name"])
    if ref is None:
        return f"{job['name']}: no recorded reference"
    if not area_ok(job["area_um2"], ref):
        return (f"{job['name']}: area {job['area_um2']:.1f} outside {AREA_TOL:.0%} of "
                f"reference {ref['area']:.1f} (dual {ref['dual']:.1f})")
    return None


def job_problem(job, refs):
    """Every output check of one driver job (answered ok, feasible, area)."""
    if not job["ok"]:
        return f"{job['name']}: not ok"
    if job["violation"] > FEAS_TOL * (1 + 1e-9):
        return f"{job['name']}: infeasible, violation {job['violation']:.5f}"
    return area_problem(job, refs)


# ---- batch workload: table1 ---------------------------------------------------


def run_batch(driver, cli, args, reference, inject=None):
    extra = ["--inject", inject] if inject else []
    out = run_driver(driver, "run", "--workload", args.workload, "--seed", args.seed,
                     "--seconds", args.seconds, "--trace", int(args.trace), *extra)
    attempted, failed = out["ops"], out["ops_failed"]
    failures = list(out["failures"])
    refs = reference.get(args.workload, {})
    # The driver checks answer and feasibility of every repetition and that
    # repetitions agree bit for bit, so the area check of the first
    # repetition stands for all of them.
    for job in out["jobs"]:
        problem = area_problem(job, refs)
        if problem:
            failures.append(problem)
            failed += out["reps"]
    log(f"{args.workload}: {out['reps']} repetitions, median plain repetition wall "
        f"{out['rep_wall_median_s']:.4f} s (wall_s is their lower envelope)")
    if not args.trace:
        metrics = out["metrics"]
    else:
        metrics = dict(out["layers"])
        # The ×10 c7552 circuit of the Figure 10(b) fit, sized once.
        attempted += 1
        problem = job_problem(out["large"], refs)
        if problem:
            failures.append(problem)
            failed += 1
        if metrics["trace.unaccounted_frac"] > UNACCOUNTED_MAX:
            failures.append(f"layer self times leave {metrics['trace.unaccounted_frac']:.1%} "
                            f"of the traced jobs' wall unaccounted")
            failed += 1
        log("self time per layer, one traced repetition: " +
            ", ".join(f"{k} {v:.4f}s" for k, v in out["self_s"].items()))
        # A traced run reports every per-layer name. The serve, cache and ECO
        # layers do not run in table1, so a probe of the serve_mix script
        # (checked like serve_mix's own requests) supplies theirs.
        probe = run_serve(driver, cli, args.seed, seconds=0, traced=False,
                          chains=PROBE_CHAINS, reference=reference)
        attempted += probe["attempted"]
        failed += probe["failed"]
        failures += probe["failures"]
        metrics.update(serve_layer_metrics(probe))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "failures": failures, "build": out}


# ---- serve_mix ------------------------------------------------------------------


def chain_script(chain, index, warm_bounds, seed):
    """The request labels of one chain, in send order.

    Kinds: cold (first sight of the base circuit), warm (same circuit, new
    noise bound: the --cache-warm path), eco (1% op-flip revision naming
    the base's cache key as eco_base), hit (exact repeat of an earlier
    request of the chain). The seed places the ECO requests among the warm
    ones and picks what each hit repeats; warm requests keep their relative
    order, so each one seeds from the same cached entries under every seed.
    A third of the requests are hits, so the median and the p90 both fall
    inside the sized requests' latency spread.
    """
    rng = random.Random(f"{seed}/{index}")
    warm = [f"warm{b:g}" for b in warm_bounds]
    eco = [f"eco{j}" for j in range(len(chain["revisions"]))]
    rng.shuffle(eco)
    warm_slots = set(rng.sample(range(len(warm) + len(eco)), len(warm)))
    sized = ["cold"] + [warm.pop(0) if i in warm_slots else eco.pop(0)
                        for i in range(len(warm_slots) + len(eco))]
    order, done = [], []
    for i, label in enumerate(sized):
        order.append(label)
        done.append(label)
        if i >= 2 and i % 2 == 0 or i == len(sized) - 1:
            order.append("hit:" + rng.choice(done))
    return order


def assign_chains(num_chains, seed, connections):
    """Chains per connection. The split is fixed, dealt in a snake over the
    chains (whose circuits grow with the index) so every connection carries
    the same work under every seed; the seed orders each connection's list."""
    groups = [[] for _ in range(connections)]
    for c in range(num_chains):
        r = c % (2 * connections)
        groups[r if r < connections else 2 * connections - 1 - r].append(c)
    rng = random.Random(f"{seed}")
    for group in groups:
        rng.shuffle(group)
    return groups


class Connection:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.reader = self.sock.makefile("rb")
        hello = self.read()
        if hello.get("type") != "hello":
            raise BenchError(f"unexpected greeting {hello}")

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def read_raw(self):
        line = self.reader.readline()
        if not line:
            raise BenchError("server closed the connection")
        return line

    def read(self):
        return json.loads(self.read_raw())

    def close(self):
        self.reader.close()
        self.sock.close()


class Server:
    """One `lrsizer serve --listen 0` process, stopped and reaped on close."""

    def __init__(self, cli, cpus):
        self.proc = subprocess.Popen(
            [str(cli), "serve", "--listen", "0", "--jobs", str(SERVE_WORKERS), "--cache-warm"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            cwd=BUILD_DIR, preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        self.port = None
        deadline = time.monotonic() + 30
        while self.port is None:
            line = self.proc.stderr.readline().decode(errors="replace")
            if not line or time.monotonic() > deadline:
                self.close()
                raise BenchError("lrsizer serve did not announce its port")
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if match:
                self.port = int(match.group(1))
        # Keep draining stderr so the server can never block on it.
        self.drain = threading.Thread(target=lambda: self.proc.stderr.read(), daemon=True)
        self.drain.start()

    def peak_rss_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def close(self, conn=None):
        if self.proc.poll() is None and conn is not None:
            try:
                conn.send({"type": "shutdown"})
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stderr:
            self.proc.stderr.close()


def raw_job(line):
    """The exact bytes of a result's "job" object, for the byte-identity check."""
    text = line.decode()
    start = text.index('"job":') + len('"job":')
    _, end = json.JSONDecoder().raw_decode(text, start)
    return text[start:end]


def run_chain_list(conn, chains, circuits, seed, traced, samples, lock):
    """Closed loop: send each request once the previous one answered."""
    warm_bounds = circuits["warm_noise_bounds"]
    for c in chains:
        chain = circuits["chains"][c]
        payloads, keys, firsts = {}, {}, {}
        for i, label in enumerate(chain_script(chain, c, warm_bounds, seed)):
            kind = label.split(":")[0] if label.startswith("hit") else re.sub(r"[\d.]+$", "", label)
            target = label[4:] if kind == "hit" else label
            if kind == "hit":
                request = dict(payloads[target])
            else:
                request = {"type": "size", "seed": 1}
                if target == "cold" or target.startswith("warm"):
                    request["input"] = {"bench": chain["base"]}
                if target.startswith("warm"):
                    request["options"] = {"noise_bound": float(target[4:])}
                if target.startswith("eco"):
                    request["input"] = {"bench": chain["revisions"][int(target[3:])]}
                    request["eco_base"] = keys["cold"]
                payloads[target] = request
            request = dict(request, id=f"{chain['name']}-{i}")
            if traced:
                request["trace"] = True
            t0 = time.perf_counter()
            conn.send(request)
            accepted_ms = None
            while True:
                line = conn.read_raw()
                msg = json.loads(line)
                if msg.get("id") != request["id"]:
                    continue
                if msg["type"] == "accepted":
                    accepted_ms = (time.perf_counter() - t0) * 1e3
                    if kind != "hit":
                        keys[target] = msg.get("key", "")
                    continue
                if msg["type"] == "progress":
                    continue
                break
            latency_ms = (time.perf_counter() - t0) * 1e3
            sample = {"chain": chain["name"], "index": i, "label": target, "kind": kind,
                      "latency_ms": latency_ms, "accepted_ms": accepted_ms,
                      "bytes": len(line), "type": msg["type"], "msg": msg}
            if msg["type"] == "result":
                sample["job_raw"] = raw_job(line)
                if kind != "hit":
                    firsts[target] = sample["job_raw"]
                else:
                    sample["first_raw"] = firsts.get(target)
            with lock:
                samples.append(sample)


def check_sample(sample, refs):
    """Return a failure message, or None when the response is correct."""
    name = f"{sample['chain']}/{sample['label']}"
    if sample["type"] != "result":
        return f"{name}: answered {sample['type']}: {sample['msg'].get('message', '')}"
    msg = sample["msg"]
    job = msg["job"]
    if not job.get("ok"):
        return f"{name}: job not ok: {job.get('error')}"
    if msg.get("timeout"):
        return f"{name}: cut by a deadline"
    if sample["kind"] == "hit":
        if not msg.get("cache_hit"):
            return f"{name}: exact repeat was not a cache hit"
        if sample["job_raw"] != sample["first_raw"]:
            return f"{name}: cache hit's job object differs from its cold run"
        return None
    final, bounds = job["final"], job["bounds"]
    violation = max((final["delay_s"] - bounds["delay_s"]) / bounds["delay_s"],
                    (final["cap_f"] - bounds["cap_f"]) / bounds["cap_f"],
                    (final["noise_f"] - bounds["noise_f"]) / bounds["noise_f"], 0.0)
    if violation > FEAS_TOL * (1 + 1e-9):
        return f"{name}: infeasible, violation {violation:.5f}"
    if sample["kind"] == "eco" and not job.get("eco", {}).get("reused_nodes"):
        return f"{name}: ECO request reused no nodes"
    return area_problem(dict(job, name=name), refs)


def serve_rep(driver, cli, circuits, seed, chains, traced):
    """Start a fresh server, warm it up, run the script once, stop it.

    The server runs on the SERVE_WORKERS vCPUs that are fastest right now and
    the client on the others (see driver.cpp, "CPU placement").
    """
    ranking = run_driver(driver, "calibrate")
    server_cpus = set(ranking[:SERVE_WORKERS])
    client_cpus = set(ranking[SERVE_WORKERS:]) or server_cpus
    all_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, client_cpus)
    t0 = time.perf_counter()
    server = Server(cli, server_cpus)
    conns = []
    try:
        conns = [Connection(server.port) for _ in range(SERVE_CONNECTIONS)]
        for i, conn in enumerate(conns):
            conn.send({"type": "size", "id": f"warmup{i}", "seed": i + 1,
                       "input": {"profile": "c17"}})
            while conn.read().get("type") not in ("result", "error", "cancelled"):
                pass
        setup_s = time.perf_counter() - t0
        samples, lock = [], threading.Lock()
        errors = []

        def client(conn, mine):
            try:
                run_chain_list(conn, mine, circuits, seed, traced, samples, lock)
            except Exception as exc:  # reported as a failed run below
                errors.append(repr(exc))

        dealt = assign_chains(len(circuits["chains"]), seed, len(conns))
        threads = [threading.Thread(target=client,
                                    args=(conn, [c for c in dealt[k] if c in chains]))
                   for k, conn in enumerate(conns)]
        t1 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - t1
        if errors:
            raise BenchError("serve client failed: " + "; ".join(errors))
        conns[0].send({"type": "stats", "id": "stats"})
        while (stats := conns[0].read()).get("type") != "stats":
            pass
        rss = server.peak_rss_mb()
    finally:
        server.close(conns[0] if conns else None)
        for conn in conns:
            conn.close()
        os.sched_setaffinity(0, all_cpus)
    return {"setup_s": setup_s, "wall_s": wall_s, "samples": samples, "stats": stats,
            "rss_mb": rss}


def run_serve(driver, cli, seed, seconds, traced, chains=None, reference=None):
    """Repeat the serve_mix script on fresh servers for `seconds` (at least
    three repetitions; one when probing). Traced runs alternate untraced and
    traced repetitions."""
    circuits = run_driver(driver, "circuits")
    chains = list(range(len(circuits["chains"]))) if chains is None else list(range(chains))
    refs = (reference or {}).get("serve_mix", {})
    probe = seconds == 0
    reps = []
    t0 = time.perf_counter()
    while True:
        plain = [r for r in reps if not r["traced"]]
        tr = [r for r in reps if r["traced"]]
        enough = len(reps) >= 1 if probe else (
            min(len(plain), len(tr)) >= 3 if traced else len(plain) >= 3)
        if enough and time.perf_counter() - t0 >= seconds:
            break
        rep_traced = traced and len(reps) % 2 == 1
        rep = serve_rep(driver, cli, circuits, seed, chains, rep_traced)
        rep["traced"] = rep_traced
        reps.append(rep)
    failures = []
    attempted = failed = 0
    for rep in reps:
        for sample in rep["samples"]:
            attempted += 1
            problem = check_sample(sample, refs)
            if problem:
                failed += 1
                if len(failures) < 20:
                    failures.append(problem)
    return {"reps": reps, "circuits": circuits, "attempted": attempted, "failed": failed,
            "failures": failures}


def pooled(reps, field="latency_ms", kind=None):
    """One field of every request of `reps` (optionally of one kind)."""
    return [s[field] for rep in reps for s in rep["samples"]
            if s[field] is not None and (kind is None or s["kind"] == kind)]


def serve_e2e_metrics(result):
    plain = [r for r in result["reps"] if not r["traced"]]
    latencies = pooled(plain)
    return {
        "setup_s": result["circuits"]["generate_s"] + statistics.median(r["setup_s"] for r in plain),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "job_p50_ms": quantile(latencies, 0.5),
        "job_p90_ms": quantile(latencies, 0.9),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }


def serve_layer_metrics(result):
    """serve / cache / eco metrics, from the untraced repetitions."""
    plain = [r for r in result["reps"] if not r["traced"]]
    samples = [s for r in plain for s in r["samples"]]

    def kind_p50(kind):
        return quantile(pooled(plain, kind=kind), 0.5)

    stats = plain[0]["stats"]["cache"]
    first = plain[0]["samples"]
    return {
        "serve.accepted_ms": quantile(pooled(plain, "accepted_ms"), 0.5),
        "serve.hit_p50_ms": kind_p50("hit"),
        "serve.cold_p50_ms": kind_p50("cold"),
        "serve.warm_p50_ms": kind_p50("warm"),
        "serve.eco_p50_ms": kind_p50("eco"),
        "serve.response_bytes": statistics.mean(s["bytes"] for s in samples),
        "cache.hits": stats["hits"],
        "cache.misses": stats["misses"],
        "cache.warm_hits": stats["warm_hits"],
        "cache.eco_hits": stats["eco_hits"],
        "cache.hit_rate": stats["hit_rate"],
        "eco.reused_nodes": sum(s["msg"]["job"].get("eco", {}).get("reused_nodes", 0)
                                for s in first if s["kind"] == "eco" and s["type"] == "result"),
        "eco.iterations": sum(s["msg"]["job"]["iterations"]
                              for s in first if s["kind"] == "eco" and s["type"] == "result"),
    }


def serve_traced_metrics(result, driver):
    """Per-layer metrics of serve_mix: session / OGWS / LRS from the traces
    the server attaches to every sized (non-hit) result, the rest from the
    driver's standalone layer calls on the same circuits."""
    traced = [r for r in result["reps"] if r["traced"]]
    plain = [r for r in result["reps"] if not r["traced"]]
    per_rep = []
    for rep in traced:
        acc = {"elaborate": 0.0, "simulate_and_order": 0.0, "derive_bounds": 0.0, "size": 0.0,
               "lrs_pass": 0.0, "ogws_iteration": 0.0, "job": 0.0}
        for s in rep["samples"]:
            if s["kind"] == "hit" or s["type"] != "result":
                continue
            for event in s["msg"].get("trace", {}).get("traceEvents", []):
                if event["name"] in acc:
                    acc[event["name"]] += event["dur"] * 1e-6
            acc["job"] += s["msg"]["job"]["seconds"]
        per_rep.append(acc)

    def med(key):
        return statistics.median(a[key] for a in per_rep)

    sized = [s for s in traced[0]["samples"] if s["kind"] != "hit" and s["type"] == "result"]
    iterations = sum(s["msg"]["job"]["iterations"] for s in sized)
    passes = 0
    nodes = 0
    xs, ys = [], []
    for s in sized:
        events = s["msg"].get("trace", {}).get("traceEvents", [])
        job = s["msg"]["job"]
        components = job["num_gates"] + job["num_wires"]
        job_passes = sum(1 for e in events if e["name"] == "lrs_pass")
        passes += job_passes
        # Dense sweeps (the default) evaluate every component on each pass.
        nodes += job_passes * components
        if s["kind"] == "cold":
            size_s = sum(e["dur"] for e in events if e["name"] == "size") * 1e-6
            xs.append(components)
            ys.append(size_s / max(1, job["iterations"]))
    jobs = [s["msg"]["job"] for s in sized]
    lrs_s = med("lrs_pass")
    metrics = {
        "session.elaborate_s": med("elaborate"),
        "session.simulate_and_order_s": med("simulate_and_order"),
        "session.derive_bounds_s": med("derive_bounds"),
        "session.size_s": med("size"),
        "session.memory_bytes": max(j["memory_bytes"] for j in jobs),
        "ogws.iterations": iterations,
        "ogws.capped_jobs": sum(1 for j in jobs if not j["converged"] and j["iterations"] >= 500),
        "ogws.iteration_ms": med("ogws_iteration") * 1e3 / max(1, iterations),
        "ogws.non_lrs_s": med("size") - lrs_s,
        "lrs.passes": passes,
        "lrs.nodes_processed": nodes,
        "lrs.s": lrs_s,
        "lrs.ns_per_node": lrs_s * 1e9 / max(1, nodes),
        "lrs.frontier_frac": 1.0,
        "ogws.area_um2": sum(j["area_um2"] for j in jobs),
        "ogws.max_violation": max(j["max_violation"] for j in jobs),
        "ogws.rel_gap": max(j["rel_gap"] for j in jobs),
        "ogws.converged_jobs": sum(1 for j in jobs if j["converged"]),
        "trace.overhead_frac": (statistics.median(r["wall_s"] for r in traced) /
                                statistics.median(r["wall_s"] for r in plain) - 1.0),
        "trace.unaccounted_frac": max(1.0 - (a["elaborate"] + a["simulate_and_order"] +
                                             a["derive_bounds"] + a["size"]) / a["job"]
                                      for a in per_rep),
    }
    metrics["fig10b.ns_per_node_iter"] = statistics.linear_regression(xs, ys).slope * 1e9
    metrics["fig10b.r2"] = statistics.correlation(xs, ys) ** 2
    metrics.update(serve_layer_metrics(result))
    metrics.update(run_driver(driver, "layers"))
    return metrics


def run_serve_mix(driver, cli, args, reference):
    result = run_serve(driver, cli, args.seed, args.seconds, args.trace, reference=reference)
    failures = result["failures"]
    if args.trace:
        metrics = serve_traced_metrics(result, driver)
        if metrics["trace.unaccounted_frac"] > UNACCOUNTED_MAX:
            failures.append(f"traced spans leave {metrics['trace.unaccounted_frac']:.1%} "
                            f"of a traced job's wall unaccounted")
            result["failed"] += 1
    else:
        metrics = serve_e2e_metrics(result)
    plain = [r for r in result["reps"] if not r["traced"]]
    requests = sum(len(r["samples"]) for r in plain)
    log(f"serve_mix: {len(result['reps'])} script repetitions, {requests} untraced requests")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics, "failures": failures,
            "build": result["circuits"]}


# ---- entry points ---------------------------------------------------------------


def measure(args, driver, cli, reference):
    if args.workload == "serve_mix":
        return run_serve_mix(driver, cli, args, reference)
    return run_batch(driver, cli, args, reference)


def emit(result, args):
    units = PER_LAYER if args.trace else END_TO_END
    prov = provenance(result["build"])
    print(f"perfbench: workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {int(args.trace)} provenance {json.dumps(prov)}")
    for failure in result["failures"]:
        print(f"perfbench: FAILED {failure}")
    missing = [name for name in units if name not in result["metrics"]]
    if missing:
        raise BenchError(f"metrics missing from the run: {missing}")
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"perfbench: {name:32s} {value:>16.6g} {unit}")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


def record_reference(driver, cli):
    """Re-record reference.json: the area and best dual of every sized job
    of every workload, from this build. Refuses infeasible results."""
    ref = {"table1": {}, "serve_mix": {}}
    unchecked = {"area": 0.0, "dual": float("inf")}
    # Traced, so the driver also sizes the ×10 c7552 circuit of Figure 10(b).
    out = run_driver(driver, "run", "--workload", "table1", "--seed", 1,
                     "--seconds", 0, "--trace", 1)
    if out["ops_failed"]:
        raise BenchError(f"table1: {out['failures']}")
    for job in out["jobs"] + [out["large"]]:
        problem = job_problem(job, {job["name"]: unchecked})
        if problem:
            raise BenchError(f"table1: {problem}")
        ref["table1"][job["name"]] = {"area": job["area_um2"], "dual": job["dual"]}
    result = run_serve(driver, cli, 1, seconds=0, traced=False)
    for sample in result["reps"][0]["samples"]:
        if sample["kind"] == "hit":
            continue
        name = f"{sample['chain']}/{sample['label']}"
        problem = check_sample(sample, {name: unchecked})
        if problem:
            raise BenchError(f"serve_mix: {problem}")
        job = sample["msg"]["job"]
        ref["serve_mix"][name] = {"area": job["area_um2"], "dual": job["dual"]}
    REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    log(f"wrote {REFERENCE}")


def sensitivity(driver, cli, args):
    """Inject a ~20% delay into table1's OGWS layer and report which
    metrics it moves.

    Alternates plain and injected runs (seeds 1..runs, traced and untraced).
    A metric "moved beyond its bound" when the medians differ by more than
    the end-to-end bound (per-layer metrics: the wall_s bound); it is
    "detected" by the paired rule of the choosing-metrics guide when the
    injected run is worse in every pair and the medians differ by more than
    the plain runs' own spread.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    reference = load_reference()
    rows = {}
    for i in range(args.runs):
        order = ("plain", "inject") if i % 2 == 0 else ("inject", "plain")
        for trace in (False, True):
            for mode in order:
                ns = argparse.Namespace(workload="table1", seed=i + 1, seconds=args.seconds,
                                        trace=trace)
                res = run_batch(driver, cli, ns, reference, INJECT if mode == "inject" else None)
                if not res["correct"]:
                    raise BenchError(f"{mode} run incorrect: {res['failures']}")
                for name, value in res["metrics"].items():
                    rows.setdefault(name, {"plain": [], "inject": []})[mode].append(value)
    moved, detected = [], []
    print(f"sensitivity: table1, {INJECT:.0%} OGWS spin, {args.runs} pairs")
    for name, unit in list(END_TO_END.items()) + list(PER_LAYER.items()):
        if name not in rows or unit not in ("s", "ms", "ns"):
            continue
        plain, injected = rows[name]["plain"], rows[name]["inject"]
        base = statistics.median(plain)
        delta = statistics.median(injected) / base - 1 if base else 0.0
        spread = (max(plain) - min(plain)) / base if base else 0.0
        worse = sum(1 for p, q in zip(plain, injected) if q > p)
        bound = bounds.get(name, bounds["wall_s"])
        marks = []
        if abs(delta) > bound:
            moved.append(name)
            marks.append("MOVED")
        if worse == len(plain) and delta > spread:
            detected.append(name)
            marks.append("DETECTED")
        print(f"  {name:30s} {base:12.6g} {unit:2s} {delta:+7.1%}  bound {bound:.0%}  "
              f"spread {spread:5.1%}  worse {worse}/{len(plain)}  {' '.join(marks)}")
    print(f"sensitivity: moved beyond bound: {', '.join(moved) or 'nothing'}")
    print(f"sensitivity: detected by the paired rule: {', '.join(detected) or 'nothing'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--sensitivity", action="store_true")
    parser.add_argument("--runs", type=int, default=4, help="(--sensitivity) run pairs")
    args = parser.parse_args()
    try:
        driver, cli = build()
        if args.record_reference:
            record_reference(driver, cli)
        elif args.sensitivity:
            sensitivity(driver, cli, args)
        else:
            if args.workload is None:
                parser.error("--workload is required")
            args.trace = bool(args.trace)
            emit(measure(args, driver, cli, load_reference()), args)
    except BenchError as exc:
        log(f"error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
