#!/usr/bin/env python3
"""xatpg benchmark: build, run one workload from a seed, check, report.

    python3 perfbench/run.py --workload table1-si --seed 1 --seconds 25 --trace 0

Run from the repository root.  Builds the xatpg library, the `xatpg` CLI
and perfbench_runner from source into $CARGO_TARGET_DIR (default
.bench_build), runs the workload for at least --seconds in whole passes,
checks the outputs, and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(plus a Chrome trace under .bench_out/).  See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("table1-si", "netlists", "serve-mix")
PER_LAYER = [
    ("stg.expand_s", "s"), ("stg.states", "count"),
    ("synth.synthesize_s", "s"), ("synth.cubes", "count"),
    ("netlist.parse_s", "s"),
    ("sgraph.cssg_s", "s"), ("sgraph.extract_s", "s"),
    ("sgraph.stable_states", "count"), ("sgraph.cssg_edges", "count"),
    ("bdd.peak_nodes", "count"), ("bdd.cache_hit_ratio", "ratio"),
    ("atpg.run_s", "s"), ("atpg.random_s", "s"), ("atpg.three_phase_s", "s"),
    ("atpg.merge_s", "s"), ("atpg.three_phase_yield", "ratio"),
    ("atpg.steals", "count"),
    ("sim.faultsim_s", "s"), ("sim.faultsim_steps", "count"),
    ("sim.faultsim_gave_up", "count"), ("sim.explore_states", "count"),
    ("sim.ternary_screen_s", "s"),
    ("api.build_s", "s"), ("api.run_s", "s"), ("api.export_s", "s"),
    ("serve.ack_ms", "ms"), ("serve.hit_ms", "ms"), ("serve.cold_ms", "ms"),
    ("serve.engine_ms", "ms"), ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"), ("trace.overhead_pct", "%"),
]


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build; returns the build directory."""
    if not os.path.isfile(os.path.join(root, "tools", "xatpg_cli.cpp")):
        raise RuntimeError("no xatpg sources beside perfbench/")
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True, **quiet)
    return out


def run_child(cmd):
    """Run to completion; returns (stdout, peak RSS in MiB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with {proc.returncode}")
    return out.decode(), usage.ru_maxrss / 1024.0


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


class Trace:
    """Spans kept in memory, written as a Chrome trace at the end."""

    def __init__(self):
        self.on = False
        self.t0 = time.perf_counter()
        self.events = []

    def span(self, name, start, end, job, parent=-1):
        if self.on:
            self.events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                                "ts": (start - self.t0) * 1e6,
                                "dur": (end - start) * 1e6,
                                "args": {"job": job, "parent": parent}})
            return len(self.events) - 1
        return -1

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"traceEvents": self.events}, f)


def serve_mix(build_dir, inputs, seconds, trace_path):
    """Closed loop, at most two requests outstanding, against
    `xatpg serve --pipe --serve-workers 2`."""
    with open(os.path.join(inputs, "requests.txt")) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    with open(os.path.join(inputs, "round.txt")) as f:
        order = f.read().split()
    trace = Trace()
    calib = None
    cmd = [os.path.join(build_dir, "xatpg"), "serve", "--pipe", "--serve-workers", "2",
           "--queue-capacity", "16"]

    def start():
        """A new daemon and its start-up time, spawn to the first pong."""
        t_spawn = time.perf_counter()
        p = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
        try:
            p.stdin.write(b'{"op":"ping"}\n')
            p.stdin.flush()
            while True:
                line = p.stdout.readline()
                if not line:
                    raise RuntimeError("serve daemon closed its output")
                if json.loads(line).get("type") == "pong":
                    return p, time.perf_counter() - t_spawn
        except BaseException:
            stop(p)
            raise

    def stop(p):
        p.stdin.close()
        p.wait()
        p.stdout.close()

    # Set-up is the median cold start-up: this daemon's, and one more new
    # daemon's before every round after the first and after the last.  One
    # start-up alone spreads by a third from run to run.
    proc, t = start()
    startups = [t]

    def send(line):
        proc.stdin.write((line + "\n").encode())
        proc.stdin.flush()

    def frame():
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("serve daemon closed its output")
        return json.loads(line), time.perf_counter()

    try:
        # Host-speed probe (see runner.cpp): idle while a round runs, it
        # times ten reference units before every round and after the last.
        calib = subprocess.Popen([os.path.join(build_dir, "perfbench_runner"), "calibrate"],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        scales = []

        def between_rounds():
            calib.stdin.write("10\n")
            calib.stdin.flush()
            scales.append(float(calib.stdout.readline()))
            if scales[1:]:
                p, t = start()
                stop(p)
                startups.append(t)

        reqs = {}  # id -> record
        outstanding = set()
        attempted = failed = 0
        rounds = []  # per round: (wall, traced, [ids])
        t_start = time.perf_counter()

        def pump():
            f, t = frame()
            rec = reqs.get(f.get("id"))
            if rec is None:
                return
            kind = f.get("type")
            if kind == "ack":
                rec["ack"] = t
            elif kind in ("result", "error", "cancelled"):
                rec["end"] = t
                rec["ok"] = kind == "result"
                if kind == "result":
                    rec["cached"] = f["cached"]
                    rec["engine_ms"] = f["engine_ms"]
                    rec["payload"] = json.dumps(f["result"], sort_keys=True)
                outstanding.discard(f["id"])
                parent = trace.span("serve.request", rec["start"], t, f["id"])
                if "ack" in rec:
                    trace.span("serve.ack", rec["start"], rec["ack"], f["id"], parent)

        r = 0
        while not rounds or time.perf_counter() - t_start < seconds or attempted < 100:
            trace.on = trace_path is not None and r % 2 == 0
            between_rounds()
            cold, ids = {}, []
            r_start = time.perf_counter()
            for i, entry in enumerate(order):
                rid = f"{r}-{i}"
                k = int(entry[1:])
                if entry[0] == "C":
                    line = (lines[k].replace("ID%", rid).replace("R%", f"r{r}")
                            .replace("SEED%", str(1000 + r)))
                    cold[k] = rid
                    src, slot = None, k
                else:
                    src, slot = cold[k], f"hit{len(ids) - len(cold)}"
                    while "end" not in reqs[src]:
                        pump()
                    line = reqs[src]["line"].replace(f'"id":"{src}"', f'"id":"{rid}"')
                while len(outstanding) >= 2:
                    pump()
                reqs[rid] = {"line": line, "src": src, "slot": slot,
                             "start": time.perf_counter()}
                outstanding.add(rid)
                send(line)
                attempted += 1
                ids.append(rid)
            while outstanding:
                pump()
            rounds.append((time.perf_counter() - r_start, trace.on, ids))
            r += 1
        between_rounds()

        send('{"op":"stats"}')
        stats = None
        while stats is None:
            f, _ = frame()
            if f.get("type") == "stats":
                stats = f
        send('{"op":"shutdown"}')
        proc.stdin.close()
        while proc.stdout.readline():
            pass
    finally:
        if calib is not None:
            calib.stdin.close()
            calib.wait()
        if not proc.stdin.closed:
            proc.stdin.close()
        _, status, usage = os.wait4(proc.pid, 0)
    rss_mib = usage.ru_maxrss / 1024.0
    # Times at reference speed: a round's scale is the mean of the probes
    # before and after it.
    round_scale = [(a + b) / 2 for a, b in zip(scales, scales[1:])]
    scale = median(scales)

    # --- checks, outside the timed window ---------------------------------
    error = None
    totals = set()
    for _, _, ids in rounds:
        covered = vectors = 0
        for rid in ids:
            rec = reqs[rid]
            if not rec.get("ok"):
                failed += 1
                continue
            if rec["src"] is not None:
                if not rec["cached"]:
                    error = error or f"repeat {rid} missed the cache"
                if rec["payload"] != reqs[rec["src"]]["payload"]:
                    error = error or f"cache hit {rid} differs from its cold payload"
            elif rec["cached"]:
                error = error or f"fresh request {rid} was a cache hit"
            if rec["src"] is None:  # the cold requests are the same set every round
                res = json.loads(rec["payload"])
                covered += res["stats"]["covered"]
                vectors += sum(len(s) for s in res["sequences"])
        totals.add((covered, vectors))
    if len(totals) != 1:
        error = error or "rounds report different coverage"
    covered, vectors = next(iter(totals))

    # Serve results equal in-process Session results (first round's cold
    # requests).
    first = [rid for rid in rounds[0][2] if reqs[rid]["src"] is None]
    ref_path = os.path.join(inputs, "reference.ndjson")
    with open(ref_path, "w") as f:
        for rid in first:
            f.write(reqs[rid]["line"] + "\n")
    out, _ = run_child([os.path.join(build_dir, "perfbench_runner"), "reference", ref_path])
    for rid, payload in zip(first, out.splitlines()):
        if payload == "error" or json.dumps(json.loads(payload), sort_keys=True) != reqs[rid]["payload"]:
            error = error or f"serve result {rid} differs from the in-process Session"

    # Each request's latency is its median round (hits by their place in the
    # round), at reference host speed as for the in-process workloads; the
    # percentiles are taken over the requests of a round.
    by_slot = {}
    for (_, _, ids), k in zip(rounds, round_scale):
        for rid in ids:
            if reqs[rid].get("ok"):
                by_slot.setdefault(reqs[rid]["slot"], []).append(
                    (reqs[rid]["end"] - reqs[rid]["start"]) * 1e3 * k)
    lat = [median(v) for v in by_slot.values()]
    raw_rate = median([len(ids) / wall for wall, _, ids in rounds])
    setup_s = median(startups)
    log(f"median reference scale {scale}; unscaled jobs_per_s {raw_rate}, setup_s {setup_s}")
    if trace_path is None:
        metrics = {
            "jobs_per_s": (median([len(ids) / (wall * k)
                                   for (wall, _, ids), k in zip(rounds, round_scale)]), "1/s"),
            "latency_p50_ms": (quantile(lat, 0.5), "ms"),
            "latency_p90_ms": (quantile(lat, 0.9), "ms"),
            "setup_s": (setup_s * scale, "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
            "faults_covered": (covered, "count"),
            "test_vectors": (vectors, "count"),
        }
    else:
        traced = [rid for _, on, ids in rounds if on for rid in ids]
        hit = [reqs[x] for x in traced if reqs[x].get("cached")]
        cold = [reqs[x] for x in traced if reqs[x].get("ok") and not reqs[x]["cached"]]
        trace.write(trace_path)
        on = [wall * k for (wall, t, _), k in zip(rounds, round_scale) if t]
        off = [wall * k for (wall, t, _), k in zip(rounds, round_scale) if not t]
        metrics = {
            "serve.ack_ms": (median([(c["ack"] - c["start"]) * 1e3 for c in cold]) * scale, "ms"),
            "serve.hit_ms": (median([(c["end"] - c["start"]) * 1e3 for c in hit]) * scale, "ms"),
            "serve.cold_ms": (median([(c["end"] - c["start"]) * 1e3 for c in cold]) * scale, "ms"),
            "serve.engine_ms": (median([c["engine_ms"] for c in cold]) * scale, "ms"),
            "serve.cache_hits": (stats["cache"]["hits"], "count"),
            "serve.cache_misses": (stats["cache"]["misses"], "count"),
            "trace.overhead_pct": (100.0 * (median(on) / median(off) - 1.0) if off else 0.0, "%"),
        }
    result = {"correct": error is None, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if error:
        log(error)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    try:
        build_dir = build(root)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 1
    out_dir = os.path.join(root, ".bench_out")
    inputs = os.path.join(out_dir, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(inputs, exist_ok=True)
    trace_path = (os.path.join(out_dir, f"trace-{args.workload}-s{args.seed}.json")
                  if args.trace else None)
    runner = os.path.join(build_dir, "perfbench_runner")
    try:
        run_child([runner, "prepare", args.workload, str(args.seed), inputs])
        if args.workload == "serve-mix":
            result = serve_mix(build_dir, inputs, args.seconds, trace_path)
        else:
            out, _ = run_child([runner, "run", args.workload, inputs, str(args.seconds),
                                trace_path or "-"])
            result = json.loads(out.strip().splitlines()[-1])
            result.pop("passes", None)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("run failed:", e)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if args.trace:
        m = result["metrics"]
        result["metrics"] = {name: m.get(name, {"value": 0.0, "unit": unit})
                             for name, unit in PER_LAYER}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
