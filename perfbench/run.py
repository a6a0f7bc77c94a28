#!/usr/bin/env python3
"""Host-time benchmark of the mclat simulator (see README.md here).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Builds the simulator libraries and the C++ measurement program from
source into .bench_build/ at the checkout root, runs one workload, checks
every trial's simulated outputs, and prints a report line followed by the
result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(spans are written under .bench_out/). A trial that fails a check counts as
a failed operation, and any failure makes the exit code 1.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "mclat_perfbench")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

WORKLOADS = ("testbed_sweep", "replay_realcache", "e2e_sharded")

END_TO_END = {
    "keys_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# name -> (unit, better). Layers a workload bypasses report 0 (README.md,
# "Reading a zero").
PER_LAYER = {
    "sim.events": ("count", "lower"),
    "sim.ns_per_event": ("ns", "lower"),
    "sim.shard_speedup": ("x", "higher"),
    "sim.util_max": ("ratio", "lower"),
    "cluster.keys": ("count", "higher"),
    "cluster.db_fetches": ("count", "lower"),
    "cluster.delayed_hits": ("count", "higher"),
    "cluster.coalesce_ratio": ("ratio", "higher"),
    "cluster.run_s": ("s", "lower"),
    "cluster.pools_s": ("s", "lower"),
    "cluster.assemble_s": ("s", "lower"),
    "cluster.self_s": ("s", "lower"),
    "cluster.t_mean_us": ("us", "lower"),
    "cluster.t_p99_us": ("us", "lower"),
    "workload.trace_build_s": ("s", "lower"),
    "workload.keytable_ns": ("ns", "lower"),
    "dist.service_ns": ("ns", "lower"),
    "dist.gap_ns": ("ns", "lower"),
    "dist.zipf_ns": ("ns", "lower"),
    "hashing.ring_ns": ("ns", "lower"),
    "hashing.ring_build_s": ("s", "lower"),
    "cache.gets": ("count", "lower"),
    "cache.sets": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.get_ns": ("ns", "lower"),
    "cache.set_ns": ("ns", "lower"),
    "cache.probe_len": ("slots", "lower"),
    "cache.miss_ratio": ("ratio", "lower"),
    "server.wait_p99_us": ("us", "lower"),
    "obs.overhead_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


# ------------------------------------------------------------------ build --

def child_env():
    """Environment for the build and the measurement program: temporary
    files stay in the build tree, inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds the measurement program. Returns False, after
    showing the build log on stderr, when that fails (e.g. without the
    sources)."""
    jobs = str(min(3, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=850, env=child_env())
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            return False
    return True


def drive(workload, seed, seconds, traced, size, spans_path=None):
    """Runs the measurement program once and returns its JSON document."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--phase", "traced" if traced else "timed", "--size", size]
    if spans_path:
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, env=child_env())
    if proc.returncode != 0:
        raise RuntimeError(f"mclat_perfbench exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------- checks --

def recorded_fingerprint(workload, size, seed):
    """The fingerprint recorded for this seed, or None when none is."""
    try:
        with open(FINGERPRINTS) as f:
            table = json.load(f)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(size, {}).get(str(seed))


def trial_problems(doc, trial, recorded=None):
    """Every check one trial fails, as readable strings (empty = passes)."""
    w = doc["workload"]
    problems = []
    if trial["keys"] <= 0 or trial["requests"] <= 0:
        problems.append("no simulated work completed")
    if trial["expect_requests"] and trial["requests"] != trial["expect_requests"]:
        problems.append(f"requests {trial['requests']} != input's "
                        f"{trial['expect_requests']}")
    if trial["expect_keys"] and trial["keys"] != trial["expect_keys"]:
        problems.append(f"keys {trial['keys']} != input's "
                        f"{trial['expect_keys']}")
    if not trial["util_max"] < 1.0:
        problems.append(f"busiest server utilisation {trial['util_max']} "
                        ">= 1 (growing backlog)")
    if w == "testbed_sweep":
        # Coalescing is off in Mode A: every miss is its own DB fetch.
        if trial["delayed_hits"] != 0:
            problems.append("delayed hits with coalescing off")
    elif trial["misses"] != trial["db_fetches"] + trial["delayed_hits"]:
        problems.append(f"misses {trial['misses']} != db_fetches "
                        f"{trial['db_fetches']} + delayed_hits "
                        f"{trial['delayed_hits']}")
    counter = trial["registry"].get("misses_counter")
    if w != "testbed_sweep" and counter is not None and counter != trial["misses"]:
        problems.append(f"db.misses counter {counter} != misses "
                        f"{trial['misses']}")
    # Identical inputs give identical outputs: every trial of the timed
    # cell (traced or registry-attached too, and the K+1-shard witness)
    # must reproduce the warm-up's fingerprint. The serial K=1 cell is its
    # own sampling contract and only has to be conserved.
    reference = doc["trials"][0]["fingerprint"]
    if trial["variant"] != "k1" and trial["fingerprint"] != reference:
        problems.append(f"fingerprint {trial['fingerprint']} != warm-up's "
                        f"{reference} ({trial['variant']} trial)")
    if recorded is not None and trial["variant"] != "k1" \
            and trial["fingerprint"] != recorded:
        problems.append(f"fingerprint {trial['fingerprint']} != recorded "
                        f"{recorded} for seed {doc['seed']}")
    return problems


def check(doc):
    """(attempted, failed, problems) over every trial of one run."""
    recorded = None
    if doc["workload"] == "testbed_sweep":
        recorded = recorded_fingerprint(doc["workload"], doc["size"],
                                        doc["seed"])
    problems = []
    failed = 0
    for i, trial in enumerate(doc["trials"]):
        p = trial_problems(doc, trial, recorded)
        if p:
            failed += 1
            problems += [f"trial {i}: {msg}" for msg in p]
    return len(doc["trials"]), failed, problems


# ------------------------------------------------------------------ stats --

def summary(values):
    """Median, quartiles, outer deciles and sample count."""
    values = sorted(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    deciles = statistics.quantiles(values, n=10)
    return {"median": med, "q1": q1, "q3": q3, "p10": deciles[0],
            "p90": deciles[-1], "n": len(values)}


def of_variant(doc, variant):
    return [t for t in doc["trials"] if t["variant"] == variant]


def end_to_end(doc):
    """Each host-time metric over the run's timed trials. The headline value
    is the fast decile (README.md, "Steadiness"): interference on a shared
    host only ever adds time, so the fastest tenth of the trials tracks the
    code's own cost far more steadily than the median does."""
    timed = of_variant(doc, "timed")
    rates = summary([t["keys"] / t["run_s"] for t in timed])
    setups = summary([t["setup_s"] for t in timed])
    rss = summary([t["peak_rss_mb"] for t in timed])
    return {
        "keys_per_s": dict(rates, value=rates["p90"]),
        "setup_s": dict(setups, value=setups["p10"]),
        "peak_rss_mb": dict(rss, value=rss["median"]),
        # Busy threads per wall second: 1 when single-threaded and
        # uninterrupted; the spin of idle shard workers shows above 1.
        "cpu_per_wall": statistics.median(t["run_cpu_s"] / t["run_s"]
                                          for t in timed),
    }


def descriptors(doc):
    """Measured properties of the workload's input, for claims of the form
    "helps only inputs with property X" (traced runs add the trace-based
    ones)."""
    t0 = doc["trials"][0]
    d = doc["descriptors"]
    out = {
        "miss_ratio": t0["miss_ratio"],
        "busiest_server_share": d.get("replay.busiest_server_key_share",
                                      t0["busiest_share"]),
        "fingerprint": t0["fingerprint"],
    }
    if "replay.distinct_rank_share" in d:
        out["distinct_rank_share"] = d["replay.distinct_rank_share"]
    if "mode_a.mean_batch" in d:
        out["mean_batch"] = d["mode_a.mean_batch"]
    return out


def per_layer(doc):
    """The per-layer table of a traced run (README.md defines each row)."""
    med = statistics.median
    timed = of_variant(doc, "timed")
    spans = of_variant(doc, "spans")
    registry = of_variant(doc, "registry")
    layers = doc["layers"]
    desc = doc["descriptors"]
    t0 = timed[0]
    out = {name: 0.0 for name in PER_LAYER}

    run_null = med(t["run_s"] for t in timed)
    if t0["events"]:
        out["sim.events"] = t0["events"]
        out["sim.ns_per_event"] = med(t["run_s"] / t["events"]
                                      for t in timed) * 1e9
    k1 = of_variant(doc, "k1")
    if k1:
        out["sim.shard_speedup"] = (med(t["keys"] / t["run_s"] for t in timed)
                                    / med(t["keys"] / t["run_s"] for t in k1))
    out["sim.util_max"] = t0["util_max"]
    out["cluster.keys"] = t0["keys"]
    out["cluster.db_fetches"] = t0["db_fetches"]
    out["cluster.delayed_hits"] = t0["delayed_hits"]
    misses = t0["db_fetches"] + t0["delayed_hits"]
    out["cluster.coalesce_ratio"] = t0["delayed_hits"] / misses if misses else 0.0
    for span in ("cluster.run", "cluster.pools", "cluster.assemble",
                 "workload.trace_build"):
        out[span + "_s"] = med(t["spans"][span] for t in spans)
    out["cluster.t_mean_us"] = t0["t_mean_us"]
    out["cluster.t_p99_us"] = registry[0]["registry"].get("t_p99_us", 0.0)
    out["server.wait_p99_us"] = registry[0]["registry"].get("wait_p99_us", 0.0)
    out["cache.miss_ratio"] = t0["miss_ratio"]
    for name, value in layers.items():
        out[name] = value

    # Engine residual: the traced run time less what the isolated drives
    # attribute to each layer at its measured ns/op and the run's op counts.
    keys = t0["keys"]
    if doc["workload"] == "testbed_sweep":
        attributed_ns = (layers["dist.service_ns"] * keys
                         + layers["dist.gap_ns"] * keys
                         / desc["mode_a.mean_batch"])
    elif doc["workload"] == "replay_realcache":
        attributed_ns = (layers["workload.keytable_ns"] * keys
                         + layers["cache.get_ns"] * keys
                         + layers["cache.set_ns"] * t0["db_fetches"])
    else:
        attributed_ns = (layers["dist.service_ns"] * keys
                         + layers["dist.gap_ns"] * t0["requests"])
    out["cluster.self_s"] = out["cluster.run_s"] - attributed_ns * 1e-9

    run_spans = med(t["run_s"] for t in spans)
    run_reg = med(t["run_s"] for t in registry)
    out["trace.overhead_frac"] = run_spans / run_null - 1.0
    out["obs.overhead_frac"] = run_reg / run_null - 1.0
    return out


# ------------------------------------------------------------- provenance --

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources, which identifies
    the code in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(doc):
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": doc["build"]["compiler"],
        "build_type": doc["build"]["build_type"],
        "cxx_flags": doc["build"]["cxx_flags"].strip(),
        "seed": doc["seed"],
        "commit": commit(),
        "source_sha256_16": source_digest(),
        "threads_timed": doc["threads_timed"],
    }


# ------------------------------------------------------------------- main --

def run_one(workload, seed, seconds, traced, size):
    """Runs, checks and reports one workload; returns (result, report)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    spans_path = os.path.join(OUT_DIR, f"spans-{tag}.jsonl") if traced else None
    doc = drive(workload, seed, seconds, traced, size, spans_path)
    attempted, failed, problems = check(doc)
    for p in problems:
        print(f"CHECK FAILED {workload}: {p}", file=sys.stderr)
    if traced:
        values = per_layer(doc)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]}
                   for k in PER_LAYER}
    else:
        e2e = end_to_end(doc)
        metrics = {k: {"value": e2e[k]["value"], "unit": END_TO_END[k]}
                   for k in END_TO_END}
    report = {
        "workload": workload,
        "provenance": provenance(doc),
        "size": size,
        "trials": {v: len(of_variant(doc, v)) for v in
                   sorted({t["variant"] for t in doc["trials"]})},
        "end_to_end": end_to_end(doc),
        "descriptors": descriptors(doc),
        "problems": problems,
        "spans": spans_path,
    }
    if traced:
        report["per_layer"] = metrics
    with open(os.path.join(OUT_DIR, f"report-{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, report


def print_layer_table(metrics):
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload (timed) and print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test cells (not comparable)")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    if args.all:
        ok = True
        print(f"{'workload':18s} {'keys_per_s':>14s} {'setup_s':>12s} "
              f"{'peak_rss_mb':>12s}  checks")
        for w in WORKLOADS:
            result, _ = run_one(w, args.seed, args.seconds, False, args.size)
            m = result["metrics"]
            ok = ok and result["correct"]
            print(f"{w:18s} {m['keys_per_s']['value']:>10.0f} 1/s "
                  f"{m['setup_s']['value']:>10.5f} s "
                  f"{m['peak_rss_mb']['value']:>8.1f} MiB  "
                  f"{result['attempted'] - result['failed']}/"
                  f"{result['attempted']} trials pass")
        return 0 if ok else 1
    started = time.monotonic()
    result, report = run_one(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.size)
    if args.trace:
        print(f"per-layer table ({args.workload}, seed {args.seed}; "
              f"spans in {report['spans']}):")
        print_layer_table(result["metrics"])
    report["wall_s"] = time.monotonic() - started
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
