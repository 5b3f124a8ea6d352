#!/usr/bin/env python3
"""Campaign benchmark: the documented `nvbitfi campaign` + `nvbitfi analyze`
user loop, timed end to end, with a correctness check outside the timed
region.

    python3 perfbench/run.py --workload manylaunch --seed 7 --seconds 36 --trace 0

Builds the CLI (and, for --trace 1, the per-layer driver) from the checkout
into .bench_build/, runs the workload's flow repeatedly for --seconds, and
prints one JSON object as the last line of standard output.  See README.md
in this directory for the metrics, the workloads and why they were chosen.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Two campaign workers on a 4-vCPU host leave two for the OS and the caller.
WORKERS = 2
# Flows per run: at least this many, so that set-up is measured several times
# even when one flow outlasts --seconds.
MIN_FLOWS = 3
POLL_S = 0.002


class Workload:
    def __init__(self, name, program, flags, injections, check_span, setup_probes,
                 traced_injections, layer_flags=()):
        self.name = name
        self.program = program
        self.flags = flags
        self.injections = injections
        # Consecutive experiment indexes re-executed by the correctness check.
        self.check_span = check_span
        # Set-up-only spawns after each flow, so that setup_s is a median of
        # many samples spread over the run.
        self.setup_probes = setup_probes
        # Experiments in the traced run.
        self.traced_injections = traced_injections
        # The same configuration in the per-layer driver's terms.
        self.layer_flags = list(layer_flags)

    @property
    def adaptive(self):
        return "--adaptive" in self.flags


WORKLOADS = {
    w.name: w
    for w in (
        # 356.sp: 27,692 launches; checkpoint stream, 3.5 MB profile header,
        # long multi-launch post-fault suffix.
        Workload("manylaunch", "356.sp", [], 24, 2, 1, 24),
        # 350.md: 53 launches of ~100k thread-instructions; interpreter bound,
        # static oracle built in set-up.
        Workload("fatkernel", "350.md", ["--static-prune"], 200, 8, 2, 200,
                 ["--static-prune"]),
        # 303.ostencil --trace: TaintTracker callbacks on every post-injection
        # instruction.
        Workload("taint", "303.ostencil", ["--trace"], 60, 6, 3, 60, ["--taint"]),
        # 354.cg --adaptive: preview/stratify, round barriers, index sets.
        Workload("adaptive", "354.cg", ["--adaptive", "--ci-width", "0.2"], 240, 12, 1,
                 240, ["--adaptive", "--ci-width", "0.2"]),
    )
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def campaign_seed(seed, flow):
    """Flow k of a run draws its experiments from its own campaign seed, so a
    run averages over more distinct fault sites than one campaign holds."""
    digest = hashlib.sha256(f"perfbench:{seed}:{flow}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % 1_000_000_000 + 1


# ---------------------------------------------------------------------------
# Build


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    """Configures and builds the benchmark package; returns {target: path or
    None}.  A target that fails to build maps to None (the per-layer driver
    may break under a refactor without taking the end-to-end benchmark down)."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise SystemExit(f"perfbench: {needed} not found; run from a full checkout")
    out = os.path.join(build_dir(), "cmake")
    os.makedirs(out, exist_ok=True)
    build_log = os.path.join(build_dir(), "build.log")
    with open(build_log, "w") as sink:
        # The Makefile is written last, so its absence means an unfinished
        # configure step.
        if not os.path.isfile(os.path.join(out, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sink, stderr=sink, check=True)
        paths = {}
        for target in targets:
            code = subprocess.run(["cmake", "--build", out, "--target", target,
                                   "-j", str(os.cpu_count() or 2)],
                                  stdout=sink, stderr=sink).returncode
            path = os.path.join(out, target)
            paths[target] = path if code == 0 and os.path.isfile(path) else None
    return paths


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# One flow: campaign (timed, set-up observed through the store header) then
# analyze.

INJECTION_RE = re.compile(r"^injection phase: ([0-9.]+) s wall clock", re.M)
OUTCOME_RE = re.compile(r"^  (SDC|DUE|Masked) .*\((\d+) runs\)$", re.M)
SCHEDULED_RE = re.compile(r"(\d+)/(\d+) pool experiments scheduled")


# The child being watched, so that a terminated benchmark takes it down too.
_child = None


def _terminate(signum, _frame):
    if _child is not None and _child.returncode is None:
        try:
            _child.kill()
            os.waitpid(_child.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already reaped by spawn_and_watch
    sys.exit(128 + signum)


def spawn_and_watch(args, log_path, store, stop_at_header=False):
    """Runs args to completion, or with stop_at_header until the store's
    header appears.  Returns (exit code, wall s, seconds until the store's
    header first appeared or None, child peak RSS in bytes)."""
    global _child
    with open(log_path, "wb") as sink:
        start = time.perf_counter()
        proc = _child = subprocess.Popen(args, stdout=sink, stderr=subprocess.STDOUT)
        header_at = None
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            now = time.perf_counter()
            if pid:
                break
            if header_at is None and store is not None:
                try:
                    if os.path.getsize(store) > 0:
                        header_at = now - start
                        if stop_at_header:
                            proc.kill()
                except OSError:
                    pass
            time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, now - start, header_at, usage.ru_maxrss * 1024


def read_records(store):
    """{index: record line} for every experiment record in a store."""
    records = {}
    with open(store) as f:
        next(f, None)  # header
        for line in f:
            match = re.match(r'\{"index":(\d+),', line)
            if match:
                records[int(match.group(1))] = line.rstrip("\n")
    return records


def outcome_counts(text):
    return {name: int(count) for name, count in OUTCOME_RE.findall(text)}


def campaign_args(cli, wl, seed, store):
    return [cli, "campaign", wl.program, *wl.flags, "--injections", str(wl.injections),
            "--seed", str(seed), "--workers", str(WORKERS), "--store", store]


def probe_setup(cli, wl, seed, work):
    """Spawns the flow's campaign and kills it once the store's header is on
    disk; returns the seconds that took, or None."""
    store = os.path.join(work, "setup.jsonl")
    if os.path.exists(store):
        os.remove(store)
    _, _, header_at, _ = spawn_and_watch(campaign_args(cli, wl, seed, store),
                                         os.path.join(work, "setup.txt"), store,
                                         stop_at_header=True)
    return header_at


def run_flow(cli, wl, seed, work, tag):
    store = os.path.join(work, f"{tag}.jsonl")
    report = os.path.join(work, f"{tag}.campaign.txt")
    code, wall, header_at, rss = spawn_and_watch(campaign_args(cli, wl, seed, store),
                                                 report, store)
    flow = {"seed": seed, "store": store, "errors": [],
            "setup_s": header_at, "peak_rss": rss}
    text = open(report, errors="replace").read()
    if code != 0:
        flow["errors"].append(f"campaign exited {code}: {text[-400:]}")
        return flow
    if header_at is None:
        flow["errors"].append("store header never observed before exit")
    match = INJECTION_RE.search(text)
    flow["inject_wall"] = float(match.group(1)) if match else None
    if match is None:
        flow["errors"].append("campaign report has no injection-phase line")
    expected = wl.injections
    if wl.adaptive:
        sched = SCHEDULED_RE.search(text)
        expected = int(sched.group(1)) if sched else wl.injections
        if sched is None:
            flow["errors"].append("adaptive report has no scheduled count")
    flow["expected"] = expected
    flow["records"] = len(read_records(store))
    flow["store_bytes"] = os.path.getsize(store)
    flow["store_digest"] = file_digest(store)

    analyzed = os.path.join(work, f"{tag}.analyze.txt")
    code, analyze_wall, _, _ = spawn_and_watch(
        [cli, "analyze", store], analyzed, None)
    flow["campaign_s"] = wall + analyze_wall
    analysis_text = open(analyzed, errors="replace").read()
    if code != 0:
        flow["errors"].append(f"analyze exited {code}: {analysis_text[-400:]}")
    elif outcome_counts(analysis_text) != outcome_counts(text):
        flow["errors"].append("analyze outcome counts differ from the campaign's")
    return flow


# ---------------------------------------------------------------------------
# Correctness: re-execute a seeded sample of experiment indexes through the
# path the identity contract makes byte-identical (one worker, no
# checkpoints, same flags) and compare the records byte for byte.

REPLAY_RE = re.compile(r',"replay":\{[^{}]*\}(?=\}$)')


def canonical_record(line):
    """A record without its per-run replay stats (present only in shard and
    adaptive stores, and absent without checkpoints)."""
    return REPLAY_RE.sub("", line)


def compare_records(campaign, reference, indexes):
    """Indexes whose reference record is missing or differs from the
    campaign's record."""
    bad = []
    for i in indexes:
        if i not in reference or canonical_record(reference[i]) != canonical_record(campaign[i]):
            bad.append(i)
    return bad


def check_flow(cli, wl, flow, rng, work):
    """Returns (experiments checked, experiments failed, messages)."""
    campaign = read_records(flow["store"])
    if not campaign:
        return 0, 0, ["no records to check"]
    start = rng.choice(sorted(campaign))
    end = min(start + wl.check_span, wl.injections)
    indexes = [i for i in range(start, end) if i in campaign]
    ref_store = os.path.join(work, "reference.jsonl")
    if os.path.exists(ref_store):
        os.remove(ref_store)  # shard stores resume; start from scratch
    ref_log = os.path.join(work, "reference.txt")
    code, _, _, _ = spawn_and_watch(
        [cli, "shard", wl.program, *wl.flags, "--no-checkpoints",
         "--injections", str(wl.injections), "--seed", str(flow["seed"]),
         "--workers", "1", "--index-range", f"{start}:{end}", "--store", ref_store],
        ref_log, None)
    if code != 0:
        tail = open(ref_log, errors="replace").read()[-400:]
        return len(indexes), len(indexes), [f"reference shard exited {code}: {tail}"]
    reference = read_records(ref_store)
    bad = compare_records(campaign, reference, indexes)
    messages = [f"record {i} (seed {flow['seed']}) differs from its no-checkpoint "
                "single-worker re-execution" for i in bad]
    return len(indexes), len(bad), messages


# ---------------------------------------------------------------------------
# Exact counts: identical across every run of one seed with one binary.


def repeat_key(wl, seed, binary, mode, config):
    """Runs share exact counts only with the same binary, configuration and
    seed."""
    config = json.dumps([config, file_digest(binary)])
    return f"{wl.name}-seed{seed}-{mode}-{hashlib.sha256(config.encode()).hexdigest()[:16]}"


def check_repeat(key, exact):
    """Compares this run's exact counts with the first run recorded under
    `key`; returns the names present in both whose values drifted.  New
    names are added to the record."""
    path = os.path.join(build_dir(), "exact", key + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    first = {}
    if os.path.isfile(path):
        with open(path) as f:
            first = json.load(f)
    drift = sorted(name for name in set(first) & set(exact) if first[name] != exact[name])
    with open(path, "w") as f:
        json.dump({**exact, **first}, f, sort_keys=True)
    return drift


# ---------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_end_to_end(cli, wl, seed, seconds, work):
    flows = []
    begin = time.perf_counter()
    while True:
        flows.append(run_flow(cli, wl, campaign_seed(seed, len(flows)), work,
                              f"flow{len(flows)}"))
        if flows[-1]["errors"]:
            break
        flows[-1]["setup_probes"] = [probe_setup(cli, wl, flows[-1]["seed"], work)
                                     for _ in range(wl.setup_probes)]
        if None in flows[-1]["setup_probes"]:
            flows[-1]["errors"].append("store header never observed in a set-up probe")
            break
        elapsed = time.perf_counter() - begin
        if len(flows) >= MIN_FLOWS and elapsed * (len(flows) + 1) / len(flows) > seconds:
            break

    errors = [e for f in flows for e in f["errors"]]
    attempted = sum(f.get("expected", wl.injections) for f in flows)
    failed = sum(f.get("expected", wl.injections) - f.get("records", 0) for f in flows)
    if any(f["errors"] for f in flows):
        failed = max(failed, 1)
    checked = 0
    if not errors:
        rng = random.Random(seed)
        checked, bad, messages = check_flow(cli, wl, rng.choice(flows), rng, work)
        failed += bad
        errors += messages
    if not errors:
        exact = {f"flow{k}": [f["seed"], f["store_digest"], f["records"]]
                 for k, f in enumerate(flows)}
        drift = check_repeat(
            repeat_key(wl, seed, cli, "e2e", [wl.program, wl.flags, wl.injections]), exact)
        errors += [f"nondeterminism: {name} differs from an earlier run of seed {seed}"
                   for name in drift]

    if errors:
        return {"correct": False, "attempted": max(attempted, 1),
                "failed": max(failed, 1), "metrics": {}}, errors

    # Flows draw distinct experiments, so what differs between flows in
    # campaign time, throughput and store size is mostly the mix of fault
    # sites: those pool every flow.  Set-up and memory repeat the same work
    # in every flow: those take the median, set-up over the flows and the
    # set-up probes between them.
    injected = sum(f["records"] for f in flows)
    setups = [s for f in flows for s in [f["setup_s"], *f["setup_probes"]]]
    metrics = {
        "campaign_s": metric(statistics.mean(f["campaign_s"] for f in flows), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "experiments_per_s": metric(injected / sum(f["inject_wall"] for f in flows), "1/s"),
        "peak_rss_mb": metric(statistics.median(f["peak_rss"] for f in flows) / 1e6, "MB"),
        "store_mb": metric(statistics.mean(f["store_bytes"] for f in flows) / 1e6, "MB"),
    }
    log(f"perfbench {wl.name} seed {seed}: {len(flows)} flows, {len(setups)} set-up "
        f"samples, {injected} experiments, "
        f"{checked} re-executed and compared, failed_frac {failed / attempted:.4f}")
    for name, m in metrics.items():
        log(f"  {name:<18} {m['value']:.4f} {m['unit']}")
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics}, []


# Per-layer metrics of the traced run: (name, unit).
PER_LAYER = [
    ("sassim.golden_s", "s"), ("sassim.golden_minstr_per_s", "Minstr/s"),
    ("sassim.live_minstr_per_exp", "Minstr"), ("sassim.inject_minstr_per_s", "Minstr/s"),
    ("sassim.checkpoint_record_s", "s"), ("sassim.checkpoint_rss_mb", "MB"),
    ("sassim.ff_launches_per_exp", "count"), ("sassim.ff_cpu_s", "s"),
    ("sassim.replay_fallbacks", "count"),
    ("nvbit.profile_s", "s"), ("nvbit.profile_overhead_x", "ratio"),
    ("core.exp_ms_p50", "ms"), ("core.exp_ms_tail", "ms"), ("core.exp_ms_tail_pct", "%"),
    ("core.exp_samples", "count"), ("core.inject_cpu_s_per_exp", "s"),
    ("core.simulated_frac", "ratio"), ("core.pool_busy_frac", "ratio"),
    ("core.tail_idle_s", "s"),
    ("analysis.append_ms_per_exp", "ms"), ("analysis.header_kb", "KiB"),
    ("analysis.load_s", "s"),
    ("trace.inject_cpu_s_per_exp", "s"), ("trace.tracked_minstr_per_exp", "Minstr"),
    ("trace.tainted_frac", "ratio"),
    ("staticanalysis.build_s", "s"), ("staticanalysis.pruned_frac", "ratio"),
    ("adaptive.plan_s", "s"), ("adaptive.scheduled_frac", "ratio"),
    ("adaptive.rounds", "count"), ("adaptive.barrier_idle_s", "s"),
    ("bench.tracing_overhead_s", "s"),
]
BASE_LAYERS = ["sassim", "nvbit", "core", "analysis", "bench"]


class Probe:
    """A layer measured on one configuration only.  The traced run of its
    home workload measures it in its own pass; every other traced run adds a
    run of the per-layer driver for this layer alone."""

    def __init__(self, layer, home, program, layer_flags, injections, metrics):
        self.layer = layer
        self.home = home
        self.program = program
        self.layer_flags = layer_flags
        self.injections = injections
        self.metrics = metrics


PROBES = [
    Probe("trace", "taint", "303.ostencil", ["--taint"], 20,
          ["trace.inject_cpu_s_per_exp", "trace.tracked_minstr_per_exp",
           "trace.tainted_frac"]),
    # The oracle that fatkernel builds in its set-up; no campaign needed.
    Probe("staticanalysis", "fatkernel", "350.md", ["--static-prune"], 1,
          ["staticanalysis.build_s"]),
    # 350.md has no site the oracle can skip; 303.ostencil prunes ~3% of its
    # draws, so this probe runs the statically_masked skip path.
    Probe("staticprune", None, "303.ostencil", ["--static-prune"], 200,
          ["staticanalysis.pruned_frac"]),
    Probe("adaptive", "adaptive", "354.cg", ["--adaptive", "--ci-width", "0.2"], 240,
          ["adaptive.plan_s", "adaptive.scheduled_frac", "adaptive.rounds",
           "adaptive.barrier_idle_s"]),
]


def self_times(trace_path):
    """Per-layer self time: each span's duration minus the part of it that
    its child spans cover."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    totals = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, reach = 0.0, start
        for c in sorted(children.get(e["args"]["id"], []), key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], reach), min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[e["cat"]] = totals.get(e["cat"], 0.0) + (e["dur"] - covered) / 1e6
    return totals


def run_layers(layers, program, layer_flags, seed, injections, layer_set, work, tag):
    """Runs the per-layer driver once; returns its parsed output."""
    out = os.path.join(work, f"{tag}.json")
    trace_path = os.path.join(build_dir(), "traces", f"{tag}-seed{seed}.trace.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    args = [layers, "--program", program, *layer_flags,
            "--injections", str(injections), "--seed", str(campaign_seed(seed, 0)),
            "--workers", str(WORKERS), "--layers", ",".join(layer_set),
            "--work", work, "--json-out", out, "--trace-out", trace_path]
    code = subprocess.run(args, stdout=sys.stderr).returncode
    if code != 0 or not os.path.isfile(out):
        return {"errors": [f"per-layer driver exited {code} on {tag}"]}
    with open(out) as f:
        result = json.load(f)
    result["trace_path"] = trace_path
    return result


def run_traced(layers, wl, seed, work):
    main_layers = BASE_LAYERS + [p.layer for p in PROBES if p.home == wl.name]
    main = run_layers(layers, wl.program, wl.layer_flags, seed, wl.traced_injections,
                      main_layers, work, wl.name)
    probes = [(p, run_layers(layers, p.program, p.layer_flags, seed, p.injections,
                             [p.layer], work, f"{wl.name}-probe-{p.layer}"))
              for p in PROBES if p.home != wl.name]
    errors = [e for r in [main, *(r for _, r in probes)] for e in r.get("errors", [])]
    if errors:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, errors

    # A probe contributes only its own layer's figures.
    values, exact = dict(main["metrics"]), dict(main["exact"])
    for probe, result in probes:
        values.update((k, result["metrics"][k]) for k in probe.metrics)
        exact.update((k, result["exact"][k]) for k in probe.metrics if k in result["exact"])
    exp_ms = main["samples"]["core.exp_ms"]
    tail = stats.tail(exp_ms) or (50.0, stats.percentile(exp_ms, 50), 0)
    values.update({"core.exp_ms_p50": stats.percentile(exp_ms, 50),
                   "core.exp_ms_tail": tail[1], "core.exp_ms_tail_pct": tail[0],
                   "core.exp_samples": len(exp_ms)})
    config = [wl.program, wl.layer_flags, wl.traced_injections,
              [vars(p) for p in PROBES if p.home != wl.name]]
    drift = check_repeat(repeat_key(wl, seed, layers, "layers", config), exact)
    errors = [f"nondeterminism: {name} differs from an earlier traced run of seed {seed}"
              for name in drift]

    log(f"perfbench traced {wl.name} seed {seed}: {len(exp_ms)} experiment samples, "
        f"tail p{tail[0]:g} with {tail[2]} samples beyond; spans in {main['trace_path']}")
    for name, unit in PER_LAYER:
        log(f"  {name:<32} {values[name]:.6g} {unit}{'  (exact)' if name in exact else ''}")
    log("  self time by layer (span minus child spans):")
    for layer, seconds in sorted(self_times(main["trace_path"]).items()):
        log(f"    {layer:<16} {seconds:.4f} s")
    log(f"  tracing overhead: {values['bench.tracing_overhead_s']:+.4f} s, median over "
        f"pairs of traced - untraced pass (pass medians: traced "
        f"{values['bench.flow_traced_s']:.4f} s, untraced {values['bench.flow_untraced_s']:.4f} s)")
    result = {"correct": not errors, "attempted": int(values["bench.experiments"]),
              "failed": len(errors),
              "metrics": {name: metric(values[name], unit) for name, unit in PER_LAYER}}
    return result, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cli", help="use this nvbitfi binary instead of building one")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    signal.signal(signal.SIGTERM, _terminate)

    if args.cli:
        paths = {"nvbitfi": args.cli}
    else:
        targets = ["nvbitfi"] + (["perfbench_layers"] if args.trace else [])
        try:
            paths = build(targets)
        except (OSError, subprocess.CalledProcessError) as error:
            log(f"perfbench: build failed ({error}); see {build_dir()}/build.log")
            return 2
        if paths["nvbitfi"] is None:
            log(f"perfbench: nvbitfi did not build; see {build_dir()}/build.log")
            return 2

    work = os.path.join(build_dir(), f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.trace:
            if paths.get("perfbench_layers") is None:
                log(f"perfbench: the per-layer driver did not build; see "
                    f"{build_dir()}/build.log")
                return 2
            result, errors = run_traced(paths["perfbench_layers"], wl, args.seed, work)
        else:
            result, errors = run_end_to_end(paths["nvbitfi"], wl, args.seed, args.seconds,
                                            work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in errors:
        log(f"perfbench: FAILED: {error}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
