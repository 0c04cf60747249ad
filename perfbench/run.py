#!/usr/bin/env python3
"""Pipeline benchmark for `mhm2rs assemble`.

Run from the repository root:

    python3 perfbench/run.py --workload wa-overlap --seed 1 --seconds 45 --trace 0

It builds the harness in this directory (cargo, release), generates the
workload's FASTQ from the seed, then runs `mhm2rs assemble` (the harness
calls `mhm::cli::run` with the same argv) back to back, one fresh process
per call, for `--seconds` seconds: a closed loop with one client. It checks
the outputs, prints every metric with its unit, and ends with one JSON line:
end-to-end metrics with `--trace 0`, the per-layer ledger with `--trace 1`.

`--trace 1` also re-runs the workload once with the benchmark's own spans
around each layer call (see src/traced.rs), writes the spans to
perfbench/work/, and requires its contigs to be byte-identical to the
untraced ones. BENCHMARK.json names every metric with its unit and
direction; metrics.json adds its layer and the end-to-end metric it should
move.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("arctic-cpu", "wa-overlap", "arctic-iterative")
STEP_TIMEOUT_S = 170
# Set-ups before the first assemble and after each one; setup_s is the
# median of them all. One set-up is well under a second, so a single one is
# mostly noise, and host speed drifts over a run: spreading the set-ups over
# the run's whole span samples the same host as the assembles do.
SETUPS_PER_GAP = 4
# A run whose contigs have lower precision than this is a wrong assembly.
MIN_PRECISION = 0.95
LAYERS = ("bioseq", "mhm", "dbg", "align", "locassm", "gpusim")


class BenchError(Exception):
    """The benchmark could not measure at all (no result is printed)."""


def load_spec():
    """BENCHMARK.json's metrics (name, unit, direction) by section, each with
    its extra fields from metrics.json (section, layer, what it moves)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        extra = json.load(f)["metrics"]
    return {part: [dict(m, **extra[m["name"]]) for m in declared[part]]
            for part in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------- statistics


def tail_percentile(samples):
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
    beyond it, as (p, nearest-rank value); None when there are too few."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return None


def summarize(samples):
    """Median, tail percentile and sample count, as one line of text."""
    tail = tail_percentile(samples)
    tail_txt = f"p{tail[0]:g} {tail[1]:.4f}" if tail else "no tail percentile (fewer than 20 samples)"
    return f"median of n={len(samples)}; {tail_txt}"


# ---------------------------------------------------------------- the ledger


def self_times(spans):
    """Each span's duration minus the part of its interval its children
    cover (overlapping children counted once, clipped to the parent)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_s"], s["end_s"]
        covered, cur = 0.0, None
        for a, b in sorted((max(c["start_s"], lo), min(c["end_s"], hi)) for c in children[s["id"]]):
            if b <= a:
                continue
            if cur is None or a > cur[1]:
                covered += cur[1] - cur[0] if cur else 0.0
                cur = [a, b]
            else:
                cur[1] = max(cur[1], b)
        covered += cur[1] - cur[0] if cur else 0.0
        out[s["id"]] = (hi - lo) - covered
    return out


def descendants(spans, root_id):
    """Ids of the spans under `root_id` (the root excluded)."""
    parent = {s["id"]: s["parent"] for s in spans}
    found = set()
    for s in spans:
        p = s["parent"]
        while p is not None and p != root_id:
            p = parent[p]
        if p == root_id:
            found.add(s["id"])
    return found


def ledger(trace, fastq_bytes, assemble_median_s):
    """Per-layer metrics from a traced run's spans and counters."""
    spans, c = trace["spans"], trace["counters"]
    dur = {s["id"]: s["end_s"] - s["start_s"] for s in spans}
    root = next(s for s in spans if s["name"] == "bench.assemble")
    inside = descendants(spans, root["id"])
    selfs = self_times(spans)

    def total(name, keep=lambda s: True):
        return sum(dur[s["id"]] for s in spans if s["name"] == name and keep(s))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s["id"] in inside:
            layer_self[s["layer"]] = layer_self.get(s["layer"], 0.0) + selfs[s["id"]]
    total_s = dur[root["id"]]
    m = {
        "bioseq.ingest_s": total("bioseq.ingest"),
        "bioseq.write_fasta_s": total("bioseq.write_fasta"),
        "mhm.merge_s": total("mhm.merge"),
        "mhm.merge_merged_frac": ratio(c.get("mhm.merged", 0), c.get("mhm.pairs_in", 0)),
        "mhm.scaffold_s": total("mhm.scaffold"),
        "mhm.scaffolds": c.get("mhm.scaffolds", 0),
        "mhm.ref_eval_s": total("mhm.ref_eval"),
        "dbg.count_s": total("dbg.count"),
        "dbg.count_wide_s": total("dbg.count", lambda s: (s["k"] or 0) > 32),
        "dbg.kmer_instances": c.get("dbg.kmer_instances", 0),
        "dbg.distinct_kmers": c.get("dbg.distinct_kmers", 0),
        "dbg.surviving_kmers": c.get("dbg.surviving_kmers", 0),
        "dbg.singleton_frac": ratio(c.get("dbg.singleton_kmers", 0), c.get("dbg.distinct_kmers", 0)),
        "dbg.contig_gen_s": total("dbg.contig_gen"),
        "dbg.contigs": c.get("dbg.contigs", 0),
        "align.index_s": total("align.index"),
        "align.candidates_s": total("align.candidates"),
        "align.candidate_reads": c.get("align.candidate_reads", 0),
        "align.sw_s": total("align.sw"),
        "align.sw_calls": c.get("align.sw_calls", 0),
        "locassm.host_s": total("locassm.tasks") + total("locassm.extend") + total("locassm.apply"),
        "trace.total_s": total_s,
        "trace.overhead_s": total_s - assemble_median_s,
        "trace.attributed_frac": ratio(sum(layer_self.values()), total_s),
    }
    m["bioseq.ingest_mb_per_s"] = ratio(fastq_bytes / 1e6, m["bioseq.ingest_s"])
    m["dbg.kmers_per_s"] = ratio(m["dbg.kmer_instances"], m["dbg.count_s"])
    for name in (
        "locassm.tasks", "locassm.bin2_tasks", "locassm.bin3_tasks", "locassm.failed_tasks",
        "locassm.bases_appended", "locassm.cpu_host_s", "locassm.gpu_host_s",
        "locassm.device_kernel_s", "locassm.device_pack_s", "locassm.device_pack_hidden_s",
        "locassm.makespan_s", "locassm.cpu_batches", "locassm.gpu_batches",
        "gpusim.warp_insts", "gpusim.global_transactions", "gpusim.launches",
    ):
        m[name] = c.get(name, 0)
    m["gpusim.warp_insts_per_host_s"] = ratio(m["gpusim.warp_insts"], m["locassm.gpu_host_s"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


# ---------------------------------------------------------------- processes


def build():
    """Build the harness; return the path of its executable."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=dict(os.environ, CARGO_TARGET_DIR=target),
                              stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"building the harness failed: {e}")
    if done.returncode != 0:
        raise BenchError(f"building the harness failed (exit {done.returncode})")
    return os.path.join(target, "release", "perfbench")


class Harness:
    def __init__(self, exe, workload, wdir, threads):
        self.exe, self.workload, self.wdir = exe, workload, wdir
        self.env = dict(os.environ, RAYON_NUM_THREADS=str(threads))

    def step(self, sub, *extra, wdir=None):
        """Run one harness subcommand in a fresh process, on the run's
        directory unless `wdir` is given. Returns (record, None) or (None,
        error text)."""
        cmd = [self.exe, sub, "--workload", self.workload, "--dir", wdir or self.wdir, *extra]
        try:
            p = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                               timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"{sub}: timed out after {STEP_TIMEOUT_S} s"
        if p.returncode != 0:
            return None, f"{sub}: exit {p.returncode}: {p.stderr.strip()[-400:]}"
        try:
            return json.loads(p.stdout.strip().splitlines()[-1]), None
        except (ValueError, IndexError):
            return None, f"{sub}: unreadable output {p.stdout[-200:]!r}"


def digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def commit_sha():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown (not a git checkout)"


# ---------------------------------------------------------------- one run


def run(args):
    metrics_spec = load_spec()
    exe = build()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    requested = os.environ.get("RAYON_NUM_THREADS", "")
    threads = min(int(requested), nproc) if requested.isdigit() and int(requested) > 0 else nproc
    wdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    try:
        return measure(args, metrics_spec, Harness(exe, args.workload, wdir, threads), nproc, threads)
    finally:
        shutil.rmtree(wdir, ignore_errors=True)


class Tally:
    """Runs attempted and failed, and what went wrong."""

    def __init__(self):
        self.attempted, self.failed, self.problems = 0, 0, []

    def fail(self, problem, counts=True):
        self.failed += counts
        self.problems.append(problem)


def set_up(args, h, setups, wdir):
    """Generate the inputs SETUPS_PER_GAP times into `wdir`, each in its own
    process, appending the records to `setups`."""
    flags = ["--scale-factor", repr(args.scale_factor)]
    if args.seed is not None:
        flags += ["--seed", str(args.seed)]
    files = [os.path.join(wdir, f) for f in ("reads_1.fastq", "reads_2.fastq", "refs.fasta")]
    for _ in range(SETUPS_PER_GAP):
        rec, err = h.step("setup", *flags, wdir=wdir)
        if rec is None:
            raise BenchError(f"set-up failed: {err}")
        rec["digest"] = digest(*files)
        setups.append(rec)
    # Write the inputs back now, untimed, rather than in the background
    # while the next assemble is timed.
    for path in files:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def assemble_loop(args, h, tally, setups):
    """Closed loop, one client: assembles back to back while the next one
    should end within `--seconds` of assembling (at least one). Set-ups run
    between them into a directory of their own, so the assembles' inputs
    stay as the first set-ups wrote them. Every set-up must write the same
    inputs and every run's output must match the first run's byte for byte.
    Returns the successful records."""
    asm = os.path.join(h.wdir, "asm")
    spare = os.path.join(h.wdir, "setup")
    runs, streak, busy = [], 0, 0.0
    while streak < 3:
        t = time.monotonic()
        rec, err = h.step("assemble")
        busy += time.monotonic() - t
        tally.attempted += 1
        if rec is None:
            streak += 1
            tally.fail(f"assemble {tally.attempted}: {err}")
        else:
            streak = 0
            rec["digest"] = digest(os.path.join(asm, "contigs.fasta"), os.path.join(asm, "scaffolds.fasta"))
            runs.append(rec)
        set_up(args, h, setups, spare)
        typical = statistics.median(r["assemble_s"] for r in runs) if runs else 0.0
        if busy + typical > args.seconds:
            break
    if len({s["digest"] for s in setups}) != 1:
        tally.fail("set-up is not deterministic: inputs differ between set-ups", counts=False)
    for i, r in enumerate(runs):
        if r["digest"] != runs[0]["digest"]:
            tally.fail(f"assemble {i + 1}: contigs differ from the first run's")
    return runs


def evaluate(h, tally):
    """Quality of the untraced output against the refs, or None."""
    quality, err = h.step("eval")
    if quality is None:
        tally.fail(f"evaluation failed: {err}", counts=False)
    elif quality["contigs"] < 1 or quality["precision"] < MIN_PRECISION:
        tally.fail(f"wrong assembly: {quality['contigs']} contigs, precision {quality['precision']:.4f}")
    return quality


def traced_run(args, h, tally, reference_digest, inputs, assemble_median):
    """The traced re-run, its checks, and the per-layer ledger (None if it
    failed). The spans are kept in perfbench/work/."""
    tally.attempted += 1
    rec, err = h.step("traced", "--run", f"{args.workload}-seed{inputs['seed']}-pid{os.getpid()}")
    if rec is None:
        tally.fail(f"traced run: {err}")
        return None
    traced_dir = os.path.join(h.wdir, "traced")
    bad = []
    if digest(os.path.join(traced_dir, "contigs.fasta"), os.path.join(traced_dir, "scaffolds.fasta")) != reference_digest:
        bad.append("traced contigs differ from the untraced runs'")
    if not rec["schedule_matches"]:
        bad.append("its overlap scheduler settings differ from the timed runs' report")
    if not rec["census_consistent"]:
        bad.append("min_count=1 census disagrees with the timed k-mer count")
    if rec["cpu_equals_overlap"] is False:
        bad.append("extend_all_cpu_isolated differs from the overlap driver")
    if bad:
        tally.fail("traced run: " + "; ".join(bad))
    shutil.copyfile(rec["trace"], os.path.join(HERE, "work", f"trace-{args.workload}-seed{inputs['seed']}.json"))
    with open(rec["trace"]) as f:
        return ledger(json.load(f), inputs["fastq_bytes"], assemble_median)


def measure(args, spec, h, nproc, threads):
    tally = Tally()
    setups = []
    set_up(args, h, setups, h.wdir)
    inputs = setups[0]
    runs = assemble_loop(args, h, tally, setups)
    quality = evaluate(h, tally) if runs else None

    assemble_s = [r["assemble_s"] for r in runs]
    rss = [r["peak_rss_mb"] for r in runs]
    setup_s = [s["setup_s"] for s in setups]
    end_to_end = {"setup_s": (statistics.median(setup_s), summarize(setup_s))}
    if runs:
        end_to_end["assemble_s"] = (statistics.median(assemble_s), summarize(assemble_s))
        end_to_end["peak_rss_mb"] = (statistics.median(rss), summarize(rss))
    if quality:
        for name in ("genome_fraction", "precision", "contig_n50"):
            end_to_end[name] = (quality[name], "from the output FASTA")

    layer = None
    if args.trace and runs:
        layer = traced_run(args, h, tally, runs[0]["digest"], inputs, end_to_end["assemble_s"][0])
        if layer is not None:
            layer["mhm.scaffold_n50"] = quality["scaffold_n50"] if quality else 0

    # ---- report
    out = [
        f"perfbench: workload {args.workload}, seed {inputs['seed']}, community seed "
        f"{inputs['community_seed']} (the preset's, {inputs['preset']}), closed loop, 1 client, "
        f"{args.seconds:g} s",
        f"  commit {commit_sha()}; nproc {nproc}; threads {threads} (RAYON_NUM_THREADS)",
        f"  inputs: {inputs['pairs']} pairs, {inputs['bases']} bases, {inputs['fastq_bytes']} FASTQ "
        f"bytes, {inputs['genomes']} genomes, {inputs['ref_bases']} reference bases",
        f"  assemble argv: {runs[0]['argv'] if runs else '-'}",
        "  assemble_s samples: " + " ".join(f"{r['assemble_s']:.3f}" for r in runs)
        + "; process CPU s: " + " ".join(f"{r['process_cpu_s']:.2f}" for r in runs),
        "end to end:",
    ]
    for m in spec["end_to_end"]:
        if m["name"] in end_to_end:
            v, how = end_to_end[m["name"]]
            out.append(f"  {m['name']:<18} {v:>14.6g} {m['unit']:<9} ({how})")
    out.append("  reported without a bound:")
    if quality:
        out.append(f"  {'scaffold_n50':<18} {quality['scaffold_n50']:>14.6g} {'bp':<9} (from the output FASTA)")
    out.append(f"  {'failed_frac':<18} {tally.failed / max(tally.attempted, 1):>14.6g} {'fraction':<9} "
               f"({tally.failed} of {tally.attempted} runs)")
    if layer is not None:
        for section, title in (("host", "per layer, host seconds"),
                               ("count", "per layer, counts"),
                               ("device", "simulated device (never added to host seconds)")):
            out.append(f"{title}:")
            out.extend(f"  {m['name']:<30} {layer[m['name']]:>16.6g} {m['unit']}"
                       for m in spec["per_layer"] if m["section"] == section)
    out.extend(f"CHECK FAILED: {p}" for p in tally.problems)
    print("\n".join(out))

    if args.trace:
        chosen = [(m, layer[m["name"]]) for m in spec["per_layer"]] if layer else []
    else:
        chosen = [(m, end_to_end[m["name"]][0]) for m in spec["end_to_end"] if m["name"] in end_to_end]
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": v, "unit": m["unit"]} for m, v in chosen},
    }))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="read-simulation seed (used as seed << 16 | 1); default: the preset's own")
    ap.add_argument("--seconds", type=float, default=45.0,
                    help="time budget for the assembles: another starts while it should end "
                         "within the budget (at least one runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale-factor", type=float, default=1.0,
                    help="multiply the workload's preset scale (the self-test uses tiny inputs)")
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.scale_factor <= 0:
        ap.error("--scale-factor must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
