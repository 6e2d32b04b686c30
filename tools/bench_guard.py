#!/usr/bin/env python3
"""Guard engine and datapath performance invariants in CI.

Six modes:

sync (default) — reads a google-benchmark JSON file (--benchmark_out)
containing BM_ClusterIncastSharded rows and checks that the fused
parallel engine capped at one worker (par:1/threads:1) retains at least
a minimum fraction of the sequential reference's event throughput
(par:0) at the same cluster shape.  That ratio is the engine's "sync
tax" with all parallelism removed: fusion + the solo-worker fast path
should make it a few percent, and a regression here means every
multi-threaded run pays more too.

packet (--mode packet) — reads a BENCH_packet.json trajectory written
by bench/microbench_packet and enforces the allocation-free datapath
contract: every benchmark in the newest entry must report exactly 0
allocs_per_packet, and throughput must not have fallen more than
--max-regression (default 20%) below the previous trajectory entry for
the same benchmark (first runs pass vacuously).

scale (--mode scale) — reads a BENCH_scale.json trajectory written by
bench/microbench_scale and enforces the paper-scale memory-diet floors
on the newest entry: the 32k-node run must hold at least
--min-nodes-per-gb (default 4000, i.e. peak RSS under 8 GB for the
paper's 32,768-node datacenter), sustain at least --min-events-per-sec
engine throughput (default 50k — conservative for shared runners), its
sequential and parallel executions must have been bit-identical
(seq_par_identical == 1, covering the chained sketch fingerprints), and
the sketch fold must be at least --min-sketch-speedup (default 10x)
faster than the raw SampleSet fold at equal sample counts.

multicore (--mode multicore) — reads the same --benchmark_out JSON as
sync mode, but checks the *other* direction: that adding workers buys
real speedup.  The core count is the smallest `cores` counter the
rows report: the CPUs the benchmark's affinity mask allowed (a taskset'd
run reports what it got, where google-benchmark's num_cpus counts every
online CPU).  For every BM_ClusterIncastSharded par:1 row whose worker
count W (min(threads, racks), with threads:0 meaning all cores) fits
the runner — 2 <= W <= cores — the parallel throughput must be at
least --scale-factor * W times the sequential (par:0) reference at the
same shape (default 0.7, i.e. >=1.4x at two workers).  Each row also
prints its Amdahl bound, 1/share, from the `max_part_share` counter
(the busiest partition's share of executed events): no engine that
places whole partitions on workers can beat it, so a floor above it is
unreachable.  Oversubscribed rows are reported but not scored.  On a
single-core runner the mode
prints an explicit SKIPPED line and exits 0 — it never passes
vacuously without saying so.  Pass --fame-json BENCH_fame.json to also
enforce the raw barrier floor: every non-oversubscribed
BM_FameBarrierRoundTrip row with >=2 workers in the newest trajectory
entry must sustain --min-barrier-qps quanta per second (default 1e6).

transport (--mode transport) — reads a BENCH_transport.json
trajectory written by bench/microbench_transport and enforces the
cross-process engine floors on the newest entry: shm ring round-trip
time at most --max-rtt-ns (default 50us), coupled window-publication
rate at least --min-sync-per-sec (default 5e4), and the two-copy coupled
incast
retaining at least --min-pair-ratio (default 0.5) of the sequential
reference's event throughput.  The structural check — all four rows
present — always runs, but the timing floors are only scored when the
rows report cores >= 2 and no oversubscription: on a single-core runner
both sides of every ping-pong timeshare one CPU, so the mode prints an
explicit SKIPPED line and exits 0 rather than passing vacuously.

sweep (--mode sweep) — reads the report.json a diablo_sweep run
directory contains (no stdout scraping: the merged report is the
machine-readable contract) and enforces that every grid point ran to
completion (exit_code 0 with a parseable artifact) and that every
engine cross-check group — grid points identical except for the engine
— produced bit-identical run fingerprints.

Usage:
    bench_guard.py <benchmark.json> [--racks N] [--min-ratio R]
    bench_guard.py <benchmark.json> --mode multicore [--scale-factor F]
    bench_guard.py BENCH_packet.json --mode packet [--max-regression F]
    bench_guard.py BENCH_scale.json --mode scale [--min-nodes-per-gb N]
    bench_guard.py BENCH_transport.json --mode transport [--max-rtt-ns N]
    bench_guard.py sweep-out/report.json --mode sweep

Exit status 0 when the invariants hold, 1 on a regression or missing
rows.  Timings on shared CI runners are noisy, so the default floors
(0.8 sync ratio, 20% packet regression) are far below what an idle host
measures: these catch cliffs, not jitter.  allocs_per_packet has no
tolerance at all — one allocation on the steady-state path is a leak of
the whole design.
"""

import argparse
import json
import sys


def run_args(name):
    """Parse 'BM_X/par:1/racks:4/...' into {'par': 1, 'racks': 4, ...}."""
    out = {}
    for part in name.split("/")[1:]:
        if ":" in part:
            key, _, val = part.partition(":")
            try:
                out[key] = int(val)
            except ValueError:
                pass
    return out


def items_per_second(bench):
    ips = bench.get("items_per_second")
    if ips is None:
        raise SystemExit(
            f"bench_guard: no items_per_second in {bench.get('name')}")
    return float(ips)


def newest_entry(path):
    """Newest and previous entries of a BENCH_*.json trajectory.

    The previous entry is {} for a one-entry trajectory.  Returns
    (None, None), after saying why, when the file is not a non-empty
    trajectory.
    """
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list) or not data:
        print(f"bench_guard: {path} is not a non-empty trajectory",
              file=sys.stderr)
        return None, None
    return data[-1], data[-2] if len(data) >= 2 else {}


def find_bench(benches, prefix):
    """First row whose name starts with `prefix`, or None."""
    for bench in benches:
        if bench.get("name", "").startswith(prefix):
            return bench
    return None


def sharded_rows(path, racks):
    """(args, row) of every BM_ClusterIncastSharded row at `racks`."""
    with open(path) as f:
        data = json.load(f)
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "")
        if not name.startswith("BM_ClusterIncastSharded/"):
            continue
        args = run_args(name)
        if args.get("racks") == racks:
            yield args, bench


def check_sync(path, racks, min_ratio):
    """The solo-worker parallel engine keeps the sequential throughput."""
    seq = par1 = None
    for args, bench in sharded_rows(path, racks):
        if args.get("par") == 0:
            seq = items_per_second(bench)
        elif args.get("par") == 1 and args.get("threads") == 1:
            par1 = items_per_second(bench)

    if seq is None or par1 is None:
        print(f"bench_guard: missing BM_ClusterIncastSharded rows at "
              f"racks={racks} (seq={seq}, par1={par1}) in "
              f"{path}", file=sys.stderr)
        return 1

    ratio = par1 / seq
    verdict = "OK" if ratio >= min_ratio else "REGRESSION"
    print(f"bench_guard: racks={racks} seq={seq:.3e} "
          f"par(threads=1)={par1:.3e} items/s "
          f"ratio={ratio:.3f} (floor {min_ratio}) {verdict}")
    return 0 if ratio >= min_ratio else 1


def check_packet(path, max_regression):
    """Enforce the allocation-free datapath contract on a trajectory."""
    entry, prev_entry = newest_entry(path)
    if entry is None:
        return 1

    newest = entry.get("benchmarks", [])
    if not newest:
        print(f"bench_guard: newest entry in {path} has no benchmarks",
              file=sys.stderr)
        return 1
    previous = prev_entry.get("benchmarks", [])
    prev_ips = {b.get("name"): b.get("items_per_second")
                for b in previous}

    failed = False
    for bench in newest:
        name = bench.get("name", "?")
        allocs = bench.get("allocs_per_packet")
        if allocs is None:
            print(f"bench_guard: {name}: no allocs_per_packet counter",
                  file=sys.stderr)
            failed = True
            continue
        ips = items_per_second(bench)
        verdict = "OK"
        if float(allocs) != 0.0:
            verdict = f"ALLOC-REGRESSION ({allocs} allocs/packet)"
            failed = True
        old = prev_ips.get(name)
        if old and ips < (1.0 - max_regression) * float(old):
            verdict = (f"THROUGHPUT-REGRESSION "
                       f"({ips:.3e} < {1.0 - max_regression:.2f} * "
                       f"{float(old):.3e})")
            failed = True
        print(f"bench_guard: {name} items/s={ips:.3e} "
              f"allocs/pkt={allocs} {verdict}")
    return 1 if failed else 0


def check_scale(path, min_nodes_per_gb, min_events_per_sec,
                min_sketch_speedup):
    """Enforce the paper-scale memory/throughput/determinism floors."""
    entry, _ = newest_entry(path)
    if entry is None:
        return 1

    newest = {b.get("name"): b
              for b in entry.get("benchmarks", [])}.values()

    failed = False

    run = find_bench(newest, "BM_Memcached32kUdp")
    if run is None:
        print("bench_guard: newest entry has no BM_Memcached32kUdp row",
              file=sys.stderr)
        failed = True
    else:
        nodes_per_gb = float(run.get("nodes_per_gb", 0))
        events = items_per_second(run)
        identical = float(run.get("seq_par_identical", 0))
        verdict = "OK"
        if nodes_per_gb < min_nodes_per_gb:
            verdict = (f"MEMORY-REGRESSION (nodes/GB {nodes_per_gb:.0f} "
                       f"< floor {min_nodes_per_gb})")
            failed = True
        if events < min_events_per_sec:
            verdict = (f"THROUGHPUT-REGRESSION (events/s {events:.3e} "
                       f"< floor {min_events_per_sec:.3e})")
            failed = True
        if identical != 1.0:
            verdict = "DETERMINISM-REGRESSION (seq != par)"
            failed = True
        print(f"bench_guard: 32k run nodes/GB={nodes_per_gb:.0f} "
              f"peak_rss_mb={run.get('peak_rss_mb', '?')} "
              f"events/s={events:.3e} seq_par_identical={identical:g} "
              f"{verdict}")

    raw = find_bench(newest, "BM_SampleSetFoldPercentile")
    sketch = find_bench(newest, "BM_SketchFoldPercentile")
    if raw is None or sketch is None:
        print("bench_guard: newest entry is missing the fold benchmarks",
              file=sys.stderr)
        failed = True
    else:
        raw_ns = float(raw.get("real_ns_per_iter", 0))
        sketch_ns = float(sketch.get("real_ns_per_iter", 0))
        if raw.get("total_samples") != sketch.get("total_samples"):
            print("bench_guard: fold benchmarks ran unequal sample "
                  "counts", file=sys.stderr)
            failed = True
        speedup = raw_ns / sketch_ns if sketch_ns > 0 else 0.0
        verdict = ("OK" if speedup >= min_sketch_speedup else
                   f"SKETCH-REGRESSION (speedup {speedup:.1f} < floor "
                   f"{min_sketch_speedup})")
        if speedup < min_sketch_speedup:
            failed = True
        print(f"bench_guard: stats fold raw={raw_ns / 1e6:.3f}ms "
              f"sketch={sketch_ns / 1e6:.3f}ms speedup={speedup:.1f}x "
              f"(floor {min_sketch_speedup}x) {verdict}")

    return 1 if failed else 0


def check_multicore(path, racks, scale_factor, fame_json,
                    min_barrier_qps):
    """Adding workers must buy real speedup on a multi-core runner."""
    seq = None
    par_rows = []
    row_cores = []
    for args, bench in sharded_rows(path, racks):
        row_cores.append(bench.get("cores"))
        if args.get("par") == 0:
            seq = items_per_second(bench)
        elif args.get("par") == 1:
            par_rows.append((args.get("threads", 0),
                             items_per_second(bench), bench["name"],
                             bench.get("max_part_share")))

    if seq is None or not par_rows:
        print(f"bench_guard: missing BM_ClusterIncastSharded rows at "
              f"racks={racks} (seq={seq}, par rows={len(par_rows)}) in "
              f"{path}", file=sys.stderr)
        return 1
    if None in row_cores:
        print(f"bench_guard: BM_ClusterIncastSharded rows at racks={racks} "
              f"in {path} carry no cores counter", file=sys.stderr)
        return 1

    cores = int(min(float(c) for c in row_cores))
    if cores < 2:
        print(f"bench_guard: multicore SKIPPED — rows report {cores} "
              f"CPU(s); parallel scaling is not measurable here (this "
              f"is an explicit skip, not a pass)")
        return 0

    failed = False
    scored = 0
    for threads, ips, name, share in sorted(par_rows):
        workers = min(threads if threads else cores, racks)
        if workers < 2:
            # The solo-worker row is the sync-tax guard's business.
            continue
        ratio = ips / seq
        if workers > cores:
            print(f"bench_guard: {name} workers={workers} > cores="
                  f"{cores}, oversubscribed row not scored "
                  f"(ratio={ratio:.2f})")
            continue
        floor = scale_factor * workers
        verdict = "OK" if ratio >= floor else "SCALING-REGRESSION"
        if ratio < floor:
            failed = True
        scored += 1
        print(f"bench_guard: {name} workers={workers} cores={cores} "
              f"par={ips:.3e} seq={seq:.3e} items/s "
              f"speedup={ratio:.2f}x (floor {floor:.2f}x, "
              f"{amdahl_bound(share, floor)}) {verdict}")
    if scored == 0:
        print(f"bench_guard: no scoreable multi-worker rows at "
              f"racks={racks} on a {cores}-core runner — add a "
              f"threads:2 row", file=sys.stderr)
        failed = True

    if fame_json is not None:
        failed |= check_barrier_floor(fame_json, cores, min_barrier_qps)

    return 1 if failed else 0


def amdahl_bound(share, floor):
    """'Amdahl bound Bx' for a busiest-partition share, noting a floor
    above it; rows without the counter predate it."""
    if not share:
        return "Amdahl bound n/a"
    bound = 1.0 / float(share)
    note = ", floor above it" if floor > bound else ""
    return f"Amdahl bound {bound:.2f}x{note}"


def check_barrier_floor(path, cores, min_barrier_qps):
    """Raw barrier throughput floor from the fame trajectory."""
    entry, _ = newest_entry(path)
    if entry is None:
        return True

    failed = False
    scored = 0
    for bench in entry.get("benchmarks", []):
        name = bench.get("name", "")
        if not name.startswith("BM_FameBarrierRoundTrip/"):
            continue
        workers = float(bench.get("workers", 0))
        if workers < 2 or float(bench.get("oversubscribed", 0)) != 0.0:
            continue
        qps = items_per_second(bench)
        verdict = ("OK" if qps >= min_barrier_qps else
                   f"BARRIER-REGRESSION (< floor {min_barrier_qps:.1e})")
        if qps < min_barrier_qps:
            failed = True
        scored += 1
        print(f"bench_guard: {name} workers={workers:g} "
              f"quanta/s={qps:.3e} {verdict}")
    if scored == 0:
        print(f"bench_guard: no non-oversubscribed multi-worker "
              f"BarrierRoundTrip rows in {path} newest entry "
              f"(cores={cores})", file=sys.stderr)
        failed = True
    return failed


def check_transport(path, max_rtt_ns, min_sync_per_sec, min_pair_ratio):
    """Enforce the cross-process transport floors on a trajectory."""
    entry, _ = newest_entry(path)
    if entry is None:
        return 1

    newest = entry.get("benchmarks", [])
    rtt = find_bench(newest, "BM_ShmRingRoundTrip")
    sync = find_bench(newest, "BM_CoupledSyncRate")
    seq = find_bench(newest, "BM_CoupledIncastSeq")
    pair = find_bench(newest, "BM_CoupledIncastPair")
    missing = [label for label, bench in
               [("BM_ShmRingRoundTrip", rtt),
                ("BM_CoupledSyncRate", sync),
                ("BM_CoupledIncastSeq", seq),
                ("BM_CoupledIncastPair", pair)] if bench is None]
    if missing:
        print(f"bench_guard: newest entry in {path} is missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1

    # The structural check above always runs.  The timing floors only
    # mean something when the two sides of each ping-pong had their own
    # core; oversubscribed rows measure the scheduler, not the ring.
    cores = min(float(b.get("cores", 0)) for b in (rtt, sync, pair))
    oversub = any(float(b.get("oversubscribed", 0)) != 0.0
                  for b in (rtt, sync, pair))
    if cores < 2 or oversub:
        print(f"bench_guard: transport floors SKIPPED — rows report "
              f"cores={cores:g}"
              f"{' and oversubscription' if oversub else ''}; "
              f"two-sided transport timing is not measurable here "
              f"(this is an explicit skip, not a pass)")
        return 0

    failed = False

    rtt_ns = float(rtt.get("real_ns_per_iter", 0))
    verdict = ("OK" if rtt_ns <= max_rtt_ns else
               f"RTT-REGRESSION (> ceiling {max_rtt_ns:.0f}ns)")
    if rtt_ns > max_rtt_ns:
        failed = True
    print(f"bench_guard: shm ring rtt={rtt_ns:.0f}ns "
          f"(ceiling {max_rtt_ns:.0f}ns) {verdict}")

    sync_ps = items_per_second(sync)
    verdict = ("OK" if sync_ps >= min_sync_per_sec else
               f"SYNC-REGRESSION (< floor {min_sync_per_sec:.1e})")
    if sync_ps < min_sync_per_sec:
        failed = True
    print(f"bench_guard: coupled window publications/s={sync_ps:.3e} "
          f"(floor {min_sync_per_sec:.1e}) {verdict}")

    seq_eps = items_per_second(seq)
    pair_eps = items_per_second(pair)
    ratio = pair_eps / seq_eps if seq_eps > 0 else 0.0
    verdict = ("OK" if ratio >= min_pair_ratio else
               f"COUPLING-REGRESSION (< floor {min_pair_ratio})")
    if ratio < min_pair_ratio:
        failed = True
    print(f"bench_guard: coupled pair={pair_eps:.3e} "
          f"seq={seq_eps:.3e} events/s ratio={ratio:.2f} "
          f"(floor {min_pair_ratio}) {verdict}")

    return 1 if failed else 0


def check_sweep(path):
    """Every sweep run completed; every engine cross-check matched."""
    with open(path) as f:
        report = json.load(f)

    runs = report.get("runs", [])
    checks = report.get("engine_cross_checks", [])
    if not runs:
        print(f"bench_guard: {path} has no runs", file=sys.stderr)
        return 1

    failed = False
    # A run is healthy when its status says so: "ok", "retried" (flaky
    # but recovered), or "skipped-resume" (validated artifact carried
    # over by --resume).  Older reports without a status field fall
    # back to the exit-code check.
    healthy = {"ok", "retried", "skipped-resume"}
    for run in runs:
        name = run.get("name", "?")
        code = run.get("exit_code", -1)
        fp = run.get("fingerprint")
        status = run.get("status")
        bad = (status not in healthy) if status is not None else code != 0
        if bad or not fp:
            print(f"bench_guard: {name} FAILED "
                  f"(status={status}, exit={code}, fingerprint={fp})",
                  file=sys.stderr)
            failed = True
        else:
            print(f"bench_guard: {name} {status or 'ok'} "
                  f"elapsed_ms={run.get('elapsed_us', 0) / 1000:.1f} "
                  f"fingerprint={fp}")
    for check in checks:
        group = check.get("group", "?")
        match = check.get("match", False)
        fps = {r.get("engine", "?"): r.get("fingerprint", "?")
               for r in check.get("runs", [])}
        verdict = "MATCH" if match else "DETERMINISM-REGRESSION"
        print(f"bench_guard: cross-check [{group}] {verdict} {fps}")
        if not match:
            failed = True
    if not report.get("ok", False) and not failed:
        print(f"bench_guard: {path} reports ok=false", file=sys.stderr)
        failed = True
    print(f"bench_guard: sweep {report.get('sweep', '?')}: "
          f"{len(runs)} runs, {len(checks)} cross-checks, "
          f"{'FAIL' if failed else 'OK'}")
    return 1 if failed else 0


# Mode -> check, each reading the options it needs.
MODES = {
    "sync": lambda o: check_sync(o.json_file, o.racks, o.min_ratio),
    "multicore": lambda o: check_multicore(o.json_file, o.racks,
                                           o.scale_factor, o.fame_json,
                                           o.min_barrier_qps),
    "packet": lambda o: check_packet(o.json_file, o.max_regression),
    "scale": lambda o: check_scale(o.json_file, o.min_nodes_per_gb,
                                   o.min_events_per_sec,
                                   o.min_sketch_speedup),
    "sweep": lambda o: check_sweep(o.json_file),
    "transport": lambda o: check_transport(o.json_file, o.max_rtt_ns,
                                           o.min_sync_per_sec,
                                           o.min_pair_ratio),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("json_file")
    ap.add_argument("--mode",
                    choices=list(MODES),
                    default="sync",
                    help="which invariant to check (default sync)")
    ap.add_argument("--racks", type=int, default=4,
                    help="cluster shape to compare (default 4)")
    ap.add_argument("--min-ratio", type=float, default=0.8,
                    help="minimum par:1/threads:1 vs seq throughput "
                         "ratio (default 0.8)")
    ap.add_argument("--max-regression", type=float, default=0.2,
                    help="packet mode: max fractional throughput drop "
                         "vs the previous trajectory entry (default "
                         "0.2)")
    ap.add_argument("--min-nodes-per-gb", type=float, default=4000,
                    help="scale mode: minimum simulated nodes per GB "
                         "of peak RSS (default 4000 = 32k nodes in "
                         "8 GB)")
    ap.add_argument("--min-events-per-sec", type=float, default=5e4,
                    help="scale mode: minimum engine event throughput "
                         "for the 32k run (default 50k)")
    ap.add_argument("--min-sketch-speedup", type=float, default=10.0,
                    help="scale mode: minimum sketch-vs-raw fold "
                         "speedup at equal sample counts (default 10)")
    ap.add_argument("--scale-factor", type=float, default=0.7,
                    help="multicore mode: required speedup per worker "
                         "(floor = factor * workers, default 0.7)")
    ap.add_argument("--fame-json", default=None,
                    help="multicore mode: BENCH_fame.json trajectory "
                         "to enforce the barrier round-trip floor on")
    ap.add_argument("--min-barrier-qps", type=float, default=1e6,
                    help="multicore mode: minimum quanta/s for "
                         "non-oversubscribed multi-worker barrier "
                         "round trips (default 1e6)")
    ap.add_argument("--max-rtt-ns", type=float, default=5e4,
                    help="transport mode: maximum shm ring round-trip "
                         "time in ns (default 50us — catches cliffs, "
                         "not jitter)")
    ap.add_argument("--min-sync-per-sec", type=float, default=5e4,
                    help="transport mode: minimum coupled window "
                         "publications sent and folded per second "
                         "(default 5e4)")
    ap.add_argument("--min-pair-ratio", type=float, default=0.5,
                    help="transport mode: minimum two-copy coupled vs "
                         "sequential event-throughput ratio (default "
                         "0.5)")
    opts = ap.parse_args()
    return MODES[opts.mode](opts)


if __name__ == "__main__":
    sys.exit(main())
