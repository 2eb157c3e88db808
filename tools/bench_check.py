#!/usr/bin/env python3
"""CI bench gates for the megabench driver.

Modes, combinable:

  --report FILE [FILE ...]
      Sanity-check merged figure reports: each must parse as JSON and
      carry a non-empty "variants" array. Every variant of an open-loop
      figure (1, 5-20, 22, 24, 25) must carry the shared block
      benchjson::BeginVariant writes: a non-empty latency timeline with
      samples, a steady summary (p50/p99/max/samples), RSS samples and
      peak, a strategy and, unless the strategy is "none", the migration
      windows with max_latency_during_migration_ms. Any variant that
      reports processes_reporting must have merged every launched
      process's shard (== the report's "processes").

  --headline FILE [FILE ...]
      The paper's headline ordering on fig-1 reports (megabench --fig=1):
      the fluid and optimized variants' max_latency_during_migration_ms
      must be at most the all-at-once variant's divided by
      HEADLINE_FACTOR (2). The ordering shows only where moving the
      state costs more than scheduler noise: with a 16M-key domain
      (32 MB migrating) on a 4-vCPU VM, 20 runs read all-at-once/fluid
      and all-at-once/optimized ratios of 3.2-17.8 at 1 process and
      6.3-15.2 at 2, while a fluid strategy that ships every bin in one
      batch reads about 1. At the 64K-key sizing of the other fig-1
      smoke runs the state is 512 KB and the ratios scatter from 0.03 to
      6, so those reports are not gated on it.

  --steady FILE --baseline BENCH_PR2.json [--min-ratio R]
      Regression gate: compare the current steady-throughput suite run
      against the committed baseline's post_recs_per_sec for matching row
      names (megaphone-count-w4 is the headline). The floor R is
      deliberately generous (default 0.15): CI machines differ wildly
      from the baseline machine, so the gate only catches catastrophic
      regressions — e.g. the single-process hot path accidentally paying
      serialization — not noise.

  --max-latency FILE [--max-latency-margin M]
      Chunked-migration gate on a fig-22-style report (megabench
      --fig=22): validates the report schema (both the "monolithic" and
      "chunked" variants present, each with steady percentiles, a
      sampled timeline, migration windows carrying batches and chunk
      traffic, and the chunked variant actually shipping >1 chunk frame
      per migrated bin), checks the two variants ran at comparable
      achieved throughput, and asserts the chunked variant's
      per-migration max latency <= max(monolithic * (1 + M),
      monolithic + floor). M defaults to 0.25 and the floor
      (--max-latency-floor-ms) to 8 ms. At the CI sizing both variants
      sit at 2-9 ms and one migration's max is scheduler noise, so the
      floor absorbs that jitter; across 26 runs on a 4-vCPU VM the
      chunked-minus-monolithic difference stayed within +5.5 ms except
      one run whose steady p99 was itself 8x the norm (a disturbed
      machine, seen at the same rate before lazy extraction).

  --rss-bound FILE
      Spill gate on a fig-25 report (megabench --fig=25): the log-state
      variant's peak RSS (merged over every process) must sit at or under
      the run's configured rss_cap_bytes — the whole point of spilling —
      while the in-memory map-state baseline must exceed the cap (it
      exists to prove the cap actually bites at this sizing), and the
      deterministic map-vs-log digest comparison embedded in the report
      must have matched byte-for-byte.

  --recovery FILE
      Fault-drill gate on a fig-23 report (megabench --fig=23): the
      surviving process must have aborted cleanly (PeerDownError, not a
      hang), at least one complete checkpoint must have existed before
      the crash (checkpoint_epoch >= 1), the recovery run must have
      resumed from it (resumed_at_epoch == checkpoint_epoch), its digest
      must be byte-identical to the fault-free reference, and recovery_ms
      must be a positive number.

  --adaptive FILE [--adaptive-margin M] [--adaptive-floor-ms F]
      Hot-key-flip gate on a fig-24 report (megabench --fig=24
      --controller=adaptive): the adaptive variant must have issued at
      least one rebalance plan with no fixed schedule, reacted after the
      flip (reaction_ms > 0), and its post-rebalance p99 must sit within
      max(pre-flip p99 * (1 + M), pre-flip p99 + F) — M defaults to 0.5
      (the paper-style "within 1.5x" criterion) and F to 20 ms of
      absolute noise headroom for busy CI runners.

  --chunk-frames FILE
      Frame-packing gate on a chunked count report (megabench --fig=1
      --chunk-bytes=B): migrating bins share frames, so every migration
      window's chunk_frames must be at most ceil(chunk_bytes / B) +
      batches * W * (W - 1), where W is the report's total worker count.
      A frame never mixes times or targets, so each (source, target)
      pair may end each batch with one partly filled frame; the frames
      are otherwise full. Sending one frame per bin fails this gate as
      soon as bins are smaller than B.

Exit status 0 iff every requested check passes.
"""

import argparse
import json
import math
import sys


def fail(msg: str) -> None:
    print(f"bench_check: FAIL: {msg}")
    sys.exit(1)


# Fig. 1's claim: fluid and optimized migration keep the max latency
# during migration at a fraction of all-at-once's.
HEADLINE_FACTOR = 2.0


def check_headline(path: str) -> None:
    """Gate a fig-1 report on the paper's latency ordering."""
    with open(path) as f:
        report = json.load(f)
    if report.get("fig") != 1:
        fail(f"{path}: not a fig-1 report")
    by_strategy = {v.get("strategy"): v for v in report.get("variants", [])}
    key = "max_latency_during_migration_ms"
    for name in ("all-at-once", "fluid", "optimized"):
        if key not in by_strategy.get(name, {}):
            fail(f"{path}: no {name} variant with a migration max latency")
    base_ms = float(by_strategy["all-at-once"][key])
    limit = base_ms / HEADLINE_FACTOR
    for name in ("fluid", "optimized"):
        ms = float(by_strategy[name][key])
        if ms > limit:
            fail(
                f"{path}: {name} max latency during migration {ms:.2f} ms "
                f"is above all-at-once's {base_ms:.2f} ms / "
                f"{HEADLINE_FACTOR:g} = {limit:.2f} ms (fig. 1 ordering)"
            )
    print(
        f"bench_check: OK: {path}: fluid and optimized max latency during "
        f"migration at most all-at-once's {base_ms:.2f} ms / "
        f"{HEADLINE_FACTOR:g}"
    )


# Open-loop figures: VariantRunner writes every variant's shared block.
# Fig 23 (recovery drill) and 21 (Table 1) have no open-loop variants.
OPEN_LOOP_FIGS = {1, *range(5, 21), 22, 24, 25}
SHARED_KEYS = ("strategy", "processes_reporting", "steady", "timeline",
               "rss", "peak_rss_bytes")
MIGRATION_KEYS = ("migrations", "max_latency_during_migration_ms")
STEADY_KEYS = ("p50_ms", "p99_ms", "max_ms", "samples")


def check_report(path: str) -> None:
    with open(path) as f:
        report = json.load(f)
    variants = report.get("variants")
    if not isinstance(variants, list) or not variants:
        fail(f"{path}: no variants in report")
    processes = int(report.get("processes", 1))
    open_loop = report.get("fig") in OPEN_LOOP_FIGS
    for v in variants:
        label = v.get("label", "?")
        if open_loop:
            missing = [k for k in SHARED_KEYS if k not in v]
            if v.get("strategy", "none") != "none":
                missing += [k for k in MIGRATION_KEYS if k not in v]
            steady = v.get("steady")
            if not isinstance(steady, dict):
                steady = {}
            missing += [f"steady.{k}" for k in STEADY_KEYS if k not in steady]
            if missing:
                fail(f"{path}: variant {label} lacks {', '.join(missing)}")
        if "timeline" in v:
            if not v["timeline"]:
                fail(f"{path}: variant {label} has an empty timeline")
            samples = sum(int(r.get("samples", 0)) for r in v["timeline"])
            if samples <= 0:
                fail(f"{path}: variant {label} timeline has no samples")
        if "migrations" in v and "max_latency_during_migration_ms" not in v:
            fail(f"{path}: variant {label} lacks max-latency-during-migration")
        if "processes_reporting" in v:
            reporting = int(v["processes_reporting"])
            if reporting != processes:
                fail(
                    f"{path}: variant {label} merged {reporting} process "
                    f"shards, expected {processes}"
                )
    print(
        f"bench_check: OK: {path}: {len(variants)} variants, "
        f"{processes} process(es) merged"
    )


def check_max_latency(path: str, margin: float, floor_ms: float) -> None:
    """Schema-validate a fig-22 report and gate chunked vs monolithic."""
    with open(path) as f:
        report = json.load(f)
    variants = {v.get("label"): v for v in report.get("variants", [])}
    for label in ("monolithic", "chunked"):
        if label not in variants:
            fail(f"{path}: missing variant {label}")
        v = variants[label]
        for key in ("steady", "timeline", "migrations",
                    "max_latency_during_migration_ms",
                    "achieved_rate_per_s", "chunk_bytes"):
            if key not in v:
                fail(f"{path}: variant {label} lacks {key}")
        if not v["migrations"]:
            fail(f"{path}: variant {label} observed no migration window")
        for m in v["migrations"]:
            for key in ("start_sec", "end_sec", "duration_sec",
                        "max_latency_ms", "batches", "chunk_frames",
                        "chunk_bytes"):
                if key not in m:
                    fail(f"{path}: {label} migration window lacks {key}")
        for key in ("p50_ms", "p99_ms", "max_ms", "samples"):
            if key not in v["steady"]:
                fail(f"{path}: variant {label} steady summary lacks {key}")

    mono, chunked = variants["monolithic"], variants["chunked"]
    if int(chunked["chunk_bytes"]) <= 0:
        fail(f"{path}: chunked variant ran with chunk_bytes=0")
    mono_frames = sum(int(m["chunk_frames"]) for m in mono["migrations"])
    chunk_frames = sum(int(m["chunk_frames"]) for m in chunked["migrations"])
    if chunk_frames <= mono_frames:
        fail(
            f"{path}: chunked variant shipped {chunk_frames} frames vs "
            f"monolithic {mono_frames} — chunking never engaged"
        )

    rate_mono = float(mono["achieved_rate_per_s"])
    rate_chunk = float(chunked["achieved_rate_per_s"])
    if rate_mono <= 0 or rate_chunk <= 0:
        fail(f"{path}: zero achieved rate")
    rate_ratio = rate_chunk / rate_mono
    if not 0.8 <= rate_ratio <= 1.25:
        fail(
            f"{path}: variants ran at different loads "
            f"(chunked/monolithic achieved rate = {rate_ratio:.3f}) — "
            f"max-latency comparison would be meaningless"
        )

    mono_ms = float(mono["max_latency_during_migration_ms"])
    chunk_ms = float(chunked["max_latency_during_migration_ms"])
    # Relative margin plus an absolute floor: on small smoke configs the
    # monolithic baseline is only a few ms, so a pure ratio bound leaves
    # less headroom than one scheduler stall on a shared CI runner. A
    # real regression inverts the sign by much more than the floor.
    bound = max(mono_ms * (1.0 + margin), mono_ms + floor_ms)
    status = "OK" if chunk_ms <= bound else "FAIL"
    print(
        f"bench_check: {status}: {path}: max latency during migration "
        f"chunked {chunk_ms:.3f} ms vs monolithic {mono_ms:.3f} ms "
        f"(bound {bound:.3f} ms, margin {margin}); chunked shipped "
        f"{chunk_frames} chunk frames (monolithic {mono_frames})"
    )
    if chunk_ms > bound:
        sys.exit(1)


def check_chunk_frames(path: str) -> None:
    """Gate a chunked report's frame counts against the packing bound."""
    with open(path) as f:
        report = json.load(f)
    bound = int(report.get("config", {}).get("chunk_bytes", 0))
    if bound <= 0:
        fail(f"{path}: config.chunk_bytes (the frame bound) is missing or 0")
    workers = (int(report.get("processes", 1))
               * int(report.get("workers_per_process", 1)))
    pairs = workers * (workers - 1)
    windows = 0
    for v in report.get("variants", []):
        label = v.get("label", "?")
        for m in v.get("migrations", []):
            frames = int(m["chunk_frames"])
            nbytes = int(m["chunk_bytes"])
            batches = max(1, int(m["batches"]))
            limit = math.ceil(nbytes / bound) + batches * pairs
            windows += 1
            if frames > limit:
                fail(
                    f"{path}: {label} migration at {m['start_sec']:.3f} s "
                    f"sent {frames} frames for {nbytes} bytes in {batches} "
                    f"batch(es), above the packing bound {limit} "
                    f"(chunk_bytes {bound}, {workers} workers)"
                )
    if windows == 0:
        fail(f"{path}: no migration windows to check")
    print(
        f"bench_check: OK: {path}: {windows} migration windows within "
        f"the frame-packing bound (chunk_bytes {bound}, {workers} workers)"
    )


def check_rss_bound(path: str) -> None:
    """Gate a fig-25 spill-drill report: the log-state variant stays under
    the RSS cap the in-memory baseline blows through, and the backends
    agree byte-for-byte on the deterministic digest."""
    with open(path) as f:
        report = json.load(f)
    cap = int(report.get("config", {}).get("rss_cap_bytes", 0))
    if cap <= 0:
        fail(f"{path}: report carries no rss_cap_bytes")
    variants = {v.get("label"): v for v in report.get("variants", [])}
    for label in ("map-state", "log-state"):
        if label not in variants:
            fail(f"{path}: missing variant {label}")
        v = variants[label]
        for key in ("peak_rss_bytes", "rss", "migrations", "timeline"):
            if key not in v:
                fail(f"{path}: variant {label} lacks {key}")
        if not v["rss"]:
            fail(f"{path}: variant {label} sampled no RSS")
        if not v["migrations"]:
            fail(f"{path}: variant {label} observed no migration window")

    log_peak = int(variants["log-state"]["peak_rss_bytes"])
    map_peak = int(variants["map-state"]["peak_rss_bytes"])
    if not variants["log-state"].get("under_rss_cap") or log_peak > cap:
        fail(
            f"{path}: log-state peaked at {log_peak} bytes, over the "
            f"{cap}-byte cap — the spill backend did not bound memory"
        )
    if map_peak <= cap:
        fail(
            f"{path}: map-state baseline peaked at {map_peak} bytes, "
            f"under the {cap}-byte cap — the sizing proves nothing; "
            f"raise --pad/--domain or lower --rss-cap-bytes"
        )
    if not report.get("digest_match"):
        fail(f"{path}: map-vs-log deterministic digests diverged")
    print(
        f"bench_check: OK: {path}: log-state peak rss {log_peak} <= cap "
        f"{cap} (map-state baseline {map_peak}), digests byte-identical"
    )


def check_recovery(path: str) -> None:
    """Gate a fig-23 fault-drill report: clean abort, real checkpoint,
    resumed exactly there, byte-identical digest, positive recovery time."""
    with open(path) as f:
        report = json.load(f)
    variants = {v.get("label"): v for v in report.get("variants", [])}
    if "recovery" not in variants:
        fail(f"{path}: missing variant recovery")
    v = variants["recovery"]
    for key in ("aborted_cleanly", "checkpoint_epoch", "recovery_ms",
                "resumed_at_epoch", "digest_match"):
        if key not in v:
            fail(f"{path}: recovery variant lacks {key}")
    if not v["aborted_cleanly"]:
        fail(f"{path}: survivor did not abort with a clean PeerDownError")
    epoch = int(v["checkpoint_epoch"])
    if epoch < 1:
        fail(f"{path}: no complete checkpoint existed before the crash")
    if int(v["resumed_at_epoch"]) != epoch:
        fail(
            f"{path}: recovery resumed at epoch {v['resumed_at_epoch']}, "
            f"checkpoint was at {epoch}"
        )
    recovery_ms = float(v["recovery_ms"])
    if not recovery_ms > 0:
        fail(f"{path}: recovery_ms = {recovery_ms} is not positive")
    if not v["digest_match"]:
        fail(f"{path}: post-recovery digest diverged from the fault-free run")
    print(
        f"bench_check: OK: {path}: recovered from epoch {epoch} in "
        f"{recovery_ms:.1f} ms, digest byte-identical"
    )


def check_adaptive(path: str, margin: float, floor_ms: float) -> None:
    """Gate a fig-24 hot-key-flip report: the adaptive controller must
    have reacted on its own and restored latency after the flip."""
    with open(path) as f:
        report = json.load(f)
    variants = {v.get("label"): v for v in report.get("variants", [])}
    if "adaptive" not in variants:
        fail(f"{path}: missing variant adaptive")
    v = variants["adaptive"]
    for key in ("plans_issued", "reaction_ms", "pre_flip", "post_rebalance",
                "migrations", "timeline", "achieved_rate_per_s"):
        if key not in v:
            fail(f"{path}: adaptive variant lacks {key}")
    for summary in ("pre_flip", "post_rebalance"):
        for key in ("p50_ms", "p99_ms", "max_ms", "samples"):
            if key not in v[summary]:
                fail(f"{path}: adaptive {summary} summary lacks {key}")
        if int(v[summary]["samples"]) <= 0:
            fail(f"{path}: adaptive {summary} window has no samples")
    plans = int(v["plans_issued"])
    if plans < 1:
        fail(f"{path}: adaptive controller never issued a plan")
    if not v["migrations"]:
        fail(f"{path}: plans were issued but no migration window closed")
    reaction_ms = float(v["reaction_ms"])
    if not reaction_ms > 0:
        fail(f"{path}: reaction_ms = {reaction_ms} — the controller did "
             f"not react after the flip")

    pre_ms = float(v["pre_flip"]["p99_ms"])
    post_ms = float(v["post_rebalance"]["p99_ms"])
    # Same shape as the fig-22 gate: relative margin plus an absolute
    # floor, because on quiet smoke configs the pre-flip p99 is a few ms
    # and a pure ratio leaves less headroom than one scheduler stall.
    bound = max(pre_ms * (1.0 + margin), pre_ms + floor_ms)
    status = "OK" if post_ms <= bound else "FAIL"
    print(
        f"bench_check: {status}: {path}: post-rebalance p99 {post_ms:.3f} ms "
        f"vs pre-flip {pre_ms:.3f} ms (bound {bound:.3f} ms, margin "
        f"{margin}); {plans} plan(s), reaction {reaction_ms:.1f} ms"
    )
    if post_ms > bound:
        sys.exit(1)


def steady_rows(doc: dict, key: str) -> dict:
    rows = {}
    for row in doc.get(key, []):
        rows[row["name"]] = row
    return rows


def check_steady(current_path: str, baseline_path: str, min_ratio: float,
                 names: list) -> None:
    with open(current_path) as f:
        current = steady_rows(json.load(f), "steady")
    with open(baseline_path) as f:
        baseline = steady_rows(json.load(f), "steady_throughput")
    if not current:
        fail(f"{current_path}: no steady rows")
    for name in names:
        if name not in current:
            fail(f"{current_path}: missing steady row {name}")
        if name not in baseline:
            fail(f"{baseline_path}: missing baseline row {name}")
        now = float(current[name]["recs_per_sec"])
        base = float(baseline[name]["post_recs_per_sec"])
        ratio = now / base if base > 0 else 0.0
        status = "OK" if ratio >= min_ratio else "FAIL"
        print(
            f"bench_check: {status}: {name}: {now:.3e} recs/s vs baseline "
            f"{base:.3e} (ratio {ratio:.3f}, floor {min_ratio})"
        )
        if ratio < min_ratio:
            sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--report", nargs="+", default=[],
                    help="merged figure reports to sanity-check")
    ap.add_argument("--headline", nargs="+", default=[],
                    help="fig-1 reports to gate on the latency ordering")
    ap.add_argument("--steady", help="current steady-suite JSON")
    ap.add_argument("--baseline", help="committed BENCH_*.json baseline")
    ap.add_argument("--min-ratio", type=float, default=0.15,
                    help="throughput floor vs baseline (default 0.15)")
    ap.add_argument("--name", action="append", default=None,
                    help="steady row(s) to gate (default megaphone-count-w4)")
    ap.add_argument("--max-latency",
                    help="fig-22 chunked-vs-monolithic report to gate")
    ap.add_argument("--max-latency-margin", type=float, default=0.25,
                    help="chunked may exceed monolithic max latency by "
                         "this fraction (default 0.25)")
    ap.add_argument("--max-latency-floor-ms", type=float, default=8.0,
                    help="absolute noise headroom added to the bound "
                         "(default 8 ms)")
    ap.add_argument("--chunk-frames",
                    help="chunked count report whose frame counts to gate "
                         "against the packing bound")
    ap.add_argument("--rss-bound",
                    help="fig-25 spill-to-disk report to gate")
    ap.add_argument("--recovery",
                    help="fig-23 kill-one-process fault-drill report to gate")
    ap.add_argument("--adaptive",
                    help="fig-24 hot-key-flip adaptive-controller report "
                         "to gate")
    ap.add_argument("--adaptive-margin", type=float, default=0.5,
                    help="post-rebalance p99 may exceed pre-flip p99 by "
                         "this fraction (default 0.5, i.e. within 1.5x)")
    ap.add_argument("--adaptive-floor-ms", type=float, default=20.0,
                    help="absolute noise headroom added to the adaptive "
                         "bound (default 20 ms)")
    args = ap.parse_args()

    if (not args.report and not args.headline and not args.steady
            and not args.max_latency and not args.recovery
            and not args.adaptive and not args.rss_bound
            and not args.chunk_frames):
        ap.error("nothing to check: pass --report, --headline, --steady, "
                 "--max-latency, --recovery, --adaptive, --chunk-frames "
                 "and/or --rss-bound")
    for path in args.report:
        check_report(path)
    for path in args.headline:
        check_headline(path)
    if args.max_latency:
        check_max_latency(args.max_latency, args.max_latency_margin,
                          args.max_latency_floor_ms)
    if args.chunk_frames:
        check_chunk_frames(args.chunk_frames)
    if args.rss_bound:
        check_rss_bound(args.rss_bound)
    if args.recovery:
        check_recovery(args.recovery)
    if args.adaptive:
        check_adaptive(args.adaptive, args.adaptive_margin,
                       args.adaptive_floor_ms)
    if args.steady:
        if not args.baseline:
            ap.error("--steady requires --baseline")
        names = args.name or ["megaphone-count-w4"]
        check_steady(args.steady, args.baseline, args.min_ratio, names)


if __name__ == "__main__":
    main()
