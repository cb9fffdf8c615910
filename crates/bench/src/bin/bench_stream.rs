//! `bench_stream` — per-arrival cost of streaming CP: the incremental
//! dimension-tree cache extension against the full-recompute oracle.
//!
//! ```text
//! bench_stream [--quick] [--out BENCH_stream.json] [--threads T]
//!              [--method dt|msdt|pp]
//! ```
//!
//! * `--quick` — the CI bench-smoke preset (small timelapse, 3 arrivals).
//! * `--out <path>` — where to write the JSON record (default
//!   `BENCH_stream.json` in the current directory).
//! * `--threads <T>` — pin the pool width (default: `PP_NUM_THREADS` or
//!   hardware).
//! * `--method <m>` — session kind for both arms (default `msdt`).
//!
//! Malformed arguments exit with status 2.
//!
//! Both arms drive the identical arrival schedule over the timelapse
//! tensor (slices arriving along the time mode) and are asserted
//! bit-identical before anything is timed as a difference — the only
//! thing that varies is how the dimension-tree cache absorbs an arrival:
//!
//! 1. **incremental** — `CacheUpdate::Incremental`: cached partial
//!    contractions are extended by delta-contracting the new slice, so
//!    per-arrival cache work scales with the slice;
//! 2. **recompute** — `CacheUpdate::Recompute`: the cache is rebuilt from
//!    the full extended tensor at every arrival (the correctness oracle),
//!    so per-arrival cache work scales with the whole prefix.
//!
//! The `rows` array records the arrival-absorption time (`*_arrive_secs`,
//! the warm-start solve plus the cache update) and the sweep-window time
//! (`*_window_secs`) for each arrival under both arms; the headline
//! `arrive_speedup` is the ratio of summed absorption times. JSON schema:
//! `{preset, threads, method, dims, initial_times, arrive, n_arrivals,
//! sweeps_per_arrival, inc_total_secs, rec_total_secs, arrive_speedup,
//! inc_ttm_flops, rec_ttm_flops, ttm_flop_ratio, rows: [{arrival,
//! extent, inc_arrive_secs, rec_arrive_secs, inc_window_secs,
//! rec_window_secs}]}`. The flop columns are the noise-free signal: the
//! sweep work is bitwise-identical across arms, so the TTM-flop gap is
//! exactly the cache-refresh work the incremental path avoids.

use pp_bench::parse_bench_args;
use pp_core::{AlsConfig, AlsOutput, SessionKind, StreamingSession};
use pp_datagen::timelapse::{TimelapseConfig, TimelapseStream, TIME_MODE};
use pp_dtree::{CacheUpdate, TreePolicy};
use std::fmt::Write as _;
use std::time::Instant;

/// Per-arrival timings of one arm. Index 0 is the initial window (no
/// arrival to absorb, `arrive_secs` = 0).
struct Lap {
    extent: usize,
    arrive_secs: f64,
    window_secs: f64,
}

/// Drive the full arrival schedule under one cache-update policy, timing
/// each absorption and each sweep window separately.
fn drive(
    feed: &TimelapseStream,
    cfg: &AlsConfig,
    kind: SessionKind,
    spa: usize,
    update: CacheUpdate,
) -> (AlsOutput, Vec<Lap>) {
    let mut session = StreamingSession::new(&feed.initial(), cfg, kind, TIME_MODE, spa, update);
    let mut laps = Vec::new();
    let t0 = Instant::now();
    session.run_window();
    laps.push(Lap {
        extent: session.extent(),
        arrive_secs: 0.0,
        window_secs: t0.elapsed().as_secs_f64(),
    });
    for i in 0..feed.n_arrivals() {
        let t0 = Instant::now();
        session.arrive(&feed.slice(i));
        let arrive_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        session.run_window();
        laps.push(Lap {
            extent: session.extent(),
            arrive_secs,
            window_secs: t0.elapsed().as_secs_f64(),
        });
    }
    (session.finish(), laps)
}

fn main() {
    let mut method = String::from("msdt");
    let args = parse_bench_args(
        "bench_stream",
        "BENCH_stream.json",
        " [--method dt|msdt|pp]",
        |flag, value| {
            if flag != "--method" {
                return Ok(false);
            }
            method = match value {
                Some(m @ ("dt" | "msdt" | "pp")) => m.to_string(),
                _ => return Err("--method expects dt|msdt|pp".into()),
            };
            Ok(true)
        },
    );
    let (quick, out_path, threads) = (args.quick, args.out, args.threads);

    // Full preset: a long horizon so late arrivals dwarf the slice (the
    // regime where incremental extension pays). Quick: CI smoke.
    let (tcfg, initial, arrive, spa, rank) = if quick {
        (
            TimelapseConfig {
                height: 16,
                width: 14,
                bands: 10,
                times: 9,
                materials: 4,
                noise: 1e-3,
            },
            3,
            2,
            3,
            6,
        )
    } else {
        (
            TimelapseConfig {
                height: 48,
                width: 64,
                bands: 33,
                times: 33,
                materials: 12,
                noise: 5e-3,
            },
            5,
            4,
            5,
            16,
        )
    };
    let seed = 42;
    let feed = TimelapseStream::new(&tcfg, seed, initial, arrive).expect("valid bench preset");
    let cfg = AlsConfig::new(rank)
        .with_tol(0.0)
        .with_pp_tol(0.3)
        .with_seed(7)
        .with_policy(match method.as_str() {
            "dt" => TreePolicy::Standard,
            _ => TreePolicy::MultiSweep,
        });
    let kind = if method == "pp" {
        SessionKind::Pp
    } else {
        SessionKind::Exact
    };
    println!(
        "stream benchmark ({} preset, timelapse {}x{}x{}x{}, {} initial + {} arrivals of {}, \
         method {method}, R={rank}, {spa} sweeps/arrival, {threads} thread{}):",
        if quick { "quick" } else { "full" },
        tcfg.height,
        tcfg.width,
        tcfg.bands,
        tcfg.times,
        initial,
        feed.n_arrivals(),
        arrive,
        if threads == 1 { "" } else { "s" },
    );

    // Warm-up: spin up the pool and fault in the allocators.
    let _ = drive(&feed, &cfg, kind, spa, CacheUpdate::Incremental);

    let (inc_out, inc) = drive(&feed, &cfg, kind, spa, CacheUpdate::Incremental);
    let (rec_out, rec) = drive(&feed, &cfg, kind, spa, CacheUpdate::Recompute);

    // The two arms are the same algorithm — assert it before reading the
    // timings as a cache-policy difference.
    assert_eq!(inc_out.report.sweeps.len(), rec_out.report.sweeps.len());
    for (a, b) in inc_out
        .report
        .sweeps
        .iter()
        .zip(rec_out.report.sweeps.iter())
    {
        assert_eq!(
            a.fitness.to_bits(),
            b.fitness.to_bits(),
            "incremental and recompute arms diverged"
        );
    }
    for (fa, fb) in inc_out.factors.iter().zip(rec_out.factors.iter()) {
        assert_eq!(fa.data(), fb.data(), "factor drift between arms");
    }

    println!(
        "{:>7} {:>7} {:>14} {:>14} {:>14} {:>14}",
        "arrival", "extent", "inc arrive s", "rec arrive s", "inc window s", "rec window s"
    );
    for (i, (a, b)) in inc.iter().zip(rec.iter()).enumerate() {
        println!(
            "{:>7} {:>7} {:>14.6} {:>14.6} {:>14.6} {:>14.6}",
            i, a.extent, a.arrive_secs, b.arrive_secs, a.window_secs, b.window_secs,
        );
    }
    let inc_arrive: f64 = inc.iter().map(|l| l.arrive_secs).sum();
    let rec_arrive: f64 = rec.iter().map(|l| l.arrive_secs).sum();
    let inc_total: f64 = inc.iter().map(|l| l.arrive_secs + l.window_secs).sum();
    let rec_total: f64 = rec.iter().map(|l| l.arrive_secs + l.window_secs).sum();
    let speedup = rec_arrive / inc_arrive.max(1e-12);
    println!(
        "arrival absorption: incremental {inc_arrive:.4}s vs recompute {rec_arrive:.4}s \
         → {speedup:.2}x; totals {inc_total:.3}s vs {rec_total:.3}s (bit-identical)"
    );
    // The deterministic ledger, immune to allocator/scheduler noise: the
    // sweep work is bitwise-identical across arms, so the TTM-flop gap is
    // exactly the cache-refresh work the incremental path avoids.
    let inc_flops = inc_out.report.stats.ttm_flops;
    let rec_flops = rec_out.report.stats.ttm_flops;
    let refresh_ratio = (rec_flops as f64) / (inc_flops as f64).max(1.0);
    println!(
        "TTM flops: incremental {:.3} G vs recompute {:.3} G \
         ({refresh_ratio:.2}x; the gap is pure cache-refresh work)",
        inc_flops as f64 / 1e9,
        rec_flops as f64 / 1e9,
    );

    // Hand-rolled JSON (no serde in the vendored dependency set).
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"preset\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"method\": \"{method}\",");
    let _ = writeln!(
        json,
        "  \"dims\": [{}, {}, {}, {}],",
        tcfg.height, tcfg.width, tcfg.bands, tcfg.times
    );
    let _ = writeln!(json, "  \"initial_times\": {initial},");
    let _ = writeln!(json, "  \"arrive\": {arrive},");
    let _ = writeln!(json, "  \"n_arrivals\": {},", feed.n_arrivals());
    let _ = writeln!(json, "  \"sweeps_per_arrival\": {spa},");
    let _ = writeln!(json, "  \"inc_total_secs\": {inc_total:.6},");
    let _ = writeln!(json, "  \"rec_total_secs\": {rec_total:.6},");
    let _ = writeln!(json, "  \"arrive_speedup\": {speedup:.4},");
    let _ = writeln!(json, "  \"inc_ttm_flops\": {inc_flops},");
    let _ = writeln!(json, "  \"rec_ttm_flops\": {rec_flops},");
    let _ = writeln!(json, "  \"ttm_flop_ratio\": {refresh_ratio:.4},");
    json.push_str("  \"rows\": [\n");
    for (i, (a, b)) in inc.iter().zip(rec.iter()).enumerate() {
        let _ = write!(
            json,
            "    {{\"arrival\": {i}, \"extent\": {}, \"inc_arrive_secs\": {:.6}, \
             \"rec_arrive_secs\": {:.6}, \"inc_window_secs\": {:.6}, \
             \"rec_window_secs\": {:.6}}}",
            a.extent, a.arrive_secs, b.arrive_secs, a.window_secs, b.window_secs,
        );
        json.push_str(if i + 1 < inc.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");
}
