//! `bench_comm` — measured wall time of each collective on both comm
//! backends (rendezvous oracle vs p2p channel transport), across world
//! sizes and payload sizes, next to the §II-E model ledger and — for p2p —
//! the real wire traffic of the schedules. Writes a machine-readable
//! `BENCH_comm.json` so CI can archive the comm perf trajectory.
//!
//! ```text
//! bench_comm [--quick] [--out BENCH_comm.json] [--threads T]
//! ```
//!
//! * `--quick` — fewer world/payload sizes and iterations (the CI
//!   bench-smoke preset; still covers both backends and every collective).
//! * `--out <path>` — where to write the JSON record (default
//!   `BENCH_comm.json` in the current directory).
//! * `--threads <T>` — pin the pool width (default: `PP_NUM_THREADS` or
//!   hardware). The collectives themselves don't use the pool; the flag
//!   exists for parity with the other bench binaries.
//!
//! Malformed arguments exit with status 2.
//!
//! Before any timing, every (collective, P, payload) case is gated on
//! **bitwise** agreement between the two backends — the JSON records
//! `"bitwise": true` only because the process would have aborted
//! otherwise.
//!
//! The wall times deserve a caveat the JSON repeats: logical ranks are OS
//! threads, so on a machine with fewer cores than P the measured numbers
//! include scheduler time-slicing and say little about a real
//! distributed-memory machine. The `model_us` column (the §II-E ledger
//! priced with the Stampede2-like α–β–γ) is the scale-faithful number;
//! `wall_us` records what this container actually did.
//!
//! JSON schema: an object with `preset`/`threads` tags and a `rows` array
//! of `{collective, backend, ranks, words, iters, wall_us, model_us,
//! ledger_msgs, ledger_words, wire_msgs, wire_words, bitwise}` — `wall_us`
//! is mean microseconds per operation (max over ranks), `ledger_*` the
//! per-op §II-E model charges (identical on both backends by design),
//! `wire_*` the per-op measured channel traffic summed over ranks (0 for
//! rendezvous, which has no wire).

use pp_bench::parse_bench_args;
use pp_comm::{Backend, Collectives, CostCounters, CostModel, RankCtx, Runtime};
use std::fmt::Write as _;
use std::time::Instant;

/// The benchmarked collectives.
const COLLECTIVES: &[&str] = &[
    "barrier",
    "all_gather",
    "all_reduce",
    "reduce_scatter",
    "broadcast",
    "all_to_all",
];

/// Deterministic irrational payload so the parity gate is order-sensitive.
fn payload(rank: usize, words: usize) -> Vec<f64> {
    (0..words)
        .map(|i| ((rank as f64 * 37.0 + i as f64 * 11.0) * 0.7311).sin())
        .collect()
}

/// Run one collective once; returns a digest of its output (for the
/// bitwise gate across backends).
fn run_op(ctx: &mut RankCtx, op: &str, words: usize) -> Vec<f64> {
    let p = ctx.size();
    let r = ctx.rank();
    match op {
        "barrier" => {
            ctx.comm.barrier();
            Vec::new()
        }
        "all_gather" => ctx.comm.all_gather(&payload(r, words)),
        "all_reduce" => ctx.comm.all_reduce_sum(&payload(r, words)),
        "reduce_scatter" => {
            // Even counts with the remainder on the last rank.
            let mut counts = vec![words / p; p];
            counts[p - 1] += words % p;
            ctx.comm.reduce_scatter_sum(&payload(r, words), &counts)
        }
        "broadcast" => ctx.comm.broadcast(0, &payload(0, words)),
        "all_to_all" => {
            let chunks: Vec<Vec<f64>> = (0..p).map(|d| payload(r * p + d, words / p)).collect();
            ctx.comm.all_to_all(chunks).concat()
        }
        other => panic!("unknown collective {other}"),
    }
}

struct Row {
    collective: &'static str,
    backend: Backend,
    ranks: usize,
    words: usize,
    iters: usize,
    wall_us: f64,
    model_us: f64,
    ledger: CostCounters,
    wire_msgs: u64,
    wire_words: u64,
}

/// Measure one (collective, backend, P, words) case: `iters` ops timed
/// inside the rank closure after one warm-up op, per-op ledger and (p2p)
/// per-op wire traffic derived from the same run.
fn measure(op: &'static str, backend: Backend, p: usize, words: usize, iters: usize) -> Row {
    let out = Runtime::with_backend(p, backend).run(move |ctx| {
        let _ = run_op(ctx, op, words); // warm-up synchronizes the ranks
        ctx.comm.ledger().reset();
        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = run_op(ctx, op, words);
        }
        let secs = t0.elapsed().as_secs_f64() / iters as f64;
        (secs, ctx.comm.ledger().reset())
    });
    let wall = out.results.iter().map(|(s, _)| *s).fold(0.0f64, f64::max);
    let ledger = {
        let c = out.results[0].1;
        CostCounters {
            messages: c.messages / iters as u64,
            comm_words: c.comm_words / iters as u64,
            flops: c.flops / iters as u64,
            mem_words: c.mem_words / iters as u64,
        }
    };
    // Wire counters cover warm-up + timed ops; every op is identical.
    let (wire_msgs, wire_words) = out.transport.map_or((0, 0), |ranks| {
        let total_msgs: u64 = ranks.iter().map(|w| w.msgs_sent).sum();
        let total_words: u64 = ranks.iter().map(|w| w.words_sent).sum();
        let ops = (iters + 1) as u64;
        (total_msgs / ops, total_words / ops)
    });
    Row {
        collective: op,
        backend,
        ranks: p,
        words,
        iters,
        wall_us: wall * 1e6,
        model_us: CostModel::stampede2_like().time(&ledger) * 1e6,
        ledger,
        wire_msgs,
        wire_words,
    }
}

/// Bitwise parity gate: both backends must produce identical bits for this
/// case before it is timed.
fn assert_parity(op: &'static str, p: usize, words: usize) {
    let run = |backend: Backend| {
        Runtime::with_backend(p, backend)
            .run(move |ctx| run_op(ctx, op, words))
            .results
    };
    let rv = run(Backend::Rendezvous);
    let pp = run(Backend::P2p);
    for (rank, (a, b)) in rv.iter().zip(pp.iter()).enumerate() {
        let ab: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
        let bb: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            ab, bb,
            "{op}: backends disagree bitwise on rank {rank} (P={p}, n={words})"
        );
    }
}

fn main() {
    let args = parse_bench_args("bench_comm", "BENCH_comm.json", "", |_, _| Ok(false));
    let (quick, out_path, threads) = (args.quick, args.out, args.threads);
    let (world_sizes, word_sizes, iters): (&[usize], &[usize], usize) = if quick {
        (&[2, 4], &[64, 1024], 20)
    } else {
        (&[2, 4, 8], &[64, 1024, 16384], 100)
    };

    println!(
        "collective wall time vs §II-E model, both backends ({} preset, {threads} thread{}):",
        if quick { "quick" } else { "full" },
        if threads == 1 { "" } else { "s" },
    );
    println!(
        "{:<16} {:<12} {:>3} {:>7} {:>10} {:>10} {:>7} {:>9} {:>7} {:>9}",
        "collective",
        "backend",
        "P",
        "words",
        "wall_us",
        "model_us",
        "msgs",
        "ld_words",
        "wire_m",
        "wire_w"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &op in COLLECTIVES {
        for &p in world_sizes {
            for &words in word_sizes {
                if op == "barrier" && words != word_sizes[0] {
                    continue; // payload-free; one row per P is enough
                }
                assert_parity(op, p, words);
                for backend in Backend::ALL {
                    let row = measure(op, backend, p, words, iters);
                    println!(
                        "{:<16} {:<12} {:>3} {:>7} {:>10.2} {:>10.3} {:>7} {:>9} {:>7} {:>9}",
                        row.collective,
                        row.backend.label(),
                        row.ranks,
                        row.words,
                        row.wall_us,
                        row.model_us,
                        row.ledger.messages,
                        row.ledger.comm_words,
                        row.wire_msgs,
                        row.wire_words,
                    );
                    rows.push(row);
                }
            }
        }
    }

    // Hand-rolled JSON (no serde in the vendored dependency set).
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"preset\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(
        json,
        "  \"note\": \"ranks are OS threads on one node: wall_us includes time-slicing when P \
         exceeds the core count; model_us (II-E ledger x stampede2-like alpha-beta-gamma) is \
         the scale-faithful column\","
    );
    json.push_str("  \"rows\": [\n");
    for (idx, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"collective\": \"{}\", \"backend\": \"{}\", \"ranks\": {}, \"words\": {}, \
             \"iters\": {}, \"wall_us\": {:.3}, \"model_us\": {:.4}, \"ledger_msgs\": {}, \
             \"ledger_words\": {}, \"wire_msgs\": {}, \"wire_words\": {}, \"bitwise\": true}}",
            r.collective,
            r.backend.label(),
            r.ranks,
            r.words,
            r.iters,
            r.wall_us,
            r.model_us,
            r.ledger.messages,
            r.ledger.comm_words,
            r.wire_msgs,
            r.wire_words,
        );
        json.push_str(if idx + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");
}
