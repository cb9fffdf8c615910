//! `bench_serve` — throughput benchmark of the multi-tenant batch
//! scheduler against back-to-back sequential execution of the same jobs.
//!
//! ```text
//! bench_serve [--quick] [--out BENCH_serve.json] [--threads T] [--window J]
//!             [--drivers D1,D2,...]
//! ```
//!
//! * `--quick` — smaller tensors / fewer sweeps (the CI bench-smoke
//!   preset; still exercises all four methods and both datasets).
//! * `--out <path>` — where to write the JSON record (default
//!   `BENCH_serve.json` in the current directory).
//! * `--threads <T>` — pin the pool width (default: `PP_NUM_THREADS` or
//!   hardware).
//! * `--window <J>` — admission window for the batch run (default 4).
//! * `--drivers <list>` — comma-separated driver counts to time (default
//!   `1`). The first entry is the headline batch run; every entry gets a
//!   timed pass recorded in the `scaling` array, each parity-checked
//!   bitwise against the sequential baseline.
//!
//! Malformed arguments exit with status 2.
//!
//! Timed passes over one fixed job set:
//!
//! 1. **batch** — `run_batch` with window `J` and each requested driver
//!    count: sweeps interleave across admitted jobs, stepped by that many
//!    concurrent driver threads (the serving configuration);
//! 2. **sequential** — the same jobs back-to-back (window 1, one driver),
//!    the no-interleaving baseline.
//!
//! All passes produce bit-identical per-job results (enforced here), so
//! the differences are pure scheduling: `interleave_overhead =
//! batch_secs / sequential_secs` for the headline run, and the `scaling`
//! rows show throughput versus driver count. JSON schema: `{preset,
//! threads, window, drivers, jobs, batch_secs, sequential_secs,
//! batch_jobs_per_sec, interleave_overhead, scaling: [{drivers,
//! batch_secs, jobs_per_sec}], rows: [{name, method, sweeps, batch_secs,
//! sequential_secs}]}`.

use pp_bench::parse_bench_args;
use pp_serve::{run_batch, run_sequential, BatchReport, JobMethod, JobSpec, ServeConfig};
use std::fmt::Write as _;

/// The fixed benchmark job set: all four methods over both manifest
/// datasets, two tenants per method.
fn jobs(quick: bool) -> Vec<JobSpec> {
    let (dim, s, sweeps) = if quick { (18, 16, 8) } else { (56, 48, 20) };
    let mut out = Vec::new();
    for (i, method) in [
        JobMethod::Dt,
        JobMethod::Msdt,
        JobMethod::Pp,
        JobMethod::Nncp,
    ]
    .into_iter()
    .enumerate()
    {
        let mut a = JobSpec::new(format!("{}-low", method.label()));
        a.method = method;
        a.rank = 8;
        a.max_sweeps = sweeps;
        a.tol = 0.0;
        a.pp_tol = 0.3;
        a.dataset = pp_serve::DatasetSpec::Lowrank {
            dims: vec![dim, dim - 1, dim + 1],
            gen_rank: 8,
            noise: 0.05,
            seed: 11 + i as u64,
        };
        out.push(a);

        let mut b = JobSpec::new(format!("{}-col", method.label()));
        b.method = method;
        b.rank = 6;
        b.max_sweeps = sweeps;
        b.tol = 0.0;
        b.pp_tol = 0.3;
        b.dataset = pp_serve::DatasetSpec::Collinearity {
            s,
            r: 6,
            order: 3,
            lo: 0.5,
            hi: 0.7,
            seed: 23 + i as u64,
        };
        out.push(b);
    }
    out
}

/// Assert both passes produced identical traces (no silent drift in the
/// numbers being timed).
fn assert_parity(batch: &BatchReport, seq: &BatchReport) {
    for (a, b) in batch.jobs.iter().zip(seq.jobs.iter()) {
        let (oa, ob) = (a.output.as_ref().unwrap(), b.output.as_ref().unwrap());
        assert_eq!(oa.report.sweeps.len(), ob.report.sweeps.len(), "{}", a.name);
        for (x, y) in oa.report.sweeps.iter().zip(ob.report.sweeps.iter()) {
            assert_eq!(x.fitness.to_bits(), y.fitness.to_bits(), "{}", a.name);
        }
    }
}

fn main() {
    let mut window = 4usize;
    let mut drivers = vec![1usize];
    let args = parse_bench_args(
        "bench_serve",
        "BENCH_serve.json",
        " [--window J] [--drivers D1,D2,...]",
        |flag, value| {
            match flag {
                "--window" => {
                    window = match value.and_then(|v| v.parse().ok()) {
                        Some(w) if w > 0 => w,
                        _ => return Err("--window expects a positive integer".into()),
                    }
                }
                "--drivers" => {
                    let parsed: Option<Vec<usize>> =
                        value.and_then(|v| v.split(',').map(|d| d.parse().ok()).collect());
                    drivers = match parsed {
                        Some(d) if !d.is_empty() && d.iter().all(|&n| n > 0) => d,
                        _ => {
                            return Err(
                                "--drivers expects a comma-separated list of positive integers"
                                    .into(),
                            )
                        }
                    }
                }
                _ => return Ok(false),
            }
            Ok(true)
        },
    );
    let (quick, out_path, threads) = (args.quick, args.out, args.threads);
    let specs = jobs(quick);

    println!(
        "serve benchmark ({} preset, {} jobs, window {window}, drivers {drivers:?}, \
         {threads} thread{}):",
        if quick { "quick" } else { "full" },
        specs.len(),
        if threads == 1 { "" } else { "s" },
    );

    // Warm-up: spin up the pool and fault in the allocators.
    let _ = run_batch(&specs[..2.min(specs.len())], &ServeConfig::new(window));

    // One timed pass per requested driver count; each is parity-checked
    // against the sequential baseline (bit-identical at any driver count).
    let seq = run_sequential(&specs);
    assert_eq!(seq.failed(), 0);
    let mut scaling: Vec<(usize, BatchReport)> = Vec::new();
    for &d in &drivers {
        let cfg = ServeConfig::new(window).with_drivers(d);
        let run = run_batch(&specs, &cfg).expect("valid bench config");
        assert_eq!(run.failed(), 0, "benchmark jobs must not fail");
        assert_parity(&run, &seq);
        println!(
            "  drivers {d}: {:.3}s, {:.2} jobs/s",
            run.total_secs,
            run.jobs_per_sec()
        );
        scaling.push((d, run));
    }
    let batch = &scaling[0].1;

    println!(
        "{:<10} {:>6} {:>12} {:>12}",
        "job", "sweeps", "batch s", "solo s"
    );
    for (a, b) in batch.jobs.iter().zip(seq.jobs.iter()) {
        println!(
            "{:<10} {:>6} {:>12.4} {:>12.4}",
            a.name,
            a.output.as_ref().unwrap().report.sweeps.len(),
            a.secs,
            b.secs,
        );
    }
    let overhead = batch.total_secs / seq.total_secs.max(1e-12);
    println!(
        "batch {:.3}s vs sequential {:.3}s → {:.2} jobs/s, interleaving overhead {:.3}x",
        batch.total_secs,
        seq.total_secs,
        batch.jobs_per_sec(),
        overhead,
    );

    // Hand-rolled JSON (no serde in the vendored dependency set).
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"preset\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"window\": {window},");
    let _ = writeln!(
        json,
        "  \"drivers\": [{}],",
        drivers
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"jobs\": {},", specs.len());
    let _ = writeln!(json, "  \"batch_secs\": {:.6},", batch.total_secs);
    let _ = writeln!(json, "  \"sequential_secs\": {:.6},", seq.total_secs);
    let _ = writeln!(
        json,
        "  \"batch_jobs_per_sec\": {:.4},",
        batch.jobs_per_sec()
    );
    let _ = writeln!(json, "  \"interleave_overhead\": {overhead:.4},");
    json.push_str("  \"scaling\": [\n");
    for (idx, (d, run)) in scaling.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"drivers\": {d}, \"batch_secs\": {:.6}, \"jobs_per_sec\": {:.4}}}",
            run.total_secs,
            run.jobs_per_sec(),
        );
        json.push_str(if idx + 1 < scaling.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"rows\": [\n");
    for (idx, (a, b)) in batch.jobs.iter().zip(seq.jobs.iter()).enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"method\": \"{}\", \"sweeps\": {}, \
             \"batch_secs\": {:.6}, \"sequential_secs\": {:.6}}}",
            a.name,
            specs[idx].method.label(),
            a.output.as_ref().unwrap().report.sweeps.len(),
            a.secs,
            b.secs,
        );
        json.push_str(if idx + 1 < batch.jobs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");
}
