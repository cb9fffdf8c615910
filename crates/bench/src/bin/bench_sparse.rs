//! `bench_sparse` — benchmark of the CSF sparse MTTKRP fast path against
//! the densify-then-dense alternative (`SparseTensor::to_dense` followed
//! by the GEMM-backed dense MTTKRP), on power-law sparse tensors at the
//! densities the serving tier targets (≤ 1%). Writes a machine-readable
//! `BENCH_sparse.json` so CI can archive the sparse perf trajectory.
//!
//! ```text
//! bench_sparse [--quick] [--out BENCH_sparse.json] [--threads T]
//!              [--method dt,pp,msdt]
//! ```
//!
//! * `--quick` — smaller tensors / fewer samples (the CI bench-smoke
//!   preset; still exercises the parallel CSF path).
//! * `--out <path>` — where to write the JSON record (default
//!   `BENCH_sparse.json` in the current directory).
//! * `--threads <T>` — pin the pool width (default: `PP_NUM_THREADS` or
//!   hardware).
//! * `--method <list>` — comma-separated subset of `dt,pp,msdt` to run in
//!   the full-solver comparison section (default: all three).
//!
//! Malformed arguments exit with status 2.
//!
//! Every kernel row is verified **bitwise** against the pointwise dense
//! oracle (`mttkrp_pointwise` on the densified tensor) before it is
//! timed — the JSON records `"bitwise": true` only because the process
//! would have aborted otherwise. Likewise each pp/msdt solver row is
//! gated on its sparse session reproducing the same-method session on the
//! densified tensor bit for bit.
//!
//! JSON schema: an object with `preset`/`threads` tags, a `rows` array
//! of `{name, dims, nnz, density, rank, mode, csf_ns, densify_ns,
//! dense_ns, kernel_speedup, total_speedup, bitwise}` — `*_ns` are
//! min-over-samples nanoseconds per call, `kernel_speedup` =
//! `dense_ns / csf_ns` (steady state, tensor already dense),
//! `total_speedup` = `(densify_ns + dense_ns) / csf_ns` (one-shot cost of
//! the densifying alternative) — and a `methods` array of
//! `{method, sweeps, exact, pp_init, pp_approx, ns_per_sweep,
//! speedup_vs_dt, bitwise}` comparing the sparse ALS drivers (dt = direct
//! CSF, pp/msdt = semi-sparse chain) on one ≤1%-density tensor.

use pp_bench::parse_bench_args;
use pp_core::{AlsConfig, AlsSession, SessionKind, SweepKind};
use pp_datagen::powerlaw_sparse;
use pp_dtree::TreePolicy;
use pp_tensor::kernels::naive::{mttkrp, mttkrp_pointwise};
use pp_tensor::rng::{seeded, uniform_matrix};
use pp_tensor::sparse::{sparse_mttkrp, CsfTensor, SparseTensor};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One benchmark case: a power-law sparse tensor at a target density.
struct Case {
    name: &'static str,
    dims: Vec<usize>,
    samples: usize,
    skew: f64,
    rank: usize,
    mode: usize,
}

/// Power-law preset rows at ≤ 1% density (the acceptance band), plus one
/// denser control point. `samples` is the sampler's draw count; duplicate
/// draws collapse, so realized nnz (recorded in the JSON) is lower.
fn cases(quick: bool) -> Vec<Case> {
    if quick {
        return vec![
            Case {
                name: "pl_128_d0.5%",
                dims: vec![128, 64, 32],
                samples: 1_400,
                skew: 2.0,
                rank: 16,
                mode: 0,
            },
            Case {
                name: "pl_128_d1%",
                dims: vec![128, 64, 32],
                samples: 2_800,
                skew: 2.0,
                rank: 16,
                mode: 1,
            },
        ];
    }
    let dims = vec![256, 256, 64];
    vec![
        Case {
            name: "pl_256_d0.1%",
            dims: dims.clone(),
            samples: 4_300,
            skew: 2.0,
            rank: 16,
            mode: 0,
        },
        Case {
            name: "pl_256_d0.5%",
            dims: dims.clone(),
            samples: 21_500,
            skew: 2.0,
            rank: 16,
            mode: 0,
        },
        Case {
            name: "pl_256_d1%",
            dims: dims.clone(),
            samples: 43_500,
            skew: 2.0,
            rank: 16,
            mode: 1,
        },
        Case {
            name: "pl_256_d2%",
            dims,
            samples: 88_000,
            skew: 2.0,
            rank: 16,
            mode: 2,
        },
    ]
}

/// Min-over-samples seconds per call of `f`, each sample looping enough
/// iterations to span ≥ `budget` seconds (same harness as `bench_gemm`).
fn time_min(samples: usize, budget: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm-up (pool spin-up, buffer growth)
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = (budget / once).ceil().max(1.0) as usize;
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

struct Row {
    name: &'static str,
    dims: Vec<usize>,
    nnz: usize,
    density: f64,
    rank: usize,
    mode: usize,
    csf_s: f64,
    densify_s: f64,
    dense_s: f64,
}

fn dims_tag(dims: &[usize]) -> String {
    dims.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

/// One sparse-solver comparison row: method, sweep mix, time per sweep.
/// `approx_secs_per_sweep` isolates PP's approximated sweeps (Table II's
/// metric: those sweeps never touch the input tensor at all), 0 when the
/// method has none.
struct MethodRow {
    method: &'static str,
    sweeps: usize,
    exact: usize,
    pp_init: usize,
    pp_approx: usize,
    secs_per_sweep: f64,
    approx_secs_per_sweep: f64,
}

/// Run the `--method` comparison on one ≤1%-density power-law tensor:
/// every admitted sparse method decomposes the same input with the same
/// config knobs, bitwise-gated before timing (pp/msdt against the
/// same-method session on the densified tensor; dt's kernel is oracle-
/// gated in the kernel rows above).
fn method_comparison(methods: &[&'static str], quick: bool) -> Vec<MethodRow> {
    // Enough sweeps that PP's approximated regime (the cheap sweeps the
    // comparison is about) dominates the mix after its one-time init.
    let (dims, samples, rank, sweeps): (Vec<usize>, usize, usize, usize) = if quick {
        (vec![64, 48, 32], 1_000, 8, 8)
    } else {
        (vec![256, 256, 64], 21_500, 16, 12)
    };
    let sp = powerlaw_sparse(&dims, samples, 2.0, 11);
    println!(
        "\nsparse ALS methods on {} ({} nnz, density {:.2}%), R={rank}, {sweeps} sweeps:",
        dims_tag(&dims),
        sp.nnz(),
        sp.density() * 100.0,
    );
    println!(
        "{:<6} {:>7} {:>7} {:>8} {:>9} {:>14} {:>14} {:>10}",
        "method", "sweeps", "exact", "PP-init", "PP-appr", "ns/sweep", "ns/appr-sweep", "vs dt"
    );
    let cfg_for = |method: &str| {
        let mut cfg = AlsConfig::new(rank)
            .with_max_sweeps(sweeps)
            .with_tol(0.0)
            .with_policy(match method {
                "dt" => TreePolicy::Standard,
                _ => TreePolicy::MultiSweep,
            });
        if method == "pp" {
            // Loose ε so the short run actually enters the PP regime.
            cfg = cfg.with_pp_tol(0.5);
        }
        cfg
    };
    let kind_for = |method: &str| match method {
        "pp" => SessionKind::Pp,
        _ => SessionKind::Exact,
    };

    // Bitwise gates before any timing.
    let dense = sp.to_dense();
    for &m in methods {
        if m == "dt" {
            continue; // oracle-gated per mode in the kernel rows
        }
        let a = AlsSession::new(&dense, &cfg_for(m), kind_for(m)).run();
        let b = AlsSession::new_sparse(&sp, &cfg_for(m), kind_for(m)).run();
        assert_eq!(
            a.report.sweeps.len(),
            b.report.sweeps.len(),
            "{m}: sparse sweep count diverges from densified run"
        );
        for (i, (x, y)) in a
            .report
            .sweeps
            .iter()
            .zip(b.report.sweeps.iter())
            .enumerate()
        {
            assert_eq!(x.kind, y.kind, "{m}: sweep kind diverges at {i}");
            assert_eq!(
                x.fitness.to_bits(),
                y.fitness.to_bits(),
                "{m}: fitness diverges at sweep {i}"
            );
        }
        for (n, (fa, fb)) in a.factors.iter().zip(b.factors.iter()).enumerate() {
            assert_eq!(fa.data(), fb.data(), "{m}: factor {n} diverges");
        }
    }
    drop(dense);

    let mut rows = Vec::new();
    let mut dt_secs = None;
    for &m in methods {
        let out = AlsSession::new_sparse(&sp, &cfg_for(m), kind_for(m)).run();
        let n = out.report.sweeps.len().max(1);
        let secs_per_sweep = out.report.total_secs() / n as f64;
        // Per-sweep durations from the report's cumulative clock, so the
        // approximated-regime mean excludes init and exact sweeps.
        let mut prev = 0.0;
        let (mut approx_total, mut approx_n) = (0.0, 0usize);
        for rec in &out.report.sweeps {
            if rec.kind == SweepKind::PpApprox {
                approx_total += rec.cumulative_secs - prev;
                approx_n += 1;
            }
            prev = rec.cumulative_secs;
        }
        if m == "dt" {
            dt_secs = Some(secs_per_sweep);
        }
        let row = MethodRow {
            method: m,
            sweeps: out.report.sweeps.len(),
            exact: out.report.count(SweepKind::Exact),
            pp_init: out.report.count(SweepKind::PpInit),
            pp_approx: out.report.count(SweepKind::PpApprox),
            secs_per_sweep,
            approx_secs_per_sweep: if approx_n > 0 {
                approx_total / approx_n as f64
            } else {
                0.0
            },
        };
        println!(
            "{:<6} {:>7} {:>7} {:>8} {:>9} {:>14.0} {:>14.0} {:>9.2}x",
            row.method,
            row.sweeps,
            row.exact,
            row.pp_init,
            row.pp_approx,
            row.secs_per_sweep * 1e9,
            row.approx_secs_per_sweep * 1e9,
            dt_secs.map_or(f64::NAN, |d| d / row.secs_per_sweep),
        );
        rows.push(row);
    }
    rows
}

fn main() {
    let mut methods: Vec<&'static str> = vec!["dt", "pp", "msdt"];
    let args = parse_bench_args(
        "bench_sparse",
        "BENCH_sparse.json",
        " [--method dt,pp,msdt]",
        |flag, value| {
            if flag != "--method" {
                return Ok(false);
            }
            let list = value.ok_or("--method expects a comma-separated list (dt,pp,msdt)")?;
            methods = list
                .split(',')
                .map(|m| match m {
                    "dt" => Ok("dt"),
                    "pp" => Ok("pp"),
                    "msdt" => Ok("msdt"),
                    other => Err(format!("unknown method '{other}' (dt|pp|msdt)")),
                })
                .collect::<Result<_, _>>()?;
            Ok(true)
        },
    );
    let (quick, out_path, threads) = (args.quick, args.out, args.threads);
    let (samples, budget) = if quick { (3, 0.02) } else { (5, 0.1) };

    println!(
        "CSF sparse MTTKRP vs densify-then-dense ({} preset, {threads} thread{}):",
        if quick { "quick" } else { "full" },
        if threads == 1 { "" } else { "s" },
    );
    println!(
        "{:<14} {:>12} {:>8} {:>8} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "case", "dims", "nnz", "density", "CSF", "densify", "dense", "kernel", "total"
    );
    println!(
        "{:<14} {:>12} {:>8} {:>8} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "", "", "", "", "ns/call", "ns/call", "ns/call", "speedup", "speedup"
    );

    let mut rng = seeded(42);
    let mut rows: Vec<Row> = Vec::new();
    for c in cases(quick) {
        let sp: SparseTensor = powerlaw_sparse(&c.dims, c.samples, c.skew, 11);
        let csf = CsfTensor::build(&sp);
        let factors: Vec<_> = c
            .dims
            .iter()
            .map(|&d| uniform_matrix(d, c.rank, &mut rng))
            .collect();

        // Bitwise parity gate: the CSF kernel must reproduce the pointwise
        // dense oracle exactly before we bother timing it.
        let dense = sp.to_dense();
        for n in 0..c.dims.len() {
            let got = sparse_mttkrp(&csf, &factors, n);
            let want = mttkrp_pointwise(&dense, &factors, n);
            assert_eq!(
                got.data(),
                want.data(),
                "{}: CSF MTTKRP diverges from the dense oracle at mode {n}",
                c.name
            );
        }

        let csf_s = time_min(samples, budget, || {
            black_box(sparse_mttkrp(black_box(&csf), &factors, c.mode));
        });
        let densify_s = time_min(samples, budget, || {
            black_box(black_box(&sp).to_dense());
        });
        let dense_s = time_min(samples, budget, || {
            black_box(mttkrp(black_box(&dense), &factors, c.mode));
        });

        println!(
            "{:<14} {:>12} {:>8} {:>7.2}% {:>12.0} {:>12.0} {:>12.0} {:>7.1}x {:>7.1}x",
            c.name,
            dims_tag(&c.dims),
            sp.nnz(),
            sp.density() * 100.0,
            csf_s * 1e9,
            densify_s * 1e9,
            dense_s * 1e9,
            dense_s / csf_s,
            (densify_s + dense_s) / csf_s,
        );
        rows.push(Row {
            name: c.name,
            dims: c.dims,
            nnz: sp.nnz(),
            density: sp.density(),
            rank: c.rank,
            mode: c.mode,
            csf_s,
            densify_s,
            dense_s,
        });
    }

    let method_rows = method_comparison(&methods, quick);
    let dt_per_sweep = method_rows
        .iter()
        .find(|r| r.method == "dt")
        .map(|r| r.secs_per_sweep);

    // Hand-rolled JSON (no serde in the vendored dependency set).
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"preset\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    json.push_str("  \"rows\": [\n");
    for (idx, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"dims\": \"{}\", \"nnz\": {}, \"density\": {:.6}, \
             \"rank\": {}, \"mode\": {}, \"csf_ns\": {:.0}, \"densify_ns\": {:.0}, \
             \"dense_ns\": {:.0}, \"kernel_speedup\": {:.3}, \"total_speedup\": {:.3}, \
             \"bitwise\": true}}",
            r.name,
            dims_tag(&r.dims),
            r.nnz,
            r.density,
            r.rank,
            r.mode,
            r.csf_s * 1e9,
            r.densify_s * 1e9,
            r.dense_s * 1e9,
            r.dense_s / r.csf_s,
            (r.densify_s + r.dense_s) / r.csf_s,
        );
        json.push_str(if idx + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"methods\": [\n");
    for (idx, r) in method_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"method\": \"{}\", \"sweeps\": {}, \"exact\": {}, \"pp_init\": {}, \
             \"pp_approx\": {}, \"ns_per_sweep\": {:.0}, \"approx_ns_per_sweep\": {:.0}, \
             \"speedup_vs_dt\": {:.3}, \"approx_speedup_vs_dt\": {:.3}, \"bitwise\": true}}",
            r.method,
            r.sweeps,
            r.exact,
            r.pp_init,
            r.pp_approx,
            r.secs_per_sweep * 1e9,
            r.approx_secs_per_sweep * 1e9,
            dt_per_sweep.map_or(0.0, |d| d / r.secs_per_sweep),
            if r.approx_secs_per_sweep > 0.0 {
                dt_per_sweep.map_or(0.0, |d| d / r.approx_secs_per_sweep)
            } else {
                0.0
            },
        );
        json.push_str(if idx + 1 < method_rows.len() {
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
