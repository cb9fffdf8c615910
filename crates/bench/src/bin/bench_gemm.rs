//! `bench_gemm` — micro-benchmark of the packed register-tiled GEMM
//! against the retained cache-blocked reference kernel, on the matmul
//! shapes CP-ALS actually issues (tall-skinny with `n = rank`, plus the
//! `AᵀA` Gram shape). Writes a machine-readable `BENCH_gemm.json` so CI
//! can archive a perf trajectory for the kernel that dominates sweep time.
//!
//! ```text
//! bench_gemm [--quick] [--out BENCH_gemm.json] [--threads T]
//! ```
//!
//! * `--quick` — smaller shapes / fewer samples (the CI bench-smoke
//!   preset; still exercises every dispatch path).
//! * `--out <path>` — where to write the JSON record (default
//!   `BENCH_gemm.json` in the current directory).
//! * `--threads <T>` — pin the pool width (default: `PP_NUM_THREADS` or
//!   hardware).
//!
//! Malformed arguments exit with status 2.
//!
//! JSON schema: an object with a `preset` tag and a `rows` array of
//! `{name, m, n, k, ta, tb, packed_ns, ref_ns, packed_mflops, ref_mflops,
//! speedup}` — `*_ns` are min-over-samples nanoseconds per call,
//! `*_mflops` the implied 2·m·n·k rate, `speedup` = `ref_ns / packed_ns`.

use pp_bench::parse_bench_args;
use pp_tensor::gemm::{gemm_flops, gemm_slice, gemm_slice_ref, Trans};
use pp_tensor::rng::{seeded, uniform_matrix};
use pp_tensor::Matrix;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One benchmark shape: `C(m×n) ← op(A)·op(B)`.
struct Shape {
    name: &'static str,
    m: usize,
    n: usize,
    k: usize,
    ta: Trans,
    tb: Trans,
}

/// Tall-skinny rank-shaped rows (the acceptance shapes: m ≥ 4096,
/// n ∈ {16, 32}), the Khatri-Rao-sized MTTKRP row, and the Gram shape.
fn shapes(quick: bool) -> Vec<Shape> {
    let big = if quick { 4096 } else { 9216 };
    vec![
        Shape {
            name: "ttm_last_n16",
            m: big,
            n: 16,
            k: 96,
            ta: Trans::No,
            tb: Trans::No,
        },
        Shape {
            name: "ttm_last_n32",
            m: big,
            n: 32,
            k: 96,
            ta: Trans::No,
            tb: Trans::No,
        },
        Shape {
            name: "ttm_last_n48",
            m: big,
            n: 48,
            k: 96,
            ta: Trans::No,
            tb: Trans::No,
        },
        Shape {
            name: "ttm_first_n32",
            m: big,
            n: 32,
            k: 96,
            ta: Trans::Yes,
            tb: Trans::No,
        },
        Shape {
            name: "gram_r48",
            m: 48,
            n: 48,
            k: big,
            ta: Trans::Yes,
            tb: Trans::No,
        },
        Shape {
            name: "mttkrp_n8",
            m: 96,
            n: 8,
            k: big,
            ta: Trans::No,
            tb: Trans::No,
        },
    ]
}

/// Min-over-samples seconds per call of `f`, each sample looping enough
/// iterations to span ≥ `budget` seconds (amortizes timer noise the same
/// way the vendored criterion shim does).
fn time_min(samples: usize, budget: f64, mut f: impl FnMut()) -> f64 {
    // Calibrate iterations per sample.
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
    m: usize,
    n: usize,
    k: usize,
    ta: Trans,
    tb: Trans,
    packed_s: f64,
    ref_s: f64,
}

fn trans_tag(t: Trans) -> &'static str {
    match t {
        Trans::No => "N",
        Trans::Yes => "T",
    }
}

fn main() {
    let args = parse_bench_args("bench_gemm", "BENCH_gemm.json", "", |_, _| Ok(false));
    let (quick, out_path, threads) = (args.quick, args.out, args.threads);
    let (samples, budget) = if quick { (3, 0.02) } else { (5, 0.1) };

    println!(
        "packed vs blocked GEMM ({} preset, {threads} thread{}):",
        if quick { "quick" } else { "full" },
        if threads == 1 { "" } else { "s" },
    );
    println!(
        "{:<16} {:>14} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "shape", "m×n×k", "packed", "blocked", "packed", "blocked", "speedup"
    );
    println!(
        "{:<16} {:>14} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "", "", "ns/call", "ns/call", "MF/s", "MF/s", ""
    );

    let mut rng = seeded(42);
    let mut rows: Vec<Row> = Vec::new();
    for s in shapes(quick) {
        let (ar, ac) = match s.ta {
            Trans::No => (s.m, s.k),
            Trans::Yes => (s.k, s.m),
        };
        let (br, bc) = match s.tb {
            Trans::No => (s.k, s.n),
            Trans::Yes => (s.n, s.k),
        };
        let a = uniform_matrix(ar, ac, &mut rng);
        let b = uniform_matrix(br, bc, &mut rng);
        let mut c = Matrix::zeros(s.m, s.n);

        let packed_s = time_min(samples, budget, || {
            gemm_slice(
                s.ta,
                s.tb,
                1.0,
                a.data(),
                ar,
                ac,
                b.data(),
                br,
                bc,
                0.0,
                black_box(c.data_mut()),
                s.m,
                s.n,
            )
        });
        let ref_s = time_min(samples, budget, || {
            gemm_slice_ref(
                s.ta,
                s.tb,
                1.0,
                a.data(),
                ar,
                ac,
                b.data(),
                br,
                bc,
                0.0,
                black_box(c.data_mut()),
                s.m,
                s.n,
            )
        });

        let fl = gemm_flops(s.m, s.n, s.k) as f64;
        println!(
            "{:<16} {:>14} {:>12.0} {:>12.0} {:>10.0} {:>10.0} {:>7.2}x",
            s.name,
            format!("{}×{}×{}", s.m, s.n, s.k),
            packed_s * 1e9,
            ref_s * 1e9,
            fl / packed_s / 1e6,
            fl / ref_s / 1e6,
            ref_s / packed_s,
        );
        rows.push(Row {
            name: s.name,
            m: s.m,
            n: s.n,
            k: s.k,
            ta: s.ta,
            tb: s.tb,
            packed_s,
            ref_s,
        });
    }

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
        let fl = gemm_flops(r.m, r.n, r.k) as f64;
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"m\": {}, \"n\": {}, \"k\": {}, \"ta\": \"{}\", \"tb\": \"{}\", \
             \"packed_ns\": {:.0}, \"ref_ns\": {:.0}, \"packed_mflops\": {:.1}, \"ref_mflops\": {:.1}, \
             \"speedup\": {:.3}}}",
            r.name,
            r.m,
            r.n,
            r.k,
            trans_tag(r.ta),
            trans_tag(r.tb),
            r.packed_s * 1e9,
            r.ref_s * 1e9,
            fl / r.packed_s / 1e6,
            fl / r.ref_s / 1e6,
            r.ref_s / r.packed_s,
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
