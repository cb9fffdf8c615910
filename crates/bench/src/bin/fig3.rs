//! Fig. 3 reproduction: weak-scaling of per-sweep time for PLANC / DT /
//! MSDT / PP-init / PP-approx (Fig. 3a order 3, Fig. 3b order 4), plus the
//! per-kernel time breakdowns (Fig. 3c–f).
//!
//! Grids up to the machine's parallelism are *measured* on the simulated
//! runtime; the full paper ladder (up to 8×8×16 = 1024 ranks) is reported
//! through the calibrated Table I cost model (see DESIGN.md §1).
//!
//! Run: `cargo run --release -p pp-bench --bin fig3 [-- --full]`

use pp_bench::{
    fmt_secs, measure_per_sweep, modeled_per_sweep, order3_grids_measured, order3_grids_paper,
    order4_grids_measured, order4_grids_paper, Fig3Method,
};
use pp_comm::CostModel;

fn grid_name(g: &[usize]) -> String {
    g.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

fn weak_scaling(
    title: &str,
    measured: &[Vec<usize>],
    paper: &[Vec<usize>],
    s_local: usize,
    rank: usize,
    sweeps: usize,
    model: &CostModel,
) {
    println!("\n== {title}: measured per-sweep time (s_local={s_local}, R={rank}) ==");
    println!(
        "{:12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "grid", "PLANC", "DT", "MSDT", "PP-init", "PP-approx"
    );
    for g in measured {
        let mut row = format!("{:12}", grid_name(g));
        for m in Fig3Method::all() {
            let meas = measure_per_sweep(m, g, s_local, rank, sweeps);
            row.push_str(&format!(" {:>12}", fmt_secs(meas.secs)));
        }
        println!("{row}");
    }

    println!("\n-- modeled at paper scale (Table I formulas, Stampede2-like machine) --");
    println!(
        "{:12} {:>12} {:>12} {:>12} {:>12}",
        "grid", "DT", "MSDT", "PP-init", "PP-approx"
    );
    for g in paper {
        let mut row = format!("{:12}", grid_name(g));
        for m in [
            Fig3Method::Dt,
            Fig3Method::Msdt,
            Fig3Method::PpInit,
            Fig3Method::PpApprox,
        ] {
            // Paper-scale model uses the paper's parameters.
            let (sl, r) = if g.len() == 3 { (400, 400) } else { (75, 200) };
            row.push_str(&format!(
                " {:>12}",
                fmt_secs(modeled_per_sweep(m, g, sl, r, model))
            ));
        }
        println!("{row}");
    }
}

fn breakdown(title: &str, grid: &[usize], s_local: usize, rank: usize, sweeps: usize) {
    println!(
        "\n== {title}: per-sweep kernel breakdown (grid {}) ==",
        grid_name(grid)
    );
    println!(
        "{:12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "method", "TTM", "mTTV", "hadamard", "solve", "others", "total"
    );
    for m in [Fig3Method::Planc, Fig3Method::Dt, Fig3Method::Msdt] {
        let meas = measure_per_sweep(m, grid, s_local, rank, sweeps);
        let five = meas.stats.five_way();
        let total: f64 = five.iter().map(|(_, s)| s).sum();
        println!(
            "{:12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} (packed GEMM {:.2} Gflop, {}/{} fixed-n/generic; sparse MTTKRP {:.2} Gflop, {} fibers)",
            m.label(),
            fmt_secs(five[0].1),
            fmt_secs(five[1].1),
            fmt_secs(five[2].1),
            fmt_secs(five[3].1),
            fmt_secs(five[4].1),
            fmt_secs(total),
            meas.stats.gemm_packed_flops as f64 / 1e9,
            meas.stats.gemm_fixed_n_calls,
            meas.stats.gemm_generic_calls,
            meas.stats.sparse_mttkrp_flops as f64 / 1e9,
            meas.stats.sparse_fibers_visited,
        );
    }
    // PP kernels timed as whole steps (their internals are mTTV-dominated).
    for m in [Fig3Method::PpInit, Fig3Method::PpApprox] {
        let meas = measure_per_sweep(m, grid, s_local, rank, sweeps);
        println!(
            "{:12} {:>12} (whole step; mTTV-dominated, see paper §IV)",
            m.label(),
            fmt_secs(meas.secs)
        );
    }
}

fn main() {
    let threads = pp_bench::apply_threads_flag();
    eprintln!("[pool] {threads} kernel threads");
    let full = std::env::args().any(|a| a == "--full");
    let model = CostModel::stampede2_like();
    // Reproduction-scale parameters (paper scale needs 1024 KNL nodes).
    let (s3, r3) = if full { (48, 96) } else { (36, 64) };
    let (s4, r4) = if full { (14, 64) } else { (12, 48) };
    let sweeps = if full { 5 } else { 3 };

    weak_scaling(
        "Fig. 3a (order 3)",
        &order3_grids_measured(),
        &order3_grids_paper(),
        s3,
        r3,
        sweeps,
        &model,
    );
    weak_scaling(
        "Fig. 3b (order 4)",
        &order4_grids_measured(),
        &order4_grids_paper(),
        s4,
        r4,
        sweeps,
        &model,
    );

    breakdown("Fig. 3c analogue", &[1, 2, 2], s3, r3, sweeps);
    breakdown("Fig. 3d analogue", &[2, 2, 4], s3, r3, sweeps);
    breakdown("Fig. 3e analogue", &[1, 1, 2, 2], s4, r4, sweeps);
    breakdown("Fig. 3f analogue", &[2, 2, 2, 2], s4, r4, sweeps);
}
