//! Cyclops-style reference parallel PP (the `PP-init-ref` /
//! `PP-approx-ref` baselines of Table I and Table II).
//!
//! The reference implementation (Ma & Solomonik 2018, built on Cyclops)
//! treats every contraction in the PP dimension tree as a general
//! distributed tensor contraction: Cyclops redistributes the operands to a
//! mapping that is efficient for each contraction, which inserts an
//! all-to-all style redistribution *between consecutive contractions*, and
//! its approximated step keeps correction matrices fully replicated,
//! reducing each `U^(n,i)` with its own world collective (`N²` collectives
//! per sweep instead of `N`).
//!
//! The functions here compute **identical results** to [`crate::par_pp`] —
//! the extra collectives are semantically identity redistributions and
//! equivalent reductions — so the measured time difference isolates
//! exactly the communication overhead the paper's Table II quantifies.

use crate::config::AlsConfig;
use crate::par_common::ParState;
use pp_comm::{Collectives, RankCtx};
use pp_dtree::correct::first_order_correction;
use pp_dtree::pp_tree::{build_pp_operators, PpOperators};
use pp_grid::{DistTensor, ProcGrid};
use pp_tensor::Matrix;
use std::time::Duration;
use std::time::Instant;

/// Round-trip an intermediate's buffer through an All-to-All — the
/// redistribution Cyclops performs between consecutive contractions. The
/// data returns bit-identical (each rank keeps its own shard), so results
/// are unchanged while the communication cost is actually paid.
fn redistribute(ctx: &mut RankCtx, data: &[f64]) {
    let p = ctx.size();
    let chunk = data.len().div_ceil(p.max(1));
    let chunks: Vec<Vec<f64>> = (0..p)
        .map(|d| {
            let lo = (d * chunk).min(data.len());
            let hi = ((d + 1) * chunk).min(data.len());
            data[lo..hi].to_vec()
        })
        .collect();
    let _ = ctx.comm.all_to_all(chunks);
}

/// PP initialization with Cyclops-style redistribution costs: builds the
/// same local operators as Algorithm 4, then pays one redistribution per
/// operator (pairs and anchors) plus a full replication of every factor
/// matrix, mimicking the general-contraction data movement.
pub fn ref_pp_init(ctx: &mut RankCtx, st: &mut ParState, _cfg: &AlsConfig) -> PpOperators {
    // Cyclops-style: factor matrices replicated in full before contracting.
    for i in 0..st.n_modes() {
        let q = st.dist_factors[i].q().data().to_vec();
        let _ = ctx.comm.all_gather(&q);
    }
    let ops = build_pp_operators(&mut st.input, &st.fs_local, &mut st.engine);
    // One redistribution per materialized operator.
    for pair in ops.pairs.values() {
        redistribute(ctx, pair.dense().data());
    }
    for first in &ops.firsts {
        redistribute(ctx, first.data());
    }
    ops
}

/// One `ref` approximated factor update for mode `n`: identical math to
/// Algorithm 4's lines 4-8, but each first-order correction is reduced with
/// its own world All-Reduce over the *full* factor rows (N² collectives per
/// sweep), instead of being summed locally and Reduce-Scattered once.
pub fn ref_pp_approx_correction(
    ctx: &mut RankCtx,
    st: &ParState,
    ops: &PpOperators,
    p_p: &[Matrix],
    n: usize,
) -> Matrix {
    let n_modes = st.n_modes();
    let mut m_local = ops.firsts[n].clone();
    for (i, p_ref) in p_p.iter().enumerate().take(n_modes) {
        if i == n {
            continue;
        }
        let d_p = st.dist_factors[i].p().sub(p_ref);
        let u = first_order_correction(ops, n, i, &d_p);
        // Reference pattern: reduce every correction separately across the
        // whole machine (then keep our own slice-summed copy so the final
        // result is identical to the efficient algorithm's).
        let _ = ctx.comm.all_reduce_sum(u.data());
        m_local.axpy(1.0, &u);
    }
    m_local
}

/// Measured timings of the two PP kernels for Table II.
#[derive(Clone, Copy, Debug, Default)]
pub struct PpKernelTimes {
    /// Seconds of one PP initialization.
    pub init_secs: f64,
    /// Mean seconds of one approximated sweep's MTTKRP work.
    pub approx_secs: f64,
}

/// Which implementation to time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PpVariant {
    /// This paper's communication-efficient algorithm.
    Ours,
    /// The Cyclops-style reference.
    Reference,
}

/// Benchmark harness for Table II: time one PP initialization and
/// `approx_sweeps` approximated sweeps (corrections + Reduce-Scatter only,
/// no solves — the table isolates MTTKRP calculation time).
pub fn time_pp_kernels(
    ctx: &mut RankCtx,
    grid: &ProcGrid,
    local: &DistTensor,
    cfg: &AlsConfig,
    approx_sweeps: usize,
    variant: PpVariant,
) -> PpKernelTimes {
    let mut st = ParState::init(ctx, grid, local, cfg);
    let n_modes = st.n_modes();

    // One exact sweep to warm the cache (PP init reuses a first-level
    // intermediate from it, matching the algorithm's real execution).
    for n in 0..n_modes {
        let _ = st.update_mode_exact(ctx, cfg, n);
    }

    ctx.comm.barrier();
    let t0 = Instant::now();
    let ops = match variant {
        PpVariant::Ours => build_pp_operators(&mut st.input, &st.fs_local, &mut st.engine),
        PpVariant::Reference => ref_pp_init(ctx, &mut st, cfg),
    };
    ctx.comm.barrier();
    let init_secs = t0.elapsed().as_secs_f64();

    let p_p: Vec<Matrix> = st.dist_factors.iter().map(|f| f.p().clone()).collect();
    // Perturb the factors so the corrections do real work.
    for n in 0..n_modes {
        let mut q = st.dist_factors[n].q().clone();
        q.scale(1.0 + 1e-3);
        st.commit_update(ctx, n, q);
    }

    let mut approx_total = Duration::ZERO;
    for _ in 0..approx_sweeps {
        ctx.comm.barrier();
        let t1 = Instant::now();
        for n in 0..n_modes {
            let m_local = match variant {
                PpVariant::Ours => {
                    let mut m = ops.firsts[n].clone();
                    for (i, p_ref) in p_p.iter().enumerate().take(n_modes) {
                        if i == n {
                            continue;
                        }
                        let d_p = st.dist_factors[i].p().sub(p_ref);
                        m.axpy(1.0, &first_order_correction(&ops, n, i, &d_p));
                    }
                    m
                }
                PpVariant::Reference => ref_pp_approx_correction(ctx, &st, &ops, &p_p, n),
            };
            let _ = st.dist_factors[n].reduce_scatter_rows(&m_local, &st.slices[n]);
        }
        ctx.comm.barrier();
        approx_total += t1.elapsed();
    }

    PpKernelTimes {
        init_secs,
        approx_secs: approx_total.as_secs_f64() / approx_sweeps.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_comm::Runtime;
    use pp_datagen::lowrank::noisy_rank;
    use std::sync::Arc;

    #[test]
    fn both_variants_produce_same_corrections() {
        let t = Arc::new(noisy_rank(&[8, 6, 8], 2, 0.05, 5));
        let grid = ProcGrid::new(vec![2, 1, 2]);
        let cfg = AlsConfig::new(2).with_max_sweeps(4);
        let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
        let out = Runtime::from_env(4).run(move |ctx| {
            let local = DistTensor::from_global(&t2, &g2, ctx.rank());
            let mut st = ParState::init(ctx, &g2, &local, &c2);
            for n in 0..3 {
                let _ = st.update_mode_exact(ctx, &c2, n);
            }
            let ops = build_pp_operators(&mut st.input, &st.fs_local, &mut st.engine);
            let p_p: Vec<Matrix> = st.dist_factors.iter().map(|f| f.p().clone()).collect();
            // Perturb factors.
            for n in 0..3 {
                let mut q = st.dist_factors[n].q().clone();
                q.scale(1.01);
                st.commit_update(ctx, n, q);
            }
            // Ours: local sums.
            let mut ours = ops.firsts[0].clone();
            for (i, p_ref) in p_p.iter().enumerate().take(3).skip(1) {
                let d_p = st.dist_factors[i].p().sub(p_ref);
                ours.axpy(1.0, &first_order_correction(&ops, 0, i, &d_p));
            }
            // Reference path.
            let theirs = ref_pp_approx_correction(ctx, &st, &ops, &p_p, 0);
            ours.max_abs_diff(&theirs)
        });
        for diff in out.results {
            assert!(diff < 1e-12, "variants diverged: {diff}");
        }
    }

    #[test]
    fn timing_harness_runs_both_variants() {
        let t = Arc::new(noisy_rank(&[6, 6, 6], 2, 0.05, 7));
        let grid = ProcGrid::new(vec![2, 2, 1]);
        let cfg = AlsConfig::new(2);
        for variant in [PpVariant::Ours, PpVariant::Reference] {
            let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
            let out = Runtime::from_env(4).run(move |ctx| {
                let local = DistTensor::from_global(&t2, &g2, ctx.rank());
                time_pp_kernels(ctx, &g2, &local, &c2, 2, variant)
            });
            for times in out.results {
                assert!(times.init_secs > 0.0);
                assert!(times.approx_secs > 0.0);
            }
        }
    }
}
