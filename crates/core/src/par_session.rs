//! Resumable per-rank sessions for the parallel BSP drivers
//! (Algorithms 3 and 4).
//!
//! A [`ParSession`] is the SPMD analogue of [`crate::session::AlsSession`]:
//! every rank owns one session wrapping its [`ParState`] (local tensor
//! block, dimension-tree engine + cache, distributed factors, replicated
//! Grams) plus the sweep trace and — for [`ParKind::Pp`] — the PP regime
//! snapshot. [`ParSession::step`] advances exactly one sweep **in
//! lockstep**: all ranks of a grid must step their sessions together,
//! because a sweep issues the same sequence of collectives on every rank.
//! The step boundary is a full BSP superstep, so pausing between steps is
//! always safe.
//!
//! `par_cp_als` and `par_pp_cp_als` are thin step-loops over this type;
//! `tests/golden_traces.rs` pins their pre-session traces.

use crate::config::AlsConfig;
use crate::par_als::ParAlsOutput;
use crate::par_common::ParState;
use crate::result::{AlsReport, SweepKind, SweepRecord};
use crate::session::{Step, StopReason};
use pp_comm::{Collectives, RankCtx};
use pp_dtree::pp_tree::{build_pp_operators, PpOperators};
use pp_dtree::Kernel;
use pp_grid::{DistTensor, ProcGrid};
use pp_tensor::matrix::hadamard_chain_skip;
use pp_tensor::Matrix;
use std::time::Instant;

/// Which parallel algorithm the session runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParKind {
    /// Parallel exact CP-ALS (Algorithm 3).
    Exact,
    /// Communication-efficient parallel PP (Algorithm 4 inside Alg. 2).
    Pp,
}

/// Snapshot of the factors at PP initialization (the `A_p` reference).
struct PpSnapshot {
    /// Reference P blocks (for local first-order corrections).
    p_p: Vec<Matrix>,
    /// Reference Q blocks (for dA bookkeeping and norms).
    q_p: Vec<Matrix>,
    /// The local PP operators.
    ops: PpOperators,
}

/// `dS^(i) = A^(i)ᵀ dA^(i)` from Q blocks, All-Reduced to global (Eq. 8).
fn d_grams_global(ctx: &mut RankCtx, st: &ParState, snap: &PpSnapshot) -> Vec<Matrix> {
    (0..st.n_modes())
        .map(|i| {
            let dq = st.dist_factors[i].q().sub(&snap.q_p[i]);
            let local = st.dist_factors[i].q().t_matmul(&dq);
            let summed = ctx.comm.all_reduce_sum(local.data());
            Matrix::from_vec(local.rows(), local.cols(), summed)
        })
        .collect()
}

/// Relative factor drift `‖dA^(i)‖F / ‖A^(i)‖F` for every mode.
fn drift(ctx: &mut RankCtx, st: &ParState, q_p: &[Matrix]) -> Vec<f64> {
    (0..st.n_modes())
        .map(|i| {
            let dq = st.dist_factors[i].q().sub(&q_p[i]);
            let num_den = ctx
                .comm
                .all_reduce_sum(&[dq.norm_sq(), st.dist_factors[i].q().norm_sq()]);
            (num_den[0].sqrt()) / num_den[1].sqrt().max(1e-300)
        })
        .collect()
}

/// A resumable parallel CP-ALS / PP-CP-ALS run on one rank.
pub struct ParSession {
    cfg: AlsConfig,
    kind: ParKind,
    /// All rank-local numerical state (public so diagnostics can inspect
    /// it, like `ParState` itself).
    pub st: ParState,
    /// Relative drift of the most recent sweep (Alg. 2 line 2 initializes
    /// dA ← A, i.e. drift 1, so PP never fires before the first sweep).
    last_drift: Vec<f64>,
    snap: Option<PpSnapshot>,
    /// Whether the next step is a PP approximated sweep.
    in_pp: bool,
    report: AlsReport,
    fitness_old: f64,
    cumulative: f64,
    converged: bool,
    sweeps_done: usize,
    finished: bool,
}

impl ParSession {
    /// Initialize the SPMD state (Alg. 3 lines 1-9). All ranks must call
    /// with the same `grid` and `cfg`, and their own block of one tensor.
    pub fn new(
        ctx: &mut RankCtx,
        grid: &ProcGrid,
        local: &DistTensor,
        cfg: &AlsConfig,
        kind: ParKind,
    ) -> Self {
        let _threads = cfg.thread_guard();
        let st = ParState::init(ctx, grid, local, cfg);
        let n_modes = st.n_modes();
        ParSession {
            cfg: cfg.clone(),
            kind,
            st,
            last_drift: vec![1.0; n_modes],
            snap: None,
            in_pp: false,
            report: AlsReport::default(),
            fitness_old: f64::NEG_INFINITY,
            cumulative: 0.0,
            converged: false,
            sweeps_done: 0,
            finished: false,
        }
    }

    /// The session's algorithm.
    pub fn kind(&self) -> ParKind {
        self.kind
    }

    /// Sweeps performed so far.
    pub fn sweeps_done(&self) -> usize {
        self.sweeps_done
    }

    /// Whether stepping has stopped.
    pub fn is_finished(&self) -> bool {
        self.finished || self.sweeps_done >= self.cfg.max_sweeps
    }

    /// The trace accumulated so far.
    pub fn report(&self) -> &AlsReport {
        &self.report
    }

    /// Advance exactly one sweep. Collective-lockstep: every rank of the
    /// grid must call this the same number of times.
    pub fn step(&mut self, ctx: &mut RankCtx) -> Step {
        if self.finished {
            return Step::Done(if self.converged {
                StopReason::Converged
            } else {
                StopReason::SweepLimit
            });
        }
        if self.sweeps_done >= self.cfg.max_sweeps {
            self.finished = true;
            return Step::Done(StopReason::SweepLimit);
        }
        let _threads = self.cfg.thread_guard();

        let rec = match self.kind {
            ParKind::Exact => self.exact_sweep(ctx),
            ParKind::Pp => {
                if self.in_pp {
                    self.pp_approx_sweep(ctx)
                } else if self.last_drift.iter().all(|&d| d < self.cfg.pp_tol) {
                    self.pp_init(ctx)
                } else {
                    self.exact_sweep(ctx)
                }
            }
        };
        self.report.sweeps.push(rec);
        self.sweeps_done += 1;

        if rec.kind != SweepKind::PpInit {
            if self.cfg.track_fitness && (rec.fitness - self.fitness_old).abs() < self.cfg.tol {
                self.converged = true;
                self.finished = true;
                return Step::Swept(rec);
            }
            self.fitness_old = rec.fitness;
        }
        // Post-approx drift gate (Alg. 4 line 17). Ordering matters for
        // lockstep: the monolithic driver measured drift only when the
        // sweep did not converge, so the session must too — `drift` issues
        // collectives.
        if rec.kind == SweepKind::PpApprox {
            let snap = self.snap.as_ref().expect("approx sweep requires snapshot");
            self.last_drift = drift(ctx, &self.st, &snap.q_p);
            if !self.last_drift.iter().all(|&d| d < self.cfg.pp_tol) {
                self.in_pp = false;
            }
        }
        Step::Swept(rec)
    }

    /// Run to completion: the monolithic driver as a step loop.
    pub fn run(mut self, ctx: &mut RankCtx) -> ParAlsOutput {
        while let Step::Swept(_) = self.step(ctx) {}
        self.finish(ctx)
    }

    /// Gather global factors, seal the report.
    pub fn finish(mut self, ctx: &mut RankCtx) -> ParAlsOutput {
        let _threads = self.cfg.thread_guard();
        let factors = self.st.gather_factors(ctx);
        self.report.stats = self.st.engine.take_stats();
        self.report.final_fitness = self.report.sweeps.last().map_or(f64::NAN, |s| s.fitness);
        self.report.converged = self.converged;
        ParAlsOutput {
            factors,
            report: self.report,
        }
    }

    /// One exact sweep (Alg. 3 lines 10-19). For PP sessions this also
    /// refreshes the drift against the pre-sweep Q blocks.
    fn exact_sweep(&mut self, ctx: &mut RankCtx) -> SweepRecord {
        let n_modes = self.st.n_modes();
        let q_before: Option<Vec<Matrix>> = if self.kind == ParKind::Pp {
            Some(self.st.dist_factors.iter().map(|f| f.q().clone()).collect())
        } else {
            None
        };
        let t0 = Instant::now();
        let mut last: Option<(Matrix, Matrix)> = None;
        for n in 0..n_modes {
            let out = self.st.update_mode_exact(ctx, &self.cfg, n);
            if n == n_modes - 1 {
                last = Some(out);
            }
        }
        let (gamma_last, m_q_last) = last.unwrap();
        let fitness = if self.cfg.track_fitness {
            self.st.fitness(ctx, &gamma_last, &m_q_last)
        } else {
            f64::NAN
        };
        let secs = t0.elapsed().as_secs_f64();
        self.cumulative += secs;
        if let Some(q_before) = q_before {
            self.last_drift = drift(ctx, &self.st, &q_before);
        }
        SweepRecord {
            kind: SweepKind::Exact,
            secs,
            fitness,
            cumulative_secs: self.cumulative,
        }
    }

    /// PP initialization (Alg. 4 line 2): local operator construction,
    /// then a barrier so the regime switch is a superstep boundary.
    fn pp_init(&mut self, ctx: &mut RankCtx) -> SweepRecord {
        let t0 = Instant::now();
        self.snap = Some(PpSnapshot {
            p_p: self.st.dist_factors.iter().map(|f| f.p().clone()).collect(),
            q_p: self.st.dist_factors.iter().map(|f| f.q().clone()).collect(),
            ops: build_pp_operators(&mut self.st.input, &self.st.fs_local, &mut self.st.engine),
        });
        ctx.comm.barrier();
        let secs = t0.elapsed().as_secs_f64();
        self.cumulative += secs;
        self.in_pp = true;
        SweepRecord {
            kind: SweepKind::PpInit,
            secs,
            fitness: self.report.sweeps.last().map_or(f64::NAN, |s| s.fitness),
            cumulative_secs: self.cumulative,
        }
    }

    /// One PP approximated sweep (Alg. 4 lines 3-17): local first-order
    /// corrections, Reduce-Scatter, global second-order correction.
    fn pp_approx_sweep(&mut self, ctx: &mut RankCtx) -> SweepRecord {
        let n_modes = self.st.n_modes();
        // Taken out for the sweep so the operator reads borrow disjointly
        // from the factor/Gram updates.
        let snap = self.snap.take().expect("approx sweep requires snapshot");
        let sweep_t0 = Instant::now();
        let mut last: Option<(Matrix, Matrix)> = None;
        for n in 0..n_modes {
            let h0 = Instant::now();
            let gamma = hadamard_chain_skip(&self.st.grams, n);
            self.st
                .engine
                .stats
                .record(Kernel::Hadamard, h0.elapsed(), 0);

            // Local first-order corrections (line 6) + anchor.
            let c0 = Instant::now();
            let mut m_local = snap.ops.firsts[n].clone();
            for i in 0..n_modes {
                if i == n {
                    continue;
                }
                let d_p = self.st.dist_factors[i].p().sub(&snap.p_p[i]);
                let u = pp_dtree::correct::first_order_correction(&snap.ops, n, i, &d_p);
                m_local.axpy(1.0, &u);
            }
            self.st.engine.stats.record(Kernel::Mttv, c0.elapsed(), 0);

            // Reduce-Scatter the corrected MTTKRP (line 9).
            let r0 = Instant::now();
            let mut m_q = self.st.dist_factors[n].reduce_scatter_rows(&m_local, &self.st.slices[n]);
            self.st.engine.stats.record(Kernel::Other, r0.elapsed(), 0);

            // Second-order correction (lines 10-11) on Q rows.
            let v0 = Instant::now();
            let d_grams = d_grams_global(ctx, &self.st, &snap);
            let v_q = pp_dtree::correct::second_order_correction(
                self.st.dist_factors[n].q(),
                &self.st.grams,
                &d_grams,
                n,
            );
            m_q.axpy(1.0, &v_q);
            self.st
                .engine
                .stats
                .record(Kernel::Hadamard, v0.elapsed(), 0);

            let q_new = self.st.solve(ctx, &self.cfg, &gamma, &m_q);
            self.st.commit_update(ctx, n, q_new);
            if n == n_modes - 1 {
                last = Some((gamma, m_q));
            }
        }
        self.snap = Some(snap);
        let (gamma_last, m_q_last) = last.unwrap();
        let fitness = if self.cfg.track_fitness {
            self.st.fitness(ctx, &gamma_last, &m_q_last)
        } else {
            f64::NAN
        };
        let secs = sweep_t0.elapsed().as_secs_f64();
        self.cumulative += secs;
        SweepRecord {
            kind: SweepKind::PpApprox,
            secs,
            fitness,
            cumulative_secs: self.cumulative,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par_als::par_cp_als;
    use crate::par_pp::par_pp_cp_als;
    use pp_comm::Runtime;
    use pp_datagen::lowrank::noisy_rank;
    use pp_dtree::TreePolicy;
    use std::sync::Arc;

    /// Stepping the sessions rank-locked, with a pause after every sweep,
    /// must match the one-shot wrappers bitwise.
    #[test]
    fn stepped_sessions_match_wrappers() {
        let t = Arc::new(noisy_rank(&[6, 7, 5], 3, 0.1, 3));
        let grid = ProcGrid::new(vec![2, 2, 1]);
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.3)
            .with_max_sweeps(12)
            .with_tol(0.0);

        for kind in [ParKind::Exact, ParKind::Pp] {
            let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
            let whole = Runtime::from_env(4).run(move |ctx| {
                let local = DistTensor::from_global(&t2, &g2, ctx.rank());
                match kind {
                    ParKind::Exact => par_cp_als(ctx, &g2, &local, &c2),
                    ParKind::Pp => par_pp_cp_als(ctx, &g2, &local, &c2),
                }
            });
            let (t3, g3, c3) = (t.clone(), grid.clone(), cfg.clone());
            let stepped = Runtime::from_env(4).run(move |ctx| {
                let local = DistTensor::from_global(&t3, &g3, ctx.rank());
                let mut s = ParSession::new(ctx, &g3, &local, &c3, kind);
                while let Step::Swept(_) = s.step(ctx) {}
                s.finish(ctx)
            });
            let a = &whole.results[0];
            let b = &stepped.results[0];
            assert_eq!(a.report.sweeps.len(), b.report.sweeps.len());
            for (x, y) in a.report.sweeps.iter().zip(b.report.sweeps.iter()) {
                assert_eq!(x.kind, y.kind, "{kind:?}");
                assert_eq!(x.fitness.to_bits(), y.fitness.to_bits(), "{kind:?}");
            }
            for (fa, fb) in a.factors.iter().zip(b.factors.iter()) {
                assert_eq!(fa.data(), fb.data(), "{kind:?}");
            }
        }
    }
}
