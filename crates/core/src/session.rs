//! Resumable ALS sessions: the sweep-granular state machine behind every
//! sequential driver.
//!
//! An [`AlsSession`] owns *all* state a CP decomposition needs between
//! sweeps — the input tensor (with MSDT layout copies), the dimension-tree
//! engine with its intermediate cache, the versioned factors, the
//! replicated Gram matrices, the PP regime state (`A_p` reference, `dA`
//! drifts, pair operators), and the fitness trace.
//! [`AlsSession::step`] advances **exactly one sweep** (an exact ALS
//! sweep, a PP initialization, or a PP approximated sweep — the same
//! categories as [`crate::result::SweepKind`]) and [`AlsSession::finish`]
//! produces the [`AlsOutput`].
//!
//! Repeatedly stepping a session is **bit-identical** to the historical
//! monolithic drivers (`cp_als`, `pp_cp_als`, `nn_cp_als`), which are now
//! thin step-loops over this type; `tests/golden_traces.rs` pins the
//! pre-session traces and `tests/session_parity.rs` checks the step-loop
//! against arbitrary pause/resume schedules.
//!
//! Sessions are what make decompositions *schedulable*: a session holds no
//! pool resources between steps, so a batch scheduler (`crates/serve`)
//! can interleave sweeps from many tenants over the one persistent worker
//! pool with per-job fairness and failure isolation.

use crate::checkpoint::{sparse_fingerprint, tensor_fingerprint, Reader, Writer};
use crate::config::{AlsConfig, SolveStrategy};
use crate::fitness::{fitness_from_residual, relative_residual};
use crate::nonneg::hals_update;
use crate::result::{AlsOutput, AlsReport, SweepKind, SweepRecord};
use pp_dtree::correct::{approx_mttkrp, d_gram};
use pp_dtree::pp_tree::{build_pp_operators, PpOperators};
use pp_dtree::{DimTreeEngine, FactorState, InputTensor, Kernel, TreePolicy};
use pp_tensor::matrix::hadamard_chain_skip;
use pp_tensor::solve::solve_gram;
use pp_tensor::sparse::SparseTensor;
use pp_tensor::{DenseTensor, Matrix};
use std::time::Instant;

/// Which update rule the session runs each sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionKind {
    /// Exact CP-ALS (Alg. 1) — unconstrained normal-equation solves.
    Exact,
    /// Pairwise-perturbation CP-ALS (Alg. 2) — alternates exact sweeps,
    /// PP initializations, and PP approximated sweeps.
    Pp,
    /// Nonnegative CP — HALS column updates in place of the solve.
    NonNeg,
}

/// Why a session stopped stepping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The Δ stopping criterion was met.
    Converged,
    /// The `max_sweeps` budget is exhausted.
    SweepLimit,
}

/// Result of one [`AlsSession::step`] call.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// One sweep was performed and appended to the trace.
    Swept(SweepRecord),
    /// No sweep ran: the session is finished (idempotent).
    Done(StopReason),
}

/// Phase of the PP regime between steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PpPhase {
    /// Top of Alg. 2's outer loop: evaluate the dA gate; a step either
    /// performs the PP initialization (gate open) or an exact sweep.
    Gate,
    /// Inside the approximated regime: a step performs one PP sweep.
    Approx,
}

/// The sweep-to-sweep state a streaming arrival mutates, borrowed
/// disjointly so [`crate::stream`] can extend the input, factors, Grams,
/// and dimension-tree cache in one coherent transaction.
pub(crate) struct StreamParts<'a> {
    pub(crate) cfg: &'a mut AlsConfig,
    pub(crate) kind: SessionKind,
    pub(crate) input: &'a mut InputTensor,
    pub(crate) engine: &'a mut DimTreeEngine,
    pub(crate) fs: &'a mut FactorState,
    pub(crate) grams: &'a mut Vec<Matrix>,
    pub(crate) t_norm_sq: &'a mut f64,
    pub(crate) d_factors: &'a mut Vec<Matrix>,
    pub(crate) factors_p: &'a mut Vec<Matrix>,
    pub(crate) ops: &'a mut Option<PpOperators>,
    pub(crate) phase: &'a mut PpPhase,
    pub(crate) fitness_old: &'a mut f64,
    pub(crate) converged: &'a mut bool,
    pub(crate) finished: &'a mut bool,
    pub(crate) sweeps_done: usize,
}

/// A resumable CP-ALS / PP-CP-ALS / NNCP run. See the module docs.
pub struct AlsSession {
    cfg: AlsConfig,
    kind: SessionKind,
    input: InputTensor,
    engine: DimTreeEngine,
    fs: FactorState,
    grams: Vec<Matrix>,
    t_norm_sq: f64,
    /// `dA^(i)` over the most recent sweep (PP only; Alg. 2 line 2
    /// initializes it to `A` so PP never fires before the first sweep).
    d_factors: Vec<Matrix>,
    /// The frozen `A_p` reference of the current PP regime.
    factors_p: Vec<Matrix>,
    /// Pair operators `𝓜p^(i,j)` of the current PP regime.
    ops: Option<PpOperators>,
    phase: PpPhase,
    report: AlsReport,
    fitness_old: f64,
    cumulative: f64,
    converged: bool,
    sweeps_done: usize,
    finished: bool,
}

impl AlsSession {
    /// New session with the default seeded uniform factor initialization.
    pub fn new(t: &DenseTensor, cfg: &AlsConfig, kind: SessionKind) -> Self {
        let dims: Vec<usize> = t.shape().dims().to_vec();
        let init = crate::als::init_factors(&dims, cfg.rank, cfg.seed);
        Self::with_init(t, cfg, kind, init)
    }

    /// New session from caller-provided initial factors.
    pub fn with_init(
        t: &DenseTensor,
        cfg: &AlsConfig,
        kind: SessionKind,
        init: Vec<Matrix>,
    ) -> Self {
        let n_modes = t.order();
        assert!(n_modes >= 2);
        if kind == SessionKind::Pp {
            assert!(n_modes >= 3, "pairwise perturbation needs order ≥ 3");
        }
        assert_eq!(init.len(), n_modes);
        let _threads = cfg.thread_guard();

        let input = match cfg.policy {
            TreePolicy::Standard => InputTensor::new(t.clone()),
            TreePolicy::MultiSweep => InputTensor::with_msdt_copies(t.clone()),
        };
        let engine = DimTreeEngine::new(cfg.policy, n_modes);
        let fs = FactorState::new(init);
        let grams: Vec<Matrix> = fs.factors().iter().map(|a| a.gram()).collect();
        let t_norm_sq = t.norm_sq();
        let d_factors = if kind == SessionKind::Pp {
            fs.factors().to_vec()
        } else {
            Vec::new()
        };

        AlsSession {
            cfg: cfg.clone(),
            kind,
            input,
            engine,
            fs,
            grams,
            t_norm_sq,
            d_factors,
            factors_p: Vec::new(),
            ops: None,
            phase: PpPhase::Gate,
            report: AlsReport::default(),
            fitness_old: f64::NEG_INFINITY,
            cumulative: 0.0,
            converged: false,
            sweeps_done: 0,
            finished: false,
        }
    }

    /// New session over a **sparse** input with the default seeded factor
    /// initialization. Three method combinations are admitted:
    ///
    /// * `Exact` + [`TreePolicy::Standard`] (the `dt` method): every MTTKRP
    ///   routes through the direct CSF kernel.
    /// * `Exact` + [`TreePolicy::MultiSweep`] (the `msdt` method): the
    ///   dimension tree runs over **semi-sparse** intermediates (dense rank
    ///   panels on the surviving fiber structure) — no layout copies are
    ///   materialized and the input is never densified.
    /// * `Pp` + [`TreePolicy::MultiSweep`] (the `pp` method): exact sweeps
    ///   and PP operator construction both contract over the semi-sparse
    ///   chain; only the operator-sized pair tensors are dense.
    ///
    /// Non-negative ALS is not supported on sparse inputs, and sparse PP is
    /// pinned to the multi-sweep policy so a checkpoint's tree policy alone
    /// determines how the input is rebuilt at resume.
    pub fn new_sparse(sp: &SparseTensor, cfg: &AlsConfig, kind: SessionKind) -> Self {
        assert_ne!(
            kind,
            SessionKind::NonNeg,
            "sparse inputs support methods dt, pp, and msdt (not nncp)"
        );
        if kind == SessionKind::Pp {
            assert_eq!(
                cfg.policy,
                TreePolicy::MultiSweep,
                "sparse PP runs over the multi-sweep tree policy"
            );
            assert!(sp.order() >= 3, "pairwise perturbation needs order ≥ 3");
        }
        let init = crate::als::init_factors(sp.dims(), cfg.rank, cfg.seed);
        let n_modes = sp.order();
        assert!(n_modes >= 2);
        let _threads = cfg.thread_guard();
        // Standard policy takes the direct CSF fast path; the multi-sweep
        // policy plans semi-sparse first-level contractions per mode.
        let input = match cfg.policy {
            TreePolicy::Standard => InputTensor::new_sparse(sp.clone()),
            TreePolicy::MultiSweep => InputTensor::new_sparse_chained(sp.clone()),
        };
        let engine = DimTreeEngine::new(cfg.policy, n_modes);
        let fs = FactorState::new(init);
        let grams: Vec<Matrix> = fs.factors().iter().map(|a| a.gram()).collect();
        let t_norm_sq = sp.norm_sq();
        let d_factors = if kind == SessionKind::Pp {
            fs.factors().to_vec()
        } else {
            Vec::new()
        };

        AlsSession {
            cfg: cfg.clone(),
            kind,
            input,
            engine,
            fs,
            grams,
            t_norm_sq,
            d_factors,
            factors_p: Vec::new(),
            ops: None,
            phase: PpPhase::Gate,
            report: AlsReport::default(),
            fitness_old: f64::NEG_INFINITY,
            cumulative: 0.0,
            converged: false,
            sweeps_done: 0,
            finished: false,
        }
    }

    /// The session's update rule.
    pub fn kind(&self) -> SessionKind {
        self.kind
    }

    /// The run configuration.
    pub fn config(&self) -> &AlsConfig {
        &self.cfg
    }

    /// Sweeps performed so far (PP initializations count, as in Alg. 2).
    pub fn sweeps_done(&self) -> usize {
        self.sweeps_done
    }

    /// Whether stepping has stopped (converged or out of budget).
    pub fn is_finished(&self) -> bool {
        self.finished || self.sweeps_done >= self.cfg.max_sweeps
    }

    /// Whether the Δ criterion has been met.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Fitness after the most recent sweep (NaN before the first).
    pub fn last_fitness(&self) -> f64 {
        self.report.sweeps.last().map_or(f64::NAN, |s| s.fitness)
    }

    /// The trace accumulated so far.
    pub fn report(&self) -> &AlsReport {
        &self.report
    }

    /// Current factor matrices.
    pub fn factors(&self) -> &[Matrix] {
        self.fs.factors()
    }

    /// Auxiliary memory this session currently holds, in f64 elements:
    /// the engine's intermediate cache plus any PP pair operators. This is
    /// the Table I cache-memory metric the batch scheduler's admission
    /// control budgets against.
    pub fn cache_memory_elems(&self) -> usize {
        self.engine.cache_memory_elems() + self.ops.as_ref().map_or(0, |o| o.memory_elems())
    }

    /// Write a `PPCK` checkpoint (versioned binary format with
    /// an FNV-1a integrity check — see [`crate::checkpoint`]) via a
    /// temp-file rename, so a torn write cannot shadow a good checkpoint.
    /// `tag` is an opaque caller fingerprint (e.g. of the job spec)
    /// returned verbatim by [`AlsSession::resume_from_disk`].
    pub fn park_to_disk(&self, path: &std::path::Path, tag: u64) -> std::io::Result<()> {
        let bytes = self.checkpoint_bytes(tag);
        let tmp = path.with_extension("ppck.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)
    }

    /// Serialize the complete sweep-to-sweep state.
    pub fn checkpoint_bytes(&self, tag: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64_(tag);
        // Config.
        w.usize_(self.cfg.rank);
        w.f64_(self.cfg.tol);
        w.usize_(self.cfg.max_sweeps);
        w.u8_(match self.cfg.policy {
            TreePolicy::Standard => 0,
            TreePolicy::MultiSweep => 1,
        });
        w.u8_(match self.cfg.solve {
            SolveStrategy::Distributed => 0,
            SolveStrategy::Replicated => 1,
        });
        w.f64_(self.cfg.pp_tol);
        w.u64_(self.cfg.seed);
        w.bool_(self.cfg.track_fitness);
        w.u64_(self.cfg.threads.map_or(0, |t| t as u64));
        // Kind and phase.
        w.u8_(match self.kind {
            SessionKind::Exact => 0,
            SessionKind::Pp => 1,
            SessionKind::NonNeg => 2,
        });
        w.u8_(match self.phase {
            PpPhase::Gate => 0,
            PpPhase::Approx => 1,
        });
        // Input binding: the tensor itself is rebuilt from its dataset
        // spec at resume; only its fingerprint travels. Sparse inputs use
        // a domain-separated fingerprint so a dense checkpoint can never
        // resume against a sparse tensor (or vice versa).
        w.u64_(match self.input.sparse() {
            Some(sp) => sparse_fingerprint(&sp.coo),
            None => tensor_fingerprint(self.input.base()),
        });
        w.f64_(self.t_norm_sq);
        // Factors with versions, Grams, PP regime state.
        w.matrices(self.fs.factors());
        w.u64s(self.fs.versions());
        w.matrices(&self.grams);
        w.matrices(&self.d_factors);
        w.matrices(&self.factors_p);
        match &self.ops {
            None => w.bool_(false),
            Some(ops) => {
                w.bool_(true);
                let mut keys: Vec<(usize, usize)> = ops.pairs.keys().copied().collect();
                keys.sort_unstable();
                w.usize_(keys.len());
                for (i, j) in keys {
                    w.usize_(i);
                    w.usize_(j);
                    w.intermediate(&ops.pairs[&(i, j)]);
                }
                w.matrices(&ops.firsts);
                w.usize_(ops.fresh_ttms);
            }
        }
        // The engine's intermediate cache: restoring it is what keeps the
        // resumed run's contraction schedule (and hence its flop trace)
        // identical to the uninterrupted one.
        let entries = self.engine.cache().entries_sorted();
        w.usize_(entries.len());
        for e in entries {
            w.intermediate(e);
        }
        w.stats(&self.engine.stats);
        // Trace and convergence bookkeeping.
        w.usize_(self.report.sweeps.len());
        for rec in &self.report.sweeps {
            w.sweep(rec);
        }
        w.stats(&self.report.stats);
        w.f64_(self.report.final_fitness);
        w.bool_(self.report.converged);
        w.f64_(self.fitness_old);
        w.f64_(self.cumulative);
        w.bool_(self.converged);
        w.usize_(self.sweeps_done);
        w.bool_(self.finished);
        w.frame()
    }

    /// Read a `PPCK` checkpoint and continue the run it captured.
    /// `t` must be the same input tensor the checkpointed session ran on
    /// (rebuilt deterministically from its dataset spec); its fingerprint
    /// is verified. Returns the session and the caller `tag` stored by
    /// [`AlsSession::park_to_disk`].
    pub fn resume_from_disk(
        path: &std::path::Path,
        t: &DenseTensor,
    ) -> Result<(AlsSession, u64), String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::resume_from_bytes(&bytes, t)
    }

    /// [`AlsSession::resume_from_disk`] on in-memory bytes.
    pub fn resume_from_bytes(bytes: &[u8], t: &DenseTensor) -> Result<(AlsSession, u64), String> {
        Self::resume_core(bytes, tensor_fingerprint(t), t.order(), |cfg| {
            match cfg.policy {
                TreePolicy::Standard => InputTensor::new(t.clone()),
                TreePolicy::MultiSweep => InputTensor::with_msdt_copies(t.clone()),
            }
        })
    }

    /// [`AlsSession::resume_from_disk`] for a **sparse** input. The
    /// domain-separated sparse fingerprint refuses dense checkpoints and
    /// mismatched sparse tensors alike.
    pub fn resume_from_disk_sparse(
        path: &std::path::Path,
        sp: &SparseTensor,
    ) -> Result<(AlsSession, u64), String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::resume_from_bytes_sparse(&bytes, sp)
    }

    /// [`AlsSession::resume_from_disk_sparse`] on in-memory bytes.
    pub fn resume_from_bytes_sparse(
        bytes: &[u8],
        sp: &SparseTensor,
    ) -> Result<(AlsSession, u64), String> {
        Self::resume_core(bytes, sparse_fingerprint(sp), sp.order(), |cfg| {
            // The tree policy alone determines the sparse input shape:
            // Standard ⇒ direct CSF (dt); MultiSweep ⇒ semi-sparse chain
            // plans (pp and msdt) — the same dispatch `new_sparse` uses.
            match cfg.policy {
                TreePolicy::Standard => InputTensor::new_sparse(sp.clone()),
                TreePolicy::MultiSweep => InputTensor::new_sparse_chained(sp.clone()),
            }
        })
    }

    /// Shared resume path: decode the checkpoint, verify the expected
    /// input fingerprint and order, and rebuild the runtime-only pieces
    /// with the caller-supplied input constructor.
    fn resume_core(
        bytes: &[u8],
        fp_expected: u64,
        order: usize,
        build_input: impl FnOnce(&AlsConfig) -> InputTensor,
    ) -> Result<(AlsSession, u64), String> {
        let mut r = Reader::open(bytes)?;
        let tag = r.u64_()?;
        let rank = r.usize_()?;
        let tol = r.f64_()?;
        let max_sweeps = r.usize_()?;
        let policy = match r.u8_()? {
            0 => TreePolicy::Standard,
            1 => TreePolicy::MultiSweep,
            v => return Err(format!("invalid tree policy {v}")),
        };
        let solve = match r.u8_()? {
            0 => SolveStrategy::Distributed,
            1 => SolveStrategy::Replicated,
            v => return Err(format!("invalid solve strategy {v}")),
        };
        let pp_tol = r.f64_()?;
        let seed = r.u64_()?;
        let track_fitness = r.bool_()?;
        let threads = match r.u64_()? {
            0 => None,
            n => Some(n as usize),
        };
        let cfg = AlsConfig {
            rank,
            tol,
            max_sweeps,
            policy,
            solve,
            pp_tol,
            seed,
            track_fitness,
            threads,
        };
        let kind = match r.u8_()? {
            0 => SessionKind::Exact,
            1 => SessionKind::Pp,
            2 => SessionKind::NonNeg,
            v => return Err(format!("invalid session kind {v}")),
        };
        let phase = match r.u8_()? {
            0 => PpPhase::Gate,
            1 => PpPhase::Approx,
            v => return Err(format!("invalid PP phase {v}")),
        };
        let fp = r.u64_()?;
        if fp != fp_expected {
            return Err("input tensor does not match the checkpoint (fingerprint mismatch)".into());
        }
        let t_norm_sq = r.f64_()?;
        let factors = r.matrices()?;
        let versions = r.u64s()?;
        let n_modes = factors.len();
        if n_modes != order || n_modes != versions.len() {
            return Err("checkpoint factor count does not match the tensor order".into());
        }
        let fs = FactorState::from_parts(factors, versions);
        let grams = r.matrices()?;
        let d_factors = r.matrices()?;
        let factors_p = r.matrices()?;
        let ops = if r.bool_()? {
            let n_pairs = r.usize_()?;
            let mut pairs = std::collections::HashMap::with_capacity(n_pairs);
            for _ in 0..n_pairs {
                let i = r.usize_()?;
                let j = r.usize_()?;
                pairs.insert((i, j), r.intermediate()?);
            }
            let firsts = r.matrices()?;
            let fresh_ttms = r.usize_()?;
            Some(PpOperators {
                pairs,
                firsts,
                fresh_ttms,
            })
        } else {
            None
        };
        let n_cached = r.usize_()?;
        let mut cached = Vec::with_capacity(n_cached);
        for _ in 0..n_cached {
            cached.push(r.intermediate()?);
        }
        let engine_stats = r.stats()?;
        let n_sweeps = r.usize_()?;
        let mut sweeps = Vec::with_capacity(n_sweeps);
        for _ in 0..n_sweeps {
            sweeps.push(r.sweep()?);
        }
        let report = AlsReport {
            sweeps,
            stats: r.stats()?,
            final_fitness: r.f64_()?,
            converged: r.bool_()?,
        };
        let fitness_old = r.f64_()?;
        let cumulative = r.f64_()?;
        let converged = r.bool_()?;
        let sweeps_done = r.usize_()?;
        let finished = r.bool_()?;
        if !r.exhausted() {
            return Err("checkpoint has trailing bytes".into());
        }

        // Rebuild the runtime-only pieces (MSDT layout copies / CSF trees,
        // engine) exactly as construction does, then reinstall the cached
        // intermediates and stats the checkpoint captured.
        let input = build_input(&cfg);
        let mut engine = DimTreeEngine::new(cfg.policy, n_modes);
        for e in cached {
            engine.cache_mut().insert(e);
        }
        engine.stats = engine_stats;

        Ok((
            AlsSession {
                cfg,
                kind,
                input,
                engine,
                fs,
                grams,
                t_norm_sq,
                d_factors,
                factors_p,
                ops,
                phase,
                report,
                fitness_old,
                cumulative,
                converged,
                sweeps_done,
                finished,
            },
            tag,
        ))
    }

    /// Disjoint mutable borrows of everything a streaming arrival rewrites
    /// (see [`crate::stream::StreamingSession::arrive`]). Kept out of the
    /// public API: the invariants between these fields (Gram ↔ factor,
    /// cache ↔ versions) are the session's to maintain.
    pub(crate) fn stream_parts(&mut self) -> StreamParts<'_> {
        StreamParts {
            cfg: &mut self.cfg,
            kind: self.kind,
            input: &mut self.input,
            engine: &mut self.engine,
            fs: &mut self.fs,
            grams: &mut self.grams,
            t_norm_sq: &mut self.t_norm_sq,
            d_factors: &mut self.d_factors,
            factors_p: &mut self.factors_p,
            ops: &mut self.ops,
            phase: &mut self.phase,
            fitness_old: &mut self.fitness_old,
            converged: &mut self.converged,
            finished: &mut self.finished,
            sweeps_done: self.sweeps_done,
        }
    }

    /// Advance exactly one sweep. Idempotent once the session is finished.
    pub fn step(&mut self) -> Step {
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

        let rec = match (self.kind, self.phase) {
            (SessionKind::Pp, PpPhase::Approx) => self.pp_approx_sweep(),
            (SessionKind::Pp, PpPhase::Gate) => {
                if self.pp_gate_open() {
                    self.pp_init()
                } else {
                    self.exact_sweep()
                }
            }
            _ => self.exact_sweep(),
        };
        self.report.sweeps.push(rec);
        self.sweeps_done += 1;

        // Convergence bookkeeping (Alg. 1 line 11 / Alg. 2 lines 15 and
        // 21): a PP initialization carries no fresh fitness, so it neither
        // checks the criterion nor shifts `fitness_old`.
        if rec.kind != SweepKind::PpInit {
            if self.cfg.track_fitness && (rec.fitness - self.fitness_old).abs() < self.cfg.tol {
                self.converged = true;
                self.finished = true;
                return Step::Swept(rec);
            }
            self.fitness_old = rec.fitness;
        }
        // Drift gate after an approximated sweep (Alg. 2 line 16): leaving
        // the regime falls through to an exact sweep, which is exactly what
        // `PpPhase::Gate` does next step (the gate re-evaluates the same
        // condition that just failed).
        if rec.kind == SweepKind::PpApprox && !self.pp_gate_open() {
            self.phase = PpPhase::Gate;
        }
        Step::Swept(rec)
    }

    /// Run the session to completion and produce the output — the
    /// monolithic driver, expressed as a step loop.
    pub fn run(mut self) -> AlsOutput {
        while let Step::Swept(_) = self.step() {}
        self.finish()
    }

    /// Seal the report and return the output.
    pub fn finish(mut self) -> AlsOutput {
        self.report.stats = self.engine.take_stats();
        self.report.final_fitness = self.report.sweeps.last().map_or(f64::NAN, |s| s.fitness);
        self.report.converged = self.converged;
        AlsOutput {
            factors: self.fs.factors().to_vec(),
            report: self.report,
        }
    }

    /// The PP activation gate: `‖dA^(i)‖F < ε‖A^(i)‖F` for every mode.
    fn pp_gate_open(&self) -> bool {
        (0..self.fs.order())
            .all(|i| self.d_factors[i].norm() < self.cfg.pp_tol * self.fs.factor(i).norm())
    }

    /// Eq. (3) fitness from the last mode's `Γ` and `M`.
    fn trace_fitness(&self, gamma_last: &Matrix, m_last: &Matrix) -> f64 {
        if !self.cfg.track_fitness {
            return f64::NAN;
        }
        let n = self.fs.order() - 1;
        let r = relative_residual(
            self.t_norm_sq,
            gamma_last,
            &self.grams[n],
            m_last,
            self.fs.factor(n),
        );
        fitness_from_residual(r)
    }

    /// One exact sweep (Alg. 1 lines 5-10), shared by every kind. For PP
    /// sessions it additionally refreshes `dA` against the pre-sweep
    /// factors (Alg. 2 line 20).
    fn exact_sweep(&mut self) -> SweepRecord {
        let n_modes = self.fs.order();
        let sweep_t0 = Instant::now();
        let before: Option<Vec<Matrix>> = if self.kind == SessionKind::Pp {
            Some(self.fs.factors().to_vec())
        } else {
            None
        };
        let mut last_gamma: Option<Matrix> = None;
        let mut last_m: Option<Matrix> = None;
        for n in 0..n_modes {
            let h0 = Instant::now();
            let gamma = hadamard_chain_skip(&self.grams, n);
            self.engine.stats.record(Kernel::Hadamard, h0.elapsed(), 0);

            let m = self.engine.mttkrp(&mut self.input, &self.fs, n);

            let s0 = Instant::now();
            let a_new = match self.kind {
                SessionKind::NonNeg => hals_update(self.fs.factor(n), &m, &gamma, 2),
                _ => solve_gram(&gamma, &m).0,
            };
            self.engine.stats.record(Kernel::Solve, s0.elapsed(), 0);

            let g0 = Instant::now();
            self.grams[n] = a_new.gram();
            self.engine.stats.record(Kernel::Other, g0.elapsed(), 0);
            self.fs.update(n, a_new);
            if n == n_modes - 1 {
                last_gamma = Some(gamma);
                last_m = Some(m);
            }
        }
        if let Some(before) = before {
            for (n, b) in before.iter().enumerate() {
                self.d_factors[n] = self.fs.factor(n).sub(b);
            }
        }
        let secs = sweep_t0.elapsed().as_secs_f64();
        self.cumulative += secs;
        let fitness = self.trace_fitness(last_gamma.as_ref().unwrap(), last_m.as_ref().unwrap());
        SweepRecord {
            kind: SweepKind::Exact,
            secs,
            fitness,
            cumulative_secs: self.cumulative,
        }
    }

    /// PP initialization (Alg. 2 lines 6-9): freeze `A_p`, zero `dA`,
    /// build the pair operators, and enter the approximated regime.
    fn pp_init(&mut self) -> SweepRecord {
        let t0 = Instant::now();
        self.factors_p = self.fs.factors().to_vec();
        for d in self.d_factors.iter_mut() {
            d.fill_zero();
        }
        self.ops = Some(build_pp_operators(
            &mut self.input,
            &self.fs,
            &mut self.engine,
        ));
        let secs = t0.elapsed().as_secs_f64();
        self.cumulative += secs;
        self.phase = PpPhase::Approx;
        SweepRecord {
            kind: SweepKind::PpInit,
            secs,
            fitness: self.last_fitness(),
            cumulative_secs: self.cumulative,
        }
    }

    /// One PP approximated sweep (Alg. 2 lines 10-17): Eq. (5) first- plus
    /// second-order corrections in place of tensor contractions.
    fn pp_approx_sweep(&mut self) -> SweepRecord {
        let n_modes = self.fs.order();
        // Taken out for the duration so the borrow checker sees the reads
        // of `ops` as disjoint from the factor/Gram updates.
        let ops = self.ops.take().expect("PP regime requires operators");
        let sweep_t0 = Instant::now();
        let mut last_gamma: Option<Matrix> = None;
        let mut last_m: Option<Matrix> = None;
        for n in 0..n_modes {
            let h0 = Instant::now();
            let gamma = hadamard_chain_skip(&self.grams, n);
            let d_grams: Vec<Matrix> = self
                .fs
                .factors()
                .iter()
                .zip(self.d_factors.iter())
                .map(|(a, d)| d_gram(a, d))
                .collect();
            self.engine.stats.record(Kernel::Hadamard, h0.elapsed(), 0);

            let c0 = Instant::now();
            let m = approx_mttkrp(
                &ops,
                &self.d_factors,
                self.fs.factors(),
                &self.grams,
                &d_grams,
                n,
            );
            self.engine.stats.record(Kernel::Mttv, c0.elapsed(), 0);

            let s0 = Instant::now();
            let a_new = match self.kind {
                SessionKind::NonNeg => hals_update(self.fs.factor(n), &m, &gamma, 2),
                _ => solve_gram(&gamma, &m).0,
            };
            self.engine.stats.record(Kernel::Solve, s0.elapsed(), 0);

            self.d_factors[n] = a_new.sub(&self.factors_p[n]);
            self.grams[n] = a_new.gram();
            self.fs.update(n, a_new);
            if n == n_modes - 1 {
                last_gamma = Some(gamma);
                last_m = Some(m);
            }
        }
        self.ops = Some(ops);
        let secs = sweep_t0.elapsed().as_secs_f64();
        self.cumulative += secs;
        let fitness = self.trace_fitness(last_gamma.as_ref().unwrap(), last_m.as_ref().unwrap());
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
    use crate::als::cp_als;
    use crate::nonneg::nn_cp_als;
    use crate::pp_als::pp_cp_als;
    use pp_datagen::collinearity::{collinearity_tensor, CollinearityConfig};
    use pp_datagen::lowrank::noisy_rank;

    fn assert_bitwise(a: &AlsOutput, b: &AlsOutput) {
        assert_eq!(a.report.sweeps.len(), b.report.sweeps.len());
        for (x, y) in a.report.sweeps.iter().zip(b.report.sweeps.iter()) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.fitness.to_bits(), y.fitness.to_bits());
        }
        assert_eq!(a.report.converged, b.report.converged);
        for (fa, fb) in a.factors.iter().zip(b.factors.iter()) {
            assert_eq!(fa.data(), fb.data());
        }
    }

    #[test]
    fn exact_session_matches_driver_bitwise() {
        let t = noisy_rank(&[8, 7, 6], 3, 0.05, 11);
        let cfg = AlsConfig::new(3).with_max_sweeps(10).with_tol(0.0);
        let a = cp_als(&t, &cfg);
        let b = AlsSession::new(&t, &cfg, SessionKind::Exact).run();
        assert_bitwise(&a, &b);
    }

    #[test]
    fn pp_session_matches_driver_bitwise() {
        let ccfg = CollinearityConfig {
            s: 12,
            r: 3,
            order: 3,
            lo: 0.5,
            hi: 0.7,
        };
        let (t, _, _) = collinearity_tensor(&ccfg, 3);
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.3)
            .with_max_sweeps(30)
            .with_tol(1e-9);
        let a = pp_cp_als(&t, &cfg);
        let b = AlsSession::new(&t, &cfg, SessionKind::Pp).run();
        assert_bitwise(&a, &b);
        assert!(b.report.count(SweepKind::PpApprox) >= 1);
    }

    #[test]
    fn nonneg_session_matches_driver_bitwise() {
        let t = noisy_rank(&[7, 6, 8], 2, 0.05, 5);
        let cfg = AlsConfig::new(2).with_max_sweeps(8).with_tol(0.0);
        let a = nn_cp_als(&t, &cfg);
        let b = AlsSession::new(&t, &cfg, SessionKind::NonNeg).run();
        assert_bitwise(&a, &b);
    }

    #[test]
    fn park_between_steps_is_bit_identical() {
        // Parking a session between every pair of steps (checkpoint, drop,
        // resume from the bytes) must not change a single bit of the run.
        let t = noisy_rank(&[8, 6, 7], 3, 0.05, 13);
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_max_sweeps(8)
            .with_tol(0.0);
        let a = cp_als(&t, &cfg);
        let mut s = AlsSession::new(&t, &cfg, SessionKind::Exact);
        while let Step::Swept(_) = s.step() {
            let bytes = s.checkpoint_bytes(0);
            s = AlsSession::resume_from_bytes(&bytes, &t).unwrap().0;
        }
        let b = s.finish();
        assert_bitwise(&a, &b);
    }

    #[test]
    fn step_is_idempotent_after_finish() {
        let (t, _) = pp_datagen::lowrank::exact_rank(&[6, 6, 6], 2, 3);
        let cfg = AlsConfig::new(2).with_max_sweeps(300).with_tol(1e-5);
        let mut s = AlsSession::new(&t, &cfg, SessionKind::Exact);
        while let Step::Swept(_) = s.step() {}
        assert!(s.is_finished());
        let sweeps = s.sweeps_done();
        for _ in 0..3 {
            match s.step() {
                Step::Done(StopReason::Converged) => {}
                other => panic!("expected Done(Converged), got {other:?}"),
            }
        }
        assert_eq!(s.sweeps_done(), sweeps, "no extra sweeps after finish");
        let out = s.finish();
        assert!(out.report.converged);
    }

    #[test]
    fn zero_sweep_budget_is_empty_run() {
        let t = noisy_rank(&[5, 5, 5], 2, 0.05, 3);
        let cfg = AlsConfig::new(2).with_max_sweeps(0);
        let mut s = AlsSession::new(&t, &cfg, SessionKind::Exact);
        assert!(matches!(s.step(), Step::Done(StopReason::SweepLimit)));
        let out = s.finish();
        assert!(out.report.sweeps.is_empty());
        assert!(out.report.final_fitness.is_nan());
        assert!(!out.report.converged);
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_identical() {
        // Interrupt a PP run at several cut points (before, at, and inside
        // the approximated regime), serialize, resume from bytes, and
        // compare the completed run against the uninterrupted driver.
        let ccfg = CollinearityConfig {
            s: 12,
            r: 3,
            order: 3,
            lo: 0.5,
            hi: 0.7,
        };
        let (t, _, _) = collinearity_tensor(&ccfg, 3);
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.3)
            .with_max_sweeps(30)
            .with_tol(1e-9);
        let a = pp_cp_als(&t, &cfg);
        for cut in [1, 3, 7, 12] {
            let mut s = AlsSession::new(&t, &cfg, SessionKind::Pp);
            for _ in 0..cut {
                let _ = s.step();
            }
            let bytes = s.checkpoint_bytes(0xDEC0DE);
            let (mut resumed, tag) = AlsSession::resume_from_bytes(&bytes, &t).unwrap();
            assert_eq!(tag, 0xDEC0DE);
            assert_eq!(resumed.sweeps_done(), cut.min(a.report.sweeps.len()));
            while let Step::Swept(_) = resumed.step() {}
            let b = resumed.finish();
            assert_bitwise(&a, &b);
        }
    }

    #[test]
    fn disk_roundtrip_and_integrity_checks() {
        let t = noisy_rank(&[8, 7, 6], 3, 0.05, 11);
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_max_sweeps(10)
            .with_tol(0.0);
        let a = cp_als(&t, &cfg);
        let dir = std::env::temp_dir().join(format!("ppck-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.ppck");
        let mut s = AlsSession::new(&t, &cfg, SessionKind::Exact);
        let _ = s.step();
        let _ = s.step();
        s.park_to_disk(&path, 7).unwrap();
        // A resumed session continues bit-identically.
        let (mut resumed, tag) = AlsSession::resume_from_disk(&path, &t).unwrap();
        assert_eq!(tag, 7);
        while let Step::Swept(_) = resumed.step() {}
        assert_bitwise(&a, &resumed.finish());
        let resume_err = |res: Result<(AlsSession, u64), String>| match res {
            Err(e) => e,
            Ok(_) => panic!("expected a resume error"),
        };
        // The wrong input tensor is refused by fingerprint.
        let other = noisy_rank(&[8, 7, 6], 3, 0.05, 12);
        let err = resume_err(AlsSession::resume_from_disk(&path, &other));
        assert!(err.contains("fingerprint"), "{err}");
        // Corruption is refused by checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = resume_err(AlsSession::resume_from_bytes(&bytes, &t));
        assert!(err.contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sparse_session_matches_pointwise_oracle_bitwise() {
        // A sparse exact session must reproduce — bit for bit — a manual
        // exact ALS over the densified tensor using the dense pointwise
        // oracle kernel (the parity contract of the CSF MTTKRP).
        use pp_datagen::sparse::powerlaw_sparse;
        use pp_tensor::kernels::naive::mttkrp_pointwise;
        let sp = powerlaw_sparse(&[9, 8, 7], 120, 1.5, 21);
        let dense = sp.to_dense();
        let sweeps = 6;
        let cfg = AlsConfig::new(3).with_max_sweeps(sweeps).with_tol(0.0);
        let out = AlsSession::new_sparse(&sp, &cfg, SessionKind::Exact).run();

        let mut factors = crate::als::init_factors(sp.dims(), cfg.rank, cfg.seed);
        let mut grams: Vec<Matrix> = factors.iter().map(|a| a.gram()).collect();
        let t_norm_sq = dense.norm_sq();
        let mut fits = Vec::new();
        for _ in 0..sweeps {
            let mut last = None;
            for n in 0..3 {
                let gamma = hadamard_chain_skip(&grams, n);
                let m = mttkrp_pointwise(&dense, &factors, n);
                let a_new = solve_gram(&gamma, &m).0;
                grams[n] = a_new.gram();
                factors[n] = a_new;
                if n == 2 {
                    last = Some((gamma, m));
                }
            }
            let (gamma, m) = last.unwrap();
            let r = relative_residual(t_norm_sq, &gamma, &grams[2], &m, &factors[2]);
            fits.push(fitness_from_residual(r));
        }
        assert_eq!(out.report.sweeps.len(), sweeps);
        for (rec, want) in out.report.sweeps.iter().zip(&fits) {
            assert_eq!(rec.fitness.to_bits(), want.to_bits());
        }
        for (a, b) in out.factors.iter().zip(&factors) {
            assert_eq!(a.data(), b.data());
        }
        // The sparse path never materializes tree intermediates.
        assert_eq!(out.report.stats.mttv_count, 0);
        assert!(out.report.stats.sparse_mttkrp_flops > 0);
    }

    #[test]
    fn sparse_checkpoint_roundtrip_and_fingerprint() {
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[10, 9, 8], 2, 0.2, 7);
        let cfg = AlsConfig::new(2).with_max_sweeps(8).with_tol(0.0);
        let a = AlsSession::new_sparse(&sp, &cfg, SessionKind::Exact).run();
        for cut in [1, 4] {
            let mut s = AlsSession::new_sparse(&sp, &cfg, SessionKind::Exact);
            for _ in 0..cut {
                let _ = s.step();
            }
            let bytes = s.checkpoint_bytes(0xBEEF);
            let (mut resumed, tag) = AlsSession::resume_from_bytes_sparse(&bytes, &sp).unwrap();
            assert_eq!(tag, 0xBEEF);
            assert_eq!(resumed.sweeps_done(), cut);
            while let Step::Swept(_) = resumed.step() {}
            let b = resumed.finish();
            assert_bitwise(&a, &b);
        }
        let mut s = AlsSession::new_sparse(&sp, &cfg, SessionKind::Exact);
        let _ = s.step();
        let bytes = s.checkpoint_bytes(1);
        let resume_err = |res: Result<(AlsSession, u64), String>| match res {
            Err(e) => e,
            Ok(_) => panic!("expected a resume error"),
        };
        // A different sparse tensor is refused by fingerprint.
        let (other, _) = pp_datagen::sparse::sparse_lowrank(&[10, 9, 8], 2, 0.2, 8);
        let err = resume_err(AlsSession::resume_from_bytes_sparse(&bytes, &other));
        assert!(err.contains("fingerprint"), "{err}");
        // Domain separation: a sparse checkpoint refuses a dense resume
        // even against the element-for-element densified tensor.
        let err = resume_err(AlsSession::resume_from_bytes(&bytes, &sp.to_dense()));
        assert!(err.contains("fingerprint"), "{err}");
        // And a dense checkpoint refuses a sparse resume.
        let dense = sp.to_dense();
        let mut d = AlsSession::new(&dense, &cfg, SessionKind::Exact);
        let _ = d.step();
        let dense_bytes = d.checkpoint_bytes(2);
        let err = resume_err(AlsSession::resume_from_bytes_sparse(&dense_bytes, &sp));
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    #[should_panic(expected = "nncp")]
    fn sparse_session_rejects_nonneg_kind() {
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[6, 6, 6], 2, 0.3, 3);
        let cfg = AlsConfig::new(2);
        let _ = AlsSession::new_sparse(&sp, &cfg, SessionKind::NonNeg);
    }

    #[test]
    #[should_panic(expected = "multi-sweep")]
    fn sparse_pp_requires_multisweep_policy() {
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[6, 6, 6], 2, 0.3, 3);
        let cfg = AlsConfig::new(2); // Standard policy
        let _ = AlsSession::new_sparse(&sp, &cfg, SessionKind::Pp);
    }

    #[test]
    fn sparse_msdt_session_matches_densified_bitwise() {
        // MSDT over the semi-sparse chain must reproduce — bit for bit —
        // the dense MSDT session on the densified tensor, while never
        // densifying the input (dense-volume GEMM flops stay absent).
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[10, 9, 8], 2, 0.15, 17);
        let cfg = AlsConfig::new(2)
            .with_policy(TreePolicy::MultiSweep)
            .with_max_sweeps(7)
            .with_tol(0.0);
        let a = AlsSession::new(&sp.to_dense(), &cfg, SessionKind::Exact).run();
        let b = AlsSession::new_sparse(&sp, &cfg, SessionKind::Exact).run();
        assert_bitwise(&a, &b);
        let s = &b.report.stats;
        assert!(s.semisparse_ttm_flops > 0, "first levels must be sparse");
        assert!(s.semisparse_ttv_flops > 0, "lower levels must be sparse");
        assert_eq!(s.sparse_mttkrp_flops, 0, "direct CSF kernel not used");
        assert_eq!(s.transpose_count, 0, "no layout copies on sparse input");
    }

    #[test]
    fn sparse_pp_session_matches_densified_bitwise() {
        // PP on a sparse input: exact sweeps and operator construction run
        // over the semi-sparse chain; the trace (including approximated
        // sweeps) must match the dense PP session on the densified tensor.
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[9, 8, 7], 2, 0.2, 29);
        let cfg = AlsConfig::new(2)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.5)
            .with_max_sweeps(20)
            .with_tol(0.0);
        let a = AlsSession::new(&sp.to_dense(), &cfg, SessionKind::Pp).run();
        let b = AlsSession::new_sparse(&sp, &cfg, SessionKind::Pp).run();
        assert_bitwise(&a, &b);
        assert!(
            b.report.count(SweepKind::PpApprox) >= 1,
            "PP regime never entered — pp_tol too tight for the test"
        );
        let s = &b.report.stats;
        assert!(s.semisparse_ttm_flops > 0);
        assert_eq!(s.sparse_mttkrp_flops, 0);
    }

    #[test]
    fn sparse_pp_checkpoint_mid_regime_is_bit_identical() {
        // Checkpoint inside the PP regime (semi-sparse cache
        // entries and dense pair operators both travel), resume, finish:
        // the completed run must match the uninterrupted one bit for bit.
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[9, 8, 7], 2, 0.2, 29);
        let cfg = AlsConfig::new(2)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.5)
            .with_max_sweeps(20)
            .with_tol(0.0);
        let a = AlsSession::new_sparse(&sp, &cfg, SessionKind::Pp).run();
        let first_approx = a
            .report
            .sweeps
            .iter()
            .position(|r| r.kind == SweepKind::PpApprox)
            .expect("regime must open");
        for cut in [first_approx, first_approx + 1] {
            let mut s = AlsSession::new_sparse(&sp, &cfg, SessionKind::Pp);
            for _ in 0..cut {
                let _ = s.step();
            }
            let bytes = s.checkpoint_bytes(0xFACADE);
            let (mut resumed, tag) = AlsSession::resume_from_bytes_sparse(&bytes, &sp).unwrap();
            assert_eq!(tag, 0xFACADE);
            while let Step::Swept(_) = resumed.step() {}
            assert_bitwise(&a, &resumed.finish());
        }
    }

    #[test]
    fn sweep_records_expose_progress() {
        let t = noisy_rank(&[6, 5, 7], 2, 0.05, 9);
        let cfg = AlsConfig::new(2).with_max_sweeps(5).with_tol(0.0);
        let mut s = AlsSession::new(&t, &cfg, SessionKind::Exact);
        let mut n = 0;
        while let Step::Swept(rec) = s.step() {
            n += 1;
            assert_eq!(s.sweeps_done(), n);
            assert_eq!(rec.fitness.to_bits(), s.last_fitness().to_bits());
        }
        assert_eq!(n, 5);
    }
}
