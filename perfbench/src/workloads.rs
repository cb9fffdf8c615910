//! The four workloads: input generation from the seed, and one round of
//! timed library calls with the correctness checks outside the timers.

use crate::check::Data;
use crate::trace::Tracer;
use pp_comm::{CostCounters, CostModel, Runtime};
use pp_core::{AlsConfig, AlsSession, ParKind, ParSession, SessionKind, SweepKind};
use pp_datagen::collinearity::{collinearity_tensor, CollinearityConfig};
use pp_datagen::timelapse::{timelapse_tensor, TimelapseConfig};
use pp_dtree::{CacheUpdate, KernelStats, TreePolicy};
use pp_grid::{DistTensor, ProcGrid};
use pp_serve::{run_batch, DatasetSpec, JobMethod, JobSpec, JobStatus, ServeConfig, StreamSpec};
use pp_tensor::sparse::SparseTensor;
use pp_tensor::{DenseTensor, Matrix};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Timelapse,
    Collinear,
    Sparse,
    Serve,
}

pub const WORKLOADS: [(&str, Workload); 4] = [
    ("timelapse-4d", Workload::Timelapse),
    ("collinear-3d-p2", Workload::Collinear),
    ("sparse-powerlaw", Workload::Sparse),
    ("serve-mix", Workload::Serve),
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// Kernel-pool width of one session (per rank, per driver).
    pub fn threads(self) -> usize {
        match self {
            Workload::Timelapse | Workload::Sparse => 2,
            Workload::Collinear | Workload::Serve => 1,
        }
    }
}

/// The three methods every single-tensor workload runs, in this order.
pub const METHODS: [&str; 3] = ["dt", "msdt", "pp"];

fn policy(method: &str) -> TreePolicy {
    if method == "dt" {
        TreePolicy::Standard
    } else {
        TreePolicy::MultiSweep
    }
}

/// Fixed run parameters of a single-tensor workload.
struct Params {
    rank: usize,
    tol: f64,
    max_sweeps: usize,
    pp_tol: f64,
    /// Exact fitness every method is timed to.
    target: f64,
}

const TIMELAPSE: Params = Params {
    rank: 25,
    tol: 1e-5,
    max_sweeps: 80,
    pp_tol: 0.1,
    target: 0.996,
};
const COLLINEAR: Params = Params {
    rank: 32,
    tol: 1e-5,
    max_sweeps: 300,
    pp_tol: 0.2,
    target: 0.99,
};
const SPARSE: Params = Params {
    rank: 16,
    tol: 0.0,
    max_sweeps: 40,
    pp_tol: 0.1,
    target: 0.0895,
};

impl Params {
    fn config(&self, method: &str, threads: usize) -> AlsConfig {
        AlsConfig::new(self.rank)
            .with_policy(policy(method))
            .with_tol(self.tol)
            .with_max_sweeps(self.max_sweeps)
            .with_pp_tol(self.pp_tol)
            .with_threads(threads)
    }
}

/// Fisher–Yates permutation of `0..n` from a splitmix64 stream.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    p
}

/// The seed's power-of-two scale of the input, `2^k` with `k ∈ [−4, 4]`.
///
/// Multiplying by a power of two is exact in binary floating point, and
/// every quantity ALS and PP compute is homogeneous in the tensor, so each
/// seed runs bitwise the same iterates, sweep schedule and fitness trace
/// (only the first-solved factor carries the scale). Convergence, and PP's
/// in particular, is not robust to rounding-level changes of the input:
/// relabelling mode-0 indices moved PP's stop on `timelapse-4d` between
/// sweeps 63 and 80 and its exact fitness between 0.99 and −1143, which
/// would make every convergence metric measure the draw, not the code.
pub fn input_scale(seed: u64) -> f64 {
    2f64.powi((seed % 9) as i32 - 4)
}

fn scaled_dense(mut t: DenseTensor, scale: f64) -> DenseTensor {
    t.scale(scale);
    t
}

fn scaled_sparse(sp: &SparseTensor, scale: f64) -> SparseTensor {
    let inds = sp.inds().iter().map(|&i| i as usize).collect();
    let vals = sp.vals().iter().map(|v| v * scale).collect();
    SparseTensor::from_coo(sp.dims().to_vec(), inds, vals)
}

/// Generated inputs of one workload.
pub enum Input {
    Dense(DenseTensor),
    Sparse(SparseTensor),
    Dist {
        global: DenseTensor,
        grid: ProcGrid,
        blocks: Arc<Vec<DistTensor>>,
        distribute_s: f64,
    },
    Serve {
        specs: Vec<JobSpec>,
        /// The tensor each job's output is checked against.
        data: Vec<Arc<Owned>>,
        /// Every batch submits the jobs in its own order drawn from the
        /// seed and the round, so a run samples many orders and its
        /// median does not hinge on where one order put the long jobs.
        seed: u64,
    },
}

pub enum Owned {
    Dense(DenseTensor),
    Sparse(SparseTensor),
}

impl Owned {
    fn data(&self) -> Data<'_> {
        match self {
            Owned::Dense(t) => Data::Dense(t),
            Owned::Sparse(sp) => Data::Sparse(sp),
        }
    }
}

/// Generate (and for the distributed workload, distribute) the inputs.
pub fn setup(w: Workload, seed: u64, tr: &Tracer) -> Input {
    let scale = input_scale(seed);
    match w {
        Workload::Timelapse => Input::Dense(tr.span("datagen", 0, 0, |_| {
            let cfg = TimelapseConfig {
                height: 64,
                width: 84,
                bands: 33,
                times: 9,
                materials: 12,
                noise: 5e-3,
            };
            scaled_dense(timelapse_tensor(&cfg, 9), scale)
        })),
        Workload::Collinear => {
            let global = tr.span("datagen", 0, 0, |_| {
                let cfg = CollinearityConfig {
                    s: 160,
                    r: 32,
                    order: 3,
                    lo: 0.6,
                    hi: 0.8,
                };
                scaled_dense(collinearity_tensor(&cfg, 77).0, scale)
            });
            let grid = ProcGrid::new(vec![1, 1, 2]);
            let t0 = Instant::now();
            let blocks: Vec<DistTensor> = tr.span("distribute", 0, 0, |_| {
                (0..grid.size())
                    .map(|r| DistTensor::from_global(&global, &grid, r))
                    .collect()
            });
            Input::Dist {
                distribute_s: t0.elapsed().as_secs_f64(),
                global,
                grid,
                blocks: Arc::new(blocks),
            }
        }
        Workload::Sparse => Input::Sparse(tr.span("datagen", 0, 0, |_| {
            let sp = pp_datagen::sparse::powerlaw_sparse(&[512, 256, 64], 100_000, 2.0, 11);
            scaled_sparse(&sp, scale)
        })),
        Workload::Serve => {
            let specs = serve_specs();
            let data = tr.span("datagen", 0, 0, |_| {
                let mut built: Vec<(DatasetSpec, Arc<Owned>)> = Vec::new();
                specs
                    .iter()
                    .map(|s| {
                        if let Some((_, d)) = built.iter().find(|(k, _)| *k == s.dataset) {
                            return d.clone();
                        }
                        let d = Arc::new(if s.dataset.is_sparse() {
                            Owned::Sparse(s.dataset.build_sparse())
                        } else {
                            Owned::Dense(s.dataset.build())
                        });
                        built.push((s.dataset.clone(), d.clone()));
                        d
                    })
                    .collect()
            });
            Input::Serve { specs, data, seed }
        }
    }
}

/// The serve-mix batch: 24 dense jobs (dt/msdt/pp/nncp × lowrank and
/// collinearity × 3 instances), 3 sparse jobs (dt/msdt/pp) and 2 streaming
/// time-lapse jobs, each with a fixed sweep budget.
fn serve_specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    let job = |name: String, method: JobMethod, rank: usize, dataset: DatasetSpec| {
        let mut j = JobSpec::new(name);
        j.method = method;
        j.rank = rank;
        j.max_sweeps = 20;
        j.tol = 0.0;
        j.pp_tol = 0.3;
        j.dataset = dataset;
        j
    };
    let dense = [
        JobMethod::Dt,
        JobMethod::Msdt,
        JobMethod::Pp,
        JobMethod::Nncp,
    ];
    for inst in 0..3u64 {
        for &m in &dense {
            specs.push(job(
                format!("{}-low{inst}", m.label()),
                m,
                8,
                DatasetSpec::Lowrank {
                    dims: vec![56, 55, 57],
                    gen_rank: 8,
                    noise: 0.05,
                    seed: 11 + inst,
                },
            ));
            specs.push(job(
                format!("{}-col{inst}", m.label()),
                m,
                6,
                DatasetSpec::Collinearity {
                    s: 48,
                    r: 6,
                    order: 3,
                    lo: 0.5,
                    hi: 0.7,
                    seed: 21 + inst,
                },
            ));
        }
    }
    for m in [JobMethod::Dt, JobMethod::Msdt, JobMethod::Pp] {
        specs.push(job(
            format!("{}-sparse", m.label()),
            m,
            8,
            DatasetSpec::SparsePowerlaw {
                dims: vec![256, 128, 64],
                nnz: 40_000,
                skew: 2.0,
                seed: 31,
            },
        ));
    }
    for m in [JobMethod::Msdt, JobMethod::Pp] {
        let mut j = job(
            format!("{}-stream", m.label()),
            m,
            10,
            DatasetSpec::Timelapse {
                height: 32,
                width: 42,
                bands: 33,
                times: 9,
                materials: 12,
                noise: 5e-3,
                seed: 41,
            },
        );
        j.stream = Some(StreamSpec {
            initial: 3,
            arrive: 2,
            sweeps_per_arrival: 5,
            update: CacheUpdate::Incremental,
        });
        specs.push(j);
    }
    specs
}

const SERVE_WINDOW: usize = 4;
pub const SERVE_DRIVERS: usize = 2;

/// One timed step() call.
#[derive(Clone, Copy, Debug)]
pub struct StepRec {
    pub kind: SweepKind,
    pub wall: f64,
}

/// Collective traffic of a distributed run's steps (critical path: max
/// over ranks) and the spread of the ranks' step walls.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommStats {
    pub msgs_per_sweep: f64,
    pub words_per_sweep: f64,
    pub model_s_per_sweep: f64,
    pub rank_skew_s_per_sweep: f64,
}

/// A sweep whose exact fitness is checked: (sweep index, reported fitness,
/// the factors it left behind).
type Checked = (usize, f64, Vec<Matrix>);

/// How far below the target a sweep's reported fitness may lie and its
/// factors still be checked. dt and msdt report the exact Eq. 3 fitness
/// (within `REPORT_TOL` of the exact one); PP's approximated sweeps report
/// an estimate that can sit below the exact value (collinear-3d-p2 stops
/// reporting 0.965990 at an exact 0.967240), so a pp sweep that reaches
/// the target while reporting up to this much less is still found.
fn check_margin(method: &str) -> f64 {
    if method == "pp" {
        0.01
    } else {
        crate::REPORT_TOL
    }
}

/// What the checks after the round need from one run. Checking between
/// steps would let the session's speculative work run untimed.
#[derive(Clone, Debug)]
struct Pending {
    factors: Vec<Matrix>,
    checked: Vec<Checked>,
    /// Timed seconds up to and including each sweep.
    cum: Vec<f64>,
    span: u64,
    run_id: u64,
}

/// One method's run (or one serve job) that did not panic.
#[derive(Clone, Debug)]
pub struct Run {
    pub new_s: f64,
    pub steps: Vec<StepRec>,
    pub finish_s: f64,
    pub converged: bool,
    /// Timed seconds to the first sweep whose exact fitness reached the
    /// target (serve jobs: busy seconds to completion).
    pub tt_target: Option<f64>,
    pub final_reported: f64,
    pub final_exact: f64,
    /// |fast path − oracle| on the final factors, when the oracle ran.
    pub oracle_gap: Option<f64>,
    pub candidates: usize,
    pub false_candidates: usize,
    /// (sweep, reported, exact) of the first false candidate.
    pub first_false: Option<(usize, f64, f64)>,
    pub min_exact: f64,
    pub stats: KernelStats,
    pub cache_elems: usize,
    pub comm: Option<CommStats>,
    pending: Option<Pending>,
}

impl Run {
    fn new(steps: Vec<StepRec>, final_reported: f64, stats: KernelStats, pending: Pending) -> Run {
        Run {
            new_s: 0.0,
            steps,
            finish_s: 0.0,
            converged: false,
            tt_target: None,
            final_reported,
            final_exact: f64::NAN,
            oracle_gap: None,
            candidates: 0,
            false_candidates: 0,
            first_false: None,
            min_exact: f64::NAN,
            stats,
            cache_elems: 0,
            comm: None,
            pending: Some(pending),
        }
    }

    /// Seconds of timed library calls in this run.
    pub fn timed(&self) -> f64 {
        self.new_s + self.steps.iter().map(|s| s.wall).sum::<f64>() + self.finish_s
    }

    pub fn count(&self, kind: SweepKind) -> usize {
        self.steps.iter().filter(|s| s.kind == kind).count()
    }
}

/// One operation: a method run or a serve job.
pub struct Job {
    pub method: &'static str,
    pub name: String,
    pub result: Result<Run, String>,
    /// Seconds from the operation's start until it ended or failed (serve
    /// jobs: the library's busy seconds). A failed operation's timing
    /// metrics fall back to it, so a run whose operations all fail still
    /// reports.
    pub wall: f64,
}

impl Job {
    /// Why this operation failed, if it did.
    pub fn failure(&self, target: Option<f64>) -> Option<String> {
        let run = match &self.result {
            Err(e) => return Some(format!("failed: {e}")),
            Ok(run) => run,
        };
        let target = target?;
        if run.tt_target.is_some() {
            return None;
        }
        let how = if run.converged {
            "false convergence"
        } else {
            "sweep limit"
        };
        let mut why = format!(
            "{how}: stopped after {} sweeps reporting {:.6}, exact {:.6} < target {target}",
            run.steps.len(),
            run.final_reported,
            run.final_exact
        );
        if let Some((k, rep, ex)) = run.first_false {
            why += &format!(
                "; {} of {} candidate sweeps false (first: sweep {k} reported {rep:.6}, exact {ex:.6}); lowest exact of a checked sweep {:.6}",
                run.false_candidates, run.candidates, run.min_exact
            );
        }
        Some(why)
    }
}

/// Batch-level counters of one serve round.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    pub wall: f64,
    pub completed: usize,
    pub turns: usize,
    pub busy_s: f64,
    pub failed: usize,
    pub parked: usize,
    pub stream_arrivals: usize,
}

pub struct Round {
    pub jobs: Vec<Job>,
    pub batch: Option<BatchStats>,
}

/// The fitness target of a workload's runs (None: serve jobs run a fixed
/// budget and fail only by ending `Failed`).
pub fn target(w: Workload) -> Option<f64> {
    match w {
        Workload::Timelapse => Some(TIMELAPSE.target),
        Workload::Collinear => Some(COLLINEAR.target),
        Workload::Sparse => Some(SPARSE.target),
        Workload::Serve => None,
    }
}

/// Run every method (or the batch) once.
pub fn round(w: Workload, input: &Input, tr: &Tracer, round_id: u64) -> Round {
    tr.span("round", 0, round_id, |rid| {
        let methods = |run: &dyn Fn(&'static str, u64) -> Result<Run, String>| Round {
            jobs: METHODS
                .iter()
                .map(|&m| {
                    let t0 = Instant::now();
                    let result = tr.span("method_run", rid, round_id, |mid| run(m, mid));
                    Job {
                        method: m,
                        name: m.to_string(),
                        result,
                        wall: t0.elapsed().as_secs_f64(),
                    }
                })
                .collect(),
            batch: None,
        };
        match (w, input) {
            (Workload::Timelapse, Input::Dense(t)) => methods(&|m, mid| {
                seq_run(
                    &Data::Dense(t),
                    &TIMELAPSE,
                    m,
                    w.threads(),
                    tr,
                    mid,
                    round_id,
                )
            }),
            (Workload::Sparse, Input::Sparse(sp)) => methods(&|m, mid| {
                seq_run(
                    &Data::Sparse(sp),
                    &SPARSE,
                    m,
                    w.threads(),
                    tr,
                    mid,
                    round_id,
                )
            }),
            (Workload::Collinear, Input::Dist { grid, blocks, .. }) => {
                methods(&|m, mid| par_run(grid, blocks, m, tr, mid, round_id))
            }
            (Workload::Serve, Input::Serve { specs, seed, .. }) => {
                serve_round(specs, *seed, tr, rid, round_id)
            }
            _ => unreachable!("setup builds the input kind of its workload"),
        }
    })
}

/// The exact checks of one round, outside every timer: each run's final
/// factors (also through the library's oracle when `oracle`), and each
/// candidate sweep against the workload's target.
pub fn check_round(round: &mut Round, w: Workload, input: &Input, oracle: bool, tr: &Tracer) {
    for (i, job) in round.jobs.iter_mut().enumerate() {
        let Ok(run) = &mut job.result else { continue };
        let Some(p) = run.pending.take() else {
            continue;
        };
        let data = match input {
            Input::Dense(t) | Input::Dist { global: t, .. } => Data::Dense(t),
            Input::Sparse(sp) => Data::Sparse(sp),
            Input::Serve { data, .. } => data[i].data(),
        };
        tr.span("exact_check", p.span, p.run_id, |_| {
            run.final_exact = data.fitness(&p.factors);
            if oracle {
                run.oracle_gap = Some((data.oracle_fitness(&p.factors) - run.final_exact).abs());
            }
        });
        let Some(target) = target(w) else { continue };
        run.candidates = p.checked.iter().filter(|c| c.1 >= target).count();
        run.min_exact = f64::INFINITY;
        for (k, rep, factors) in &p.checked {
            let exact = tr.span("exact_check", p.span, p.run_id, |_| data.fitness(factors));
            run.min_exact = run.min_exact.min(exact);
            if exact >= target {
                run.tt_target.get_or_insert(p.cum[*k]);
            } else if *rep >= target {
                run.false_candidates += 1;
                run.first_false.get_or_insert((k + 1, *rep, exact));
            }
        }
        if run.tt_target.is_none() && run.final_exact >= target {
            run.tt_target = p.cum.last().copied();
        }
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

fn step_span(kind: SweepKind) -> &'static str {
    match kind {
        SweepKind::Exact => "step.exact",
        SweepKind::PpInit => "step.pp_init",
        SweepKind::PpApprox => "step.pp_approx",
    }
}

/// Running sums of the timed seconds, one entry per sweep.
fn cumulative(new_s: f64, steps: &[StepRec]) -> Vec<f64> {
    steps
        .iter()
        .scan(new_s, |acc, s| {
            *acc += s.wall;
            Some(*acc)
        })
        .collect()
}

fn seq_run(
    data: &Data,
    p: &Params,
    method: &str,
    threads: usize,
    tr: &Tracer,
    parent: u64,
    run_id: u64,
) -> Result<Run, String> {
    let cfg = p.config(method, threads);
    let kind = if method == "pp" {
        SessionKind::Pp
    } else {
        SessionKind::Exact
    };
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let mut s = tr.span("session_new", parent, run_id, |_| match data {
            Data::Dense(t) => AlsSession::new(t, &cfg, kind),
            Data::Sparse(sp) => AlsSession::new_sparse(sp, &cfg, kind),
        });
        let new_s = t0.elapsed().as_secs_f64();
        let mut steps = Vec::new();
        let mut checked = Vec::new();
        let mut cache_elems = 0;
        while !s.is_finished() {
            let w0 = Instant::now();
            let step = s.step();
            let w1 = Instant::now();
            let pp_core::Step::Swept(rec) = step else {
                break;
            };
            tr.record(step_span(rec.kind), parent, run_id, w0, w1);
            steps.push(StepRec {
                kind: rec.kind,
                wall: (w1 - w0).as_secs_f64(),
            });
            cache_elems = cache_elems.max(s.cache_memory_elems());
            if rec.fitness >= p.target - check_margin(method) {
                checked.push((steps.len() - 1, rec.fitness, s.factors().to_vec()));
            }
        }
        let f0 = Instant::now();
        let out = tr.span("finish", parent, run_id, |_| s.finish());
        let finish_s = f0.elapsed().as_secs_f64();
        let cum = cumulative(new_s, &steps);
        let pending = Pending {
            factors: out.factors,
            checked,
            cum,
            span: parent,
            run_id,
        };
        Run {
            new_s,
            finish_s,
            converged: out.report.converged,
            cache_elems,
            ..Run::new(steps, out.report.final_fitness, out.report.stats, pending)
        }
    }))
    .map_err(panic_text)
}

fn cost_delta(a: &CostCounters, b: &CostCounters) -> CostCounters {
    CostCounters {
        messages: b.messages - a.messages,
        comm_words: b.comm_words - a.comm_words,
        flops: b.flops - a.flops,
        mem_words: b.mem_words - a.mem_words,
    }
}

/// What one rank brings back from a distributed run.
struct RankOut {
    new_s: f64,
    steps: Vec<StepRec>,
    finish_s: f64,
    converged: bool,
    step_costs: CostCounters,
    /// Gathered global factors of the checked sweeps; rank 0 only.
    checked: Vec<Checked>,
    factors: Vec<Matrix>,
    stats: KernelStats,
    cache_elems: usize,
    final_reported: f64,
}

fn par_run(
    grid: &ProcGrid,
    blocks: &Arc<Vec<DistTensor>>,
    method: &'static str,
    tr: &Tracer,
    parent: u64,
    run_id: u64,
) -> Result<Run, String> {
    let p = &COLLINEAR;
    let cfg = p.config(method, Workload::Collinear.threads());
    let kind = if method == "pp" {
        ParKind::Pp
    } else {
        ParKind::Exact
    };
    let threshold = p.target - check_margin(method);
    let (grid2, blocks2, tr2) = (grid.clone(), blocks.clone(), tr.clone());
    let out = catch_unwind(AssertUnwindSafe(|| {
        Runtime::new(grid.size()).run(move |ctx| {
            let rank = ctx.rank();
            tr2.span("rank_run", parent, run_id, |rid| {
                let t0 = Instant::now();
                let mut s = tr2.span("session_new", rid, run_id, |_| {
                    ParSession::new(ctx, &grid2, &blocks2[rank], &cfg, kind)
                });
                let new_s = t0.elapsed().as_secs_f64();
                let mut steps = Vec::new();
                let mut checked = Vec::new();
                let mut step_costs = CostCounters::default();
                let mut cache_elems = 0;
                while !s.is_finished() {
                    let c0 = ctx.comm.ledger().snapshot();
                    let w0 = Instant::now();
                    let step = s.step(ctx);
                    let w1 = Instant::now();
                    let pp_core::Step::Swept(rec) = step else {
                        break;
                    };
                    step_costs.add(&cost_delta(&c0, &ctx.comm.ledger().snapshot()));
                    tr2.record(step_span(rec.kind), rid, run_id, w0, w1);
                    steps.push(StepRec {
                        kind: rec.kind,
                        wall: (w1 - w0).as_secs_f64(),
                    });
                    cache_elems = cache_elems.max(s.st.engine.cache_memory_elems());
                    // Reported fitness comes out of an All-Reduce, so every
                    // rank takes this branch together.
                    if rec.fitness >= threshold {
                        let f = s.st.gather_factors(ctx);
                        if rank == 0 {
                            checked.push((steps.len() - 1, rec.fitness, f));
                        }
                    }
                }
                let f0 = Instant::now();
                let out = tr2.span("finish", rid, run_id, |_| s.finish(ctx));
                RankOut {
                    new_s,
                    steps,
                    finish_s: f0.elapsed().as_secs_f64(),
                    converged: out.report.converged,
                    step_costs,
                    checked,
                    factors: out.factors,
                    stats: out.report.stats,
                    cache_elems,
                    final_reported: out.report.final_fitness,
                }
            })
        })
    }))
    .map_err(panic_text)?;
    let mut ranks = out.results;
    let max_of = |f: &dyn Fn(&RankOut) -> f64| ranks.iter().map(f).fold(0.0, f64::max);
    let sweeps = ranks[0].steps.len();
    // A lockstep sweep ends when its slowest rank does.
    let steps: Vec<StepRec> = (0..sweeps)
        .map(|k| StepRec {
            kind: ranks[0].steps[k].kind,
            wall: max_of(&|r| r.steps[k].wall),
        })
        .collect();
    let skew: f64 = (0..sweeps)
        .map(|k| {
            max_of(&|r| r.steps[k].wall)
                - ranks
                    .iter()
                    .map(|r| r.steps[k].wall)
                    .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let critical = ranks
        .iter()
        .fold(CostCounters::default(), |acc, r| acc.max(&r.step_costs));
    let per = sweeps.max(1) as f64;
    let new_s = max_of(&|r| r.new_s);
    let finish_s = max_of(&|r| r.finish_s);
    let cache_elems = ranks.iter().map(|r| r.cache_elems).max().unwrap_or(0);
    let r0 = ranks.swap_remove(0);
    let pending = Pending {
        factors: r0.factors,
        checked: r0.checked,
        cum: cumulative(new_s, &steps),
        span: parent,
        run_id,
    };
    Ok(Run {
        new_s,
        finish_s,
        converged: r0.converged,
        cache_elems,
        comm: Some(CommStats {
            msgs_per_sweep: critical.messages as f64 / per,
            words_per_sweep: critical.comm_words as f64 / per,
            model_s_per_sweep: CostModel::stampede2_like().time(&critical) / per,
            rank_skew_s_per_sweep: skew / per,
        }),
        ..Run::new(steps, r0.final_reported, r0.stats, pending)
    })
}

/// One batch of `specs` in a shuffled submission order; the jobs come back
/// in `specs` order.
fn serve_round(specs: &[JobSpec], seed: u64, tr: &Tracer, parent: u64, run_id: u64) -> Round {
    let cfg = ServeConfig::new(SERVE_WINDOW).with_drivers(SERVE_DRIVERS);
    let order = permutation(specs.len(), seed ^ run_id.rotate_left(32));
    let submitted: Vec<JobSpec> = order.iter().map(|&i| specs[i].clone()).collect();
    let report = tr
        .span("run_batch", parent, run_id, |_| run_batch(&submitted, &cfg))
        .expect("the serve configuration is valid");
    let mut batch = BatchStats {
        wall: report.total_secs,
        completed: report.completed(),
        turns: report.schedule.len(),
        busy_s: report.jobs.iter().map(|j| j.secs).sum(),
        failed: report.failed(),
        parked: report.parked(),
        stream_arrivals: 0,
    };
    let mut jobs: Vec<(usize, Job)> = report
        .jobs
        .into_iter()
        .zip(order)
        .map(|(j, i)| {
            let spec = &specs[i];
            let result = match (&j.status, j.output) {
                (JobStatus::Completed { converged }, Some(out)) => {
                    if let (Some(st), DatasetSpec::Timelapse { times, .. }) =
                        (spec.stream, &spec.dataset)
                    {
                        batch.stream_arrivals += (times - st.initial) / st.arrive;
                    }
                    let steps: Vec<StepRec> = out
                        .report
                        .sweeps
                        .iter()
                        .map(|r| StepRec {
                            kind: r.kind,
                            wall: r.secs,
                        })
                        .collect();
                    let pending = Pending {
                        factors: out.factors,
                        checked: Vec::new(),
                        cum: Vec::new(),
                        span: parent,
                        run_id,
                    };
                    Ok(Run {
                        converged: *converged,
                        tt_target: Some(j.secs),
                        ..Run::new(steps, out.report.final_fitness, out.report.stats, pending)
                    })
                }
                (JobStatus::Failed { error }, _) => Err(error.clone()),
                (JobStatus::Parked, _) => Err("parked".into()),
                (JobStatus::Completed { .. }, None) => Err("completed without output".into()),
            };
            let job = Job {
                method: spec.method.label(),
                name: j.name,
                result,
                wall: j.secs,
            };
            (i, job)
        })
        .collect();
    jobs.sort_by_key(|&(i, _)| i);
    Round {
        jobs: jobs.into_iter().map(|(_, j)| j).collect(),
        batch: Some(batch),
    }
}

/// Median msdt step wall over `sweeps` fixed-budget sweeps at a given
/// kernel-pool width (the `pool.speedup_1to2` baseline); None for the
/// workloads whose sessions are not single-process.
pub fn msdt_sweep_median(input: &Input, threads: usize, sweeps: usize) -> Option<f64> {
    let (data, p) = match input {
        Input::Dense(t) => (Data::Dense(t), &TIMELAPSE),
        Input::Sparse(sp) => (Data::Sparse(sp), &SPARSE),
        _ => return None,
    };
    let cfg = p
        .config("msdt", threads)
        .with_tol(0.0)
        .with_max_sweeps(sweeps);
    let mut s = match data {
        Data::Dense(t) => AlsSession::new(t, &cfg, SessionKind::Exact),
        Data::Sparse(sp) => AlsSession::new_sparse(sp, &cfg, SessionKind::Exact),
    };
    let mut walls = Vec::new();
    while !s.is_finished() {
        let t0 = Instant::now();
        s.step();
        walls.push(t0.elapsed().as_secs_f64());
    }
    Some(crate::stats::median(&walls[1..]))
}
