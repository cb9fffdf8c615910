//! Metric names and units, and their computation from the measured rounds.

use crate::stats::{median, trimmed_mean, Summary};
use crate::workloads::{Job, Round, Run, Workload, METHODS};
use pp_core::SweepKind;
use pp_dtree::KernelStats;
use std::collections::BTreeMap;

/// A metric as the result line names it. Direction, bound and the
/// workloads' reasons live in `BENCHMARK.json`, which `run.py` checks each
/// result line against.
pub struct Def {
    pub name: String,
    pub unit: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str) -> Def {
    Def {
        name: name.into(),
        unit,
    }
}

const SWEEP_KINDS: [(&str, &str, SweepKind); 4] = [
    ("dt", "dt", SweepKind::Exact),
    ("msdt", "msdt", SweepKind::Exact),
    ("pp_init", "pp", SweepKind::PpInit),
    ("pp_approx", "pp", SweepKind::PpApprox),
];

pub fn end_to_end() -> Vec<Def> {
    let mut v = Vec::new();
    for m in METHODS {
        v.push(def(format!("tt_target_s.{m}"), "s"));
    }
    for (k, _, _) in SWEEP_KINDS {
        v.push(def(format!("sweep_s.{k}"), "s"));
    }
    for m in METHODS {
        v.push(def(format!("fitness.{m}"), "fitness"));
    }
    v.push(def("jobs_per_s", "1/s"));
    v.push(def("ok_frac", "frac"));
    v.push(def("peak_rss_mb", "MiB"));
    v.push(def("setup_s", "s"));
    v
}

/// Layer modules of the library, used as metric prefixes.
pub fn per_layer() -> Vec<Def> {
    let mut v = Vec::new();
    for m in METHODS {
        v.push(def(format!("tensor.ttm_s.{m}"), "s/sweep"));
        v.push(def(format!("tensor.ttm_gflops.{m}"), "GF/s"));
        for k in ["mttv", "hadamard", "solve", "transpose", "other"] {
            v.push(def(format!("tensor.{k}_s.{m}"), "s/sweep"));
        }
    }
    v.push(def("tensor.csf_gflop.dt", "GF/sweep"));
    for m in ["msdt", "pp"] {
        v.push(def(format!("tensor.ss_ttm_gflop.{m}"), "GF/sweep"));
        v.push(def(format!("tensor.ss_ttv_gflop.{m}"), "GF/sweep"));
        v.push(def(format!("tensor.ss_entries.{m}"), "count/sweep"));
    }
    v.push(def("tensor.peak_gflops", "GF/s"));
    v.push(def("tensor.stream_gbs", "GB/s"));
    v.push(def("tensor.ttm_flop_per_byte.msdt", "flop/B-computed"));
    v.push(def("tensor.ttm_frac_peak.msdt", "ratio"));
    for m in METHODS {
        v.push(def(format!("dtree.ttm_calls_per_sweep.{m}"), "count/sweep"));
        v.push(def(format!("dtree.spec_launched.{m}"), "count/sweep"));
        v.push(def(format!("dtree.spec_wasted.{m}"), "count/sweep"));
        v.push(def(format!("dtree.spec_hit_ratio.{m}"), "ratio"));
        v.push(def(format!("dtree.cache_elems.{m}"), "elems"));
    }
    for m in METHODS {
        v.push(def(format!("core.sweeps.exact.{m}"), "count"));
    }
    v.push(def("core.sweeps.pp_init.pp", "count"));
    v.push(def("core.sweeps.pp_approx.pp", "count"));
    v.push(def("core.pp_regime_entries", "count"));
    for m in METHODS {
        v.push(def(format!("core.session_new_s.{m}"), "s"));
        v.push(def(format!("core.step_outside_kernels_s.{m}"), "s/sweep"));
        v.push(def(format!("core.fitness_report_err.{m}"), "fitness"));
        v.push(def(format!("core.false_candidates.{m}"), "count"));
    }
    for m in METHODS {
        v.push(def(format!("comm.msgs_per_sweep.{m}"), "count/sweep"));
        v.push(def(format!("comm.words_per_sweep.{m}"), "words/sweep"));
        v.push(def(
            format!("comm.model_s_per_sweep.{m}"),
            "modelled-s/sweep",
        ));
        v.push(def(format!("comm.rank_skew_s.{m}"), "s/sweep"));
    }
    v.push(def("grid.distribute_s", "s"));
    v.push(def("serve.turns", "count"));
    v.push(def("serve.job_busy_s", "s"));
    v.push(def("serve.driver_idle_frac", "frac"));
    v.push(def("serve.jobs_failed", "count"));
    v.push(def("serve.jobs_parked", "count"));
    v.push(def("serve.stream_arrivals", "count"));
    v.push(def("pool.threads", "count"));
    v.push(def("pool.speedup_1to2", "ratio"));
    for l in TRACE_LAYERS {
        v.push(def(format!("trace.self_s.{l}"), "s"));
    }
    v.push(def("trace.overhead_frac", "frac"));
    v
}

/// Span names whose mean self time is reported; `step` merges the three
/// sweep kinds.
const TRACE_LAYERS: [&str; 9] = [
    "datagen",
    "distribute",
    "session_new",
    "step",
    "finish",
    "exact_check",
    "rank_run",
    "run_batch",
    "round",
];

/// The method's runs that did not fail outright.
fn runs<'a>(rounds: &'a [Round], method: &'a str) -> Vec<&'a Run> {
    rounds
        .iter()
        .flat_map(|r| jobs(r, method))
        .filter_map(|j| j.result.as_ref().ok())
        .collect()
}

fn jobs<'a>(r: &'a Round, method: &'a str) -> impl Iterator<Item = &'a Job> {
    r.jobs.iter().filter(move |j| j.method == method)
}

/// Timed seconds to target. A run that never reached it contributes the
/// timed seconds until it stopped, an operation that failed outright the
/// seconds until it failed; both are counted as failed.
fn tt_or_stop(j: &Job) -> f64 {
    match &j.result {
        Ok(r) => r.tt_target.unwrap_or_else(|| r.timed()),
        Err(_) => j.wall,
    }
}

/// Seconds of measured library calls in one round: the batch wall for
/// serve, the summed timed calls otherwise (a failed operation: its
/// seconds until it failed).
pub fn round_secs(r: &Round) -> f64 {
    match &r.batch {
        Some(b) => b.wall,
        None => r
            .jobs
            .iter()
            .map(|j| j.result.as_ref().map_or(j.wall, Run::timed))
            .sum(),
    }
}

/// One sample per round that has any: the trimmed mean
/// ([`TRIM`]) of the values `f` collects from the round. Averaging within
/// a round keeps a fixed mix of operations (msdt's heavy and light sweeps,
/// serve-mix's job shapes) from turning a pooled median into a pick
/// between sub-populations; trimming keeps a few stalled calls from
/// moving the round's value.
fn per_round(rounds: &[Round], f: impl Fn(&Round) -> Vec<f64>) -> Vec<f64> {
    rounds
        .iter()
        .map(f)
        .filter(|v| !v.is_empty())
        .map(|v| trimmed_mean(&v, TRIM))
        .collect()
}

/// Share of a round's values dropped from each end before averaging.
const TRIM: f64 = 0.1;

/// End-to-end values, with a timing summary for the report.
pub struct Value {
    pub value: f64,
    /// The samples the value is the median of.
    pub summary: Option<Summary>,
    /// For per-round means: the individual calls they average.
    pub calls: Option<Summary>,
    /// What the value stands for when the run lacked its usual samples.
    pub note: Option<String>,
}

fn timing(samples: &[f64]) -> Value {
    let s = Summary::of(samples);
    Value {
        value: s.median,
        summary: Some(s),
        calls: None,
        note: None,
    }
}

fn plain(v: f64) -> Value {
    Value {
        value: v,
        summary: None,
        calls: None,
        note: None,
    }
}

/// `sweep_s` of one sweep kind. A run without sweeps of that kind (say a
/// change keeps PP out of its regime) reports the method's mean sweep of
/// any kind instead, and a method that never completed a sweep the
/// seconds until its operations stopped or failed, each with a note.
fn sweep_value(rounds: &[Round], k: &str, m: &str, kind: SweepKind) -> Value {
    let walls = |r: &Round, any: bool| -> Vec<f64> {
        runs(std::slice::from_ref(r), m)
            .iter()
            .flat_map(|run| run.steps.iter())
            .filter(|s| any || s.kind == kind)
            .map(|s| s.wall)
            .collect()
    };
    for any in [false, true] {
        let means = per_round(rounds, |r| walls(r, any));
        if !means.is_empty() {
            let calls: Vec<f64> = rounds.iter().flat_map(|r| walls(r, any)).collect();
            return Value {
                calls: Some(Summary::of(&calls)),
                note: any.then(|| format!("no {k} sweeps: {m}'s sweeps of every kind")),
                ..timing(&means)
            };
        }
    }
    Value {
        note: Some(format!(
            "no {m} sweep completed: seconds until its operations stopped or failed"
        )),
        ..timing(&per_round(rounds, |r| jobs(r, m).map(|j| j.wall).collect()))
    }
}

pub fn compute_end_to_end(
    rounds: &[Round],
    setups: &[f64],
    peak_rss_mb: f64,
    attempted: usize,
    failed: usize,
) -> BTreeMap<String, Value> {
    let mut out = BTreeMap::new();
    for m in METHODS {
        let tt = per_round(rounds, |r| jobs(r, m).map(tt_or_stop).collect());
        out.insert(format!("tt_target_s.{m}"), timing(&tt));
        // An operation that failed outright returned no model: the fitness
        // of the zero model, 0.
        let fit: Vec<f64> = rounds
            .iter()
            .flat_map(|r| jobs(r, m))
            .map(|j| j.result.as_ref().map_or(0.0, |r| r.final_exact))
            .collect();
        out.insert(format!("fitness.{m}"), plain(median(&fit)));
    }
    for (k, m, kind) in SWEEP_KINDS {
        out.insert(format!("sweep_s.{k}"), sweep_value(rounds, k, m, kind));
    }
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|r| match &r.batch {
            Some(b) => b.completed as f64 / b.wall,
            None => r.jobs.iter().filter(|j| j.result.is_ok()).count() as f64 / round_secs(r),
        })
        .collect();
    out.insert("jobs_per_s".into(), plain(median(&per_round)));
    out.insert(
        "ok_frac".into(),
        plain((attempted - failed) as f64 / attempted as f64),
    );
    out.insert("peak_rss_mb".into(), plain(peak_rss_mb));
    out.insert("setup_s".into(), timing(setups));
    out
}

/// Everything the per-layer metrics are computed from besides the rounds.
pub struct LayerInputs<'a> {
    pub workload: Workload,
    pub probe: &'a crate::probe::Probe,
    /// msdt step-wall median at 1 and at the workload's width.
    pub msdt_1_and_n: Option<(f64, f64)>,
    pub distribute_s: Vec<f64>,
    pub self_s: BTreeMap<String, f64>,
    pub overhead_frac: f64,
    /// Elements of the dense input (for the computed TTM byte count).
    pub input_elems: usize,
}

fn sum_stats(rs: &[&Run]) -> KernelStats {
    let mut s = KernelStats::default();
    for r in rs {
        s.add(&r.stats);
    }
    s
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median, or 0 when there is nothing to take it of: a per-layer metric
/// that does not apply to a workload (or whose operations all failed)
/// reads 0.
fn or0(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

pub fn compute_per_layer(rounds: &[Round], li: &LayerInputs) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut put = |k: String, v: f64| {
        out.insert(k, v);
    };
    for m in METHODS {
        let rs = runs(rounds, m);
        let s = sum_stats(&rs);
        let sweeps: f64 = rs.iter().map(|r| r.steps.len() as f64).sum();
        let per = |x: f64| ratio(x, sweeps);
        put(format!("tensor.ttm_s.{m}"), per(s.ttm_secs));
        put(
            format!("tensor.ttm_gflops.{m}"),
            ratio(s.ttm_flops as f64, s.ttm_secs) / 1e9,
        );
        put(format!("tensor.mttv_s.{m}"), per(s.mttv_secs));
        put(format!("tensor.hadamard_s.{m}"), per(s.hadamard_secs));
        put(format!("tensor.solve_s.{m}"), per(s.solve_secs));
        put(format!("tensor.transpose_s.{m}"), per(s.transpose_secs));
        put(format!("tensor.other_s.{m}"), per(s.other_secs));
        if m == "dt" {
            put(
                "tensor.csf_gflop.dt".into(),
                per(s.sparse_mttkrp_flops as f64) / 1e9,
            );
        } else {
            put(
                format!("tensor.ss_ttm_gflop.{m}"),
                per(s.semisparse_ttm_flops as f64) / 1e9,
            );
            put(
                format!("tensor.ss_ttv_gflop.{m}"),
                per(s.semisparse_ttv_flops as f64) / 1e9,
            );
            put(
                format!("tensor.ss_entries.{m}"),
                per(s.semisparse_entries_visited as f64),
            );
        }
        if m == "msdt" {
            // Bytes computed as one read of the dense input per first-level
            // TTM (factor and output traffic ignored), so this intensity is
            // an upper bound and the roofline it implies a generous one.
            let bytes = 8.0 * s.ttm_count as f64 * li.input_elems as f64;
            let intensity = ratio(s.ttm_flops as f64, bytes);
            let achieved = ratio(s.ttm_flops as f64, s.ttm_secs) / 1e9;
            let roof = li.probe.peak_gflops.min(li.probe.stream_gbs * intensity);
            put("tensor.ttm_flop_per_byte.msdt".into(), intensity);
            put("tensor.ttm_frac_peak.msdt".into(), ratio(achieved, roof));
        }
        put(
            format!("dtree.ttm_calls_per_sweep.{m}"),
            per(s.ttm_count as f64),
        );
        put(
            format!("dtree.spec_launched.{m}"),
            per(s.spec_launched as f64),
        );
        put(format!("dtree.spec_wasted.{m}"), per(s.spec_wasted as f64));
        put(
            format!("dtree.spec_hit_ratio.{m}"),
            ratio(s.spec_hits as f64, s.spec_launched as f64),
        );
        put(
            format!("dtree.cache_elems.{m}"),
            rs.iter().map(|r| r.cache_elems).max().unwrap_or(0) as f64,
        );
        let count_med =
            |kind: SweepKind| or0(&rs.iter().map(|r| r.count(kind) as f64).collect::<Vec<_>>());
        put(
            format!("core.sweeps.exact.{m}"),
            count_med(SweepKind::Exact),
        );
        if m == "pp" {
            put(
                "core.sweeps.pp_init.pp".into(),
                count_med(SweepKind::PpInit),
            );
            put(
                "core.sweeps.pp_approx.pp".into(),
                count_med(SweepKind::PpApprox),
            );
            let entries: Vec<f64> = rs
                .iter()
                .map(|r| {
                    r.steps
                        .windows(2)
                        .filter(|w| {
                            w[0].kind != SweepKind::PpApprox && w[1].kind == SweepKind::PpApprox
                        })
                        .count() as f64
                })
                .collect();
            put("core.pp_regime_entries".into(), or0(&entries));
        }
        put(
            format!("core.session_new_s.{m}"),
            or0(&rs.iter().map(|r| r.new_s).collect::<Vec<_>>()),
        );
        let step_wall: f64 = rs.iter().flat_map(|r| r.steps.iter().map(|s| s.wall)).sum();
        put(
            format!("core.step_outside_kernels_s.{m}"),
            per(step_wall - s.total_secs()),
        );
        put(
            format!("core.fitness_report_err.{m}"),
            or0(&rs
                .iter()
                .map(|r| (r.final_reported - r.final_exact).abs())
                .collect::<Vec<_>>()),
        );
        put(
            format!("core.false_candidates.{m}"),
            or0(&rs
                .iter()
                .map(|r| r.false_candidates as f64)
                .collect::<Vec<_>>()),
        );
        let comm: Vec<_> = rs.iter().filter_map(|r| r.comm).collect();
        let comm_med = |f: fn(&crate::workloads::CommStats) -> f64| {
            or0(&comm.iter().map(f).collect::<Vec<_>>())
        };
        put(
            format!("comm.msgs_per_sweep.{m}"),
            comm_med(|c| c.msgs_per_sweep),
        );
        put(
            format!("comm.words_per_sweep.{m}"),
            comm_med(|c| c.words_per_sweep),
        );
        put(
            format!("comm.model_s_per_sweep.{m}"),
            comm_med(|c| c.model_s_per_sweep),
        );
        put(
            format!("comm.rank_skew_s.{m}"),
            comm_med(|c| c.rank_skew_s_per_sweep),
        );
    }
    put("grid.distribute_s".into(), or0(&li.distribute_s));
    let batches: Vec<_> = rounds.iter().filter_map(|r| r.batch).collect();
    let bmed = |f: fn(&crate::workloads::BatchStats) -> f64| {
        or0(&batches.iter().map(f).collect::<Vec<_>>())
    };
    put("serve.turns".into(), bmed(|b| b.turns as f64));
    put("serve.job_busy_s".into(), bmed(|b| b.busy_s));
    put(
        "serve.driver_idle_frac".into(),
        bmed(|b| 1.0 - b.busy_s / (crate::workloads::SERVE_DRIVERS as f64 * b.wall)),
    );
    put("serve.jobs_failed".into(), bmed(|b| b.failed as f64));
    put("serve.jobs_parked".into(), bmed(|b| b.parked as f64));
    put(
        "serve.stream_arrivals".into(),
        bmed(|b| b.stream_arrivals as f64),
    );
    put("pool.threads".into(), li.workload.threads() as f64);
    put(
        "pool.speedup_1to2".into(),
        li.msdt_1_and_n.map_or(0.0, |(one, n)| ratio(one, n)),
    );
    put("tensor.peak_gflops".into(), li.probe.peak_gflops);
    put("tensor.stream_gbs".into(), li.probe.stream_gbs);
    for l in TRACE_LAYERS {
        put(
            format!("trace.self_s.{l}"),
            li.self_s.get(l).copied().unwrap_or(0.0),
        );
    }
    put("trace.overhead_frac".into(), li.overhead_frac);
    out
}

/// (attempted, failure lines) over all rounds.
pub fn failures(rounds: &[Round], target: Option<f64>) -> (usize, Vec<String>) {
    let mut attempted = 0;
    let mut lines = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        for j in &r.jobs {
            attempted += 1;
            if let Some(why) = Job::failure(j, target) {
                lines.push(format!("round {} {}: {why}", i + 1, j.name));
            }
        }
    }
    (attempted, lines)
}
