//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! The workload inputs are generated from the seed; the library sees only
//! those inputs, through its public calls. A run sets the inputs up, then
//! repeats rounds of the workload until `--seconds` is spent, setting the
//! inputs up again between rounds (`setup_s` is the median). With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it spends
//! half the time untraced and half traced, probes the machine, writes the
//! span file and layer table, and prints the per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod metrics;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Input, Round, Workload};

/// Fewest set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 4;
/// Set-ups after a round continue until they took this share of the
/// round's seconds (at least one), so that cheap set-ups give many samples.
const SETUP_SHARE: f64 = 0.05;
/// Largest |reported − exact| accepted from an exact method's Eq. 3 fitness.
pub const REPORT_TOL: f64 = 1e-6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!("unknown workload '{name}' ({})", names.join("|"))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    let out_dir = get("--out-dir")
        .unwrap_or_else(|_| "perfbench/out".into())
        .into();
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        out_dir,
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// (total, steal) CPU ticks of the whole machine, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Repeat rounds until `seconds` of rounds are spent; a round is started
/// only if the previous one suggests it ends in time (at least one round
/// always runs). Each round is checked as soon as it ends, outside every
/// timer and outside the `seconds` budget; when `oracle` is set, the first
/// round with a run that did not fail is also checked against the
/// library's oracle. Returns the rounds and the peak RSS (MiB) read after
/// the first round, before any check allocates: one execution of every
/// operation plus the set-up.
fn measure(
    w: Workload,
    input: &Input,
    seconds: f64,
    mut oracle: bool,
    tr: &Tracer,
    first_id: u64,
    setups: &mut Setups,
) -> (Vec<Round>, f64) {
    let mut rounds = Vec::new();
    let mut spent = 0.0;
    let mut peak = f64::NAN;
    loop {
        let r0 = Instant::now();
        let mut round = workloads::round(w, input, tr, first_id + rounds.len() as u64);
        let last = r0.elapsed().as_secs_f64();
        spent += last;
        if rounds.is_empty() {
            peak = peak_rss_mb();
        }
        workloads::check_round(&mut round, w, input, oracle, tr);
        oracle &= round.jobs.iter().all(|j| j.result.is_err());
        rounds.push(round);
        let s0 = Instant::now();
        loop {
            drop(setups.run(tr));
            if s0.elapsed().as_secs_f64() >= SETUP_SHARE * last {
                break;
            }
        }
        if spent + last > seconds {
            return (rounds, peak);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Timed set-ups of the inputs. One comes before the first round and more
/// after each round's checks, outside the `seconds` budget, so that the
/// set-ups sample the same stretch of time as the rounds instead of the
/// first seconds of the run; `setup_s` is their median.
struct Setups {
    w: Workload,
    seed: u64,
    secs: Vec<f64>,
    distribute_s: Vec<f64>,
}

impl Setups {
    fn new(w: Workload, seed: u64) -> Setups {
        Setups {
            w,
            seed,
            secs: Vec::new(),
            distribute_s: Vec::new(),
        }
    }

    /// Generate (and distribute) the inputs once, timing it.
    fn run(&mut self, tr: &Tracer) -> Input {
        let t0 = Instant::now();
        let input = workloads::setup(self.w, self.seed, tr);
        self.secs.push(t0.elapsed().as_secs_f64());
        if let Input::Dist { distribute_s, .. } = &input {
            self.distribute_s.push(*distribute_s);
        }
        input
    }
}

/// Checks that no counted failure accounts for: the fast exact path
/// against the oracle, and exact methods' reported fitness.
fn incorrect(rounds: &[&Round]) -> Vec<String> {
    let mut broken = Vec::new();
    let mut oracle_runs = 0;
    for j in rounds.iter().flat_map(|r| &r.jobs) {
        let Ok(run) = &j.result else { continue };
        if let Some(gap) = run.oracle_gap {
            oracle_runs += 1;
            if gap.is_nan() || gap > check::ORACLE_TOL {
                broken.push(format!(
                    "{}: fast exact fitness differs from the oracle by {gap:e}",
                    j.name
                ));
            }
        }
        let err = (run.final_reported - run.final_exact).abs();
        if matches!(j.method, "dt" | "msdt" | "nncp") && (err.is_nan() || err > REPORT_TOL) {
            broken.push(format!(
                "{}: reported fitness {:.9} but exact {:.9}",
                j.name, run.final_reported, run.final_exact
            ));
        }
    }
    let any_ok = rounds
        .iter()
        .flat_map(|r| &r.jobs)
        .any(|j| j.result.is_ok());
    if any_ok && oracle_runs == 0 {
        broken.push("no run was checked against the oracle".into());
    }
    broken
}

/// Per-layer metrics of the traced rounds; also writes the span file and
/// layer table and appends the probe, overhead and table to `report`.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    args: &Args,
    name: &str,
    input: &Input,
    untraced: &[Round],
    traced: &[Round],
    tr: &Tracer,
    probe: &probe::Probe,
    scaling: Option<(f64, f64)>,
    distribute_s: Vec<f64>,
    report: &mut String,
) -> Result<BTreeMap<String, f64>, String> {
    let spans = tr.spans();
    let table = trace::layer_table(&spans);
    let mut self_s: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    for (span, (count, _, selft)) in &table {
        let e = self_s
            .entry(span.split('.').next().unwrap_or(span).to_string())
            .or_default();
        e.0 += count;
        e.1 += selft;
    }
    let med = |rs: &[Round]| stats::median(&rs.iter().map(metrics::round_secs).collect::<Vec<_>>());
    let overhead_frac = med(traced) / med(untraced) - 1.0;
    let li = metrics::LayerInputs {
        workload: args.workload,
        probe,
        msdt_1_and_n: scaling,
        distribute_s,
        self_s: self_s
            .into_iter()
            .map(|(k, (c, s))| (k, s / c as f64))
            .collect(),
        overhead_frac,
        input_elems: match input {
            Input::Dense(t) | Input::Dist { global: t, .. } => t.len(),
            _ => 0,
        },
    };
    let _ = writeln!(
        report,
        "probe: GEMM {n}x{n}x{n} peak {:.2} GF/s; streaming copy {:.2} GB/s (read+write, computed) over two arrays of {} MiB each, LLC {} MiB",
        probe.peak_gflops,
        probe.stream_gbs,
        probe.stream_array_bytes >> 20,
        probe.llc_bytes >> 20,
        n = probe.gemm_n
    );
    let _ = writeln!(
        report,
        "tracing overhead: median round {:.4} s traced vs {:.4} s untraced ({:+.2}%)",
        med(traced),
        med(untraced),
        100.0 * overhead_frac
    );
    let mut layers = String::from("span                 count     total_s      self_s\n");
    for (span, (count, total, selft)) in &table {
        let _ = writeln!(layers, "{span:<20} {count:>5} {total:>11.6} {selft:>11.6}");
    }
    *report += &layers;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let stem = format!("{name}-seed{}", args.seed);
    for (file, body) in [
        (format!("spans-{stem}.jsonl"), trace::to_jsonl(&spans)),
        (format!("layers-{stem}.txt"), layers),
    ] {
        let path = args.out_dir.join(file);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(metrics::compute_per_layer(traced, &li))
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    // Serve drivers ignore per-job pins, so their kernel width is the base
    // pool's; elsewhere the sessions pin their own width and the base pool
    // only serves the exact checks.
    rayon::set_num_threads(if w == Workload::Serve { 1 } else { 2 });
    let name = workloads::WORKLOADS
        .iter()
        .find(|(_, x)| *x == w)
        .map_or("?", |(n, _)| *n);
    println!(
        "perfbench {name} seed {} seconds {} trace {} (available parallelism {})",
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if w != Workload::Serve {
        println!(
            "input scale {} (exact power of two)",
            workloads::input_scale(args.seed)
        );
    }

    let tr = Tracer::new(args.trace);
    let mut setups = Setups::new(w, args.seed);
    let input = setups.run(&tr);
    let mut probe_and_scaling = None;
    let ticks0 = cpu_ticks();
    let (untraced, traced, peak_rss_mb) = if args.trace {
        let probe = probe::run(2);
        let scaling = workloads::msdt_sweep_median(&input, 1, 10)
            .zip(workloads::msdt_sweep_median(&input, w.threads(), 10));
        probe_and_scaling = Some((probe, scaling));
        let half = args.seconds / 2.0;
        let untraced = measure(w, &input, half, true, &Tracer::new(false), 1, &mut setups).0;
        let first = 1 + untraced.len() as u64;
        let traced = measure(w, &input, half, false, &tr, first, &mut setups).0;
        (untraced, traced, f64::NAN)
    } else {
        let (rounds, peak) = measure(w, &input, args.seconds, true, &tr, 1, &mut setups);
        (rounds, Vec::new(), peak)
    };
    while setups.secs.len() < MIN_SETUPS {
        drop(setups.run(&tr));
    }
    // Time the hypervisor gave to other guests: it slows every timing here
    // and no change to the program can remove it.
    let steal = match (ticks0, cpu_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
            format!("{:.1}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".into(),
    };
    let target = workloads::target(w);
    let (mut attempted, mut fail_lines) = (0, Vec::new());
    for (phase, rounds) in [("untraced", &untraced), ("traced", &traced)] {
        let (a, f) = metrics::failures(rounds, target);
        attempted += a;
        fail_lines.extend(f.into_iter().map(|l| format!("{phase} {l}")));
    }
    let failed = fail_lines.len();
    let broken = incorrect(&untraced.iter().chain(&traced).collect::<Vec<_>>());

    let mut report = String::new();
    let _ = writeln!(
        report,
        "rounds: {} untraced, {} traced; cpu steal while measuring: {steal}",
        untraced.len(),
        traced.len()
    );
    let _ = writeln!(
        report,
        "fail_frac = {failed}/{attempted} = {:.4} (failed operations / attempted)",
        failed as f64 / attempted as f64
    );
    for l in &fail_lines {
        let _ = writeln!(report, "  failed: {l}");
    }
    for b in &broken {
        let _ = writeln!(report, "  INCORRECT: {b}");
    }
    if w != Workload::Serve {
        for m in workloads::METHODS {
            let per_round: Vec<String> = untraced
                .iter()
                .flat_map(|r| &r.jobs)
                .filter(|j| j.method == m)
                .map(|j| match &j.result {
                    Ok(r) => match r.tt_target {
                        Some(t) => format!("{t:.4}"),
                        None => format!("{:.4}*", r.timed()),
                    },
                    Err(_) => format!("{:.4}!", j.wall),
                })
                .collect();
            let _ = writeln!(
                report,
                "tt_target_s.{m} per round: {} (* = target not reached: seconds until the run stopped; ! = failed: seconds until it failed)",
                per_round.join(" ")
            );
        }
    }

    let mut values: Vec<(String, f64, &'static str)> = Vec::new();
    if let Some((probe, scaling)) = &probe_and_scaling {
        let layer = layer_metrics(
            args,
            name,
            &input,
            &untraced,
            &traced,
            &tr,
            probe,
            *scaling,
            setups.distribute_s,
            &mut report,
        )?;
        for d in metrics::per_layer() {
            let v = *layer
                .get(&d.name)
                .ok_or_else(|| format!("per-layer metric {} not computed", d.name))?;
            values.push((d.name, v, d.unit));
        }
    } else {
        let e2e =
            metrics::compute_end_to_end(&untraced, &setups.secs, peak_rss_mb, attempted, failed);
        for d in metrics::end_to_end() {
            let v = e2e
                .get(&d.name)
                .ok_or_else(|| format!("metric {} not computed", d.name))?;
            let _ = match (&v.summary, &v.calls) {
                (Some(s), Some(c)) => writeln!(
                    report,
                    "{} = {} of per-round means; single calls: {}",
                    d.name,
                    s.describe(d.unit),
                    c.describe(d.unit)
                ),
                (Some(s), None) => writeln!(report, "{} = {}", d.name, s.describe(d.unit)),
                _ => writeln!(report, "{} = {} {}", d.name, v.value, d.unit),
            };
            if let Some(note) = &v.note {
                let _ = writeln!(report, "  ({note})");
            }
            values.push((d.name, v.value, d.unit));
        }
    }
    print!("{report}");

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        broken.is_empty()
    );
    for (i, (name, value, unit)) in values.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} has no finite value ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json += "}}";
    println!("{json}");
    Ok(())
}
