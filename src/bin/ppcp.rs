//! `ppcp` — command-line CP decomposition driver.
//!
//! ```text
//! ppcp batch --manifest <path>             (multi-tenant batch mode;
//!      [--jobs <J>]                         J concurrent jobs, default 4)
//!      [--drivers <N>]                     (driver threads stepping tenants
//!                                           concurrently; default: all
//!                                           available cores; 1 = the
//!                                           deterministic golden path)
//!      [--cache-budget-mb <MB>]            (admission cache-memory budget;
//!                                           jobs queue rather than OOM)
//!      [--checkpoint-dir <DIR>]            (persist per-job checkpoints
//!                                           each sweep; re-running the same
//!                                           manifest resumes in-flight jobs
//!                                           bit-identically)
//!      [--stop-after-turns <N>]            (graceful drain: park in-flight
//!                                           jobs after N batch-wide sweeps)
//!      [--trace]                           (print the schedule trace)
//!      [--threads <T>]
//!
//! ppcp stream                              (online CP: the timelapse tensor
//!      [--method <dt|msdt|pp>]              grows along the time mode,
//!      [--rank <R>]                         `--arrive` slices at a time,
//!      [--height H] [--width W]             starting from `--initial-times`
//!      [--bands B] [--times T]              time points; each arrival's rows
//!      [--materials M] [--noise N]          are warm-started and the
//!      [--data-seed S]                      dimension-tree cache extended
//!      [--initial-times <I>]                in place)
//!      [--arrive <K>]
//!      [--sweeps-per-arrival <S>]
//!      [--update <incremental|recompute>]  (incremental cache extension or
//!                                           the full-recompute oracle;
//!                                           bit-identical either way)
//!      [--checkpoint <FILE>]               (save to FILE after each window;
//!                                           re-running resumes mid-stream —
//!                                           corrupt or foreign checkpoints
//!                                           are refused with exit 2)
//!      [--stop-after-arrivals <N>]         (graceful drain after N arrivals)
//!      [--tol D] [--pp-tol E] [--seed S] [--threads T]
//!      [--backend <rendezvous|p2p>] [--trace]
//!
//! ppcp [--version] [--help]
//!      --dataset <lowrank|collinearity|chemistry|coil|timelapse|
//!                 sparse-powerlaw|sparse-lowrank>
//!                                          (sparse datasets never densify:
//!                                           dt runs the direct CSF kernel,
//!                                           pp/msdt run the semi-sparse
//!                                           TTM chain; nncp is rejected
//!                                           and --ranks must be 1)
//!      --method  <dt|msdt|pp|nncp>          (default msdt)
//!      --rank    <R>                        (default 16)
//!      --sweeps  <max>                      (default 100)
//!      --tol     <Δ>                        (default 1e-5)
//!      --pp-tol  <ε>                        (default 0.1)
//!      --ranks   <P>                        (default 1; >1 runs the
//!                                            in-process distributed runtime)
//!      --backend <rendezvous|p2p>           (default rendezvous; collective
//!                                            implementation for --ranks > 1:
//!                                            the rendezvous oracle or the
//!                                            point-to-point channel
//!                                            transport — results are
//!                                            bit-identical either way)
//!      --threads <T>                        (default: PP_NUM_THREADS or
//!                                            hardware; pins the kernel
//!                                            thread pool per rank, scoped
//!                                            to this run via
//!                                            AlsConfig::threads)
//!      --seed    <u64>                      (default 42)
//!      --trace                              (print the fitness trace)
//! ```
//!
//! `--version` prints the crate version and exits 0; like `--help` it
//! short-circuits all other argument validation.
//!
//! Argument errors (unknown flags, unknown `--dataset`/`--method` values,
//! unparsable numbers, malformed manifests) exit with status 2. In batch
//! mode a failed *job* does not abort the batch; the exit status is 1 when
//! any job failed, 0 otherwise.
//!
//! Examples:
//! ```text
//! cargo run --release --bin ppcp -- --dataset chemistry --method pp --rank 24
//! cargo run --release --bin ppcp -- --dataset collinearity --method msdt --ranks 8
//! cargo run --release --bin ppcp -- batch --manifest jobs.txt --jobs 4 --trace
//! ```
//! See the README's "Serving" section for the manifest format.

use parallel_pp::comm::{Backend, Runtime};
use parallel_pp::core::par_als::par_cp_als;
use parallel_pp::core::par_pp::par_pp_cp_als;
use parallel_pp::core::{cp_als, nn_cp_als, pp_cp_als, AlsConfig, SweepKind};
use parallel_pp::datagen::chemistry::{density_fitting_tensor, ChemistryConfig};
use parallel_pp::datagen::coil::{coil_tensor, CoilConfig};
use parallel_pp::datagen::collinearity::{collinearity_tensor, CollinearityConfig};
use parallel_pp::datagen::lowrank::noisy_rank;
use parallel_pp::datagen::timelapse::{timelapse_tensor, TimelapseConfig};
use parallel_pp::dtree::{CacheUpdate, TreePolicy};
use parallel_pp::grid::{DistTensor, ProcGrid};
use parallel_pp::tensor::DenseTensor;
use std::sync::Arc;

#[derive(Debug)]
struct Args {
    dataset: String,
    method: String,
    rank: usize,
    sweeps: usize,
    tol: f64,
    pp_tol: f64,
    ranks: usize,
    backend: Backend,
    threads: Option<usize>,
    seed: u64,
    trace: bool,
    help: bool,
    version: bool,
}

const DATASETS: &[&str] = &[
    "lowrank",
    "collinearity",
    "chemistry",
    "coil",
    "timelapse",
    "sparse-powerlaw",
    "sparse-lowrank",
];
const METHODS: &[&str] = &["dt", "msdt", "pp", "nncp"];

/// Parse and validate a CLI argument vector (without the program name).
/// Unknown flags, unknown `--dataset`/`--method` values, and unparsable
/// numbers are all hard errors — no silent fallbacks.
fn parse_args_from(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        help: argv.iter().any(|a| a == "--help" || a == "-h"),
        version: argv.iter().any(|a| a == "--version" || a == "-V"),
        dataset: "lowrank".into(),
        method: "msdt".into(),
        rank: 16,
        sweeps: 100,
        tol: 1e-5,
        pp_tol: 0.1,
        ranks: 1,
        backend: Backend::default(),
        threads: None,
        seed: 42,
        trace: false,
    };
    // `--help`/`--version` short-circuit all validation, per CLI
    // convention.
    if args.help || args.version {
        return Ok(args);
    }
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {key}"))
        };
        match key {
            "--dataset" => args.dataset = take(&mut i)?,
            "--method" => args.method = take(&mut i)?,
            "--rank" => {
                args.rank = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?
            }
            "--sweeps" => {
                args.sweeps = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?
            }
            "--tol" => {
                args.tol = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?
            }
            "--pp-tol" => {
                args.pp_tol = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?
            }
            "--ranks" => {
                args.ranks = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?
            }
            "--backend" => args.backend = take(&mut i)?.parse()?,
            "--threads" => {
                let t: usize = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(t);
            }
            "--seed" => {
                args.seed = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?
            }
            "--trace" => args.trace = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if args.rank == 0 {
        return Err("--rank must be at least 1".into());
    }
    if args.ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    if !DATASETS.contains(&args.dataset.as_str()) {
        return Err(format!(
            "unknown dataset '{}' (expected one of {})",
            args.dataset,
            DATASETS.join("|")
        ));
    }
    if !METHODS.contains(&args.method.as_str()) {
        return Err(format!(
            "unknown method '{}' (expected one of {})",
            args.method,
            METHODS.join("|")
        ));
    }
    if args.dataset.starts_with("sparse-") {
        if args.method == "nncp" {
            return Err(format!(
                "dataset '{}' supports --method dt|pp|msdt (nncp's row-wise HALS \
                 needs the dense residual and cannot run on sparse inputs)",
                args.dataset
            ));
        }
        if args.ranks > 1 {
            return Err(format!(
                "dataset '{}' is sequential-only (--ranks 1)",
                args.dataset
            ));
        }
    }
    Ok(args)
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse_args_from(&argv)
}

/// Arguments of the `batch` subcommand.
#[derive(Debug)]
struct BatchArgs {
    manifest: String,
    jobs: usize,
    drivers: usize,
    cache_budget_mb: Option<usize>,
    checkpoint_dir: Option<String>,
    stop_after_turns: Option<usize>,
    trace: bool,
    threads: Option<usize>,
    help: bool,
    version: bool,
}

/// Default driver count: every available core (work-conserving serving).
fn default_drivers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parse `ppcp batch ...` arguments (everything after the subcommand).
/// Like the main mode, `--help`/`--version` short-circuit all other
/// validation.
fn parse_batch_args_from(argv: &[String]) -> Result<BatchArgs, String> {
    let mut args = BatchArgs {
        manifest: String::new(),
        jobs: 4,
        drivers: default_drivers(),
        cache_budget_mb: None,
        checkpoint_dir: None,
        stop_after_turns: None,
        trace: false,
        threads: None,
        help: argv.iter().any(|a| a == "--help" || a == "-h"),
        version: argv.iter().any(|a| a == "--version" || a == "-V"),
    };
    if args.help || args.version {
        return Ok(args);
    }
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {key}"))
        };
        match key {
            "--manifest" => args.manifest = take(&mut i)?,
            "--jobs" => {
                args.jobs = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--drivers" => {
                args.drivers = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?;
                if args.drivers == 0 {
                    return Err("--drivers must be at least 1".into());
                }
            }
            "--cache-budget-mb" => {
                let mb: usize = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?;
                if mb == 0 {
                    return Err("--cache-budget-mb must be at least 1".into());
                }
                args.cache_budget_mb = Some(mb);
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(take(&mut i)?),
            "--stop-after-turns" => {
                args.stop_after_turns = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("invalid value for {key}: {e}"))?,
                );
            }
            "--threads" => {
                let t: usize = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(t);
            }
            "--trace" => args.trace = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if args.manifest.is_empty() {
        return Err("batch mode requires --manifest <path>".into());
    }
    Ok(args)
}

/// Run `ppcp batch`: parse the manifest, schedule the jobs, report.
/// Returns the process exit code.
fn run_batch_mode(args: &BatchArgs) -> i32 {
    let text = match std::fs::read_to_string(&args.manifest) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read manifest {}: {e}", args.manifest);
            return 2;
        }
    };
    let jobs = match parallel_pp::serve::parse_manifest(&text) {
        Ok(j) if !j.is_empty() => j,
        Ok(_) => {
            eprintln!("error: manifest {} declares no jobs", args.manifest);
            return 2;
        }
        Err(e) => {
            eprintln!("error: {}: {e}", args.manifest);
            return 2;
        }
    };
    // Batch-wide width pin; per-job `threads=` pins nest inside per turn
    // (single-driver only — concurrent drivers drop per-job pins).
    let _threads = args.threads.map(rayon::scoped_num_threads);
    println!(
        "batch: {} jobs, window {}, drivers {}, threads={}{}{}",
        jobs.len(),
        args.jobs,
        args.drivers,
        args.threads.unwrap_or_else(rayon::current_num_threads),
        args.cache_budget_mb
            .map(|mb| format!(", cache-budget {mb} MB"))
            .unwrap_or_default(),
        args.checkpoint_dir
            .as_deref()
            .map(|d| format!(", checkpoints in {d}"))
            .unwrap_or_default(),
    );
    let mut cfg = parallel_pp::serve::ServeConfig::new(args.jobs).with_drivers(args.drivers);
    if let Some(mb) = args.cache_budget_mb {
        // MB of f64 cache elements (8 bytes each).
        cfg = cfg.with_cache_budget_elems(mb * 1024 * 1024 / 8);
    }
    if let Some(dir) = &args.checkpoint_dir {
        cfg = cfg.with_checkpoint_dir(dir);
    }
    if let Some(turns) = args.stop_after_turns {
        cfg = cfg.with_stop_after_turns(turns);
    }
    let report = match parallel_pp::serve::run_batch(&jobs, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    for (spec, res) in jobs.iter().zip(report.jobs.iter()) {
        match &res.status {
            parallel_pp::serve::JobStatus::Completed { converged } => {
                let out = res.output.as_ref().unwrap();
                println!(
                    "  {:<12} {:<5} ok: {} sweeps ({} exact, {} PP-init, {} PP-approx), \
                     fitness {:.5}, {:.3}s{}",
                    res.name,
                    spec.method.label(),
                    out.report.sweeps.len(),
                    out.report.count(SweepKind::Exact),
                    out.report.count(SweepKind::PpInit),
                    out.report.count(SweepKind::PpApprox),
                    out.report.final_fitness,
                    res.secs,
                    if *converged {
                        " (converged)"
                    } else {
                        " (sweep limit)"
                    },
                );
            }
            parallel_pp::serve::JobStatus::Failed { error } => {
                println!(
                    "  {:<12} {:<5} FAILED: {error}",
                    res.name,
                    spec.method.label()
                );
            }
            parallel_pp::serve::JobStatus::Parked => {
                println!(
                    "  {:<12} {:<5} parked{}",
                    res.name,
                    spec.method.label(),
                    if args.checkpoint_dir.is_some() {
                        " (resumable from checkpoint dir)"
                    } else {
                        ""
                    },
                );
            }
        }
    }
    println!(
        "batch finished: {} completed, {} failed, {} parked, {:.3}s total ({:.2} jobs/s)",
        report.completed(),
        report.failed(),
        report.parked(),
        report.total_secs,
        report.jobs_per_sec(),
    );
    if args.trace {
        for e in &report.schedule {
            println!(
                "  turn {:4}  drv {}  job {} ({})  sweep {:3}  {}",
                e.turn,
                e.driver,
                e.job,
                report.jobs[e.job].name,
                e.sweep,
                e.kind.label()
            );
        }
    }
    // A drained (parked) batch is a successful graceful stop, not a
    // failure: only failed jobs flip the exit code.
    i32::from(report.failed() > 0)
}

/// Arguments of the `stream` subcommand.
#[derive(Debug)]
struct StreamArgs {
    method: String,
    rank: usize,
    height: usize,
    width: usize,
    bands: usize,
    times: usize,
    materials: usize,
    noise: f64,
    data_seed: u64,
    initial_times: usize,
    arrive: usize,
    sweeps_per_arrival: usize,
    update: CacheUpdate,
    tol: f64,
    pp_tol: f64,
    seed: u64,
    threads: Option<usize>,
    backend: Backend,
    checkpoint: Option<String>,
    stop_after_arrivals: Option<usize>,
    trace: bool,
    help: bool,
    version: bool,
}

/// Parse `ppcp stream ...` arguments (everything after the subcommand).
fn parse_stream_args_from(argv: &[String]) -> Result<StreamArgs, String> {
    let mut args = StreamArgs {
        method: "msdt".into(),
        rank: 8,
        height: 24,
        width: 24,
        bands: 16,
        times: 9,
        materials: 6,
        noise: 5e-3,
        data_seed: 42,
        initial_times: 3,
        arrive: 2,
        sweeps_per_arrival: 5,
        update: CacheUpdate::Incremental,
        tol: 1e-5,
        pp_tol: 0.1,
        seed: 42,
        threads: None,
        backend: Backend::default(),
        checkpoint: None,
        stop_after_arrivals: None,
        trace: false,
        help: argv.iter().any(|a| a == "--help" || a == "-h"),
        version: argv.iter().any(|a| a == "--version" || a == "-V"),
    };
    if args.help || args.version {
        return Ok(args);
    }
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {key}"))
        };
        let num = |i: &mut usize| -> Result<usize, String> {
            *i += 1;
            argv.get(*i)
                .ok_or_else(|| format!("missing value for {key}"))?
                .parse()
                .map_err(|e| format!("invalid value for {key}: {e}"))
        };
        match key {
            "--method" => args.method = take(&mut i)?,
            "--rank" => args.rank = num(&mut i)?,
            "--height" => args.height = num(&mut i)?,
            "--width" => args.width = num(&mut i)?,
            "--bands" => args.bands = num(&mut i)?,
            "--times" => args.times = num(&mut i)?,
            "--materials" => args.materials = num(&mut i)?,
            "--noise" => {
                args.noise = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?
            }
            "--data-seed" => {
                args.data_seed = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?
            }
            "--initial-times" => args.initial_times = num(&mut i)?,
            "--arrive" => args.arrive = num(&mut i)?,
            "--sweeps-per-arrival" => {
                args.sweeps_per_arrival = num(&mut i)?;
                if args.sweeps_per_arrival == 0 {
                    return Err("--sweeps-per-arrival must be at least 1".into());
                }
            }
            "--update" => {
                args.update = match take(&mut i)?.as_str() {
                    "incremental" => CacheUpdate::Incremental,
                    "recompute" => CacheUpdate::Recompute,
                    other => {
                        return Err(format!(
                            "unknown update '{other}' (expected incremental|recompute)"
                        ))
                    }
                }
            }
            "--tol" => {
                args.tol = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?
            }
            "--pp-tol" => {
                args.pp_tol = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?
            }
            "--seed" => {
                args.seed = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("invalid value for {key}: {e}"))?
            }
            "--threads" => {
                let t = num(&mut i)?;
                if t == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(t);
            }
            "--backend" => args.backend = take(&mut i)?.parse()?,
            "--checkpoint" => args.checkpoint = Some(take(&mut i)?),
            "--stop-after-arrivals" => args.stop_after_arrivals = Some(num(&mut i)?),
            "--trace" => args.trace = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    match args.method.as_str() {
        "dt" | "msdt" | "pp" => {}
        "nncp" => {
            return Err(
                "streaming supports --method dt|msdt|pp (nncp's row-wise HALS has no \
                 warm-start path for arriving rows)"
                    .into(),
            )
        }
        other => {
            return Err(format!(
                "unknown method '{other}' (expected one of dt|msdt|pp)"
            ))
        }
    }
    if args.rank == 0 {
        return Err("--rank must be at least 1".into());
    }
    Ok(args)
}

/// The configuration fingerprint a stream checkpoint is tagged with:
/// resuming under different shape/schedule/solver flags is refused.
fn stream_tag(args: &StreamArgs) -> u64 {
    parallel_pp::core::checkpoint::fnv1a(
        format!(
            "stream|{}|r{}|{}x{}x{}x{}|m{}|n{}|ds{}|i{}|a{}|spa{}|{:?}|tol{}|pp{}|s{}",
            args.method,
            args.rank,
            args.height,
            args.width,
            args.bands,
            args.times,
            args.materials,
            args.noise,
            args.data_seed,
            args.initial_times,
            args.arrive,
            args.sweeps_per_arrival,
            args.update,
            args.tol,
            args.pp_tol,
            args.seed,
        )
        .as_bytes(),
    )
}

/// Run `ppcp stream`: an online CP decomposition of the timelapse tensor,
/// slices arriving along the time mode. Returns the process exit code.
fn run_stream_mode(args: &StreamArgs) -> i32 {
    use parallel_pp::core::{SessionKind, StreamingSession};
    use parallel_pp::datagen::timelapse::{TimelapseStream, TIME_MODE};

    let tcfg = TimelapseConfig {
        height: args.height,
        width: args.width,
        bands: args.bands,
        times: args.times,
        materials: args.materials,
        noise: args.noise,
    };
    let feed = {
        let _gen = args.threads.map(rayon::scoped_num_threads);
        match TimelapseStream::new(&tcfg, args.data_seed, args.initial_times, args.arrive) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        }
    };
    let mut cfg = AlsConfig::new(args.rank)
        .with_tol(args.tol)
        .with_pp_tol(args.pp_tol)
        .with_seed(args.seed)
        .with_policy(match args.method.as_str() {
            "dt" => TreePolicy::Standard,
            _ => TreePolicy::MultiSweep,
        });
    if let Some(t) = args.threads {
        cfg = cfg.with_threads(t);
    }
    let kind = if args.method == "pp" {
        SessionKind::Pp
    } else {
        SessionKind::Exact
    };
    let tag = stream_tag(args);
    let ckpt = args.checkpoint.as_ref().map(std::path::Path::new);

    let mut session = match ckpt.filter(|p| p.exists()) {
        Some(path) => {
            match StreamingSession::resume_from_disk(path, |extent| feed.prefix(extent)) {
                Ok((s, t)) if t == tag => {
                    println!(
                        "resumed {} at extent {} ({} arrivals, {} sweeps done)",
                        path.display(),
                        s.extent(),
                        s.arrivals_done(),
                        s.sweeps_done(),
                    );
                    s
                }
                Ok(_) => {
                    eprintln!(
                        "error: checkpoint {} was written by a different configuration",
                        path.display()
                    );
                    return 2;
                }
                Err(e) => {
                    eprintln!("error: checkpoint {}: {e}", path.display());
                    return 2;
                }
            }
        }
        None => StreamingSession::new(
            &feed.initial(),
            &cfg,
            kind,
            TIME_MODE,
            args.sweeps_per_arrival,
            args.update,
        ),
    };
    println!(
        "stream: timelapse {}x{}x{}x{} → {} initial time points + {} arrivals of {}, \
         method {}, R={}, {} sweeps/arrival, update {:?}, backend {}, threads={}",
        args.height,
        args.width,
        args.bands,
        args.times,
        args.initial_times,
        feed.n_arrivals(),
        args.arrive,
        args.method,
        args.rank,
        args.sweeps_per_arrival,
        args.update,
        args.backend,
        args.threads.unwrap_or_else(rayon::current_num_threads),
    );

    let mut parked = false;
    loop {
        session.run_window();
        if let Some(path) = ckpt {
            if let Err(e) = session.park_to_disk(path, tag) {
                eprintln!("error: checkpoint {}: {e}", path.display());
                return 1;
            }
        }
        println!(
            "  window {:2}: extent {:3}, {:3} sweeps, fitness {:.5}",
            session.arrivals_done(),
            session.extent(),
            session.sweeps_done(),
            session.last_fitness(),
        );
        let done = session.arrivals_done();
        if done >= feed.n_arrivals() {
            break;
        }
        if args.stop_after_arrivals.is_some_and(|n| done >= n) {
            parked = true;
            break;
        }
        session.arrive(&feed.slice(done));
    }
    if parked {
        println!(
            "drained after {} arrivals{}",
            session.arrivals_done(),
            if args.checkpoint.is_some() {
                " (resumable from checkpoint)"
            } else {
                ""
            },
        );
        return 0;
    }
    let out = session.finish();
    let report = out.report;
    println!(
        "finished: {} sweeps ({} exact, {} PP-init, {} PP-approx), fitness {:.5}, {:.2}s total",
        report.sweeps.len(),
        report.count(SweepKind::Exact),
        report.count(SweepKind::PpInit),
        report.count(SweepKind::PpApprox),
        report.final_fitness,
        report.total_secs(),
    );
    if args.trace {
        for s in &report.sweeps {
            println!(
                "  {:9} t={:8.3}s fitness={:.6}",
                s.kind.label(),
                s.cumulative_secs,
                s.fitness
            );
        }
    }
    if let Some(path) = ckpt {
        // The run is complete; a stale checkpoint would otherwise resume
        // a finished session on the next invocation.
        let _ = std::fs::remove_file(path);
    }
    0
}

fn make_tensor(args: &Args) -> DenseTensor {
    match args.dataset.as_str() {
        "lowrank" => noisy_rank(&[60, 60, 60], args.rank.max(4), 0.05, args.seed),
        "collinearity" => {
            let cfg = CollinearityConfig {
                s: 80,
                r: args.rank.max(4),
                order: 3,
                lo: 0.6,
                hi: 0.8,
            };
            collinearity_tensor(&cfg, args.seed).0
        }
        "chemistry" => density_fitting_tensor(
            &ChemistryConfig {
                n_orb: 40,
                n_aux: 640,
                ..ChemistryConfig::default()
            },
            args.seed,
        ),
        "coil" => coil_tensor(&CoilConfig {
            size: 32,
            objects: 6,
            poses: 24,
        }),
        "timelapse" => timelapse_tensor(
            &TimelapseConfig {
                height: 48,
                width: 64,
                bands: 33,
                times: 9,
                materials: 12,
                noise: 5e-3,
            },
            args.seed,
        ),
        // Parse-time validation rejects unknown names and `main` routes
        // sparse datasets through `run_sparse` before reaching here.
        other => unreachable!("dataset '{other}' has no dense generator"),
    }
}

/// Generate the sparse CLI presets: a power-law user×item×time sample and
/// a planted low-rank CP model at 0.5% density.
fn make_sparse_tensor(args: &Args) -> parallel_pp::tensor::sparse::SparseTensor {
    use parallel_pp::datagen::sparse::{powerlaw_sparse, sparse_lowrank};
    match args.dataset.as_str() {
        "sparse-powerlaw" => powerlaw_sparse(&[512, 256, 64], 100_000, 2.0, args.seed),
        _ => sparse_lowrank(&[256, 256, 64], args.rank.max(4), 0.005, args.seed).0,
    }
}

/// The sparse single-run driver. The input never densifies: `dt` routes
/// every MTTKRP through the pool-parallel CSF kernel over the standard
/// tree; `pp` and `msdt` run the semi-sparse TTM chain over the
/// multi-sweep tree.
fn run_sparse(args: &Args) {
    use parallel_pp::core::{AlsSession, SessionKind};
    let sp = {
        let _gen = args.threads.map(rayon::scoped_num_threads);
        make_sparse_tensor(args)
    };
    let dims: Vec<String> = sp.dims().iter().map(|d| d.to_string()).collect();
    println!(
        "dataset {} → sparse tensor {} ({} nnz, density {:.4}%), method {}, R={}, threads={}",
        args.dataset,
        dims.join("x"),
        sp.nnz(),
        sp.density() * 100.0,
        args.method,
        args.rank,
        args.threads.unwrap_or_else(rayon::current_num_threads),
    );
    let mut cfg = AlsConfig::new(args.rank)
        .with_max_sweeps(args.sweeps)
        .with_tol(args.tol)
        .with_pp_tol(args.pp_tol)
        .with_seed(args.seed)
        .with_policy(match args.method.as_str() {
            "dt" => TreePolicy::Standard,
            _ => TreePolicy::MultiSweep,
        });
    if let Some(t) = args.threads {
        cfg = cfg.with_threads(t);
    }
    let kind = match args.method.as_str() {
        "pp" => SessionKind::Pp,
        _ => SessionKind::Exact,
    };
    let out = AlsSession::new_sparse(&sp, &cfg, kind).run();
    let report = out.report;
    println!(
        "finished: {} sweeps ({} exact, {} PP-init, {} PP-approx), fitness {:.5}, {:.2}s total{}",
        report.sweeps.len(),
        report.count(SweepKind::Exact),
        report.count(SweepKind::PpInit),
        report.count(SweepKind::PpApprox),
        report.final_fitness,
        report.total_secs(),
        if report.converged {
            " (converged)"
        } else {
            " (sweep limit)"
        },
    );
    print_sparse_counters(&report.stats);
    if args.trace {
        for s in &report.sweeps {
            println!(
                "  {:9} t={:8.3}s fitness={:.6}",
                s.kind.label(),
                s.cumulative_secs,
                s.fitness
            );
        }
    }
}

/// The sparse kernel counter lines: the direct CSF MTTKRP (dt) and the
/// semi-sparse TTM/TTV chain (pp/msdt) — whichever actually ran.
fn print_sparse_counters(stats: &parallel_pp::dtree::KernelStats) {
    if stats.sparse_mttkrp_flops > 0 {
        println!(
            "sparse MTTKRP (CSF): {:.2} Gflop, {} fibers visited",
            stats.sparse_mttkrp_flops as f64 / 1e9,
            stats.sparse_fibers_visited,
        );
    }
    if stats.semisparse_ttm_flops > 0 || stats.semisparse_ttv_flops > 0 {
        println!(
            "semi-sparse chain: {:.2} Gflop TTM + {:.2} Gflop TTV, {} entries visited",
            stats.semisparse_ttm_flops as f64 / 1e9,
            stats.semisparse_ttv_flops as f64 / 1e9,
            stats.semisparse_entries_visited,
        );
    }
}

fn grid_for(t: &DenseTensor, p: usize) -> ProcGrid {
    // Greedy near-balanced factorization of P over the tensor modes,
    // preferring to split the largest remaining mode extents.
    let n = t.order();
    let mut dims = vec![1usize; n];
    let mut rem = p;
    let mut f = 2;
    let mut factors = Vec::new();
    while rem > 1 {
        while rem.is_multiple_of(f) {
            factors.push(f);
            rem /= f;
        }
        f += 1;
    }
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        // Assign to the mode with the largest extent-per-current-split.
        let k = (0..n)
            .max_by(|&a, &b| {
                let ra = t.dim(a) / dims[a];
                let rb = t.dim(b) / dims[b];
                ra.cmp(&rb)
            })
            .unwrap();
        dims[k] *= f;
    }
    ProcGrid::new(dims)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "batch") {
        let bargs = match parse_batch_args_from(&argv[1..]) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        if bargs.version {
            println!("ppcp {}", env!("CARGO_PKG_VERSION"));
            return;
        }
        if bargs.help {
            println!(
                "ppcp batch --manifest <path> [--jobs J] [--drivers N] [--cache-budget-mb MB]\n\
                 \x20          [--checkpoint-dir DIR] [--stop-after-turns N] [--trace]\n\
                 \x20          [--threads T]\n\
                 see the pp-serve::job module docs for the manifest format"
            );
            return;
        }
        std::process::exit(run_batch_mode(&bargs));
    }
    if argv.first().is_some_and(|a| a == "stream") {
        let sargs = match parse_stream_args_from(&argv[1..]) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        if sargs.version {
            println!("ppcp {}", env!("CARGO_PKG_VERSION"));
            return;
        }
        if sargs.help {
            println!(
                "ppcp stream [--method dt|msdt|pp] [--rank R] [--update incremental|recompute]\n\
                 \x20           [--height H] [--width W] [--bands B] [--times T] [--materials M]\n\
                 \x20           [--noise N] [--data-seed S] [--initial-times I] [--arrive K]\n\
                 \x20           [--sweeps-per-arrival S] [--checkpoint FILE]\n\
                 \x20           [--stop-after-arrivals N] [--tol D] [--pp-tol E] [--seed S]\n\
                 \x20           [--threads T] [--backend rendezvous|p2p] [--trace]\n\
                 online CP of the timelapse tensor; slices arrive along the time mode"
            );
            return;
        }
        std::process::exit(run_stream_mode(&sargs));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.version {
        println!("ppcp {}", env!("CARGO_PKG_VERSION"));
        return;
    }
    if args.help {
        println!(
            "see module docs: ppcp [--version] --dataset <name> --method <dt|msdt|pp|nncp> ...\n\
             \x20                 ppcp batch --manifest <path> [--jobs J] [--trace]"
        );
        return;
    }
    if args.dataset.starts_with("sparse-") {
        run_sparse(&args);
        return;
    }
    // `--threads` routes through `AlsConfig::threads`: the pin is scoped
    // to each driver run (per rank) and released when it returns, so one
    // run cannot leak a global width into later in-process runs. Dataset
    // generation runs at the default width, so pin it here briefly too.
    let t = {
        let _gen = args.threads.map(rayon::scoped_num_threads);
        make_tensor(&args)
    };
    println!(
        "dataset {} → tensor {} ({} elements), method {}, R={}, P={}, threads={}",
        args.dataset,
        t.shape(),
        t.len(),
        args.method,
        args.rank,
        args.ranks,
        args.threads.unwrap_or_else(rayon::current_num_threads),
    );

    let mut cfg = AlsConfig::new(args.rank)
        .with_max_sweeps(args.sweeps)
        .with_tol(args.tol)
        .with_pp_tol(args.pp_tol)
        .with_seed(args.seed)
        .with_policy(match args.method.as_str() {
            "dt" => TreePolicy::Standard,
            _ => TreePolicy::MultiSweep,
        });
    if let Some(t) = args.threads {
        cfg = cfg.with_threads(t);
    }

    let report = if args.ranks > 1 {
        let grid = grid_for(&t, args.ranks);
        println!(
            "processor grid: {:?}, backend: {}",
            grid.dims(),
            args.backend
        );
        let t = Arc::new(t);
        let method = args.method.clone();
        let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
        let out = Runtime::with_backend(args.ranks, args.backend).run(move |ctx| {
            let local = DistTensor::from_global(&t2, &g2, ctx.rank());
            match method.as_str() {
                "pp" => par_pp_cp_als(ctx, &g2, &local, &c2).report,
                "nncp" => {
                    eprintln!("nncp is sequential-only; running dt instead");
                    par_cp_als(ctx, &g2, &local, &c2).report
                }
                _ => par_cp_als(ctx, &g2, &local, &c2).report,
            }
        });
        out.results.into_iter().next().unwrap()
    } else {
        match args.method.as_str() {
            "pp" => pp_cp_als(&t, &cfg).report,
            "nncp" => nn_cp_als(&t, &cfg).report,
            _ => cp_als(&t, &cfg).report,
        }
    };

    println!(
        "finished: {} sweeps ({} exact, {} PP-init, {} PP-approx), fitness {:.5}, {:.2}s total{}",
        report.sweeps.len(),
        report.count(SweepKind::Exact),
        report.count(SweepKind::PpInit),
        report.count(SweepKind::PpApprox),
        report.final_fitness,
        report.total_secs(),
        if report.converged {
            " (converged)"
        } else {
            " (sweep limit)"
        },
    );
    println!(
        "packed GEMM (engine TTMs): {:.2} Gflop, {} fixed-n / {} generic calls",
        report.stats.gemm_packed_flops as f64 / 1e9,
        report.stats.gemm_fixed_n_calls,
        report.stats.gemm_generic_calls,
    );
    print_sparse_counters(&report.stats);
    if args.trace {
        for s in &report.sweeps {
            println!(
                "  {:9} t={:8.3}s fitness={:.6}",
                s.kind.label(),
                s.cumulative_secs,
                s.fitness
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn batch_args_parse() {
        let a = parse_batch_args_from(&argv(&["--manifest", "jobs.txt"])).unwrap();
        assert_eq!(a.manifest, "jobs.txt");
        assert_eq!(a.jobs, 4, "default window");
        assert!(!a.trace);
        let a = parse_batch_args_from(&argv(&[
            "--manifest",
            "m.txt",
            "--jobs",
            "2",
            "--trace",
            "--threads",
            "3",
        ]))
        .unwrap();
        assert_eq!(a.jobs, 2);
        assert!(a.trace);
        assert_eq!(a.threads, Some(3));
    }

    #[test]
    fn batch_scheduler_flags_parse() {
        let a = parse_batch_args_from(&argv(&["--manifest", "m.txt"])).unwrap();
        assert_eq!(a.drivers, default_drivers(), "default is all cores");
        assert_eq!(a.cache_budget_mb, None);
        assert_eq!(a.checkpoint_dir, None);
        assert_eq!(a.stop_after_turns, None);
        let a = parse_batch_args_from(&argv(&[
            "--manifest",
            "m.txt",
            "--drivers",
            "4",
            "--cache-budget-mb",
            "64",
            "--checkpoint-dir",
            "/tmp/ckpt",
            "--stop-after-turns",
            "12",
        ]))
        .unwrap();
        assert_eq!(a.drivers, 4);
        assert_eq!(a.cache_budget_mb, Some(64));
        assert_eq!(a.checkpoint_dir.as_deref(), Some("/tmp/ckpt"));
        assert_eq!(a.stop_after_turns, Some(12));
    }

    #[test]
    fn zero_and_garbage_scheduler_flags_are_rejected() {
        // Exit-2 paths: zero or unparsable values must be argument errors,
        // never a panic inside the scheduler.
        for (flags, needle) in [
            (vec!["--drivers", "0"], "--drivers must be at least 1"),
            (vec!["--drivers", "many"], "invalid value for --drivers"),
            (
                vec!["--cache-budget-mb", "0"],
                "--cache-budget-mb must be at least 1",
            ),
            (
                vec!["--cache-budget-mb", "big"],
                "invalid value for --cache-budget-mb",
            ),
            (
                vec!["--stop-after-turns", "soon"],
                "invalid value for --stop-after-turns",
            ),
        ] {
            let mut full = vec!["--manifest", "m.txt"];
            full.extend(flags.iter());
            let err = parse_batch_args_from(&argv(&full)).unwrap_err();
            assert!(err.contains(needle), "{flags:?}: {err}");
        }
    }

    #[test]
    fn batch_help_and_version_short_circuit() {
        // Like the main mode: `--help`/`--version` win over anything else,
        // including a missing manifest and invalid flags.
        for argv_case in [
            vec!["--help"],
            vec!["-h"],
            vec!["--version"],
            vec!["-V"],
            vec!["--help", "--frobnicate"],
            vec!["--version", "--jobs", "abc"],
        ] {
            let a = parse_batch_args_from(&argv(&argv_case)).unwrap();
            assert!(a.help || a.version, "{argv_case:?}");
        }
    }

    #[test]
    fn batch_args_rejected() {
        assert!(parse_batch_args_from(&argv(&[]))
            .unwrap_err()
            .contains("requires --manifest"));
        assert!(
            parse_batch_args_from(&argv(&["--manifest", "m", "--jobs", "0"]))
                .unwrap_err()
                .contains("--jobs must be at least 1")
        );
        assert!(
            parse_batch_args_from(&argv(&["--manifest", "m", "--frobnicate"]))
                .unwrap_err()
                .contains("unknown flag")
        );
        assert!(parse_batch_args_from(&argv(&["--manifest"]))
            .unwrap_err()
            .contains("missing value"));
    }

    #[test]
    fn stream_args_parse() {
        let a = parse_stream_args_from(&argv(&[])).unwrap();
        assert_eq!(a.method, "msdt");
        assert_eq!(a.rank, 8);
        assert_eq!(a.initial_times, 3);
        assert_eq!(a.arrive, 2);
        assert_eq!(a.sweeps_per_arrival, 5);
        assert_eq!(a.update, CacheUpdate::Incremental);
        assert!(a.checkpoint.is_none() && a.stop_after_arrivals.is_none());

        let a = parse_stream_args_from(&argv(&[
            "--method",
            "pp",
            "--rank",
            "6",
            "--height",
            "12",
            "--width",
            "10",
            "--bands",
            "8",
            "--times",
            "11",
            "--materials",
            "3",
            "--noise",
            "1e-3",
            "--data-seed",
            "7",
            "--initial-times",
            "5",
            "--arrive",
            "3",
            "--sweeps-per-arrival",
            "4",
            "--update",
            "recompute",
            "--checkpoint",
            "s.ppck",
            "--stop-after-arrivals",
            "1",
            "--backend",
            "p2p",
            "--threads",
            "2",
            "--trace",
        ]))
        .unwrap();
        assert_eq!(a.method, "pp");
        assert_eq!(a.rank, 6);
        assert_eq!(
            (a.height, a.width, a.bands, a.times, a.materials),
            (12, 10, 8, 11, 3)
        );
        assert_eq!(a.noise, 1e-3);
        assert_eq!(a.data_seed, 7);
        assert_eq!((a.initial_times, a.arrive, a.sweeps_per_arrival), (5, 3, 4));
        assert_eq!(a.update, CacheUpdate::Recompute);
        assert_eq!(a.checkpoint.as_deref(), Some("s.ppck"));
        assert_eq!(a.stop_after_arrivals, Some(1));
        assert_eq!(a.backend, Backend::P2p);
        assert_eq!(a.threads, Some(2));
        assert!(a.trace);
    }

    #[test]
    fn stream_args_rejected() {
        assert!(parse_stream_args_from(&argv(&["--method", "nncp"]))
            .unwrap_err()
            .contains("dt|msdt|pp"));
        assert!(parse_stream_args_from(&argv(&["--method", "gradient"]))
            .unwrap_err()
            .contains("unknown method"));
        assert!(
            parse_stream_args_from(&argv(&["--sweeps-per-arrival", "0"]))
                .unwrap_err()
                .contains("at least 1")
        );
        assert!(parse_stream_args_from(&argv(&["--update", "lazy"]))
            .unwrap_err()
            .contains("incremental|recompute"));
        assert!(parse_stream_args_from(&argv(&["--rank", "0"]))
            .unwrap_err()
            .contains("--rank must be at least 1"));
        assert!(parse_stream_args_from(&argv(&["--backend", "mpi"])).is_err());
        assert!(parse_stream_args_from(&argv(&["--arrive"]))
            .unwrap_err()
            .contains("missing value"));
        assert!(parse_stream_args_from(&argv(&["--frobnicate"]))
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn stream_help_and_version_short_circuit() {
        for argv_case in [
            vec!["--help"],
            vec!["--version"],
            vec!["--method", "nncp", "--help"],
            vec!["--sweeps-per-arrival", "0", "-V"],
        ] {
            let a = parse_stream_args_from(&argv(&argv_case)).unwrap();
            assert!(a.help || a.version, "{argv_case:?}");
        }
    }

    #[test]
    fn stream_tag_separates_configurations() {
        let a = parse_stream_args_from(&argv(&[])).unwrap();
        let b = parse_stream_args_from(&argv(&["--rank", "9"])).unwrap();
        let c = parse_stream_args_from(&argv(&["--update", "recompute"])).unwrap();
        assert_ne!(stream_tag(&a), stream_tag(&b));
        assert_ne!(stream_tag(&a), stream_tag(&c));
        assert_eq!(
            stream_tag(&a),
            stream_tag(&parse_stream_args_from(&argv(&[])).unwrap())
        );
    }

    #[test]
    fn defaults_parse() {
        let a = parse_args_from(&argv(&[])).unwrap();
        assert_eq!(a.dataset, "lowrank");
        assert_eq!(a.method, "msdt");
        assert_eq!(a.rank, 16);
        assert_eq!(a.threads, None);
    }

    #[test]
    fn threads_flag_routes_into_config_not_a_global() {
        // The CLI must not leave a process-global width behind: `--threads`
        // becomes `AlsConfig::threads`, whose scoped guard is released when
        // each run returns.
        let a = parse_args_from(&argv(&["--threads", "3"])).unwrap();
        let before = rayon::current_num_threads();
        let cfg = AlsConfig::new(a.rank).with_threads(a.threads.unwrap());
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(
            rayon::current_num_threads(),
            before,
            "parsing/config-building must not change the pool width"
        );
    }

    #[test]
    fn full_flag_set_parses() {
        let a = parse_args_from(&argv(&[
            "--dataset",
            "chemistry",
            "--method",
            "pp",
            "--rank",
            "24",
            "--sweeps",
            "50",
            "--tol",
            "1e-4",
            "--pp-tol",
            "0.2",
            "--ranks",
            "4",
            "--backend",
            "p2p",
            "--threads",
            "8",
            "--seed",
            "7",
            "--trace",
        ]))
        .unwrap();
        assert_eq!(a.dataset, "chemistry");
        assert_eq!(a.method, "pp");
        assert_eq!(a.rank, 24);
        assert_eq!(a.ranks, 4);
        assert_eq!(a.backend, Backend::P2p);
        assert_eq!(a.threads, Some(8));
        assert!(a.trace);
    }

    #[test]
    fn help_short_circuits_validation() {
        // `--help` anywhere on the line wins, even next to invalid args.
        for argv_case in [
            vec!["--help"],
            vec!["-h"],
            vec!["--help", "--method", "turbo"],
            vec!["--rank", "abc", "--help"],
            vec!["--help", "--frobnicate"],
        ] {
            let a = parse_args_from(&argv(&argv_case)).unwrap();
            assert!(a.help, "{argv_case:?}");
        }
    }

    #[test]
    fn version_flag_parses_and_short_circuits() {
        // `--version` behaves like `--help`: it wins over any other
        // argument, valid or not, so `ppcp --version` can never exit 2.
        for argv_case in [
            vec!["--version"],
            vec!["-V"],
            vec!["--version", "--method", "turbo"],
            vec!["--rank", "abc", "--version"],
            vec!["--version", "--frobnicate"],
        ] {
            let a = parse_args_from(&argv(&argv_case)).unwrap();
            assert!(a.version, "{argv_case:?}");
        }
        assert!(!parse_args_from(&argv(&[])).unwrap().version);
    }

    #[test]
    fn version_must_be_exact_flag() {
        // A typo'd version flag is still an argument error (exit 2), not
        // a silent fallback into a run.
        for bad in ["--versio", "--versions", "-v"] {
            let err = parse_args_from(&argv(&[bad])).unwrap_err();
            assert!(err.contains("unknown flag"), "{bad}: {err}");
        }
    }

    #[test]
    fn backend_defaults_to_rendezvous_and_parses_both_names() {
        assert_eq!(
            parse_args_from(&argv(&[])).unwrap().backend,
            Backend::default()
        );
        assert_eq!(
            parse_args_from(&argv(&[])).unwrap().backend,
            Backend::Rendezvous
        );
        let a = parse_args_from(&argv(&["--backend", "rendezvous"])).unwrap();
        assert_eq!(a.backend, Backend::Rendezvous);
        let a = parse_args_from(&argv(&["--backend", "p2p"])).unwrap();
        assert_eq!(a.backend, Backend::P2p);
    }

    #[test]
    fn unknown_backend_is_rejected_enumerating_names() {
        let err = parse_args_from(&argv(&["--backend", "mpi"])).unwrap_err();
        assert!(err.contains("unknown backend 'mpi'"), "{err}");
        assert!(err.contains("rendezvous|p2p"), "{err}");
    }

    #[test]
    fn unknown_method_is_rejected_not_defaulted() {
        let err = parse_args_from(&argv(&["--method", "turbo"])).unwrap_err();
        assert!(err.contains("unknown method 'turbo'"), "{err}");
        assert!(err.contains("dt|msdt|pp|nncp"), "{err}");
    }

    #[test]
    fn unknown_dataset_is_rejected() {
        // The rejection enumerates every valid dataset name, including the
        // sparse ones.
        let err = parse_args_from(&argv(&["--dataset", "netflix"])).unwrap_err();
        assert!(err.contains("unknown dataset 'netflix'"), "{err}");
        for name in DATASETS {
            assert!(err.contains(name), "missing '{name}' in: {err}");
        }
    }

    #[test]
    fn sparse_datasets_admit_dt_pp_msdt_and_reject_nncp() {
        for ds in ["sparse-powerlaw", "sparse-lowrank"] {
            // dt, pp, and msdt are all legal (msdt is also the default).
            for m in ["dt", "pp", "msdt"] {
                let a = parse_args_from(&argv(&["--dataset", ds, "--method", m])).unwrap();
                assert_eq!(a.dataset, ds);
                assert_eq!(a.method, m);
            }
            let a = parse_args_from(&argv(&["--dataset", ds])).unwrap();
            assert_eq!(a.method, "msdt");
            // nncp stays rejected, and the message enumerates the legal set.
            let err = parse_args_from(&argv(&["--dataset", ds, "--method", "nncp"])).unwrap_err();
            assert!(err.contains("supports --method dt|pp|msdt"), "{ds}: {err}");
            // Sparse runs are still sequential-only, whatever the method.
            for m in ["dt", "pp", "msdt"] {
                let err = parse_args_from(&argv(&["--dataset", ds, "--method", m, "--ranks", "4"]))
                    .unwrap_err();
                assert!(err.contains("sequential-only"), "{ds} {m}: {err}");
            }
        }
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse_args_from(&argv(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown flag --frobnicate"), "{err}");
    }

    #[test]
    fn bad_numbers_and_missing_values_are_rejected() {
        // Exit-2 paths: each must be an argument error, never a panic
        // inside a kernel or a run with a degenerate configuration.
        for (flags, needle) in [
            (vec!["--rank", "abc"], "invalid value for --rank"),
            (vec!["--seed"], "missing value for --seed"),
            (vec!["--threads", "0"], "--threads must be at least 1"),
            (vec!["--rank", "0"], "--rank must be at least 1"),
            (vec!["--ranks", "0"], "--ranks must be at least 1"),
        ] {
            let err = parse_args_from(&argv(&flags)).unwrap_err();
            assert!(err.contains(needle), "{flags:?}: {err}");
        }
    }
}
