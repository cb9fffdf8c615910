//! The serving correctness contract: a job's trace inside a J-way
//! interleaved batch is **bit-identical** to running that job alone with
//! the monolithic driver (acceptance criterion of the session refactor).

use pp_core::{cp_als, nn_cp_als, pp_cp_als, AlsOutput, AlsSession};
use pp_serve::{parse_manifest, run_batch, JobMethod, JobSpec, ServeConfig};

/// Run `spec` alone through the matching monolithic driver.
fn solo(spec: &JobSpec) -> AlsOutput {
    if spec.dataset.is_sparse() {
        let sp = spec.dataset.build_sparse();
        return AlsSession::new_sparse(&sp, &spec.als_config(), spec.method.session_kind()).run();
    }
    let t = spec.dataset.build();
    let cfg = spec.als_config();
    match spec.method {
        JobMethod::Dt | JobMethod::Msdt => cp_als(&t, &cfg),
        JobMethod::Pp => pp_cp_als(&t, &cfg),
        JobMethod::Nncp => nn_cp_als(&t, &cfg),
    }
}

fn assert_bitwise(name: &str, a: &AlsOutput, b: &AlsOutput) {
    assert_eq!(
        a.report.sweeps.len(),
        b.report.sweeps.len(),
        "{name}: sweep count"
    );
    for (i, (x, y)) in a
        .report
        .sweeps
        .iter()
        .zip(b.report.sweeps.iter())
        .enumerate()
    {
        assert_eq!(x.kind, y.kind, "{name}: kind at sweep {i}");
        assert_eq!(
            x.fitness.to_bits(),
            y.fitness.to_bits(),
            "{name}: fitness at sweep {i}: {} vs {}",
            x.fitness,
            y.fitness
        );
    }
    assert_eq!(a.report.converged, b.report.converged, "{name}");
    for (n, (fa, fb)) in a.factors.iter().zip(b.factors.iter()).enumerate() {
        assert_eq!(fa.data(), fb.data(), "{name}: factor {n}");
    }
}

/// A four-method manifest exercising all sequential session kinds.
const MANIFEST: &str = "\
# batch-parity manifest: one job per method
job name=exact-dt   method=dt   rank=3 sweeps=6 tol=0.0 dims=10x9x8  gen-rank=3 noise=0.05 data-seed=11
job name=exact-msdt method=msdt rank=3 sweeps=8 tol=0.0 dims=9x10x8  gen-rank=3 noise=0.05 data-seed=13
job name=pp         method=pp   rank=3 sweeps=25 tol=1e-9 pp-tol=0.3 dataset=collinearity s=12 r=3 lo=0.5 hi=0.7 data-seed=3
job name=nncp       method=nncp rank=3 sweeps=7 tol=0.0 dims=8x9x10 gen-rank=3 noise=0.05 data-seed=17
";

#[test]
fn batch_of_four_matches_solo_runs_bitwise() {
    let jobs = parse_manifest(MANIFEST).unwrap();
    assert_eq!(jobs.len(), 4);
    let report = run_batch(&jobs, &ServeConfig::new(4)).unwrap();
    assert_eq!(report.failed(), 0, "no job may fail");
    for (spec, result) in jobs.iter().zip(report.jobs.iter()) {
        let alone = solo(spec);
        let batched = result.output.as_ref().expect("completed job has output");
        assert_bitwise(&spec.name, &alone, batched);
    }
    // The schedule interleaves: some turn of a later job precedes some
    // turn of an earlier job (round-robin, not back-to-back).
    let first_j3 = report.schedule.iter().position(|e| e.job == 3).unwrap();
    let last_j0 = report.schedule.iter().rposition(|e| e.job == 0).unwrap();
    assert!(
        first_j3 < last_j0,
        "expected interleaving, got {:?}",
        report.schedule
    );
}

/// Sparse CSF jobs alongside a dense tenant in one batch.
const SPARSE_MANIFEST: &str = "\
job name=sp-pl dataset=sparse-powerlaw dims=24x20x16 nnz=300 skew=1.5 data-seed=5 method=dt rank=3 sweeps=5 tol=0.0
job name=sp-lr dataset=sparse-lowrank dims=18x16x14 gen-rank=3 density=0.05 data-seed=6 method=dt rank=3 sweeps=6 tol=0.0
job name=dense method=msdt rank=3 sweeps=4 tol=0.0 dims=10x9x8 gen-rank=3 noise=0.05 data-seed=11
";

#[test]
fn sparse_jobs_interleave_with_dense_bitwise() {
    let jobs = parse_manifest(SPARSE_MANIFEST).unwrap();
    assert_eq!(jobs.len(), 3);
    assert!(jobs[0].dataset.is_sparse() && jobs[1].dataset.is_sparse());
    let report = run_batch(&jobs, &ServeConfig::new(3)).unwrap();
    assert_eq!(report.failed(), 0, "no job may fail");
    for (spec, result) in jobs.iter().zip(report.jobs.iter()) {
        let batched = result.output.as_ref().expect("completed job has output");
        assert_bitwise(&spec.name, &solo(spec), batched);
    }
}

#[test]
fn sparse_jobs_checkpoint_and_resume_bitwise() {
    let jobs = parse_manifest(SPARSE_MANIFEST).unwrap();
    let dir = std::env::temp_dir().join(format!("pp-serve-sparse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Drain mid-batch: every in-flight job parks to disk.
    let cfg = ServeConfig::new(3)
        .with_checkpoint_dir(&dir)
        .with_stop_after_turns(4);
    let drained = run_batch(&jobs, &cfg).unwrap();
    assert_eq!(drained.parked(), 3);
    // Re-running the manifest resumes each job from its checkpoint and
    // completes bit-identically to the uninterrupted solo run.
    let resumed = run_batch(&jobs, &ServeConfig::new(3).with_checkpoint_dir(&dir)).unwrap();
    assert_eq!(resumed.failed(), 0);
    assert_eq!(resumed.completed(), 3);
    for (spec, result) in jobs.iter().zip(resumed.jobs.iter()) {
        assert_bitwise(&spec.name, &solo(spec), result.output.as_ref().unwrap());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sparse jobs on the semi-sparse chain: PP and MSDT next to a direct-CSF
/// dt tenant (the methods PR 8 unlocked for sparse datasets).
const SPARSE_METHODS_MANIFEST: &str = "\
job name=sp-pp dataset=sparse-lowrank dims=14x12x10 gen-rank=3 density=0.08 data-seed=7 method=pp rank=3 sweeps=16 pp-tol=0.5 tol=0.0
job name=sp-ms dataset=sparse-powerlaw dims=20x16x12 nnz=250 skew=1.5 data-seed=8 method=msdt rank=3 sweeps=5 tol=0.0
job name=sp-dt dataset=sparse-lowrank dims=12x11x10 gen-rank=3 density=0.1 data-seed=9 method=dt rank=3 sweeps=5 tol=0.0
";

#[test]
fn sparse_pp_and_msdt_jobs_match_solo_bitwise() {
    let jobs = parse_manifest(SPARSE_METHODS_MANIFEST).unwrap();
    assert_eq!(jobs.len(), 3);
    let report = run_batch(&jobs, &ServeConfig::new(3)).unwrap();
    assert_eq!(report.failed(), 0, "no job may fail");
    for (spec, result) in jobs.iter().zip(report.jobs.iter()) {
        let batched = result.output.as_ref().expect("completed job has output");
        assert_bitwise(&spec.name, &solo(spec), batched);
    }
}

#[test]
fn sparse_pp_and_msdt_checkpoint_and_resume_bitwise() {
    let jobs = parse_manifest(SPARSE_METHODS_MANIFEST).unwrap();
    let dir = std::env::temp_dir().join(format!("pp-serve-sparse-pp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig::new(3)
        .with_checkpoint_dir(&dir)
        .with_stop_after_turns(4);
    let drained = run_batch(&jobs, &cfg).unwrap();
    assert_eq!(drained.parked(), 3);
    let resumed = run_batch(&jobs, &ServeConfig::new(3).with_checkpoint_dir(&dir)).unwrap();
    assert_eq!(resumed.failed(), 0);
    assert_eq!(resumed.completed(), 3);
    for (spec, result) in jobs.iter().zip(resumed.jobs.iter()) {
        assert_bitwise(&spec.name, &solo(spec), result.output.as_ref().unwrap());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn narrow_window_matches_too() {
    // J=2 over the same four jobs: different interleaving, same traces.
    let jobs = parse_manifest(MANIFEST).unwrap();
    let report = run_batch(&jobs, &ServeConfig::new(2)).unwrap();
    assert_eq!(report.failed(), 0);
    for (spec, result) in jobs.iter().zip(report.jobs.iter()) {
        assert_bitwise(&spec.name, &solo(spec), result.output.as_ref().unwrap());
    }
}
