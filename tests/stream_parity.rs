//! End-to-end correctness of streaming CP (`StreamingSession`):
//!
//! * the incremental dimension-tree cache extension equals the
//!   full-recompute oracle **bitwise** over randomized arrival schedules
//!   (property-based), for the exact and PP session kinds;
//! * streamed traces are bit-identical under a 1-thread and a 4-thread
//!   pool (the threshold-crossing slice sizes actually exercise the
//!   pooled kernels);
//! * a session saved to a `PPCK` checkpoint **mid-window, mid-stream**
//!   and resumed from disk replays the remaining arrivals bit-identically
//!   to an uninterrupted run.

use parallel_pp::core::{AlsConfig, AlsOutput, SessionKind, StreamingSession};
use parallel_pp::datagen::timelapse::{TimelapseConfig, TimelapseStream, TIME_MODE};
use parallel_pp::dtree::CacheUpdate;
use proptest::prelude::*;

mod common;
use common::{assert_identical, override_lock};

/// Drive the whole arrival schedule under one cache-update policy.
fn drive(
    feed: &TimelapseStream,
    cfg: &AlsConfig,
    kind: SessionKind,
    spa: usize,
    update: CacheUpdate,
) -> AlsOutput {
    let mut s = StreamingSession::new(&feed.initial(), cfg, kind, TIME_MODE, spa, update);
    s.run_window();
    for i in 0..feed.n_arrivals() {
        s.arrive(&feed.slice(i));
        s.run_window();
    }
    s.finish()
}

/// The mid-size feed used by the thread- and checkpoint-parity tests:
/// large enough that mode-0/1/2 GEMMs cross the parallel-work threshold.
fn midsize_feed() -> TimelapseStream {
    let cfg = TimelapseConfig {
        height: 12,
        width: 10,
        bands: 8,
        times: 7,
        materials: 3,
        noise: 1e-3,
    };
    TimelapseStream::new(&cfg, 17, 3, 2).unwrap()
}

// Case counts tuned for the suite's < 60 s debug budget; each case is a
// handful of sweeps over a tiny order-4 tensor (~1 ms).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental == recompute, bitwise, over random arrival schedules.
    #[test]
    fn incremental_matches_recompute_oracle(
        initial in 1usize..5,
        arrive in 1usize..4,
        n_arrivals in 1usize..4,
        spa in 1usize..4,
        pp in 0usize..2,
        seed in 0u64..1000,
    ) {
        let tcfg = TimelapseConfig {
            height: 6,
            width: 5,
            bands: 4,
            times: initial + arrive * n_arrivals,
            materials: 2,
            noise: 1e-2,
        };
        let feed = TimelapseStream::new(&tcfg, seed, initial, arrive).unwrap();
        let cfg = AlsConfig::new(3).with_tol(0.0).with_pp_tol(0.3).with_seed(seed ^ 0x9e37);
        let kind = if pp == 1 { SessionKind::Pp } else { SessionKind::Exact };
        let a = drive(&feed, &cfg, kind, spa, CacheUpdate::Incremental);
        let b = drive(&feed, &cfg, kind, spa, CacheUpdate::Recompute);
        prop_assert_eq!(a.report.sweeps.len(), b.report.sweeps.len());
        for (x, y) in a.report.sweeps.iter().zip(b.report.sweeps.iter()) {
            prop_assert_eq!(x.kind, y.kind);
            prop_assert_eq!(x.fitness.to_bits(), y.fitness.to_bits());
        }
        for (fa, fb) in a.factors.iter().zip(b.factors.iter()) {
            prop_assert_eq!(fa.data(), fb.data());
        }
    }
}

#[test]
fn streamed_trace_identical_under_1_and_n_threads() {
    let _serial = override_lock();
    let feed = midsize_feed();
    for kind in [SessionKind::Exact, SessionKind::Pp] {
        let run = |threads: usize| {
            let cfg = AlsConfig::new(8)
                .with_tol(0.0)
                .with_pp_tol(0.3)
                .with_threads(threads);
            drive(&feed, &cfg, kind, 3, CacheUpdate::Incremental)
        };
        assert_identical(&run(1), &run(4));
    }
}

#[test]
fn checkpoint_mid_stream_resumes_bit_identically() {
    let _serial = override_lock();
    let feed = midsize_feed();
    let cfg = AlsConfig::new(6).with_tol(0.0).with_pp_tol(0.3);
    let spa = 3;
    let full = drive(&feed, &cfg, SessionKind::Pp, spa, CacheUpdate::Incremental);

    // Interrupted twin: checkpoint to disk mid-window after the first arrival,
    // drop everything, resume from the file, replay the rest.
    let path = std::env::temp_dir().join(format!("pp-stream-parity-{}.ppck", std::process::id()));
    let tag = 0xfeed_beef;
    {
        let mut s = StreamingSession::new(
            &feed.initial(),
            &cfg,
            SessionKind::Pp,
            TIME_MODE,
            spa,
            CacheUpdate::Incremental,
        );
        s.run_window();
        s.arrive(&feed.slice(0));
        s.step(); // window half-done: 1 of 3 sweeps
        s.park_to_disk(&path, tag).unwrap();
    }
    let (mut s, read_tag) =
        StreamingSession::resume_from_disk(&path, |extent| feed.prefix(extent)).unwrap();
    assert_eq!(read_tag, tag);
    assert_eq!(s.arrivals_done(), 1);
    s.run_window();
    for i in s.arrivals_done()..feed.n_arrivals() {
        s.arrive(&feed.slice(i));
        s.run_window();
    }
    assert_identical(&full, &s.finish());

    // A truncated file must be refused cleanly, not panic or half-resume.
    let bytes = std::fs::read(&path).unwrap();
    let err = StreamingSession::resume_from_bytes(&bytes[..bytes.len() / 2], |e| feed.prefix(e))
        .err()
        .unwrap();
    assert!(
        err.contains("truncated") || err.contains("length mismatch"),
        "{err}"
    );
    let _ = std::fs::remove_file(&path);
}
