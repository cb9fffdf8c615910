//! Session-parity suite: stepping an [`AlsSession`] — under arbitrary
//! pause/resume/interleave schedules — is **bitwise identical** to
//! the one-shot drivers, for randomized dims, rank, method, and pool
//! width.
//!
//! Together with `tests/golden_traces.rs` (which pins the pre-session
//! monolithic traces) this closes the loop: driver == session step-loop ==
//! any interleaving of step-loops.

mod common;

use common::{assert_identical, override_lock};
use parallel_pp::core::{
    cp_als, nn_cp_als, pp_cp_als, AlsConfig, AlsOutput, AlsSession, SessionKind, Step,
};
use parallel_pp::datagen::lowrank::noisy_rank;
use parallel_pp::dtree::TreePolicy;
use parallel_pp::tensor::DenseTensor;
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Method {
    Dt,
    Msdt,
    Pp,
    Nncp,
}

impl Method {
    /// Decode a proptest-generated index (the vendored shim has no
    /// enum/oneof strategies).
    fn from_idx(i: usize) -> Method {
        match i % 4 {
            0 => Method::Dt,
            1 => Method::Msdt,
            2 => Method::Pp,
            _ => Method::Nncp,
        }
    }

    fn session_kind(&self) -> SessionKind {
        match self {
            Method::Dt | Method::Msdt => SessionKind::Exact,
            Method::Pp => SessionKind::Pp,
            Method::Nncp => SessionKind::NonNeg,
        }
    }

    fn config(&self, rank: usize, sweeps: usize) -> AlsConfig {
        let cfg = AlsConfig::new(rank).with_max_sweeps(sweeps).with_tol(0.0);
        match self {
            Method::Dt => cfg,
            Method::Msdt | Method::Nncp => cfg.with_policy(TreePolicy::MultiSweep),
            // A generous ε so the PP regime activates within the budget.
            Method::Pp => cfg
                .with_policy(TreePolicy::MultiSweep)
                .with_pp_tol(0.4)
                .with_tol(0.0),
        }
    }

    fn driver(&self, t: &DenseTensor, cfg: &AlsConfig) -> AlsOutput {
        match self {
            Method::Dt | Method::Msdt => cp_als(t, cfg),
            Method::Pp => pp_cp_als(t, cfg),
            Method::Nncp => nn_cp_als(t, cfg),
        }
    }
}

/// Step-loop over a fresh session.
fn stepped(t: &DenseTensor, cfg: &AlsConfig, kind: SessionKind) -> AlsOutput {
    let mut s = AlsSession::new(t, cfg, kind);
    while let Step::Swept(_) = s.step() {}
    s.finish()
}

// Case counts tuned for a < 60 s debug budget; each case runs two or three
// full (small) decompositions.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized dims/rank/method/threads: one-shot driver == step loop,
    /// bitwise.
    #[test]
    fn step_loop_matches_driver(
        dims in prop::collection::vec(4usize..8, 3..=4),
        rank in 2usize..4,
        sweeps in 3usize..7,
        method_idx in 0usize..4,
        threads in 1usize..3,
        seed in 0u64..500,
    ) {
        let method = Method::from_idx(method_idx);
        let _serial = override_lock();
        let t = noisy_rank(&dims, rank, 0.05, seed);
        let cfg = method.config(rank, sweeps).with_threads(threads).with_seed(seed);
        let a = method.driver(&t, &cfg);
        let b = stepped(&t, &cfg, method.session_kind());
        assert_identical(&a, &b);
    }

    /// Stop at sweep k, run an unrelated decomposition in between (dirties
    /// the pool), resume, compare the tail.
    #[test]
    fn stop_at_k_resume_tail_matches(
        k in 1usize..5,
        method_idx in 0usize..4,
        seed in 0u64..500,
    ) {
        let method = Method::from_idx(method_idx);
        let _serial = override_lock();
        let t = noisy_rank(&[8, 7, 6], 3, 0.05, seed);
        let cfg = method.config(3, 8).with_seed(seed);
        let a = method.driver(&t, &cfg);

        let mut s = AlsSession::new(&t, &cfg, method.session_kind());
        for _ in 0..k {
            let _ = s.step();
        }
        // Intermission: a different tensor decomposed to completion.
        let other = noisy_rank(&[6, 5, 7], 2, 0.05, seed.wrapping_add(1));
        let _ = cp_als(&other, &AlsConfig::new(2).with_max_sweeps(3).with_tol(0.0));
        // Resume the original session and drain it.
        while let Step::Swept(_) = s.step() {}
        let b = s.finish();
        assert_identical(&a, &b);
    }

    /// Two sessions stepped alternately (the batch scheduler's round-robin)
    /// each match their solo runs — tenant isolation at the numeric level.
    #[test]
    fn interleaved_sessions_are_isolated(
        method_a_idx in 0usize..4,
        method_b_idx in 0usize..4,
        seed in 0u64..500,
    ) {
        let method_a = Method::from_idx(method_a_idx);
        let method_b = Method::from_idx(method_b_idx);
        let _serial = override_lock();
        let ta = noisy_rank(&[8, 6, 7], 3, 0.05, seed);
        let tb = noisy_rank(&[6, 7, 6], 2, 0.05, seed.wrapping_add(7));
        let cfg_a = method_a.config(3, 6).with_seed(seed);
        let cfg_b = method_b.config(2, 9).with_seed(seed.wrapping_add(7));
        let solo_a = method_a.driver(&ta, &cfg_a);
        let solo_b = method_b.driver(&tb, &cfg_b);

        let mut sa = AlsSession::new(&ta, &cfg_a, method_a.session_kind());
        let mut sb = AlsSession::new(&tb, &cfg_b, method_b.session_kind());
        let (mut da, mut db) = (false, false);
        while !(da && db) {
            if !da {
                da = matches!(sa.step(), Step::Done(_));
            }
            if !db {
                db = matches!(sb.step(), Step::Done(_));
            }
        }
        assert_identical(&solo_a, &sa.finish());
        assert_identical(&solo_b, &sb.finish());
    }
}

/// The PP regime must survive a pause landing *inside* it: pause right
/// after the PP-init sweep, resume, and still match the one-shot run.
#[test]
fn pause_inside_pp_regime_matches() {
    let _serial = override_lock();
    let t = noisy_rank(&[10, 9, 11], 3, 0.05, 7);
    let cfg = AlsConfig::new(3)
        .with_policy(TreePolicy::MultiSweep)
        .with_pp_tol(0.3)
        .with_max_sweeps(40)
        .with_tol(1e-9);
    let a = pp_cp_als(&t, &cfg);
    let init_pos = a
        .report
        .sweeps
        .iter()
        .position(|s| s.kind == parallel_pp::core::SweepKind::PpInit)
        .expect("PP must activate in this configuration");

    let mut s = AlsSession::new(&t, &cfg, SessionKind::Pp);
    for _ in 0..=init_pos {
        let _ = s.step();
    }
    // Intermission inside the approximated regime.
    let other = noisy_rank(&[5, 6, 5], 2, 0.05, 9);
    let _ = cp_als(&other, &AlsConfig::new(2).with_max_sweeps(2).with_tol(0.0));
    while let Step::Swept(_) = s.step() {}
    assert_identical(&a, &s.finish());
}

/// Convergence behaves identically under stepping: a converged session
/// reports the same sweep count and flag as the driver.
#[test]
fn convergence_matches_under_stepping() {
    let _serial = override_lock();
    let (t, _) = parallel_pp::datagen::lowrank::exact_rank(&[7, 7, 7], 2, 5);
    let cfg = AlsConfig::new(2).with_max_sweeps(300).with_tol(1e-5);
    let a = cp_als(&t, &cfg);
    let b = stepped(&t, &cfg, SessionKind::Exact);
    assert!(a.report.converged);
    assert_identical(&a, &b);
}
