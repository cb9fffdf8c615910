//! Helpers shared by the end-to-end parity suites (`thread_parity`,
//! `session_parity`, `stream_parity`): bitwise run comparison and
//! serialization of sections that pin the process-global pool width.

use parallel_pp::core::AlsOutput;
use std::sync::Mutex;

/// The thread override is process-global and the test harness runs tests
/// concurrently, so pinned sections must be serialized — otherwise one
/// test's "1-thread" baseline could silently run wide under another's pin.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Take the override lock (poison-tolerant).
pub fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Assert two driver runs are **bitwise identical**: same sweep schedule,
/// bit-equal fitness trace, bit-equal factors.
pub fn assert_identical(a: &AlsOutput, b: &AlsOutput) {
    assert_eq!(a.report.sweeps.len(), b.report.sweeps.len(), "sweep count");
    for (i, (sa, sb)) in a
        .report
        .sweeps
        .iter()
        .zip(b.report.sweeps.iter())
        .enumerate()
    {
        assert_eq!(sa.kind, sb.kind, "sweep kind diverged at sweep {i}");
        assert_eq!(
            sa.fitness.to_bits(),
            sb.fitness.to_bits(),
            "fitness diverged at sweep {i}: {} vs {}",
            sa.fitness,
            sb.fitness
        );
    }
    for (n, (fa, fb)) in a.factors.iter().zip(b.factors.iter()).enumerate() {
        assert_eq!(fa.data(), fb.data(), "factor {n} diverged");
    }
}
