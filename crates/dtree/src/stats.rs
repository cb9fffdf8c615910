//! Per-kernel timing and flop ledger — the categories of the paper's
//! Fig. 3c–f time breakdown: TTM, mTTV, Hadamard, solve, and others
//! (plus an explicit transpose bucket that the figure folds into the
//! kernel that triggered it).

use std::time::Duration;

/// Kernel categories for time breakdowns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// First-level tensor-times-matrix contractions.
    Ttm,
    /// Batched TTV contractions (all lower dimension-tree levels and PP
    /// first-order corrections).
    Mttv,
    /// Hadamard products (Γ chains and second-order PP corrections).
    Hadamard,
    /// Normal-equation solves.
    Solve,
    /// Explicit tensor transposes.
    Transpose,
    /// Everything else (residual updates, bookkeeping, collectives).
    Other,
}

impl Kernel {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Ttm => "TTM",
            Kernel::Mttv => "mTTV",
            Kernel::Hadamard => "hadamard",
            Kernel::Solve => "solve",
            Kernel::Transpose => "transpose",
            Kernel::Other => "others",
        }
    }
}

/// Accumulated seconds and flops per kernel category.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    pub ttm_secs: f64,
    pub mttv_secs: f64,
    pub hadamard_secs: f64,
    pub solve_secs: f64,
    pub transpose_secs: f64,
    pub other_secs: f64,
    pub ttm_flops: u64,
    pub mttv_flops: u64,
    pub ttm_count: u64,
    pub mttv_count: u64,
    pub transpose_count: u64,
    /// Always 0. These three counters belonged to the removed cross-mode
    /// lookahead (speculative first-level TTMs launched, consumed, and
    /// discarded); they stay as public fields because the benchmark
    /// harness reads them.
    pub spec_launched: u64,
    /// Always 0; see [`KernelStats::spec_launched`].
    pub spec_hits: u64,
    /// Always 0; see [`KernelStats::spec_launched`].
    pub spec_wasted: u64,
    /// Flops issued through the packed GEMM engine by engine kernel calls
    /// (sampled from the calling thread's `pp_tensor::gemm` counters).
    pub gemm_packed_flops: u64,
    /// Packed-GEMM calls that hit a rank-specialized fixed-`n`
    /// micro-kernel (`n ∈ {8, 16, 32}`).
    pub gemm_fixed_n_calls: u64,
    /// Packed-GEMM calls on the generic-width panel path.
    pub gemm_generic_calls: u64,
    /// Useful flops issued by the sparse CSF MTTKRP fast path
    /// (`nnz · R · N` per call; sampled from the calling thread's
    /// `pp_tensor::sparse` counters like the GEMM counters above).
    pub sparse_mttkrp_flops: u64,
    /// Leaf-parent fibers visited by the sparse CSF MTTKRP fast path.
    pub sparse_fibers_visited: u64,
    /// Useful flops issued by semi-sparse TTM contractions (`2·nnz·R` per
    /// call) — the first-level contractions of PP/MSDT on sparse inputs.
    /// Sampled from the calling thread's `pp_tensor::semisparse` counters.
    pub semisparse_ttm_flops: u64,
    /// Useful flops issued by semi-sparse mTTV contractions (`2·E·R` per
    /// call) — the lower dimension-tree levels on sparse inputs.
    pub semisparse_ttv_flops: u64,
    /// Sparse entries (surviving fiber tuples) visited by semi-sparse
    /// kernels across all calls.
    pub semisparse_entries_visited: u64,
}

impl KernelStats {
    /// Record elapsed time (and optional flops) for a category.
    pub fn record(&mut self, kernel: Kernel, elapsed: Duration, flops: u64) {
        let secs = elapsed.as_secs_f64();
        match kernel {
            Kernel::Ttm => {
                self.ttm_secs += secs;
                self.ttm_flops += flops;
                self.ttm_count += 1;
            }
            Kernel::Mttv => {
                self.mttv_secs += secs;
                self.mttv_flops += flops;
                self.mttv_count += 1;
            }
            Kernel::Hadamard => self.hadamard_secs += secs,
            Kernel::Solve => self.solve_secs += secs,
            Kernel::Transpose => {
                self.transpose_secs += secs;
                self.transpose_count += 1;
            }
            Kernel::Other => self.other_secs += secs,
        }
    }

    /// Total seconds across all categories.
    pub fn total_secs(&self) -> f64 {
        self.ttm_secs
            + self.mttv_secs
            + self.hadamard_secs
            + self.solve_secs
            + self.transpose_secs
            + self.other_secs
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &KernelStats) {
        self.ttm_secs += other.ttm_secs;
        self.mttv_secs += other.mttv_secs;
        self.hadamard_secs += other.hadamard_secs;
        self.solve_secs += other.solve_secs;
        self.transpose_secs += other.transpose_secs;
        self.other_secs += other.other_secs;
        self.ttm_flops += other.ttm_flops;
        self.mttv_flops += other.mttv_flops;
        self.ttm_count += other.ttm_count;
        self.mttv_count += other.mttv_count;
        self.transpose_count += other.transpose_count;
        self.gemm_packed_flops += other.gemm_packed_flops;
        self.gemm_fixed_n_calls += other.gemm_fixed_n_calls;
        self.gemm_generic_calls += other.gemm_generic_calls;
        self.sparse_mttkrp_flops += other.sparse_mttkrp_flops;
        self.sparse_fibers_visited += other.sparse_fibers_visited;
        self.semisparse_ttm_flops += other.semisparse_ttm_flops;
        self.semisparse_ttv_flops += other.semisparse_ttv_flops;
        self.semisparse_entries_visited += other.semisparse_entries_visited;
    }

    /// Fold a packed-GEMM counter delta (from
    /// `pp_tensor::gemm::thread_gemm_counters`) into the ledger.
    pub fn add_gemm_delta(&mut self, delta: &pp_tensor::gemm::GemmCounters) {
        self.gemm_packed_flops += delta.flops;
        self.gemm_fixed_n_calls += delta.fixed_n_calls;
        self.gemm_generic_calls += delta.generic_calls;
    }

    /// Fold a sparse-kernel counter delta (from
    /// `pp_tensor::sparse::thread_sparse_counters`) into the ledger.
    pub fn add_sparse_delta(&mut self, delta: &pp_tensor::sparse::SparseCounters) {
        self.sparse_mttkrp_flops += delta.flops;
        self.sparse_fibers_visited += delta.fibers_visited;
    }

    /// Fold a semi-sparse kernel counter delta (from
    /// `pp_tensor::semisparse::thread_ss_counters`) into the ledger.
    pub fn add_ss_delta(&mut self, delta: &pp_tensor::semisparse::SsCounters) {
        self.semisparse_ttm_flops += delta.ttm_flops;
        self.semisparse_ttv_flops += delta.ttv_flops;
        self.semisparse_entries_visited += delta.entries_visited;
    }

    /// Scale all timings (e.g. to average over sweeps).
    pub fn scaled(&self, factor: f64) -> KernelStats {
        KernelStats {
            ttm_secs: self.ttm_secs * factor,
            mttv_secs: self.mttv_secs * factor,
            hadamard_secs: self.hadamard_secs * factor,
            solve_secs: self.solve_secs * factor,
            transpose_secs: self.transpose_secs * factor,
            other_secs: self.other_secs * factor,
            ..*self
        }
    }

    /// The five-category breakdown of Fig. 3c–f, with transposes folded
    /// into the mTTV bucket (where the paper's PP-init transposes surface).
    pub fn five_way(&self) -> [(&'static str, f64); 5] {
        [
            ("TTM", self.ttm_secs),
            ("mTTV", self.mttv_secs + self.transpose_secs),
            ("hadamard", self.hadamard_secs),
            ("solve", self.solve_secs),
            ("others", self.other_secs),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut s = KernelStats::default();
        s.record(Kernel::Ttm, Duration::from_millis(100), 1000);
        s.record(Kernel::Mttv, Duration::from_millis(50), 500);
        s.record(Kernel::Solve, Duration::from_millis(25), 0);
        assert!((s.total_secs() - 0.175).abs() < 1e-9);
        assert_eq!(s.ttm_flops, 1000);
        assert_eq!(s.ttm_count, 1);
    }

    #[test]
    fn add_and_scale() {
        let mut a = KernelStats::default();
        a.record(Kernel::Hadamard, Duration::from_millis(10), 0);
        let mut b = KernelStats::default();
        b.record(Kernel::Hadamard, Duration::from_millis(30), 0);
        a.add(&b);
        assert!((a.hadamard_secs - 0.04).abs() < 1e-9);
        let half = a.scaled(0.5);
        assert!((half.hadamard_secs - 0.02).abs() < 1e-9);
    }

    #[test]
    fn five_way_folds_transposes() {
        let mut s = KernelStats::default();
        s.record(Kernel::Mttv, Duration::from_millis(10), 0);
        s.record(Kernel::Transpose, Duration::from_millis(5), 0);
        let five = s.five_way();
        assert_eq!(five[1].0, "mTTV");
        assert!((five[1].1 - 0.015).abs() < 1e-9);
    }
}
