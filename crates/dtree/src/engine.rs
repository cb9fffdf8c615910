//! The dimension-tree MTTKRP engine: standard DT and multi-sweep DT.
//!
//! Both policies drive the same machinery — a version-checked intermediate
//! cache plus single-mode contraction steps (first level: TTM against the
//! input tensor; lower levels: batched TTV). They differ only in *which*
//! chain of intermediates they walk:
//!
//! * [`TreePolicy::Standard`] follows the canonical binary dimension tree
//!   of Fig. 1a: within each sweep two first-level TTMs are performed
//!   (contracting the last and the first mode), and lower intermediates are
//!   shared between neighbouring output modes. Leading cost `4 s^N R` per
//!   sweep.
//! * [`TreePolicy::MultiSweep`] (MSDT, Fig. 2) contracts first the mode
//!   whose factor was updated most recently, so the first-level
//!   intermediate survives the next `N−1` MTTKRPs — across sweep
//!   boundaries. `N` first-level TTMs serve `N−1` sweeps, for a leading
//!   cost of `2N/(N−1) s^N R` per sweep.
//!
//! Because every contraction step reads the factor at its *current*
//! version and cache validity is checked against version vectors, both
//! policies compute exactly the same `M^(n)` values (up to floating-point
//! associativity) — MSDT is lossless, as the paper states.

use crate::cache::{InterCache, Intermediate, Payload};
use crate::factor::FactorState;
use crate::input::InputTensor;
use crate::modeset::ModeSet;
use crate::stats::{Kernel, KernelStats};
use pp_tensor::kernels::mttv::mttv;
use pp_tensor::semisparse::{ss_mttv, thread_ss_counters};
use pp_tensor::{DenseTensor, Matrix};
use std::sync::Arc;
use std::time::Instant;

/// Which dimension-tree schedule to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreePolicy {
    /// Canonical per-sweep binary dimension tree (the DT baseline).
    Standard,
    /// Multi-sweep dimension tree (the paper's MSDT).
    MultiSweep,
}

/// How [`DimTreeEngine::extend_mode`] refreshes first-level cache entries
/// when the evolving mode grows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheUpdate {
    /// Contract **only the new slice** and append the result into the
    /// cached intermediate along the evolving mode — per-arrival work
    /// scales with the slice, not the full tensor.
    Incremental,
    /// Recontract the same cache keys from the **full grown tensor** — the
    /// from-scratch oracle the incremental path must match bitwise.
    Recompute,
}

/// MTTKRP engine with a persistent intermediate cache.
///
/// The engine (and therefore the cache inside it) is plain owned state
/// with no call-local lifetime: a driver — or a resumable session that
/// suspends between sweeps — owns one engine per decomposition and may
/// hold it indefinitely.
pub struct DimTreeEngine {
    policy: TreePolicy,
    n_modes: usize,
    cache: InterCache,
    /// Per-kernel timing/flop ledger (drained by the driver).
    pub stats: KernelStats,
    /// Ablation switch: with the cache disabled every MTTKRP recontracts
    /// from the input tensor (the naive `O(N s^N R)`-per-sweep schedule).
    caching: bool,
}

impl DimTreeEngine {
    /// New engine for an order-`n_modes` tensor.
    pub fn new(policy: TreePolicy, n_modes: usize) -> Self {
        assert!(n_modes >= 2);
        DimTreeEngine {
            policy,
            n_modes,
            cache: InterCache::new(),
            stats: KernelStats::default(),
            caching: true,
        }
    }

    /// Disable intermediate caching (ablation baseline).
    pub fn with_caching_disabled(mut self) -> Self {
        self.caching = false;
        self
    }

    /// The configured policy.
    pub fn policy(&self) -> TreePolicy {
        self.policy
    }

    /// Cached auxiliary memory in f64 elements (Table I column 3).
    pub fn cache_memory_elems(&self) -> usize {
        self.cache.memory_elems()
    }

    /// Access the shared intermediate cache (the PP tree reuses it).
    pub fn cache_mut(&mut self) -> &mut InterCache {
        &mut self.cache
    }

    /// Read-only view of the intermediate cache (checkpoint serialization).
    pub fn cache(&self) -> &InterCache {
        &self.cache
    }

    /// Drop all cached intermediates.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Take and reset the kernel statistics.
    pub fn take_stats(&mut self) -> KernelStats {
        std::mem::take(&mut self.stats)
    }

    /// Compute `M^(n) = T_(n) · ⨀_{j≠n} A^(j)` for mode `n` using the
    /// configured tree policy. Factors are read at their current versions,
    /// so calling this in sweep order reproduces exact ALS.
    pub fn mttkrp(&mut self, input: &mut InputTensor, fs: &FactorState, n: usize) -> Matrix {
        assert_eq!(fs.order(), self.n_modes);
        assert!(n < self.n_modes);
        // Direct-CSF fast path: one sparse MTTKRP replaces the whole
        // contraction chain — flops scale with nnz, not the dense volume,
        // and there are no intermediates worth caching (the cache stays
        // empty, so `cache_memory_elems` reports 0). Chain-planned sparse
        // inputs (`csf` absent) fall through to the dimension tree below,
        // whose contractions produce semi-sparse intermediates — the input
        // is never densified.
        if let Some(sp) = input.sparse() {
            if let Some(csf) = &sp.csf {
                let s0 = pp_tensor::sparse::thread_sparse_counters();
                let t0 = Instant::now();
                let m = pp_tensor::sparse::sparse_mttkrp(csf, fs.factors(), n);
                let delta = pp_tensor::sparse::thread_sparse_counters().since(&s0);
                self.stats.record(Kernel::Ttm, t0.elapsed(), delta.flops);
                self.stats.add_sparse_delta(&delta);
                return m;
            }
        }
        let inter = self.obtain(input, fs, n);
        debug_assert_eq!(inter.mode_order, vec![n]);
        match &inter.payload {
            Payload::Dense(t) => {
                let rows = t.dim(0);
                let r = t.dim(1);
                Matrix::from_vec(rows, r, t.data().to_vec())
            }
            // Scatter the surviving rows; rows with no nonzeros are exact
            // +0.0 in the dense chain too, so this is bit-identical.
            Payload::SemiSparse(ss) => ss.to_matrix(input.dim(n)),
        }
    }

    /// Walk the contraction chain down to `{n}`.
    fn obtain(&mut self, input: &mut InputTensor, fs: &FactorState, n: usize) -> Intermediate {
        match self.policy {
            TreePolicy::Standard => self.obtain_standard(input, fs, n),
            TreePolicy::MultiSweep => self.obtain_msdt(input, fs, n),
        }
    }

    /// First-level TTM contracting mode `k` against the input tensor.
    fn first_level(&mut self, input: &mut InputTensor, fs: &FactorState, k: usize) -> Intermediate {
        let g0 = pp_tensor::gemm::thread_gemm_counters();
        let s0 = thread_ss_counters();
        let fl = input.contract_mode(k, fs.factor(k));
        self.stats
            .add_gemm_delta(&pp_tensor::gemm::thread_gemm_counters().since(&g0));
        self.stats.add_ss_delta(&thread_ss_counters().since(&s0));
        if fl.transpose_words > 0 {
            self.stats.record(Kernel::Transpose, fl.transpose_time, 0);
        }
        self.stats.record(Kernel::Ttm, fl.ttm_time, fl.flops);
        let inter = Intermediate {
            payload: fl.payload,
            mode_order: fl.mode_order,
            versions: fs.versions().to_vec(),
        };
        if self.caching {
            self.cache.insert(inter.clone());
        }
        inter
    }

    /// Streaming arrival along original mode `e`: refresh the intermediate
    /// cache after the input tensor grew by `slice` (canonical layout).
    ///
    /// Preconditions: the caller has already grown `input`
    /// ([`InputTensor::extend_mode`]) and extended + version-bumped mode
    /// `e`'s factor in `fs`.
    ///
    /// First-level entries whose mode set *contains* `e` and whose
    /// contracted-away factors are still current are the reusable ones:
    /// `e`'s version bump does not invalidate them (member modes are
    /// ignored by the validity rule) but their extent along `e` is stale.
    /// Under [`CacheUpdate::Incremental`] each such entry is delta-extended
    /// by contracting only `slice` (through a layout-mirrored input, so
    /// the plan — and hence the result's mode order and per-row arithmetic
    /// — matches the full contraction exactly) and appending along `e`;
    /// under [`CacheUpdate::Recompute`] it is recontracted whole from the
    /// grown tensor. Both paths record the same versions a fresh
    /// contraction would, so the two modes leave bitwise-identical caches
    /// — that equality is the streaming correctness contract. Every other
    /// entry containing `e` (lower tree levels with a stale extent) is
    /// evicted, and entries not containing `e` are invalid via the version
    /// bump and swept out.
    pub fn extend_mode(
        &mut self,
        input: &mut InputTensor,
        fs: &FactorState,
        e: usize,
        slice: &DenseTensor,
        update: CacheUpdate,
    ) {
        assert!(e < self.n_modes);
        let versions = fs.versions().to_vec();
        let full = ModeSet::full(self.n_modes);
        let mut extendable: Vec<ModeSet> = Vec::new();
        let mut drop_keys: Vec<ModeSet> = Vec::new();
        for inter in self.cache.entries_sorted() {
            let set = inter.set();
            if !set.contains(e) {
                continue;
            }
            if set.len() == self.n_modes - 1
                && inter.valid_for(&versions)
                && !inter.payload.is_semisparse()
            {
                extendable.push(set);
            } else {
                drop_keys.push(set);
            }
        }
        for set in drop_keys {
            self.cache.remove(set);
        }
        let mut slice_input = match update {
            CacheUpdate::Incremental if !extendable.is_empty() => Some(input.slice_like(slice)),
            _ => None,
        };
        for set in extendable {
            let k = full.minus(set).min().expect("one contracted mode");
            let inter = match (&mut slice_input, update) {
                (Some(si), CacheUpdate::Incremental) => {
                    let old = self.cache.remove(set).expect("extendable entry present");
                    let g0 = pp_tensor::gemm::thread_gemm_counters();
                    let fl = si.contract_mode(k, fs.factor(k));
                    self.stats
                        .add_gemm_delta(&pp_tensor::gemm::thread_gemm_counters().since(&g0));
                    self.stats.record(Kernel::Ttm, fl.ttm_time, fl.flops);
                    debug_assert_eq!(old.mode_order, fl.mode_order);
                    let pos = old.position_of(e);
                    let merged = old.dense().concat_along(fl.payload.dense(), pos);
                    Intermediate {
                        payload: Payload::Dense(Arc::new(merged)),
                        mode_order: fl.mode_order,
                        versions: versions.clone(),
                    }
                }
                _ => {
                    self.cache.remove(set);
                    let g0 = pp_tensor::gemm::thread_gemm_counters();
                    let fl = input.contract_mode(k, fs.factor(k));
                    self.stats
                        .add_gemm_delta(&pp_tensor::gemm::thread_gemm_counters().since(&g0));
                    if fl.transpose_words > 0 {
                        self.stats.record(Kernel::Transpose, fl.transpose_time, 0);
                    }
                    self.stats.record(Kernel::Ttm, fl.ttm_time, fl.flops);
                    Intermediate {
                        payload: fl.payload,
                        mode_order: fl.mode_order,
                        versions: versions.clone(),
                    }
                }
            };
            if self.caching {
                self.cache.insert(inter);
            }
        }
        self.cache.evict_stale(&versions);
    }

    /// One batched-TTV step: contract mode `j` out of `current`.
    fn step(
        &mut self,
        current: Intermediate,
        fs: &FactorState,
        j: usize,
        cache_it: bool,
    ) -> Intermediate {
        let pos = current.position_of(j);
        let payload = match &current.payload {
            Payload::Dense(t) => {
                let t0 = Instant::now();
                let out = mttv(t, pos, fs.factor(j));
                self.stats.record(Kernel::Mttv, t0.elapsed(), out.flops);
                Payload::Dense(Arc::new(out.tensor))
            }
            Payload::SemiSparse(ss) => {
                let s0 = thread_ss_counters();
                let t0 = Instant::now();
                let out = ss_mttv(ss, pos, fs.factor(j));
                let elapsed = t0.elapsed();
                let d = thread_ss_counters().since(&s0);
                self.stats.record(Kernel::Mttv, elapsed, d.ttv_flops);
                self.stats.add_ss_delta(&d);
                Payload::SemiSparse(Arc::new(out))
            }
        };
        let mut mode_order = current.mode_order.clone();
        mode_order.remove(pos);
        let mut versions = current.versions;
        versions[j] = fs.version(j);
        let next = Intermediate {
            payload,
            mode_order,
            versions,
        };
        if self.caching && cache_it {
            self.cache.insert(next.clone());
        }
        next
    }

    /// Canonical binary-tree walk (Fig. 1a).
    fn obtain_standard(
        &mut self,
        input: &mut InputTensor,
        fs: &FactorState,
        n: usize,
    ) -> Intermediate {
        let target = ModeSet::single(n);
        let chain = standard_chain(self.n_modes, n);
        debug_assert_eq!(*chain.last().unwrap(), target);

        // Deepest chain node with a valid cached intermediate.
        let mut start_idx = None;
        if self.caching {
            for (i, &set) in chain.iter().enumerate().rev() {
                if self.cache.get_valid(set, fs.versions()).is_some() {
                    start_idx = Some(i);
                    break;
                }
            }
        }
        let mut current: Intermediate = match start_idx {
            Some(i) => {
                let cached = self
                    .cache
                    .get_valid(chain[i], fs.versions())
                    .unwrap()
                    .clone();
                if chain[i] == target {
                    return cached;
                }
                cached
            }
            None => {
                // The first chain node is one TTM below the full set.
                let k = ModeSet::full(self.n_modes).minus(chain[0]).min().unwrap();
                self.first_level(input, fs, k)
            }
        };
        let start_pos = chain.iter().position(|&s| s == current.set()).unwrap();
        for &next in &chain[start_pos + 1..] {
            let j = current.set().minus(next).min().expect("one mode per step");
            current = self.step(current, fs, j, next != target);
        }
        current
    }

    /// MSDT greedy walk (Fig. 2): start from the smallest valid cached
    /// superset of `{n}` (whatever subtree produced it), else from a fresh
    /// first-level TTM contracting mode `n−1 (mod N)`; then repeatedly
    /// contract the member whose update lies farthest in the future.
    fn obtain_msdt(&mut self, input: &mut InputTensor, fs: &FactorState, n: usize) -> Intermediate {
        let target = ModeSet::single(n);
        let cached: Option<Intermediate> = if self.caching {
            self.cache.best_superset(target, fs.versions()).cloned()
        } else {
            None
        };
        let mut current = match cached {
            Some(c) => {
                if c.set() == target {
                    return c;
                }
                c
            }
            None => {
                let k = (n + self.n_modes - 1) % self.n_modes;
                self.first_level(input, fs, k)
            }
        };
        while current.set().len() > 1 {
            let j = current
                .set()
                .iter()
                .filter(|&j| j != n)
                .max_by_key(|&j| (j + self.n_modes - n) % self.n_modes)
                .expect("non-target mode must exist");
            let will_be_leaf = current.set().len() == 2;
            current = self.step(current, fs, j, !will_be_leaf);
        }
        current
    }
}

/// Canonical binary dimension-tree chain (Fig. 1a): the sequence of mode
/// sets from the first level down to `{n}`, each step removing one mode.
pub fn standard_chain(n_modes: usize, n: usize) -> Vec<ModeSet> {
    let mut chain = Vec::new();
    let mut lo = 0usize;
    let mut hi = n_modes;
    let mut set = ModeSet::full(n_modes);
    while hi - lo > 1 {
        let mid = lo + (hi - lo).div_ceil(2);
        if n < mid {
            // Contract away modes hi-1 down to mid.
            for m in (mid..hi).rev() {
                set = set.without(m);
                chain.push(set);
            }
            hi = mid;
        } else {
            // Contract away modes lo up to mid-1.
            for m in lo..mid {
                set = set.without(m);
                chain.push(set);
            }
            lo = mid;
        }
    }
    debug_assert_eq!(*chain.last().unwrap(), ModeSet::single(n));
    chain
}

/// MSDT greedy chain: repeatedly remove the mode whose factor will be
/// updated *farthest in the future* (max cyclic distance ahead of `n`), so
/// every prefix of the chain stays valid as long as possible. From the full
/// set this removes mode `n−1 (mod N)` first — the subtree roots of Fig. 2.
pub fn greedy_chain(n_modes: usize, n: usize) -> Vec<ModeSet> {
    let mut chain = Vec::new();
    let mut set = ModeSet::full(n_modes);
    while set.len() > 1 {
        let j = set
            .iter()
            .filter(|&j| j != n)
            .max_by_key(|&j| (j + n_modes - n) % n_modes)
            .unwrap();
        set = set.without(j);
        chain.push(set);
    }
    debug_assert_eq!(*chain.last().unwrap(), ModeSet::single(n));
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_tensor::kernels::naive::mttkrp as naive_mttkrp;
    use pp_tensor::rng::{seeded, uniform_matrix, uniform_tensor};
    use pp_tensor::DenseTensor;

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, FactorState) {
        let mut rng = seeded(seed);
        let t = uniform_tensor(dims, &mut rng);
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect();
        (t, FactorState::new(factors))
    }

    #[test]
    fn standard_chain_matches_fig1a() {
        // N=4, 0-based. M^(0): {0,1,2} → {0,1} → {0}.
        let sets: Vec<Vec<usize>> = standard_chain(4, 0)
            .iter()
            .map(|s| s.iter().collect())
            .collect();
        assert_eq!(sets, vec![vec![0, 1, 2], vec![0, 1], vec![0]]);
        // M^(2): {1,2,3} → {2,3} → {2}.
        let sets: Vec<Vec<usize>> = standard_chain(4, 2)
            .iter()
            .map(|s| s.iter().collect())
            .collect();
        assert_eq!(sets, vec![vec![1, 2, 3], vec![2, 3], vec![2]]);
    }

    #[test]
    fn greedy_chain_contracts_previous_mode_first() {
        // For n, the first removal is n-1 (mod N).
        for n_modes in [3usize, 4, 5] {
            for n in 0..n_modes {
                let chain = greedy_chain(n_modes, n);
                let first = chain[0];
                let removed = ModeSet::full(n_modes).minus(first).min().unwrap();
                assert_eq!(removed, (n + n_modes - 1) % n_modes, "N={n_modes}, n={n}");
            }
        }
    }

    /// Run one full ALS-style sweep of MTTKRPs (updating factors as we go)
    /// and compare every M^(n) against the naive oracle.
    fn sweep_matches_oracle(policy: TreePolicy, dims: &[usize], r: usize) {
        let (t, mut fs) = setup(dims, r, 42);
        let mut input = match policy {
            TreePolicy::Standard => InputTensor::new(t.clone()),
            TreePolicy::MultiSweep => InputTensor::with_msdt_copies(t.clone()),
        };
        let mut engine = DimTreeEngine::new(policy, dims.len());
        let mut rng = seeded(7);
        for _sweep in 0..3 {
            for (n, &dim) in dims.iter().enumerate() {
                let got = engine.mttkrp(&mut input, &fs, n);
                let want = naive_mttkrp(&t, fs.factors(), n);
                assert!(
                    got.max_abs_diff(&want) < 1e-9,
                    "{policy:?} mode {n} mismatch"
                );
                // Update the factor like ALS would (here: random update).
                fs.update(n, uniform_matrix(dim, r, &mut rng));
            }
        }
    }

    #[test]
    fn standard_sweeps_match_oracle_order3() {
        sweep_matches_oracle(TreePolicy::Standard, &[5, 6, 4], 3);
    }

    #[test]
    fn standard_sweeps_match_oracle_order4() {
        sweep_matches_oracle(TreePolicy::Standard, &[4, 3, 5, 3], 2);
    }

    #[test]
    fn msdt_sweeps_match_oracle_order3() {
        sweep_matches_oracle(TreePolicy::MultiSweep, &[5, 6, 4], 3);
    }

    #[test]
    fn msdt_sweeps_match_oracle_order4() {
        sweep_matches_oracle(TreePolicy::MultiSweep, &[4, 3, 5, 3], 2);
    }

    #[test]
    fn msdt_sweeps_match_oracle_order5() {
        sweep_matches_oracle(TreePolicy::MultiSweep, &[3, 3, 3, 3, 3], 2);
    }

    /// Count first-level TTMs per sweep in steady state: DT does 2, MSDT
    /// does N/(N-1) on average.
    fn ttm_counts(policy: TreePolicy, n_modes: usize, sweeps: usize) -> u64 {
        let dims = vec![6; n_modes];
        let (t, mut fs) = setup(&dims, 2, 3);
        let mut input = match policy {
            TreePolicy::Standard => InputTensor::new(t),
            TreePolicy::MultiSweep => InputTensor::with_msdt_copies(t),
        };
        let mut engine = DimTreeEngine::new(policy, n_modes);
        let mut rng = seeded(11);
        // Warm up one sweep, then count.
        for n in 0..n_modes {
            let m = engine.mttkrp(&mut input, &fs, n);
            let _ = m;
            fs.update(n, uniform_matrix(6, 2, &mut rng));
        }
        engine.take_stats();
        for _ in 0..sweeps {
            for n in 0..n_modes {
                let _ = engine.mttkrp(&mut input, &fs, n);
                fs.update(n, uniform_matrix(6, 2, &mut rng));
            }
        }
        engine.take_stats().ttm_count
    }

    #[test]
    fn dt_does_two_ttms_per_sweep() {
        assert_eq!(ttm_counts(TreePolicy::Standard, 3, 4), 8);
        assert_eq!(ttm_counts(TreePolicy::Standard, 4, 3), 6);
    }

    #[test]
    fn msdt_does_n_ttms_per_n_minus_1_sweeps() {
        // N=3: 3 TTMs per 2 sweeps → 6 in 4 sweeps.
        assert_eq!(ttm_counts(TreePolicy::MultiSweep, 3, 4), 6);
        // N=4: 4 TTMs per 3 sweeps → 4 in 3 sweeps.
        assert_eq!(ttm_counts(TreePolicy::MultiSweep, 4, 3), 4);
    }

    #[test]
    fn msdt_avoids_transposes_with_copies() {
        let dims = vec![5, 5, 5, 5];
        let (t, mut fs) = setup(&dims, 2, 9);
        let mut input = InputTensor::with_msdt_copies(t);
        let mut engine = DimTreeEngine::new(TreePolicy::MultiSweep, 4);
        let mut rng = seeded(13);
        for _ in 0..4 {
            for n in 0..4 {
                let _ = engine.mttkrp(&mut input, &fs, n);
                fs.update(n, uniform_matrix(5, 2, &mut rng));
            }
        }
        assert_eq!(engine.take_stats().transpose_count, 0);
    }

    #[test]
    fn caching_disabled_still_correct() {
        let dims = [4, 5, 3];
        let (t, fs) = setup(&dims, 2, 21);
        let mut input = InputTensor::new(t.clone());
        let mut engine = DimTreeEngine::new(TreePolicy::Standard, 3).with_caching_disabled();
        for n in 0..3 {
            let got = engine.mttkrp(&mut input, &fs, n);
            let want = naive_mttkrp(&t, fs.factors(), n);
            assert!(got.max_abs_diff(&want) < 1e-10);
        }
        assert_eq!(engine.cache_memory_elems(), 0);
    }

    #[test]
    fn sparse_input_routes_through_csf_kernel() {
        use pp_tensor::kernels::naive::mttkrp_pointwise;
        use pp_tensor::sparse::SparseTensor;
        use rand::Rng;
        let dims = [7usize, 5, 6];
        let mut rng = seeded(41);
        let mut inds = Vec::new();
        let mut vals = Vec::new();
        for _ in 0..35 {
            for &d in &dims {
                inds.push(rng.random_range(0..d));
            }
            vals.push(rng.random::<f64>() - 0.5);
        }
        let sp = SparseTensor::from_coo(dims.to_vec(), inds, vals);
        let dense = sp.to_dense();
        let mut input = InputTensor::new_sparse(sp);
        assert!(input.is_sparse());
        let mut fs = {
            let factors: Vec<Matrix> = dims
                .iter()
                .map(|&d| uniform_matrix(d, 3, &mut rng))
                .collect();
            FactorState::new(factors)
        };
        let mut engine = DimTreeEngine::new(TreePolicy::Standard, 3);
        for _sweep in 0..2 {
            for (n, &dim) in dims.iter().enumerate() {
                let got = engine.mttkrp(&mut input, &fs, n);
                let want = mttkrp_pointwise(&dense, fs.factors(), n);
                assert_eq!(got.data(), want.data(), "mode {n} not bitwise");
                fs.update(n, uniform_matrix(dim, 3, &mut rng));
            }
        }
        let s = engine.take_stats();
        assert_eq!(s.ttm_count, 6, "one CSF call per MTTKRP");
        assert_eq!(s.mttv_count, 0, "no dense tree levels on the sparse path");
        assert!(s.sparse_mttkrp_flops > 0);
        assert!(s.sparse_fibers_visited > 0);
        assert_eq!(s.ttm_flops, s.sparse_mttkrp_flops);
        assert_eq!(engine.cache_memory_elems(), 0, "sparse path caches nothing");
    }

    /// Streaming-extension contract: after the tensor grows along `e`,
    /// (a) the Incremental and Recompute cache refreshes leave bitwise-
    /// identical caches, and (b) subsequent MTTKRPs from the extended
    /// engine are bitwise identical to a cold engine on the full tensor.
    /// Sizes are chosen so every contraction (initial, slice, and full)
    /// clears the packed-GEMM threshold — the row-count-invariant path
    /// that makes slice-then-concat equal whole-tensor contraction.
    fn streaming_extension_matches(policy: TreePolicy, dims: &[usize], e: usize, r: usize) {
        let grow = 2usize;
        let (t_full, fs_full) = setup(dims, r, 55);
        let d_e = dims[e];
        let initial = t_full.slice_along(e, 0, d_e - grow);
        let slice = t_full.slice_along(e, d_e - grow, grow);
        let make_input = |t: &DenseTensor| match policy {
            TreePolicy::Standard => InputTensor::new(t.clone()),
            TreePolicy::MultiSweep => InputTensor::with_msdt_copies(t.clone()),
        };
        // Factors: the evolving mode starts with the first d_e-grow rows of
        // the full factor and is extended with the last rows, so both arms
        // end at the exact same factor values as the cold full-tensor run.
        let full_e = fs_full.factor(e);
        let initial_e = Matrix::from_fn(d_e - grow, r, |i, j| full_e.get(i, j));
        let extra_e = Matrix::from_fn(grow, r, |i, j| full_e.get(d_e - grow + i, j));
        let make_fs = || {
            let factors: Vec<Matrix> = (0..dims.len())
                .map(|n| {
                    if n == e {
                        initial_e.clone()
                    } else {
                        fs_full.factor(n).clone()
                    }
                })
                .collect();
            FactorState::new(factors)
        };

        let mut arms = Vec::new();
        for update in [CacheUpdate::Incremental, CacheUpdate::Recompute] {
            let mut input = make_input(&initial);
            let mut fs = make_fs();
            let mut engine = DimTreeEngine::new(policy, dims.len());
            // Warm sweep on the small tensor populates the cache.
            for n in 0..dims.len() {
                let _ = engine.mttkrp(&mut input, &fs, n);
            }
            assert!(!engine.cache().is_empty(), "warm sweep must cache");
            // Entries that must survive: valid first-level sets containing
            // `e` (all entries are valid here — no factor was updated).
            let expect_keep = engine
                .cache()
                .entries_sorted()
                .iter()
                .filter(|i| i.set().contains(e) && i.set().len() == dims.len() - 1)
                .count();
            input.extend_mode(e, &slice);
            fs.extend_rows(e, &extra_e);
            engine.extend_mode(&mut input, &fs, e, &slice, update);
            assert_eq!(
                engine.cache().len(),
                expect_keep,
                "{policy:?} e={e}: exactly the first-level entries containing e survive"
            );
            arms.push((input, fs, engine));
        }

        // (a) Both arms leave bitwise-identical caches.
        {
            let (a, b) = (&arms[0].2, &arms[1].2);
            let ea = a.cache().entries_sorted();
            let eb = b.cache().entries_sorted();
            assert_eq!(ea.len(), eb.len(), "cache key sets differ");
            for (x, y) in ea.iter().zip(eb.iter()) {
                assert_eq!(x.set(), y.set());
                assert_eq!(x.mode_order, y.mode_order);
                assert_eq!(x.versions, y.versions);
                assert_eq!(
                    x.dense().data(),
                    y.dense().data(),
                    "{policy:?} e={e}: incremental payload != recompute payload"
                );
            }
        }

        // (b) MTTKRPs after extension: both arms run the same schedule, so
        // incremental must match the recompute oracle bitwise — and both
        // must match the naive MTTKRP on the full tensor numerically.
        // (A *cold* engine is not a bitwise reference: it lacks the cache
        // history, so MSDT picks different — mathematically equal —
        // contraction chains.)
        let (inc, rec) = arms.split_at_mut(1);
        let (inc_input, inc_fs, inc_engine) = &mut inc[0];
        let (rec_input, rec_fs, rec_engine) = &mut rec[0];
        assert_eq!(inc_fs.factor(e).data(), fs_full.factor(e).data());
        for n in 0..dims.len() {
            let got = inc_engine.mttkrp(inc_input, inc_fs, n);
            let oracle = rec_engine.mttkrp(rec_input, rec_fs, n);
            assert_eq!(
                got.data(),
                oracle.data(),
                "{policy:?} e={e} mode {n}: incremental != recompute oracle"
            );
            let naive = naive_mttkrp(&t_full, fs_full.factors(), n);
            assert!(
                got.max_abs_diff(&naive) < 1e-9,
                "{policy:?} e={e} mode {n}: extended engine wrong vs naive"
            );
        }
    }

    #[test]
    fn streaming_extension_standard_order3() {
        for e in 0..3 {
            streaming_extension_matches(TreePolicy::Standard, &[12, 10, 8], e, 8);
        }
    }

    #[test]
    fn streaming_extension_msdt_order3() {
        for e in 0..3 {
            streaming_extension_matches(TreePolicy::MultiSweep, &[12, 10, 8], e, 8);
        }
    }

    #[test]
    fn streaming_extension_standard_order4() {
        for e in 0..4 {
            streaming_extension_matches(TreePolicy::Standard, &[8, 6, 5, 4], e, 8);
        }
    }

    #[test]
    fn streaming_extension_msdt_order4() {
        for e in 0..4 {
            streaming_extension_matches(TreePolicy::MultiSweep, &[8, 6, 5, 4], e, 8);
        }
    }

    #[test]
    fn dt_and_msdt_agree_exactly() {
        // The headline MSDT claim: identical results to DT.
        let dims = [5, 4, 6];
        let (t, fs0) = setup(&dims, 3, 33);
        let mut fs1 = fs0.clone();
        let mut fs2 = fs0.clone();
        let mut in1 = InputTensor::new(t.clone());
        let mut in2 = InputTensor::with_msdt_copies(t);
        let mut e1 = DimTreeEngine::new(TreePolicy::Standard, 3);
        let mut e2 = DimTreeEngine::new(TreePolicy::MultiSweep, 3);
        let mut rng = seeded(5);
        for _ in 0..3 {
            for (n, &dim) in dims.iter().enumerate() {
                let m1 = e1.mttkrp(&mut in1, &fs1, n);
                let m2 = e2.mttkrp(&mut in2, &fs2, n);
                assert!(m1.max_abs_diff(&m2) < 1e-9, "mode {n}");
                let upd = uniform_matrix(dim, 3, &mut rng);
                fs1.update(n, upd.clone());
                fs2.update(n, upd);
            }
        }
    }
}
