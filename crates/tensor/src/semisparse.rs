//! Semi-sparse tensors: the result of a *partial* (TTM-style) contraction
//! of a sparse tensor, and the kernels that contract them further.
//!
//! Contracting one mode of a CSF/COO sparse tensor with an `s_k × R`
//! factor yields a tensor that is **dense along the rank mode** but keeps
//! the sparse fiber structure of the surviving modes: each surviving
//! coordinate tuple that had at least one nonzero under it carries an
//! R-wide dense value panel. This is exactly the first-level intermediate
//! `𝓜^(S)` of a dimension tree (Eq. 4) — which is how PP and MSDT run on
//! sparse inputs without densifying them (Phan et al.'s structure-
//! exploiting CP-gradient contractions, arXiv:1204.1586).
//!
//! # Bitwise parity with the dense oracle
//!
//! The kernels here are **bit-identical** to densifying the input and
//! running the dense kernels ([`crate::kernels::ttm`] /
//! [`crate::kernels::mttv`]) on the result, at any thread count:
//!
//! * [`csf_ttm`] mirrors the packed GEMM's accumulation discipline: the
//!   same size-based small-vs-packed dispatch (`m·n·k` against the dense
//!   work), the same KC-deep k-panel grouping with one local accumulator
//!   per panel and a `C += acc` epilogue, and fused multiply-adds exactly
//!   when the GEMM's SIMD clones would use them. Skipped structural zeros
//!   contribute `±0.0` products to accumulators that are never `-0.0`, so
//!   dropping them is an exact no-op (the same argument as
//!   [`crate::sparse`]).
//! * [`ss_mttv`] mirrors [`crate::kernels::mttv`]: per output element, one
//!   accumulator, contributions in ascending contracted-index order,
//!   `mul_add` exactly when `slab_axpy` would fuse.
//! * Both kernels partition *output entries* into contiguous blocks; each
//!   output panel is written by exactly one task in a fixed order, so
//!   results are bit-identical at any thread count (the packed GEMM's
//!   one-accumulator-per-element discipline).

use crate::dense::DenseTensor;
use crate::gemm::{panel_kc, small_work_limit};
use crate::matrix::Matrix;
use crate::shape::Shape;
use crate::simd::{simd_level, SimdLevel};
use crate::sparse::SparseTensor;
use rayon::prelude::*;
use std::cell::Cell;

/// A semi-sparse tensor: `E` unique surviving coordinate tuples
/// (lexicographically sorted in level order) each carrying an `R`-wide
/// dense value panel.
#[derive(Clone, Debug)]
pub struct SemiSparseTensor {
    /// Extents of the `L` surviving levels, in level order.
    dims: Vec<usize>,
    /// `E × L` flattened coordinate tuples, lexicographically sorted,
    /// unique.
    inds: Vec<u32>,
    /// `E × R` dense rank panels aligned with `inds`.
    panels: Vec<f64>,
    r: usize,
}

impl SemiSparseTensor {
    /// Assemble from parts (kernel-internal and checkpoint restore).
    pub fn from_parts(dims: Vec<usize>, inds: Vec<u32>, panels: Vec<f64>, r: usize) -> Self {
        assert!(r > 0, "rank must be positive");
        let l = dims.len();
        assert!(l >= 1, "semi-sparse tensors keep at least one level");
        assert_eq!(inds.len() % l, 0, "ragged index tuples");
        let e = inds.len() / l;
        assert_eq!(panels.len(), e * r, "panel buffer length mismatch");
        SemiSparseTensor {
            dims,
            inds,
            panels,
            r,
        }
    }

    /// Number of surviving (sparse) levels.
    pub fn levels(&self) -> usize {
        self.dims.len()
    }

    /// Extents of the surviving levels, in level order.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extent of level `l`.
    pub fn dim(&self, l: usize) -> usize {
        self.dims[l]
    }

    /// The dense rank extent `R`.
    pub fn rank(&self) -> usize {
        self.r
    }

    /// Number of stored coordinate tuples (each owns an `R` panel).
    pub fn n_entries(&self) -> usize {
        if self.dims.is_empty() {
            0
        } else {
            self.inds.len() / self.dims.len()
        }
    }

    /// Flattened sorted coordinate tuples (`E × L`).
    pub fn inds(&self) -> &[u32] {
        &self.inds
    }

    /// Coordinate tuple of entry `e`.
    pub fn idx(&self, e: usize) -> &[u32] {
        let l = self.dims.len();
        &self.inds[e * l..(e + 1) * l]
    }

    /// All value panels (`E × R`, row-major).
    pub fn panels(&self) -> &[f64] {
        &self.panels
    }

    /// Value panel of entry `e`.
    pub fn panel(&self, e: usize) -> &[f64] {
        &self.panels[e * self.r..(e + 1) * self.r]
    }

    /// Memory footprint in f64-equivalent words (index words counted at
    /// their true size) — the admission-control estimate.
    pub fn memory_words(&self) -> usize {
        (self.inds.len() * 4 + self.panels.len() * 8) / 8
    }

    /// Densify: scatter the panels into a `[dims..., R]` dense tensor
    /// (the oracle path for parity tests).
    pub fn to_dense(&self) -> DenseTensor {
        let mut dims = self.dims.clone();
        dims.push(self.r);
        let shape = Shape::new(dims);
        let strides = shape.strides();
        let mut t = DenseTensor::zeros(shape);
        let data = t.data_mut();
        for e in 0..self.n_entries() {
            let base: usize = self
                .idx(e)
                .iter()
                .zip(strides.iter())
                .map(|(&i, &s)| i as usize * s)
                .sum();
            data[base..base + self.r].copy_from_slice(self.panel(e));
        }
        t
    }

    /// Scatter a single-level semi-sparse tensor into a dense `rows × R`
    /// matrix — the final dimension-tree step producing an MTTKRP result.
    pub fn to_matrix(&self, rows: usize) -> Matrix {
        assert_eq!(
            self.levels(),
            1,
            "to_matrix needs a fully contracted (single-level) tensor"
        );
        assert!(rows >= self.dims[0] || self.n_entries() == 0);
        let mut out = Matrix::zeros(rows, self.r);
        let data = out.data_mut();
        for e in 0..self.n_entries() {
            let row = self.inds[e] as usize;
            data[row * self.r..(row + 1) * self.r].copy_from_slice(self.panel(e));
        }
        out
    }
}

/// Precomputed contraction plan for one mode of a sorted-COO sparse
/// tensor: the surviving output tuples plus a grouped permutation of the
/// input entries, so [`csf_ttm`] executes in `O(nnz · R)` from shared
/// references.
pub struct TtmPlan {
    /// The contracted mode.
    mode: usize,
    /// Extents of the surviving modes, ascending original-mode order.
    out_dims: Vec<usize>,
    /// `E_out × (order-1)` surviving tuples, lexicographically sorted.
    out_inds: Vec<u32>,
    /// `ptr[e]..ptr[e+1]` = the entries feeding output tuple `e`.
    ptr: Vec<usize>,
    /// Permutation of input entry ids, grouped by output tuple; within a
    /// group the contracted coordinate is ascending (the dense GEMM's
    /// k-loop order).
    perm: Vec<u32>,
    /// Rows of the dense matricized view (`volume / s_mode`) — the `m` of
    /// the GEMM whose accumulation order this plan mirrors.
    dense_rows: usize,
    /// Extent of the contracted mode (the GEMM's `k`).
    k_dim: usize,
}

impl TtmPlan {
    /// Build the plan for contracting `mode` of `sp`. One stable sort by
    /// surviving tuple: ties (equal surviving tuples) keep the canonical
    /// COO order, which for a fixed surviving tuple is ascending in the
    /// contracted coordinate.
    pub fn build(sp: &SparseTensor, mode: usize) -> Self {
        let order = sp.order();
        assert!(mode < order, "mode {mode} out of range for order {order}");
        assert!(order >= 2);
        let nnz = sp.nnz();
        let sub_modes: Vec<usize> = (0..order).filter(|&m| m != mode).collect();
        let mut perm: Vec<u32> = (0..nnz as u32).collect();
        let key = |e: u32| -> &[u32] { sp.idx(e as usize) };
        perm.sort_by(|&a, &b| {
            let (ta, tb) = (key(a), key(b));
            for &m in &sub_modes {
                match ta[m].cmp(&tb[m]) {
                    std::cmp::Ordering::Equal => {}
                    o => return o,
                }
            }
            std::cmp::Ordering::Equal
        });
        let mut out_inds: Vec<u32> = Vec::new();
        let mut ptr: Vec<usize> = vec![0];
        for (pos, &e) in perm.iter().enumerate() {
            let tuple = sp.idx(e as usize);
            let fresh = pos == 0 || {
                let prev = sp.idx(perm[pos - 1] as usize);
                sub_modes.iter().any(|&m| tuple[m] != prev[m])
            };
            if fresh {
                if pos > 0 {
                    ptr.push(pos);
                }
                out_inds.extend(sub_modes.iter().map(|&m| tuple[m]));
            }
        }
        ptr.push(nnz);
        if nnz == 0 {
            ptr = vec![0];
        }
        let out_dims: Vec<usize> = sub_modes.iter().map(|&m| sp.dim(m)).collect();
        let dense_rows: usize = out_dims.iter().product();
        TtmPlan {
            mode,
            out_dims,
            out_inds,
            ptr,
            perm,
            dense_rows,
            k_dim: sp.dim(mode),
        }
    }

    /// The contracted mode.
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Output tuples this plan produces.
    pub fn n_out(&self) -> usize {
        self.ptr.len().saturating_sub(1)
    }

    /// Plan memory in f64-equivalent words.
    pub fn memory_words(&self) -> usize {
        ((self.out_inds.len() + self.perm.len()) * 4 + self.ptr.len() * 8) / 8
    }
}

/// Per-thread semi-sparse kernel counters, sampled around engine calls
/// exactly like [`crate::sparse::SparseCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SsCounters {
    /// [`csf_ttm`] invocations.
    pub ttm_calls: u64,
    /// Useful TTM flops: `2 · nnz · R` per call.
    pub ttm_flops: u64,
    /// [`ss_mttv`] invocations.
    pub ttv_calls: u64,
    /// Useful mTTV flops: `2 · E_in · R` per call.
    pub ttv_flops: u64,
    /// Input entries (sparse fibers) visited across all calls.
    pub entries_visited: u64,
}

impl SsCounters {
    const ZERO: SsCounters = SsCounters {
        ttm_calls: 0,
        ttm_flops: 0,
        ttv_calls: 0,
        ttv_flops: 0,
        entries_visited: 0,
    };

    /// Delta between two snapshots of the same thread's counters.
    pub fn since(&self, earlier: &SsCounters) -> SsCounters {
        SsCounters {
            ttm_calls: self.ttm_calls - earlier.ttm_calls,
            ttm_flops: self.ttm_flops - earlier.ttm_flops,
            ttv_calls: self.ttv_calls - earlier.ttv_calls,
            ttv_flops: self.ttv_flops - earlier.ttv_flops,
            entries_visited: self.entries_visited - earlier.entries_visited,
        }
    }
}

thread_local! {
    static SS_COUNTERS: Cell<SsCounters> = const { Cell::new(SsCounters::ZERO) };
}

/// Snapshot the calling thread's semi-sparse counters.
pub fn thread_ss_counters() -> SsCounters {
    SS_COUNTERS.with(|c| c.get())
}

fn bump_ttm(flops: u64, entries: u64) {
    SS_COUNTERS.with(|c| {
        let mut v = c.get();
        v.ttm_calls += 1;
        v.ttm_flops += flops;
        v.entries_visited += entries;
        c.set(v);
    });
}

fn bump_ttv(flops: u64, entries: u64) {
    SS_COUNTERS.with(|c| {
        let mut v = c.get();
        v.ttv_calls += 1;
        v.ttv_flops += flops;
        v.entries_visited += entries;
        c.set(v);
    });
}

/// Entry-block oversubscription for the parallel output partition (same
/// policy as the sparse MTTKRP's row blocks).
const ENTRY_BLOCK_OVERSUB: usize = 4;

/// Work threshold (in `contributions · R` units) below which the kernels
/// stay serial.
const PAR_THRESHOLD: usize = 1 << 14;

/// Semi-sparse TTM: contract `plan.mode()` of `sp` with `factor`
/// (`s_mode × R`), producing the first-level semi-sparse intermediate.
///
/// Bit-identical to densifying `sp` and running the dense TTM
/// ([`crate::kernels::ttm::ttm_last`] on the mode-last permutation, or
/// equivalently any `gemm_slice` matricization) at any thread count: the
/// accumulation below replays the packed GEMM's per-element operation
/// sequence — small-serial plain multiply-adds under the same `m·n·k`
/// threshold, otherwise KC-panel-local accumulators (fused iff the GEMM's
/// SIMD clones fuse) flushed with one `+=` per panel — and skipped
/// structural zeros are exact no-ops (module docs).
pub fn csf_ttm(sp: &SparseTensor, plan: &TtmPlan, factor: &Matrix) -> SemiSparseTensor {
    let order = sp.order();
    assert!(order >= 2);
    assert_eq!(factor.rows(), plan.k_dim, "factor rows");
    assert_eq!(sp.dim(plan.mode), plan.k_dim, "plan/tensor mismatch");
    let r = factor.cols();
    let e_out = plan.n_out();
    let mut panels = vec![0.0f64; e_out * r];

    // The dense dispatch this call mirrors: m·n·k of the matricized GEMM.
    let small = plan.dense_rows * r * plan.k_dim < small_work_limit();
    let fused = simd_level() != SimdLevel::Scalar;
    let kc = panel_kc();
    let fac = factor.data();
    let vals = sp.vals();
    let mode = plan.mode;

    let body = |e0: usize, out: &mut [f64]| {
        let mut acc = vec![0.0f64; r];
        for (local, out_panel) in out.chunks_exact_mut(r).enumerate() {
            let e = e0 + local;
            let group = &plan.perm[plan.ptr[e]..plan.ptr[e + 1]];
            if small {
                // small_serial: plain mul+add, contracted index ascending,
                // accumulated straight into C (α = 1 leaves values exact).
                for &p in group {
                    let ik = sp.idx(p as usize)[mode] as usize;
                    let v = vals[p as usize];
                    let fr = &fac[ik * r..(ik + 1) * r];
                    for rr in 0..r {
                        out_panel[rr] += v * fr[rr];
                    }
                }
            } else {
                // Packed path: per KC-deep k panel, a local accumulator
                // starting at 0.0, flushed into C once per panel — the
                // micro-kernel's `acc` + `C += α·acc` epilogue. Panels with
                // no nonzeros contribute exactly +0.0 and are skipped.
                let mut cur = usize::MAX;
                let mut open = false;
                for &p in group {
                    let ik = sp.idx(p as usize)[mode] as usize;
                    let panel = ik / kc;
                    if panel != cur {
                        if open {
                            for rr in 0..r {
                                out_panel[rr] += acc[rr];
                            }
                        }
                        acc.fill(0.0);
                        cur = panel;
                        open = true;
                    }
                    let v = vals[p as usize];
                    let fr = &fac[ik * r..(ik + 1) * r];
                    if fused {
                        for rr in 0..r {
                            acc[rr] = v.mul_add(fr[rr], acc[rr]);
                        }
                    } else {
                        for rr in 0..r {
                            acc[rr] += v * fr[rr];
                        }
                    }
                }
                if open {
                    for rr in 0..r {
                        out_panel[rr] += acc[rr];
                    }
                }
            }
        }
    };

    let threads = rayon::current_num_threads();
    if threads <= 1 || sp.nnz() * r < PAR_THRESHOLD || e_out == 0 {
        body(0, &mut panels);
    } else {
        let block = e_out.div_ceil(ENTRY_BLOCK_OVERSUB * threads).max(1);
        panels
            .par_chunks_mut(block * r)
            .enumerate()
            .for_each(|(b, chunk)| body(b * block, chunk));
    }

    bump_ttm(2 * sp.nnz() as u64 * r as u64, sp.nnz() as u64);
    SemiSparseTensor::from_parts(plan.out_dims.clone(), plan.out_inds.clone(), panels, r)
}

/// Semi-sparse mTTV: contract level `pos` of `ss` with `factor` (rows
/// matching that level's extent, columns matching the rank), producing a
/// semi-sparse tensor with one fewer level.
///
/// Bit-identical to densifying and running [`crate::kernels::mttv::mttv`]
/// at the same position: per output panel, contributions accumulate in
/// ascending contracted-coordinate order with `mul_add` exactly when
/// `slab_axpy` fuses.
pub fn ss_mttv(ss: &SemiSparseTensor, pos: usize, factor: &Matrix) -> SemiSparseTensor {
    let l = ss.levels();
    assert!(l >= 2, "contraction needs at least two surviving levels");
    assert!(pos < l, "pos {pos} out of range ({l} levels)");
    let r = ss.rank();
    assert_eq!(factor.cols(), r, "factor columns must equal rank extent");
    assert_eq!(
        factor.rows(),
        ss.dim(pos),
        "factor rows must match contracted extent"
    );
    let e_in = ss.n_entries();

    // Group input entries by reduced tuple. Entries are lexicographically
    // sorted, so contracting the *last* level needs no sort (groups are
    // contiguous runs); any other position takes one stable sort, which
    // keeps the contracted coordinate ascending within each group.
    let identity = pos == l - 1;
    let mut perm: Vec<u32> = (0..e_in as u32).collect();
    if !identity {
        perm.sort_by(|&a, &b| {
            let (ta, tb) = (ss.idx(a as usize), ss.idx(b as usize));
            for m in (0..l).filter(|&m| m != pos) {
                match ta[m].cmp(&tb[m]) {
                    std::cmp::Ordering::Equal => {}
                    o => return o,
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let mut out_inds: Vec<u32> = Vec::new();
    let mut ptr: Vec<usize> = vec![0];
    for (p, &e) in perm.iter().enumerate() {
        let tuple = ss.idx(e as usize);
        let fresh = p == 0 || {
            let prev = ss.idx(perm[p - 1] as usize);
            (0..l).filter(|&m| m != pos).any(|m| tuple[m] != prev[m])
        };
        if fresh {
            if p > 0 {
                ptr.push(p);
            }
            out_inds.extend((0..l).filter(|&m| m != pos).map(|m| tuple[m]));
        }
    }
    ptr.push(e_in);
    if e_in == 0 {
        ptr = vec![0];
    }
    let e_out = ptr.len() - 1;
    let out_dims: Vec<usize> = (0..l).filter(|&m| m != pos).map(|m| ss.dim(m)).collect();
    let mut panels = vec![0.0f64; e_out * r];

    let fused = simd_level() != SimdLevel::Scalar;
    let fac = factor.data();

    let body = |e0: usize, out: &mut [f64]| {
        for (local, out_panel) in out.chunks_exact_mut(r).enumerate() {
            let e = e0 + local;
            for &p in &perm[ptr[e]..ptr[e + 1]] {
                let y = ss.idx(p as usize)[pos] as usize;
                let in_panel = ss.panel(p as usize);
                let a_row = &fac[y * r..(y + 1) * r];
                // out[rr] += in[rr] · a[y, rr] — slab_axpy's element op.
                if fused {
                    for rr in 0..r {
                        out_panel[rr] = in_panel[rr].mul_add(a_row[rr], out_panel[rr]);
                    }
                } else {
                    for rr in 0..r {
                        out_panel[rr] += in_panel[rr] * a_row[rr];
                    }
                }
            }
        }
    };

    let threads = rayon::current_num_threads();
    if threads <= 1 || e_in * r < PAR_THRESHOLD || e_out == 0 {
        body(0, &mut panels);
    } else {
        let block = e_out.div_ceil(ENTRY_BLOCK_OVERSUB * threads).max(1);
        panels
            .par_chunks_mut(block * r)
            .enumerate()
            .for_each(|(b, chunk)| body(b * block, chunk));
    }

    bump_ttv(2 * e_in as u64 * r as u64, e_in as u64);
    SemiSparseTensor::from_parts(out_dims, out_inds, panels, r)
}

/// Full semi-sparse MTTKRP finish: contract every level of a first-level
/// intermediate except the target mode `n`, last position first (each step
/// then needs no regrouping sort), and scatter into the dense `s_n × R`
/// output.
///
/// `mode_order[l]` names the original tensor mode stored at level `l`.
/// Bit-identical to densifying `ss` and running the dense mTTV chain over
/// the same positions.
pub fn semisparse_mttkrp(
    ss: &SemiSparseTensor,
    mode_order: &[usize],
    factors: &[Matrix],
    n: usize,
) -> Matrix {
    assert_eq!(mode_order.len(), ss.levels(), "one mode per level");
    assert!(mode_order.contains(&n), "target mode must survive");
    let mut cur = ss.clone();
    let mut order: Vec<usize> = mode_order.to_vec();
    while cur.levels() > 1 {
        let pos = (0..order.len())
            .rev()
            .find(|&p| order[p] != n)
            .expect("a non-target level remains");
        cur = ss_mttv(&cur, pos, &factors[order[pos]]);
        order.remove(pos);
    }
    cur.to_matrix(factors[n].rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::mttv::mttv;
    use crate::kernels::ttm::ttm;
    use crate::rng::{seeded, uniform_matrix};
    use rand::Rng;

    fn random_sparse(dims: &[usize], nnz: usize, seed: u64) -> SparseTensor {
        let mut rng = seeded(seed);
        let order = dims.len();
        let mut inds = Vec::with_capacity(nnz * order);
        let mut vals = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            for &d in dims {
                inds.push(rng.random_range(0..d));
            }
            vals.push(rng.random::<f64>() * 2.0 - 1.0);
        }
        SparseTensor::from_coo(dims.to_vec(), inds, vals)
    }

    fn factors_for(dims: &[usize], r: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = seeded(seed);
        dims.iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect()
    }

    /// Dense TTM of `mode` with surviving modes kept in ascending order —
    /// the layout `csf_ttm` produces.
    fn dense_ttm_oracle(sp: &SparseTensor, mode: usize, factor: &Matrix) -> DenseTensor {
        ttm(&sp.to_dense(), mode, factor).tensor
    }

    #[test]
    fn csf_ttm_matches_dense_ttm_bitwise() {
        for (dims, nnz, seed) in [
            (vec![5, 6, 4], 25usize, 2u64),
            (vec![7, 3, 5], 60, 3),
            (vec![4, 4, 4, 4], 45, 4),
            (vec![16, 12, 10], 400, 5), // big enough for the packed path
        ] {
            let sp = random_sparse(&dims, nnz, seed);
            let factors = factors_for(&dims, 3, seed + 100);
            for (mode, factor) in factors.iter().enumerate() {
                let plan = TtmPlan::build(&sp, mode);
                let got = csf_ttm(&sp, &plan, factor).to_dense();
                let want = dense_ttm_oracle(&sp, mode, factor);
                assert_eq!(
                    got.data(),
                    want.data(),
                    "dims {dims:?} mode {mode} (nnz {})",
                    sp.nnz()
                );
            }
        }
    }

    #[test]
    fn ss_mttv_matches_dense_mttv_bitwise() {
        let dims = vec![6, 5, 4, 3];
        let sp = random_sparse(&dims, 70, 9);
        let factors = factors_for(&dims, 4, 10);
        let plan = TtmPlan::build(&sp, 3);
        let ss = csf_ttm(&sp, &plan, &factors[3]);
        let dense = ss.to_dense();
        // Surviving modes are 0,1,2 at levels 0,1,2.
        for (pos, factor) in factors.iter().enumerate().take(3) {
            let got = ss_mttv(&ss, pos, factor).to_dense();
            let want = mttv(&dense, pos, factor).tensor;
            assert_eq!(got.data(), want.data(), "pos {pos}");
        }
    }

    #[test]
    fn semisparse_mttkrp_matches_dense_chain_bitwise() {
        for (dims, nnz, seed) in [(vec![6, 5, 4], 40usize, 11u64), (vec![4, 5, 3, 4], 50, 12)] {
            let sp = random_sparse(&dims, nnz, seed);
            let order = dims.len();
            let factors = factors_for(&dims, 3, seed + 7);
            for n in 0..order {
                // First level: contract the mode the standard chain picks
                // last-position-first logic never touches — use any k ≠ n.
                let k = (0..order).rev().find(|&m| m != n).unwrap();
                let plan = TtmPlan::build(&sp, k);
                let ss = csf_ttm(&sp, &plan, &factors[k]);
                let mode_order: Vec<usize> = (0..order).filter(|&m| m != k).collect();
                let got = semisparse_mttkrp(&ss, &mode_order, &factors, n);

                // Dense oracle: same TTM, then the same last-first chain.
                let mut cur = dense_ttm_oracle(&sp, k, &factors[k]);
                let mut ord = mode_order.clone();
                while ord.len() > 1 {
                    let pos = (0..ord.len()).rev().find(|&p| ord[p] != n).unwrap();
                    cur = mttv(&cur, pos, &factors[ord[pos]]).tensor;
                    ord.remove(pos);
                }
                let want = Matrix::from_vec(dims[n], 3, cur.into_vec());
                assert_eq!(got.data(), want.data(), "dims {dims:?} n {n}");
            }
        }
    }

    #[test]
    fn empty_tensor_yields_empty_intermediates() {
        let sp = SparseTensor::from_coo(vec![4, 3, 5], vec![], vec![]);
        let factors = factors_for(&[4, 3, 5], 2, 1);
        let plan = TtmPlan::build(&sp, 2);
        let ss = csf_ttm(&sp, &plan, &factors[2]);
        assert_eq!(ss.n_entries(), 0);
        let m = semisparse_mttkrp(&ss, &[0, 1], &factors, 0);
        assert!(m.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn counters_accumulate_per_call() {
        let sp = random_sparse(&[6, 5, 4], 30, 21);
        let factors = factors_for(&[6, 5, 4], 4, 22);
        let plan = TtmPlan::build(&sp, 2);
        let before = thread_ss_counters();
        let ss = csf_ttm(&sp, &plan, &factors[2]);
        let d = thread_ss_counters().since(&before);
        assert_eq!(d.ttm_calls, 1);
        assert_eq!(d.ttm_flops, 2 * sp.nnz() as u64 * 4);
        assert_eq!(d.entries_visited, sp.nnz() as u64);
        let before = thread_ss_counters();
        let _ = ss_mttv(&ss, 1, &factors[1]);
        let d = thread_ss_counters().since(&before);
        assert_eq!(d.ttv_calls, 1);
        assert_eq!(d.ttv_flops, 2 * ss.n_entries() as u64 * 4);
    }

    #[test]
    fn memory_words_count_indices_and_panels() {
        let sp = random_sparse(&[5, 4, 3], 20, 31);
        let plan = TtmPlan::build(&sp, 1);
        assert!(plan.memory_words() > 0);
        let factors = factors_for(&[5, 4, 3], 2, 32);
        let ss = csf_ttm(&sp, &plan, &factors[1]);
        let e = ss.n_entries();
        assert_eq!(ss.memory_words(), (e * 2 * 4 + e * 2 * 8) / 8);
    }
}
