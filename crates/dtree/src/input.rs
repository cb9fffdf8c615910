//! The input tensor with optional pre-permuted copies.
//!
//! First-level dimension-tree contractions (TTMs) are free of data movement
//! only when the contracted mode is the first or last mode of some stored
//! layout. The standard dimension tree only ever contracts extreme modes,
//! so it needs no copies; MSDT cycles through *every* mode as the
//! first-level contraction, so the paper's implementation stores permuted
//! copies of the input tensor to avoid per-sweep transposes (§IV). One copy
//! suffices for orders 3 and 4 (each copy exposes two more modes: one
//! first, one last).

use crate::cache::Payload;
use pp_tensor::kernels::ttm::{ttm_first, ttm_last};
use pp_tensor::semisparse::{csf_ttm, TtmPlan};
use pp_tensor::sparse::{CsfTensor, SparseTensor};
use pp_tensor::transpose::permute;
use pp_tensor::{DenseTensor, Matrix};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One stored layout: a permutation of the base tensor's modes.
struct Layout {
    /// `mode_order[k]` = which original tensor mode sits at position `k`.
    mode_order: Vec<usize>,
    tensor: DenseTensor,
}

/// A sparse input: the sorted-coordinate ingest form plus either the CSF
/// forest the direct sparse-MTTKRP fast path runs over (`method=dt`), or
/// per-mode semi-sparse TTM plans that let the dimension-tree engine plan
/// first-level contractions over the sparse representation (`pp`/`msdt`).
pub struct SparseInput {
    /// Sorted COO form (fingerprinting, norms, densify-for-oracle).
    pub coo: SparseTensor,
    /// The per-mode fiber forest (direct-kernel inputs; `None` when the
    /// input plans dimension-tree chains instead).
    pub csf: Option<CsfTensor>,
    /// Per-mode semi-sparse TTM plans (chain-planned inputs; empty for
    /// direct-kernel inputs).
    pub plans: Vec<TtmPlan>,
}

impl SparseInput {
    /// Auxiliary structure memory in f64-equivalent words (forest or
    /// plans) — the admission-control estimate.
    pub fn memory_words(&self) -> usize {
        self.csf.as_ref().map_or(0, |c| c.memory_words())
            + self.plans.iter().map(|p| p.memory_words()).sum::<usize>()
    }
}

/// The CP input tensor plus any pre-permuted copies, with a uniform
/// "contract one mode" entry point that picks the cheapest path. A
/// sparse-backed input stores no dense layouts; the engine routes its
/// MTTKRPs through the CSF kernel instead of the dimension tree.
pub struct InputTensor {
    layouts: Vec<Layout>,
    order: usize,
    /// Whether to create (and keep) a permuted copy when a contraction
    /// would otherwise need an explicit transpose.
    cache_transposes: bool,
    sparse: Option<SparseInput>,
}

/// Outcome of a first-level contraction.
pub struct FirstLevel {
    /// The intermediate `𝓜^(rest)` in either representation, rank
    /// trailing.
    pub payload: Payload,
    /// Original tensor modes of the result, in the result's layout order.
    pub mode_order: Vec<usize>,
    /// Flops spent (useful flops for semi-sparse: `2 · nnz · R`).
    pub flops: u64,
    /// Time spent in an explicit transpose, if one was needed.
    pub transpose_time: Duration,
    /// Main-memory words moved by that transpose.
    pub transpose_words: u64,
    /// Contraction time (excluding the transpose).
    pub ttm_time: Duration,
    /// Input entries visited (semi-sparse contractions only; 0 for dense).
    pub entries: u64,
}

impl InputTensor {
    /// Wrap a tensor with no extra copies (standard dimension tree).
    pub fn new(t: DenseTensor) -> Self {
        let order = t.order();
        InputTensor {
            layouts: vec![Layout {
                mode_order: (0..order).collect(),
                tensor: t,
            }],
            order,
            cache_transposes: false,
            sparse: None,
        }
    }

    /// Wrap a sparse tensor: builds the CSF forest (one fiber tree per
    /// mode) the engine's sparse MTTKRP fast path runs over. No dense
    /// layouts are materialized.
    pub fn new_sparse(sp: SparseTensor) -> Self {
        let order = sp.order();
        let csf = CsfTensor::build(&sp);
        InputTensor {
            layouts: Vec::new(),
            order,
            cache_transposes: false,
            sparse: Some(SparseInput {
                coo: sp,
                csf: Some(csf),
                plans: Vec::new(),
            }),
        }
    }

    /// Wrap a sparse tensor for **dimension-tree planning**: instead of
    /// the CSF forest, build one semi-sparse TTM plan per mode, so every
    /// first-level contraction the standard/MSDT chains or the PP operator
    /// tree asks for executes over the sparse representation — the `pp`
    /// and `msdt` methods on sparse inputs. The input is never densified.
    pub fn new_sparse_chained(sp: SparseTensor) -> Self {
        let order = sp.order();
        let plans: Vec<TtmPlan> = (0..order).map(|m| TtmPlan::build(&sp, m)).collect();
        InputTensor {
            layouts: Vec::new(),
            order,
            cache_transposes: false,
            sparse: Some(SparseInput {
                coo: sp,
                csf: None,
                plans,
            }),
        }
    }

    /// Whether this sparse input plans dimension-tree chains (semi-sparse
    /// intermediates) rather than the direct CSF kernel.
    pub fn is_sparse_chained(&self) -> bool {
        self.sparse.as_ref().is_some_and(|sp| !sp.plans.is_empty())
    }

    /// The sparse backing, when this input is sparse.
    pub fn sparse(&self) -> Option<&SparseInput> {
        self.sparse.as_ref()
    }

    /// Whether this input is sparse-backed.
    pub fn is_sparse(&self) -> bool {
        self.sparse.is_some()
    }

    /// Wrap a tensor and pre-create the permuted copies MSDT needs so every
    /// mode is the first or last mode of some stored layout. The copies are
    /// independent reads of the base tensor, so they are built in parallel
    /// on the persistent pool (each permutation is itself pool-parallel).
    pub fn with_msdt_copies(t: DenseTensor) -> Self {
        let order = t.order();
        let mut input = InputTensor::new(t);
        input.cache_transposes = true;
        // Base layout covers modes 0 and order-1. Cover the rest pairwise:
        // a copy laid out [a, ..., b] exposes a (first) and b (last).
        let mut perms: Vec<Vec<usize>> = Vec::new();
        let mut uncovered: Vec<usize> = (1..order.saturating_sub(1)).collect();
        while !uncovered.is_empty() {
            let a = uncovered.remove(0);
            let b = if uncovered.is_empty() {
                None
            } else {
                Some(uncovered.pop().unwrap())
            };
            let mut perm = vec![a];
            perm.extend((0..order).filter(|&m| m != a && Some(m) != b));
            if let Some(b) = b {
                perm.push(b);
            }
            perms.push(perm);
        }
        let tensors = {
            let base = &input.layouts[0].tensor;
            crate::par_collect(perms.len(), |i| permute(base, &perms[i]))
        };
        for (perm, tensor) in perms.into_iter().zip(tensors) {
            input.layouts.push(Layout {
                mode_order: perm,
                tensor,
            });
        }
        input
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Extent of original mode `m`.
    pub fn dim(&self, m: usize) -> usize {
        if let Some(sp) = &self.sparse {
            return sp.coo.dim(m);
        }
        let pos = self.layouts[0]
            .mode_order
            .iter()
            .position(|&x| x == m)
            .unwrap();
        self.layouts[0].tensor.dim(pos)
    }

    /// The base tensor (original layout). Panics on a sparse-backed input
    /// (which stores no dense layout); see [`InputTensor::sparse`].
    pub fn base(&self) -> &DenseTensor {
        assert!(
            self.sparse.is_none(),
            "sparse input has no dense base tensor"
        );
        &self.layouts[0].tensor
    }

    /// Number of stored layouts (1 = no copies; 0 = sparse-backed).
    pub fn layout_count(&self) -> usize {
        self.layouts.len()
    }

    /// Stored elements: dense volume of one copy, or `nnz` when sparse.
    pub fn len(&self) -> usize {
        if let Some(sp) = &self.sparse {
            return sp.coo.nnz();
        }
        self.layouts[0].tensor.len()
    }

    /// True if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        if let Some(sp) = &self.sparse {
            return sp.coo.is_empty();
        }
        self.layouts[0].tensor.is_empty()
    }

    /// Contract original mode `mode` with `factor` (first-level TTM),
    /// choosing a stored layout where `mode` is extremal if possible and
    /// transposing (with cost accounted) otherwise. A chain-planned sparse
    /// input contracts through its per-mode semi-sparse TTM plan.
    pub fn contract_mode(&mut self, mode: usize, factor: &Matrix) -> FirstLevel {
        assert!(mode < self.order);
        let r = factor.cols();
        let total = self.len();
        let flops = 2 * total as u64 * r as u64;
        let direct = |payload, mode_order, ttm_time, entries| FirstLevel {
            payload,
            mode_order,
            flops,
            transpose_time: Duration::ZERO,
            transpose_words: 0,
            ttm_time,
            entries,
        };

        if let Some(sp) = &self.sparse {
            assert!(
                !sp.plans.is_empty(),
                "first-level contraction on a direct-CSF sparse input (engine bug)"
            );
            // The result's surviving levels keep the canonical ascending
            // mode order (the plan's stable sort preserves it).
            let t0 = Instant::now();
            let out = csf_ttm(&sp.coo, &sp.plans[mode], factor);
            let ttm_time = t0.elapsed();
            let modes = (0..self.order).filter(|&m| m != mode).collect();
            let payload = Payload::SemiSparse(Arc::new(out));
            return direct(payload, modes, ttm_time, sp.coo.nnz() as u64);
        }
        // 1. A layout with `mode` last?
        if let Some(l) = self
            .layouts
            .iter()
            .find(|l| *l.mode_order.last().unwrap() == mode)
        {
            let t0 = Instant::now();
            let out = ttm_last(&l.tensor, factor);
            let ttm_time = t0.elapsed();
            let modes = l.mode_order[..self.order - 1].to_vec();
            return direct(Payload::Dense(Arc::new(out)), modes, ttm_time, 0);
        }
        // 2. A layout with `mode` first?
        if let Some(l) = self.layouts.iter().find(|l| l.mode_order[0] == mode) {
            let t0 = Instant::now();
            let out = ttm_first(&l.tensor, factor);
            let ttm_time = t0.elapsed();
            let modes = l.mode_order[1..].to_vec();
            return direct(Payload::Dense(Arc::new(out)), modes, ttm_time, 0);
        }
        // Transpose: move `mode` last in a fresh copy.
        let t0 = Instant::now();
        let mut perm: Vec<usize> = Vec::with_capacity(self.order);
        let base = &self.layouts[0];
        // Positions in the base layout.
        let pos_of = |m: usize| base.mode_order.iter().position(|&x| x == m).unwrap();
        for &m in base.mode_order.iter().filter(|&&m| m != mode) {
            perm.push(pos_of(m));
        }
        perm.push(pos_of(mode));
        let mode_order_new: Vec<usize> = perm.iter().map(|&p| base.mode_order[p]).collect();
        let moved = permute(&base.tensor, &perm);
        let transpose_time = t0.elapsed();
        let transpose_words = 2 * total as u64;

        let t1 = Instant::now();
        let out = ttm_last(&moved, factor);
        let ttm_time = t1.elapsed();
        let result_modes = mode_order_new[..self.order - 1].to_vec();
        if self.cache_transposes {
            self.layouts.push(Layout {
                mode_order: mode_order_new,
                tensor: moved,
            });
        }
        FirstLevel {
            payload: Payload::Dense(Arc::new(out)),
            mode_order: result_modes,
            flops,
            transpose_time,
            transpose_words,
            ttm_time,
            entries: 0,
        }
    }

    /// Grow original mode `e` by appending `slice` (given in the canonical
    /// ascending-mode layout) along it in **every** stored layout. The
    /// slice is permuted into each layout's order and concatenated at `e`'s
    /// position there, so all layouts stay element-for-element consistent
    /// views of the grown tensor. Dense inputs only.
    pub fn extend_mode(&mut self, e: usize, slice: &DenseTensor) {
        assert!(self.sparse.is_none(), "streaming growth is dense-only");
        assert!(e < self.order);
        assert_eq!(slice.order(), self.order, "slice order mismatch");
        for layout in &mut self.layouts {
            let pos = layout.mode_order.iter().position(|&m| m == e).unwrap();
            let canonical = layout.mode_order.iter().enumerate().all(|(k, &m)| k == m);
            let permuted = if canonical {
                slice.clone()
            } else {
                permute(slice, &layout.mode_order)
            };
            layout.tensor = layout.tensor.concat_along(&permuted, pos);
        }
    }

    /// An input wrapping `slice` (canonical layout) that mirrors this
    /// input's stored layouts exactly. [`InputTensor::contract_mode`] then
    /// selects the same layout and contraction end for every mode as on
    /// the full input — the property that makes a slice contraction the
    /// row-for-row sub-computation of the full one (packed-GEMM values are
    /// per-row, so delta-extension of a cached intermediate is bitwise
    /// identical to recontracting the grown tensor).
    pub fn slice_like(&self, slice: &DenseTensor) -> InputTensor {
        assert!(self.sparse.is_none(), "streaming growth is dense-only");
        assert_eq!(slice.order(), self.order, "slice order mismatch");
        let layouts = self
            .layouts
            .iter()
            .map(|l| {
                let canonical = l.mode_order.iter().enumerate().all(|(k, &m)| k == m);
                let tensor = if canonical {
                    slice.clone()
                } else {
                    permute(slice, &l.mode_order)
                };
                Layout {
                    mode_order: l.mode_order.clone(),
                    tensor,
                }
            })
            .collect();
        InputTensor {
            layouts,
            order: self.order,
            cache_transposes: false,
            sparse: None,
        }
    }

    /// Which original modes are contractible without a transpose. Every
    /// mode of a sparse input qualifies (the CSF forest has a tree rooted
    /// at each).
    pub fn free_modes(&self) -> Vec<usize> {
        if self.sparse.is_some() {
            return (0..self.order).collect();
        }
        let mut v: Vec<usize> = self
            .layouts
            .iter()
            .flat_map(|l| [l.mode_order[0], *l.mode_order.last().unwrap()])
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_tensor::kernels::ttm::ttm;
    use pp_tensor::Shape;

    fn seq_tensor(dims: Vec<usize>) -> DenseTensor {
        let shape = Shape::new(dims);
        let len = shape.len();
        DenseTensor::from_vec(
            shape,
            (0..len)
                .map(|x| ((x * 37) % 19) as f64 / 7.0 - 1.0)
                .collect(),
        )
    }

    fn factor(rows: usize, r: usize) -> Matrix {
        Matrix::from_fn(rows, r, |i, j| ((i * 5 + j * 3) % 13) as f64 / 6.0 - 1.0)
    }

    /// Map a FirstLevel result (arbitrary mode order) back to the canonical
    /// ascending-mode layout for comparison.
    fn canonicalize(fl: &FirstLevel) -> DenseTensor {
        // Result tensor dims: [modes in fl.mode_order..., R].
        let m = fl.mode_order.len();
        let mut sorted: Vec<usize> = fl.mode_order.clone();
        sorted.sort_unstable();
        // perm[k] = position in fl's layout of the k-th canonical mode.
        let mut perm: Vec<usize> = sorted
            .iter()
            .map(|m0| fl.mode_order.iter().position(|x| x == m0).unwrap())
            .collect();
        perm.push(m); // rank mode stays last
        permute(fl.payload.dense(), &perm)
    }

    #[test]
    fn msdt_copy_count_matches_paper() {
        // One copy for order 3 and order 4 (paper §IV).
        let t3 = InputTensor::with_msdt_copies(seq_tensor(vec![3, 4, 5]));
        assert_eq!(t3.layout_count(), 2);
        assert_eq!(t3.free_modes(), vec![0, 1, 2]);
        let t4 = InputTensor::with_msdt_copies(seq_tensor(vec![2, 3, 4, 3]));
        assert_eq!(t4.layout_count(), 2);
        assert_eq!(t4.free_modes(), vec![0, 1, 2, 3]);
        // Order 5 needs two copies (modes 1, 2, 3 to cover).
        let t5 = InputTensor::with_msdt_copies(seq_tensor(vec![2, 2, 2, 2, 2]));
        assert_eq!(t5.layout_count(), 3);
        assert_eq!(t5.free_modes(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn contract_all_modes_matches_ttm_oracle() {
        let dims = vec![3, 4, 5, 2];
        for msdt in [false, true] {
            let base = seq_tensor(dims.clone());
            let mut input = if msdt {
                InputTensor::with_msdt_copies(base.clone())
            } else {
                InputTensor::new(base.clone())
            };
            for (mode, &dim) in dims.iter().enumerate() {
                let a = factor(dim, 3);
                let fl = input.contract_mode(mode, &a);
                let got = canonicalize(&fl);
                let want = ttm(&base, mode, &a).tensor;
                assert!(got.max_abs_diff(&want) < 1e-10, "mode {mode}, msdt={msdt}");
                if msdt {
                    assert_eq!(fl.transpose_words, 0, "MSDT copies must avoid transposes");
                }
            }
        }
    }

    #[test]
    fn plain_input_transposes_middle_modes() {
        let dims = vec![3, 4, 5];
        let mut input = InputTensor::new(seq_tensor(dims));
        let a = factor(4, 2);
        let fl = input.contract_mode(1, &a);
        assert!(fl.transpose_words > 0);
    }

    #[test]
    fn transpose_caching_learns_layouts() {
        let dims = vec![3, 4, 5, 2, 2];
        let mut input = InputTensor::with_msdt_copies(seq_tensor(dims.clone()));
        // Order 5 with copies: all modes free already.
        assert_eq!(input.free_modes().len(), 5);
        let a = factor(dims[2], 2);
        let fl = input.contract_mode(2, &a);
        assert_eq!(fl.transpose_words, 0);
    }
}
