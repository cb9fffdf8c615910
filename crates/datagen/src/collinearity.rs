//! Tensors with prescribed factor-column collinearity (§V-A, Tensor 1).
//!
//! Following Battaglino et al. and the paper's setup: each factor matrix
//! `A^(n) ∈ R^{s×R}` is built so that every pair of distinct columns has
//! inner product exactly `C` (after normalization):
//!
//! `a_i = √C · w + √(1−C) · q_i`
//!
//! with `{w, q_1, ..., q_R}` orthonormal. Higher collinearity makes CP-ALS
//! converge slower (more sweeps), which is exactly the regime where
//! pairwise perturbation pays off (paper Fig. 4 / Table III).

use pp_tensor::kernels::naive::reconstruct;
use pp_tensor::rng::{orthonormal_cols, seeded};
use pp_tensor::{DenseTensor, Matrix};
use rand::Rng;

/// A factor matrix whose columns pairwise have collinearity exactly `c`.
/// Requires `rows ≥ r + 1`.
pub fn collinear_factor(rows: usize, r: usize, c: f64, rng: &mut impl Rng) -> Matrix {
    assert!((0.0..1.0).contains(&c), "collinearity must be in [0,1)");
    assert!(rows > r, "need rows ≥ R+1 for the construction");
    let basis = orthonormal_cols(rows, r + 1, rng); // w = col 0, q_i = col i+1
    let sc = c.sqrt();
    let sq = (1.0 - c).sqrt();
    Matrix::from_fn(rows, r, |row, col| {
        sc * basis.get(row, 0) + sq * basis.get(row, col + 1)
    })
}

/// Parameters for a collinearity experiment tensor.
#[derive(Clone, Copy, Debug)]
pub struct CollinearityConfig {
    /// Mode size `s` (all modes equal).
    pub s: usize,
    /// CP rank bound `R` of the generated tensor.
    pub r: usize,
    /// Tensor order `N`.
    pub order: usize,
    /// Collinearity interval `[lo, hi)`; each factor draws one `C` from it.
    pub lo: f64,
    pub hi: f64,
}

impl CollinearityConfig {
    /// Reject degenerate configurations with a clear message instead of a
    /// downstream construction panic.
    pub fn validate(&self) -> Result<(), String> {
        if self.r == 0 {
            return Err("collinearity config: rank must be positive".into());
        }
        if self.s <= self.r {
            return Err(format!(
                "collinearity config: mode size {} must exceed rank {} (construction needs s >= R+1)",
                self.s, self.r
            ));
        }
        if self.order < 2 {
            return Err(format!(
                "collinearity config: order must be >= 2, got {}",
                self.order
            ));
        }
        // `hi` is an open bound (draws come from `[lo, hi)`), so `hi == 1`
        // is legal; every draw still stays below 1.
        if !(0.0..1.0).contains(&self.lo) || !(0.0..=1.0).contains(&self.hi) || self.lo > self.hi {
            return Err(format!(
                "collinearity config: need 0 <= lo <= hi <= 1 and lo < 1, got [{}, {})",
                self.lo, self.hi
            ));
        }
        Ok(())
    }
}

/// Generate the tensor and the exact factors. Each mode's factor gets its
/// own collinearity drawn uniformly from `[lo, hi)` (the paper's "selected
/// randomly from a given interval").
pub fn collinearity_tensor(
    cfg: &CollinearityConfig,
    seed: u64,
) -> (DenseTensor, Vec<Matrix>, Vec<f64>) {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let mut rng = seeded(seed);
    let mut factors = Vec::with_capacity(cfg.order);
    let mut cs = Vec::with_capacity(cfg.order);
    // Largest f64 below 1: with `hi == 1` the affine map can round a draw
    // up to exactly 1, which the half-open interval excludes.
    let below_one = 1.0 - f64::EPSILON / 2.0;
    for _ in 0..cfg.order {
        let c = (cfg.lo + (cfg.hi - cfg.lo) * rng.random::<f64>()).min(below_one);
        factors.push(collinear_factor(cfg.s, cfg.r, c, &mut rng));
        cs.push(c);
    }
    (reconstruct(&factors), factors, cs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_tensor::rng::seeded;

    #[test]
    fn columns_have_exact_collinearity() {
        let mut rng = seeded(5);
        for &c in &[0.0, 0.3, 0.75, 0.95] {
            let a = collinear_factor(20, 6, c, &mut rng);
            for i in 0..6 {
                let ni: f64 = (0..20).map(|x| a.get(x, i) * a.get(x, i)).sum();
                assert!((ni - 1.0).abs() < 1e-10, "column norm");
                for j in i + 1..6 {
                    let dot: f64 = (0..20).map(|x| a.get(x, i) * a.get(x, j)).sum();
                    assert!((dot - c).abs() < 1e-10, "pair ({i},{j}) c={c}");
                }
            }
        }
    }

    #[test]
    fn tensor_has_bounded_rank() {
        let cfg = CollinearityConfig {
            s: 8,
            r: 3,
            order: 3,
            lo: 0.4,
            hi: 0.6,
        };
        let (t, factors, cs) = collinearity_tensor(&cfg, 9);
        assert_eq!(t.shape().dims(), &[8, 8, 8]);
        assert_eq!(factors.len(), 3);
        assert!(cs.iter().all(|&c| (0.4..0.6).contains(&c)));
        // Residual of the planted factors is zero → rank ≤ 3.
        let r = pp_tensor::kernels::naive::dense_relative_residual(&t, &factors);
        assert!(r < 1e-10);
    }

    #[test]
    #[should_panic]
    fn rejects_too_small_mode() {
        let mut rng = seeded(1);
        let _ = collinear_factor(3, 3, 0.5, &mut rng);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let good = CollinearityConfig {
            s: 8,
            r: 3,
            order: 3,
            lo: 0.4,
            hi: 0.6,
        };
        assert!(good.validate().is_ok());
        assert!(CollinearityConfig { r: 0, ..good }.validate().is_err());
        assert!(CollinearityConfig { s: 3, ..good }.validate().is_err());
        assert!(CollinearityConfig { order: 1, ..good }.validate().is_err());
        assert!(CollinearityConfig {
            lo: 0.7,
            hi: 0.2,
            ..good
        }
        .validate()
        .is_err());
        assert!(CollinearityConfig {
            lo: 0.8,
            hi: 1.0,
            ..good
        }
        .validate()
        .is_ok());
        assert!(CollinearityConfig { hi: 1.5, ..good }.validate().is_err());
        assert!(CollinearityConfig {
            lo: 1.0,
            hi: 1.0,
            ..good
        }
        .validate()
        .is_err());
    }
}
