//! Exact fitness `1 − ‖T − [[A]]‖/‖T‖` of a set of factors, computed outside
//! every timer.
//!
//! The library's oracle, `dense_relative_residual`, reconstructs the model
//! element by element; it is checked on every method's final factors in
//! the first round of a run. The fast paths below give the same quantity
//! for the many candidate sweeps: the dense one rebuilds the model as
//! `A⁽⁰⁾ · KRP(A⁽¹⁾…)ᵀ` with the library's GEMM and subtracts it directly
//! (no Eq. 3 cancellation), the sparse one expands the square over the
//! nonzeros, which is exact to rounding at the low fitness of the sparse
//! workload.

use pp_tensor::gemm::{gemm, Trans};
use pp_tensor::kernels::krp::khatri_rao;
use pp_tensor::kernels::naive::dense_relative_residual;
use pp_tensor::sparse::SparseTensor;
use pp_tensor::{DenseTensor, Matrix};

/// Largest |fast − oracle| accepted between the two residual paths.
pub const ORACLE_TOL: f64 = 1e-9;

pub enum Data<'a> {
    Dense(&'a DenseTensor),
    Sparse(&'a SparseTensor),
}

impl Data<'_> {
    /// Exact fitness through the fast path.
    pub fn fitness(&self, factors: &[Matrix]) -> f64 {
        match self {
            Data::Dense(t) => dense_fitness(t, factors),
            Data::Sparse(sp) => sparse_fitness(sp, factors),
        }
    }

    /// Exact fitness through the library's oracle.
    pub fn oracle_fitness(&self, factors: &[Matrix]) -> f64 {
        match self {
            Data::Dense(t) => 1.0 - dense_relative_residual(t, factors),
            Data::Sparse(sp) => 1.0 - dense_relative_residual(&sp.to_dense(), factors),
        }
    }
}

fn dense_fitness(t: &DenseTensor, factors: &[Matrix]) -> f64 {
    let rest: Vec<&Matrix> = factors[1..].iter().collect();
    let krp = khatri_rao(&rest);
    let mut model = Matrix::zeros(factors[0].rows(), krp.rows());
    gemm(
        Trans::No,
        Trans::Yes,
        1.0,
        &factors[0],
        &krp,
        0.0,
        &mut model,
    );
    let resid_sq: f64 = t
        .data()
        .iter()
        .zip(model.data())
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    1.0 - (resid_sq / t.norm_sq()).sqrt()
}

fn sparse_fitness(sp: &SparseTensor, factors: &[Matrix]) -> f64 {
    let r = factors[0].cols();
    let mut cross = 0.0;
    let mut row = vec![0.0; r];
    for (e, &v) in sp.vals().iter().enumerate() {
        row.fill(v);
        for (m, &i) in sp.idx(e).iter().enumerate() {
            for (x, a) in row.iter_mut().zip(factors[m].row(i as usize)) {
                *x *= a;
            }
        }
        cross += row.iter().sum::<f64>();
    }
    let mut grams = factors[0].gram();
    for f in &factors[1..] {
        grams.hadamard_assign(&f.gram());
    }
    let model_sq: f64 = grams.data().iter().sum();
    let t_sq = sp.norm_sq();
    1.0 - ((t_sq - 2.0 * cross + model_sq).max(0.0) / t_sq).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_tensor::rng::{seeded, uniform_matrix, uniform_tensor};

    #[test]
    fn fast_paths_match_the_oracle() {
        let dims = [7, 5, 6, 4];
        let mut rng = seeded(5);
        let t = uniform_tensor(&dims, &mut rng);
        let f: Vec<Matrix> = dims
            .iter()
            .map(|&d| uniform_matrix(d, 3, &mut rng))
            .collect();
        let dense = Data::Dense(&t);
        assert!((dense.fitness(&f) - dense.oracle_fitness(&f)).abs() < ORACLE_TOL);

        let sp = pp_datagen::sparse::powerlaw_sparse(&[9, 8, 7], 120, 2.0, 3);
        let f: Vec<Matrix> = sp
            .dims()
            .iter()
            .map(|&d| uniform_matrix(d, 4, &mut rng))
            .collect();
        let sparse = Data::Sparse(&sp);
        assert!((sparse.fitness(&f) - sparse.oracle_fitness(&f)).abs() < ORACLE_TOL);
    }
}
