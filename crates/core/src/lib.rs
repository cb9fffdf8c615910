//! # pp-core — CP-ALS and PP-CP-ALS drivers
//!
//! The paper's primary contribution, as a library:
//!
//! * [`als`] — sequential CP-ALS (Alg. 1) over standard or multi-sweep
//!   dimension trees;
//! * [`pp_als`] — sequential pairwise-perturbation CP-ALS (Alg. 2);
//! * [`par_als`] — parallel CP-ALS (Alg. 3): local dimension-tree MTTKRPs,
//!   slice Reduce-Scatter, All-Reduce Gram matrices, distributed solves;
//! * [`par_pp`] — the communication-efficient parallel PP algorithm
//!   (Alg. 4): local PP operators and local first-order corrections;
//! * [`ref_pp`] — the Cyclops-style reference PP parallelization the paper
//!   compares against in Table II (per-contraction tensor redistribution,
//!   fully replicated correction collectives);
//! * [`planc`] — the PLANC-style baseline (standard DT + replicated solve);
//! * [`session`] / [`par_session`] — the resumable sweep-granular state
//!   machines every driver above is a thin step-loop over: explicit owned
//!   state, `step()` advances one sweep, `finish()` seals the output.
//!   Sessions are the scheduling unit of the `pp-serve` batch driver;
//! * [`stream`] — streaming/online CP for tensors that grow along one
//!   mode: warm-started factor rows, incremental dimension-tree cache
//!   extension, per-arrival sweep windows;
//! * [`fitness`] — the amortized residual formula (Eq. 3);
//! * [`nonneg`] — nonnegative CP (HALS) on the same dimension trees;
//! * [`init`] — factor initialization strategies;
//! * [`config`] / [`result`] — run configuration and reports.
//!
//! # Example
//!
//! ```
//! use pp_core::{cp_als, pp_cp_als, AlsConfig};
//! use pp_datagen::lowrank::noisy_rank;
//! use pp_dtree::TreePolicy;
//!
//! // A 20×20×20 tensor of CP rank 4 plus 5% noise.
//! let t = noisy_rank(&[20, 20, 20], 4, 0.05, 7);
//!
//! // Exact CP-ALS through the multi-sweep dimension tree.
//! let cfg = AlsConfig::new(4)
//!     .with_policy(TreePolicy::MultiSweep)
//!     .with_max_sweeps(50);
//! let exact = cp_als(&t, &cfg);
//!
//! // Pairwise-perturbation CP-ALS reaches the same fitness.
//! let pp = pp_cp_als(&t, &cfg.with_pp_tol(0.3));
//! assert!(exact.report.final_fitness > 0.9);
//! assert!((exact.report.final_fitness - pp.report.final_fitness).abs() < 0.05);
//! ```

pub mod als;
pub mod checkpoint;
pub mod config;
pub mod fitness;
pub mod init;
pub mod nonneg;
pub mod par_als;
pub mod par_common;
pub mod par_pp;
pub mod par_session;
pub mod planc;
pub mod pp_als;
pub mod ref_pp;
pub mod result;
pub mod session;
pub mod stream;

pub use als::{cp_als, cp_als_with_init, init_factors};
pub use config::{AlsConfig, SolveStrategy};
pub use init::{init_factors_with, InitStrategy};
pub use nonneg::nn_cp_als;
pub use par_als::{par_cp_als, ParAlsOutput};
pub use par_pp::par_pp_cp_als;
pub use par_session::{ParKind, ParSession};
pub use pp_als::{pp_cp_als, pp_cp_als_with_init};
pub use result::{AlsOutput, AlsReport, SweepKind, SweepRecord};
pub use session::{AlsSession, SessionKind, Step, StopReason};
pub use stream::StreamingSession;
