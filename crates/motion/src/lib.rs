//! # mar-motion — state-estimation motion prediction (§V-B)
//!
//! The buffer manager needs, at every timestamp, (a) predictions of the
//! client's next few positions and (b) a confidence for each prediction, so
//! it can turn them into visit probabilities for the surrounding grid
//! blocks. Following the paper:
//!
//! * the client's *state* is the vector of its `h+1` most recent positions,
//!   `s_t = [p(t), p(t−1), …, p(t−h)]ᵀ`, with `h = 3`;
//! * a transition matrix `A` with `s_{t+1} = A·s_t` is learned online by
//!   **recursive least squares** (\[22\]; forgetting factor λ = 0.98,
//!   trusted after 8 samples, constant-velocity extrapolation before);
//!   `Aⁱ` gives multi-step predictions;
//! * the **Kalman predict step** (`P_{t+i} = A·P·Aᵀ + Q`) yields the
//!   uncertainty of each predicted state, and the predicted position is
//!   treated as normally distributed, `P(s) ~ N(ŝ, P)` (the paper's Eq. 3).
//!   That recurrence lives in [`MotionPredictor::predict`]; the paper uses
//!   no measurement update, so there is no separate filter type;
//! * integrating that normal over grid cells gives per-block visit
//!   probabilities, which [`probability`] folds into per-direction
//!   probabilities over a [`mar_geom::SectorPartition`].
//!
//! The crate carries its own small dense linear algebra ([`linalg`]) —
//! multiplication, transpose, Gauss-Jordan inversion — because nothing
//! heavier is needed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Fixed-size numeric kernels below index two arrays in lockstep
// (`out[i] = a[i] op b[i]`); the indexed form is the clearest statement of
// that, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod linalg;
pub mod markov;
pub mod predict;
pub mod probability;
pub mod rls;

pub use linalg::Mat;
pub use markov::MarkovDirectionModel;
pub use predict::{MotionPredictor, Prediction};
pub use probability::{direction_probabilities, gaussian_block_probabilities};
pub use rls::RlsEstimator;
