//! # mar-mesh — wavelet multiresolution representation of 3D objects
//!
//! Implements §III of the paper: 3D objects are approximated by triangular
//! surface meshes; a mesh is stored as a coarse *base mesh* `M⁰` plus a
//! sequence of *wavelet coefficient* sets `{W₀ … W_{J−1}}`, where `W_j`
//! holds the missing details needed to turn the level-`j` approximation
//! `Mʲ` into the finer `Mʲ⁺¹`.
//!
//! The decomposition used here is the interpolating ("lazy") wavelet over
//! midpoint quadrisection, exactly the construction of the paper's
//! Figures 1–2: each subdivision step splits every triangle into four by
//! inserting edge midpoints, and the wavelet coefficient of a new vertex is
//! its displacement from the midpoint of its parent edge
//! (`d⁰₄ = v¹₄ − (v⁰₁+v⁰₂)/2`). Coefficient magnitudes are normalised to
//! `[0, 1]` per object, with base-mesh vertices pinned at `w = 1.0` (§VII-A:
//! "all the vertices in the coarsest version of an object have coefficient
//! values 1.0").
//!
//! Modules:
//! * [`mesh`] — indexed triangle meshes and adjacency.
//! * [`subdivision`] — midpoint quadrisection and the subdivision hierarchy.
//! * [`wavelet`] — analysis (decompose) and synthesis (reconstruct) plus
//!   the speed→resolution coefficient selection.
//! * [`support`] — wavelet *support regions* (§VI-A) and their bounding
//!   boxes, the key to the efficient index.
//! * [`generate`] — procedural 3D object generators (buildings, spheres,
//!   terrain) standing in for the paper's city models.
//! * [`size`] — transmission byte accounting (the "MB" in the evaluation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod mesh;
pub mod size;
pub mod subdivision;
pub mod support;
pub mod wavelet;

pub use generate::{ObjectKind, ObjectParams};
pub use mesh::TriMesh;
pub use size::SizeModel;
pub use subdivision::{SubdivisionHierarchy, SubdivisionStep};
pub use wavelet::{ResolutionBand, WaveletCoeff, WaveletMesh};
