//! # fsd-sparse — sparse linear algebra substrate for FSD-Inference
//!
//! Everything the distributed inference engine needs to compute with sparse
//! DNNs, with no external dependencies:
//!
//! * [`CsrMatrix`] — CSR storage for weight layers;
//! * [`SparseRows`] — activation row blocks keyed by global neuron id, the
//!   unit of inter-worker communication;
//! * [`ColMajorBlock`] / [`LayerAccumulator`] — the distributed MVP/MMP
//!   kernels of FSI Algorithms 1 & 2, structured so the local product can be
//!   overlapped with communication;
//! * [`codec`] — delta-varint wire format for row blocks;
//! * [`compress`] — LZ77-style lossless byte compressor (the paper's ZLIB
//!   role).
//!
//! ```
//! use fsd_sparse::{CsrMatrix, SparseRows, layer_forward_reference};
//!
//! let w = CsrMatrix::from_triplets(2, 2, [(0, 0, 1.0), (1, 0, 2.0)]).unwrap();
//! let x = SparseRows::from_rows(1, [(0u32, vec![0u32], vec![3.0f32])]);
//! let (y, _work) = layer_forward_reference(&w, &x, 0.0, 32.0);
//! assert_eq!(y.row_by_id(1), Some((&[0u32][..], &[6.0f32][..])));
//! ```
#![forbid(unsafe_code)]

pub mod codec;
pub mod compress;
mod csr;
mod ops;
mod rows;
#[cfg(test)]
mod testkit;

pub use csr::{CsrError, CsrMatrix};
pub use ops::{layer_forward_reference, ColMajorBlock, LayerAccumulator};
pub use rows::SparseRows;
