//! # bt-varlen — the zero-padding algorithm (paper §III.D, Fig. 4)
//!
//! NLP serving batches contain sentences of different lengths. Conventional
//! frameworks pad every sequence to the batch maximum and burn FLOPs and
//! bandwidth on dead tokens. ByteTransformer's *zero-padding algorithm*
//! instead:
//!
//! 1. computes a **prefix sum** over the input mask (one warp per sentence on
//!    the GPU; one rayon task per sentence here — [`scan::warp_style_scan`]),
//! 2. derives a **position offset vector** mapping each valid token to its
//!    slot in a *packed* tensor ([`PackingIndex`]),
//! 3. **packs** the `[batch, seq, hidden]` activation into
//!    `[valid_words, hidden]` so every downstream kernel iterates over real
//!    tokens only ([`PackingIndex::pack`] / [`PackingIndex::unpack`]).
//!
//! The packed/unpacked transitions around batched-GEMM MHA (paper Fig. 2c)
//! are the two `unpack`/`pack` calls in `bt-core`'s encoder; fused MHA reads
//! Q/K/V directly through the offsets and never unpacks.
//!
//! The crate also ships the synthetic variable-length workload generators
//! used by every experiment ([`workload`]): the paper's evaluation draws
//! batches with *average length = 0.6 × maximum*, which
//! [`workload::LengthDistribution::PaperUniform`] reproduces exactly in
//! expectation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mask;
mod packing;
pub mod paged;
pub mod scan;
pub mod workload;

pub use mask::{BatchMask, VarlenError};
pub use packing::PackingIndex;
pub use paged::{BlockPool, KvOom, PagedLayout, SessionId, Slot};
