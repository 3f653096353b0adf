//! # bt-core — ByteTransformer: fused MHA and the variable-length BERT encoder
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrates below it:
//!
//! * [`attention`] — every MHA implementation the paper measures
//!   (Figs. 11–12): the PyTorch-style unfused baseline, cuBLAS-style batched
//!   GEMM, batched + zero-padding softmax, the **fused MHA for short
//!   sequences** (Algorithm III.1), the **grouped-GEMM fused MHA for long
//!   sequences** (Figs. 6–8, Algorithm III.2), and a FlashAttention-style
//!   fixed-shape baseline for the variable-length ablation.
//! * [`encoder`] — the BERT encoder layer (one body, switched by a
//!   [`encoder::LayerPlan`]) and stacked model with the paper's *step-wise
//!   optimization levels* (Fig. 13): baseline → +layernorm fusion →
//!   +bias/GELU fusion → +zero padding → +fused MHA. Every plan produces
//!   identical activations on valid tokens; only cost changes.
//! * [`flops`] — Table II's closed-form FLOP counts, cross-checked in tests
//!   against the FLOPs the device trace actually counted.
//! * [`config`] / [`weights`] — model hyper-parameters and deterministic
//!   random weights.
//!
//! Quick start:
//!
//! ```
//! use bt_core::config::BertConfig;
//! use bt_core::encoder::{BertModel, OptLevel};
//! use bt_device::Device;
//! use bt_tensor::Tensor;
//! use bt_varlen::workload;
//!
//! let config = BertConfig::tiny(); // 2 heads / head_size 8 for doc tests
//! let model = BertModel::new_random(config, 1, 42);
//! let device = Device::new();
//! let mask = workload::paper_workload(4, 32, 7);
//! let input = Tensor::randn([4, 32, config.hidden()], 3);
//! let out = model
//!     .forward(&device, &input, &mask, OptLevel::FusedMha)
//!     .unwrap();
//! assert_eq!(out.dims(), input.dims());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
pub mod config;
pub mod decoder;
pub mod embeddings;
pub mod encoder;
pub mod flops;
pub mod incremental;
pub mod paged;
pub mod weights;
