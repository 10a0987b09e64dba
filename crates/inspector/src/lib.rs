//! # iotlan-inspector
//!
//! The crowdsourced-data side of the paper (§3.3, §6.3): a synthetic
//! stand-in for the IoT Inspector dataset, reduced to what Table 2 reads,
//! plus the household-fingerprintability analysis.
//!
//! * [`dataset`] — a seeded generator for households and devices (OUI,
//!   mDNS/SSDP response payloads, and the product's vendor and category),
//!   which either builds the dataset or hands each household to a caller
//!   on the pool worker that draws it, and the §7 identifier minimization
//!   over a built dataset.
//! * [`ident`] — the §6.3 identifier extractors: possessive names, UUIDs,
//!   and MAC addresses (with and without separators, cross-checked against
//!   the device's OUI to reduce false positives).
//! * [`entropy`] — the Table 2 analysis: identifier-combination classes,
//!   per-class product/vendor/device/household counts, unique-household
//!   percentages, and `log2(N)` entropy, over a built dataset or in one
//!   pass over the generator.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod entropy;
pub mod ident;

pub use dataset::{Dataset, Device, GeneratorConfig, Household};
pub use entropy::{
    analyze, analyze_generated, CrowdTable, EntropyRow, EntropyTable, IdentifierClass,
};
