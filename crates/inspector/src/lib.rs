//! # iotlan-inspector
//!
//! The crowdsourced-data side of the paper (§3.3, §6.3, Appendix E): a
//! synthetic stand-in for the IoT Inspector dataset with the same schema
//! and exposure structure, plus the household-fingerprintability analysis.
//!
//! * [`hashes`] — SHA-256 and HMAC-SHA256 from scratch (IoT Inspector
//!   device IDs are `HMAC-SHA256(MAC, per-user salt)`).
//! * [`dataset`] — a seeded generator for households, devices (OUI, DHCP
//!   hostname, user label, mDNS/SSDP response payloads) and 5-second
//!   byte-count flow windows, which either builds the dataset or hands each
//!   household to a caller on the pool worker that draws it.
//! * [`ident`] — the §6.3 identifier extractors: possessive names, UUIDs,
//!   and MAC addresses (with and without separators, cross-checked against
//!   the device's OUI to reduce false positives).
//! * [`entropy`] — the Table 2 analysis: identifier-combination classes,
//!   per-class product/vendor/device/household counts, unique-household
//!   percentages, and `log2(N)` entropy, over a built dataset or in one
//!   pass over the generator.
//! * [`infer`] — the Appendix E replacement: deterministic, rule-based
//!   vendor/category inference over user labels, DHCP hostnames and
//!   discovery payloads (standing in for the paper's TextCompletion use).

pub mod dataset;
pub mod entropy;
pub mod hashes;
pub mod ident;
pub mod infer;

pub use dataset::{Dataset, Device, GeneratorConfig, Household};
pub use entropy::{
    analyze, analyze_generated, CrowdTable, EntropyRow, EntropyTable, IdentifierClass,
};
pub use hashes::{hmac_sha256, sha256};
