//! # iotlan-core
//!
//! The top of the stack: the lab orchestrator and the per-experiment
//! pipeline that regenerates every table and figure of *"In the Room Where
//! It Happens"* (IMC 2023).
//!
//! ```no_run
//! use iotlan_core::{Lab, LabConfig};
//!
//! // Assemble the 93-device testbed behind a capturing AP, run the idle
//! // capture, and pull the per-MAC pcaps.
//! let mut lab = Lab::new(LabConfig::fast());
//! lab.run_idle();
//! let capture = lab.network.capture.to_pcap();
//! assert!(!capture.is_empty());
//! ```
//!
//! [`experiments`] holds one entry point per table/figure; each returns a
//! structured result plus a paper-vs-measured text block. The Criterion
//! benches in `iotlan-bench` and the runnable examples call these.

pub mod experiments;
pub mod lab;

pub use lab::{Lab, LabConfig};

// Re-export the whole toolkit for downstream users.
pub use iotlan_analysis as analysis;
pub use iotlan_apps as apps;
pub use iotlan_classify as classify;
pub use iotlan_devices as devices;
pub use iotlan_honeypot as honeypot;
pub use iotlan_inspector as inspector;
pub use iotlan_netsim as netsim;
pub use iotlan_scan as scan;
pub use iotlan_stream as stream;
pub use iotlan_telemetry as telemetry;
pub use iotlan_util as util;
pub use iotlan_wire as wire;
