//! # iotlan-stream: single-pass, bounded-memory streaming analysis
//!
//! The batch pipeline loads a whole capture (or pcap file) into memory,
//! assembles every flow with its full packet-time list, and only then runs
//! the figure/table analyses. That is faithful to how the paper's authors
//! post-processed their 366K-packet corpus, but it makes memory scale with
//! capture length — a five-day household trace should not need to be
//! resident to answer "which protocols does each device speak?".
//!
//! This crate computes the same answers in one pass over the packets with
//! state bounded by the *structure* of the traffic (flow-key cardinality,
//! correlation-window depth), not by its length:
//!
//! * [`engine::StreamEngine`] — the single-pass engine. Feed it frames
//!   (it implements [`iotlan_netsim::FrameSink`]) or raw pcap bytes in
//!   arbitrary chunks (via `iotlan_wire::pcap::PcapStreamReader`); call
//!   [`engine::StreamEngine::finish`] for a [`engine::StreamReport`]. It
//!   keeps the batch `iotlan_classify::FlowTable` with each flow's
//!   timestamps capped at [`engine::EVENT_CAP`], and renders Fig. 1/4,
//!   Fig. 2 and App. D.1 through the batch analyses on that table, and
//!   feeds every frame to the batch Table 4 matcher
//!   (`iotlan_analysis::responses::ResponseMatcher`) in record order.
//! * [`sketch`] — a std-only KMV distinct counter with a documented error
//!   bound, for crowd-scale identifier spaces.
//! * [`crowd`] — bounded-memory identifier-space estimation over the
//!   IoT-Inspector crowdsourced dataset, replacing the batch Table 2
//!   global identifier sets with KMV sketches.
//!
//! ## Determinism and batch equivalence
//!
//! For any capture, the engine's figure/table outputs (Fig. 1/4 graph,
//! Fig. 2 passive prevalence, Table 4 discovery→response rows, and —
//! below the per-flow event cap — the App. D.1 periodicity report) are
//! byte-identical to the batch pipeline's, regardless of how the input
//! was chunked and at any thread count. See `DESIGN.md` §7 for the
//! argument; `tests/stream_equivalence.rs` enforces it.

pub mod crowd;
pub mod engine;
pub mod sketch;

pub use crowd::{estimate_identifier_space, IdentifierSpaceEstimate};
pub use engine::{StreamEngine, StreamReport};
