//! # iotlan-netsim
//!
//! A deterministic discrete-event simulator of a smart-home LAN — the
//! substitute for the paper's MonIoTr Lab testbed (93 devices behind a
//! Wi-Fi AP running `tcpdump`; §3.1 of the paper, DESIGN.md §1).
//!
//! Design:
//! * a virtual clock ([`SimTime`]) and an event queue drive everything;
//!   two runs with the same seed produce byte-identical captures;
//! * the access point is a broadcast medium with promiscuous capture —
//!   unicast frames are delivered to the owning NIC, multicast/broadcast
//!   frames to every node whose declared [`Interest`] matches them, and
//!   the capture tap sees all of them (that is the paper's vantage point);
//! * nodes implement [`Node`] (`on_start` / `on_frame` / `on_timer`) and
//!   interact with the world through a [`Context`] that queues frame
//!   transmissions and timers;
//! * the router node ([`router::Router`]) provides DHCP, ARP and a DNS
//!   stub like a consumer gateway;
//! * fault injection ([`fault::FaultInjector`]) reproduces the smoltcp
//!   example-suite knobs: drop chance, corrupt chance, size limit.

pub mod capture;
pub mod fault;
pub mod network;
pub mod router;
pub mod stack;
pub mod time;

pub use capture::{Capture, FrameRef, FrameSink, FRAME_OVERHEAD};
pub use fault::FaultInjector;
pub use network::{Context, Interest, Network, Node, NodeId};
pub use time::{SimDuration, SimTime};
