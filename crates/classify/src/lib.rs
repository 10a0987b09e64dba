//! # iotlan-classify
//!
//! Traffic classification for local IoT captures, reproducing §3.5 and
//! Appendix C.2 of the paper:
//!
//! * [`localfilter`] implements the Appendix C.1 local-traffic filter
//!   (local↔local IP unicast + all multicast/broadcast + non-IP unicast);
//! * [`flow`] assembles RFC 6146 flows (5-tuple TCP/UDP, plus L2 pseudo-
//!   flows for ARP/EAPOL/other non-IP traffic) from a capture, and labels
//!   each flow once with all four labels below (`FlowTable::labels`);
//! * [`truth`] labels flows with ground truth by strictly parsing payloads
//!   with the `iotlan-wire` parsers — the oracle the paper lacked;
//! * [`ndpi`] models nDPI v4.7.0: signature/behaviour detection *including
//!   its documented error modes* (SSDP→CiscoVPN, Nintendo EAPOL→AmazonAWS,
//!   RTP→STUN on Google's 10000–10010, RTP missed on random ports);
//! * [`tshark`] models tshark v3.6.2: port/spec dissection including its
//!   error modes (SSDP mislabelled as generic transport or TPLINK-SHP);
//! * [`rules`] applies the paper's four manual corrections to nDPI's
//!   label;
//! * [`crossval`] computes the tool-agreement matrix of Figure 3.

pub mod crossval;
pub mod flow;
pub mod localfilter;
pub mod ndpi;
pub mod rules;
pub mod truth;
pub mod tshark;

pub use crossval::{CrossValidation, Matrix};
pub use flow::{Flow, FlowKey, FlowLabels, FlowTable, Transport};

/// A protocol label, as produced by a classifier. `&'static str` constants
/// below define the shared vocabulary; tools may also emit their own
/// (including wrong) labels.
pub type Label = &'static str;

/// The shared label vocabulary (Figure 2's x-axis plus the tools' error
/// labels from Figure 3).
pub mod labels {
    pub const ARP: &str = "ARP";
    pub const DHCP: &str = "DHCP";
    pub const DHCPV6: &str = "DHCPv6";
    pub const EAPOL: &str = "EAPOL";
    pub const ICMP: &str = "ICMP";
    pub const ICMPV6: &str = "ICMPv6";
    pub const IGMP: &str = "IGMP";
    pub const MDNS: &str = "mDNS";
    pub const DNS: &str = "DNS";
    pub const SSDP: &str = "SSDP";
    pub const TLS: &str = "TLS";
    pub const HTTP: &str = "HTTP";
    pub const RTSP: &str = "HTTP.RTSP";
    pub const TELNET: &str = "TELNET";
    pub const TPLINK_SHP: &str = "TPLINK_SHP";
    pub const TUYALP: &str = "TuyaLP";
    pub const COAP: &str = "COAP";
    pub const NETBIOS: &str = "NETBIOS";
    pub const STUN: &str = "STUN";
    pub const RTP: &str = "RTP";
    pub const LIFX: &str = "LIFX";
    pub const NTP: &str = "NTP";
    pub const UNKNOWN: &str = "UNKNOWN";
    pub const UNKNOWN_L3: &str = "UNKNOWN-L3";
    /// nDPI's false positive on some SSDP flows (Appendix C.2).
    pub const CISCOVPN: &str = "CiscoVPN";
    /// nDPI's false positive on Nintendo EAPOL traffic (Appendix C.2).
    pub const AMAZONAWS: &str = "AmazonAWS";
    /// tshark's generic transport-layer fallback (Appendix C.2: 95% of the
    /// disagreements are tshark calling SSDP "transport-layer traffic").
    pub const DATA_UDP: &str = "UDP";
    pub const DATA_TCP: &str = "TCP";
}
