//! The nDPI-vs-tshark cross-validation of Appendix C.2 / Figure 3.
//!
//! Reports the agreement statistics the paper gives (tshark labelled ~76%
//! of flows, nDPI ~74%, the tools disagreed on ~16%, neither labelled
//! ~7.5%) and the full confusion matrix rendered as a text heatmap.

use crate::flow::FlowTable;
use crate::{labels, ndpi, tshark, Label};
use std::collections::BTreeMap;

/// The confusion matrix: (nDPI label, tshark label) → flow count.
#[derive(Debug, Default, Clone)]
pub struct Matrix {
    pub cells: BTreeMap<(Label, Label), u64>,
    pub total: u64,
}

impl Matrix {
    pub fn add(&mut self, ndpi_label: Label, tshark_label: Label) {
        *self.cells.entry((ndpi_label, tshark_label)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Row labels (nDPI), sorted.
    pub fn ndpi_labels(&self) -> Vec<Label> {
        let mut set: Vec<Label> = self.cells.keys().map(|(n, _)| *n).collect();
        set.sort();
        set.dedup();
        set
    }

    /// Column labels (tshark), sorted.
    pub fn tshark_labels(&self) -> Vec<Label> {
        let mut set: Vec<Label> = self.cells.keys().map(|(_, t)| *t).collect();
        set.sort();
        set.dedup();
        set
    }

    /// Render the Figure 3 heatmap as text (log-ish buckets of `#`).
    pub fn render(&self) -> String {
        let rows = self.ndpi_labels();
        let cols = self.tshark_labels();
        let mut out = String::new();
        out.push_str(&format!("{:>16} |", "nDPI \\ tshark"));
        for col in &cols {
            out.push_str(&format!("{:>12}", col));
        }
        out.push('\n');
        for row in &rows {
            out.push_str(&format!("{row:>16} |"));
            for col in &cols {
                let count = self.cells.get(&(*row, *col)).copied().unwrap_or(0);
                out.push_str(&format!("{count:>12}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Aggregate agreement statistics (the paper's headline numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agreement {
    pub total_flows: u64,
    /// Fraction of flows tshark assigned a (non-generic) label.
    pub tshark_labeled: f64,
    /// Fraction of flows nDPI assigned a (non-unknown) label.
    pub ndpi_labeled: f64,
    /// Fraction where both labelled and the labels differ.
    pub disagree: f64,
    /// Fraction where neither tool produced a label.
    pub neither: f64,
    /// Distinct labels each tool emitted.
    pub tshark_label_count: usize,
    pub ndpi_label_count: usize,
}

/// Full cross-validation of a flow table.
#[derive(Debug, Clone)]
pub struct CrossValidation {
    pub matrix: Matrix,
    pub agreement: Agreement,
    /// Share of the flows nDPI labelled and tshark labelled differently or
    /// not at all that nDPI calls SSDP: tshark's SSDP-to-generic errors,
    /// the paper's "95%" observation.
    pub ssdp_share: f64,
}

/// Running tallies over a table's flows.
#[derive(Default)]
struct Tallies {
    matrix: Matrix,
    tshark_labeled: u64,
    ndpi_labeled: u64,
    disagree: u64,
    neither: u64,
    /// nDPI labelled, tshark labelled differently or not at all.
    ndpi_only: u64,
    /// Of those, the flows nDPI labelled SSDP.
    ndpi_only_ssdp: u64,
}

impl Tallies {
    fn add(&mut self, n: Label, t: Label) {
        self.matrix.add(n, t);
        let n_ok = ndpi::is_labeled(n);
        let t_ok = tshark::is_labeled(t);
        if n_ok {
            self.ndpi_labeled += 1;
        }
        if t_ok {
            self.tshark_labeled += 1;
        }
        if n_ok && t_ok && n != t {
            self.disagree += 1;
        }
        if !n_ok && !t_ok {
            self.neither += 1;
        }
        if n_ok && (!t_ok || n != t) {
            self.ndpi_only += 1;
            if n == labels::SSDP {
                self.ndpi_only_ssdp += 1;
            }
        }
    }

    fn into_crossval(self, flow_count: usize) -> CrossValidation {
        let total = flow_count.max(1) as f64;
        CrossValidation {
            agreement: Agreement {
                total_flows: flow_count as u64,
                tshark_labeled: self.tshark_labeled as f64 / total,
                ndpi_labeled: self.ndpi_labeled as f64 / total,
                disagree: self.disagree as f64 / total,
                neither: self.neither as f64 / total,
                tshark_label_count: self.matrix.tshark_labels().len(),
                ndpi_label_count: self.matrix.ndpi_labels().len(),
            },
            matrix: self.matrix,
            ssdp_share: if self.ndpi_only == 0 {
                0.0
            } else {
                self.ndpi_only_ssdp as f64 / self.ndpi_only as f64
            },
        }
    }
}

/// Tally both tools' labels of every flow, read from the table's labels:
/// one lookup per flow, so the fold runs serially.
pub fn cross_validate(table: &FlowTable) -> CrossValidation {
    let mut tallies = Tallies::default();
    for labels in table.labels() {
        tallies.add(labels.ndpi, labels.tshark);
    }
    tallies.into_crossval(table.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_netsim::stack::{self, Endpoint};
    use iotlan_netsim::SimTime;
    use iotlan_wire::ethernet::EthernetAddress;
    use std::net::Ipv4Addr;

    fn ep(last: u8) -> Endpoint {
        Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, last]),
            ip: Ipv4Addr::new(192, 168, 10, last),
        }
    }

    fn mixed_table() -> FlowTable {
        let mut table = FlowTable::default();
        let t = SimTime::ZERO;
        // mDNS (agree).
        let query = iotlan_wire::dns::Message::mdns_query(&[(
            "_hue._tcp.local",
            iotlan_wire::dns::RecordType::Ptr,
        )]);
        table.add_frame(
            t,
            &stack::udp_multicast(
                ep(1),
                Ipv4Addr::new(224, 0, 0, 251),
                5353,
                5353,
                &query.to_bytes(),
            ),
        );
        // SSDP response from port 1900 (tshark fails).
        let response =
            iotlan_wire::ssdp::Message::response("upnp:rootdevice", "u", None, None).to_bytes();
        table.add_frame(t, &stack::udp_unicast(ep(2), ep(1), 1900, 50004, &response));
        // RTP on 10005 (both call it STUN — agree on the wrong answer).
        let mut rtp_payload = iotlan_wire::rtp::Header {
            payload_type: 97,
            sequence: 1,
            timestamp: 0,
            ssrc: 7,
            marker: false,
            csrc_count: 0,
        }
        .to_bytes();
        rtp_payload.extend_from_slice(&[0xAD; 8]);
        table.add_frame(
            t,
            &stack::udp_unicast(ep(1), ep(2), 40000, 10005, &rtp_payload),
        );
        // LIFX (neither labels).
        let lifx = iotlan_wire::lifx::Header::get_service(1, 1);
        table.add_frame(
            t,
            &stack::udp_broadcast(ep(1), 41002, 56700, &lifx.to_bytes()),
        );
        table
    }

    #[test]
    fn agreement_statistics() {
        let table = mixed_table();
        let cv = cross_validate(&table);
        assert_eq!(cv.agreement.total_flows, 4);
        // mDNS: both label. SSDP-response: only nDPI. RTP: both say STUN.
        // LIFX: neither.
        assert!((cv.agreement.ndpi_labeled - 0.75).abs() < 1e-9);
        assert!((cv.agreement.tshark_labeled - 0.5).abs() < 1e-9);
        assert!((cv.agreement.neither - 0.25).abs() < 1e-9);
        assert_eq!(cv.agreement.disagree, 0.0); // both-labeled disagreements
    }

    #[test]
    fn matrix_renders() {
        let table = mixed_table();
        let cv = cross_validate(&table);
        let rendered = cv.matrix.render();
        assert!(rendered.contains("mDNS"));
        assert!(rendered.contains("STUN"));
        assert!(cv.matrix.total == 4);
    }

    #[test]
    fn ssdp_dominates_disagreements() {
        let mut table = FlowTable::default();
        let t = SimTime::ZERO;
        let response =
            iotlan_wire::ssdp::Message::response("upnp:rootdevice", "u", None, None).to_bytes();
        // 10 SSDP responses with varied dst ports (tshark: generic).
        for i in 0..10u16 {
            table.add_frame(
                t,
                &stack::udp_unicast(ep(2), ep(1), 1900, 50100 + i * 3, &response),
            );
        }
        let share = cross_validate(&table).ssdp_share;
        assert!(share > 0.9, "share {share}");
    }

    #[test]
    fn tools_agree_on_clean_protocols() {
        let query = iotlan_wire::dns::Message::mdns_query(&[(
            "_airplay._tcp.local",
            iotlan_wire::dns::RecordType::Ptr,
        )]);
        let mut table = FlowTable::default();
        table.add_frame(
            SimTime::ZERO,
            &stack::udp_multicast(
                ep(1),
                Ipv4Addr::new(224, 0, 0, 251),
                5353,
                5353,
                &query.to_bytes(),
            ),
        );
        let labels = table.labels()[0];
        assert_eq!((labels.ndpi, labels.tshark), (labels.truth, labels.truth));
    }
}
