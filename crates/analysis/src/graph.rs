//! The device-to-device communication graph of Figure 1 and the vendor
//! clusters of Figure 4.
//!
//! Nodes are devices; edges are *unicast* TCP/UDP flows between two devices
//! (multicast/broadcast discovery is excluded, as in the paper's figure).
//! Edge weight is traffic volume, which Figure 4 renders as line thickness.

use iotlan_classify::flow::{FlowTable, Transport};
use iotlan_devices::Catalog;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// An edge's transport mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    Tcp,
    Udp,
    Both,
}

/// One device-to-device edge (undirected; names are sorted).
#[derive(Debug, Clone)]
pub struct Edge {
    pub kind: EdgeKind,
    pub packets: u64,
    pub bytes: u64,
}

/// The communication graph.
#[derive(Debug, Clone, Default)]
pub struct DeviceGraph {
    /// (device A, device B) → edge, with A < B lexicographically.
    pub edges: BTreeMap<(String, String), Edge>,
    /// Device names present in the catalog.
    pub nodes: Vec<String>,
}

impl DeviceGraph {
    /// Devices with at least one local unicast peer (paper: 43/93).
    pub fn connected_devices(&self) -> usize {
        let mut set: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for (a, b) in self.edges.keys() {
            set.insert(a);
            set.insert(b);
        }
        set.len()
    }

    /// Subgraph of edges where *both* endpoints belong to `vendor` —
    /// the Figure 4 clusters.
    pub fn vendor_cluster(&self, catalog: &Catalog, vendor: &str) -> DeviceGraph {
        let vendor_devices: std::collections::BTreeSet<&str> = catalog
            .by_vendor(vendor)
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        let edges = self
            .edges
            .iter()
            .filter(|((a, b), _)| {
                vendor_devices.contains(a.as_str()) && vendor_devices.contains(b.as_str())
            })
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        DeviceGraph {
            edges,
            nodes: vendor_devices.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Edges split by kind, for rendering legends.
    pub fn count_by_kind(&self) -> (usize, usize, usize) {
        let mut tcp = 0;
        let mut udp = 0;
        let mut both = 0;
        for edge in self.edges.values() {
            match edge.kind {
                EdgeKind::Tcp => tcp += 1,
                EdgeKind::Udp => udp += 1,
                EdgeKind::Both => both += 1,
            }
        }
        (tcp, udp, both)
    }

    /// Render as an adjacency list (the text form of Fig. 1/4).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ((a, b), edge) in &self.edges {
            let kind = match edge.kind {
                EdgeKind::Tcp => "TCP",
                EdgeKind::Udp => "UDP",
                EdgeKind::Both => "TCP+UDP",
            };
            out.push_str(&format!(
                "{a} <-> {b}  [{kind}] packets={} bytes={}\n",
                edge.packets, edge.bytes
            ));
        }
        out
    }
}

/// Build the graph from assembled flows plus the catalog's IP map.
pub fn build_graph(table: &FlowTable, catalog: &Catalog) -> DeviceGraph {
    let ip_map = catalog.ip_map();
    let name_of = |ip: Ipv4Addr| ip_map.get(&ip).cloned();
    let mut graph = DeviceGraph {
        nodes: catalog.devices.iter().map(|d| d.name.clone()).collect(),
        ..Default::default()
    };
    for flow in &table.flows {
        let is_unicast_transport = matches!(flow.key.transport, Transport::Tcp | Transport::Udp);
        if !is_unicast_transport || flow.is_multicast_or_broadcast() {
            continue;
        }
        let (Some(src_ip), Some(dst_ip)) = (flow.key.src_ip, flow.key.dst_ip) else {
            continue;
        };
        let (Some(src), Some(dst)) = (name_of(src_ip), name_of(dst_ip)) else {
            continue; // endpoint not a catalog device (router, phone, scanner)
        };
        if src == dst {
            continue;
        }
        let key = if src < dst { (src, dst) } else { (dst, src) };
        let new_kind = if flow.key.transport == Transport::Tcp {
            EdgeKind::Tcp
        } else {
            EdgeKind::Udp
        };
        graph
            .edges
            .entry(key)
            .and_modify(|edge| {
                edge.packets += flow.packets;
                edge.bytes += flow.bytes;
                if (edge.kind == EdgeKind::Tcp && new_kind == EdgeKind::Udp)
                    || (edge.kind == EdgeKind::Udp && new_kind == EdgeKind::Tcp)
                {
                    edge.kind = EdgeKind::Both;
                }
            })
            .or_insert(Edge {
                kind: new_kind,
                packets: flow.packets,
                bytes: flow.bytes,
            });
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_classify::flow::FlowTable;
    use iotlan_devices::build_testbed;
    use iotlan_netsim::stack::{self, Endpoint};
    use iotlan_netsim::SimTime;

    fn endpoint_of(catalog: &Catalog, name: &str) -> Endpoint {
        let d = catalog.find(name).unwrap();
        Endpoint {
            mac: d.mac,
            ip: d.ip,
        }
    }

    #[test]
    fn unicast_edges_only() {
        let catalog = build_testbed();
        let a = endpoint_of(&catalog, "Google Nest Hub");
        let b = endpoint_of(&catalog, "Google Home");
        let mut table = FlowTable::default();
        // Unicast UDP between two devices: an edge.
        table.add_frame(SimTime::ZERO, &stack::udp_unicast(a, b, 10005, 10005, b"x"));
        // Multicast: no edge.
        table.add_frame(
            SimTime::ZERO,
            &stack::udp_multicast(a, std::net::Ipv4Addr::new(224, 0, 0, 251), 5353, 5353, b"m"),
        );
        let graph = build_graph(&table, &catalog);
        assert_eq!(graph.edges.len(), 1);
        assert_eq!(graph.connected_devices(), 2);
    }

    #[test]
    fn tcp_and_udp_merge_to_both() {
        let catalog = build_testbed();
        let a = endpoint_of(&catalog, "Google Nest Hub");
        let b = endpoint_of(&catalog, "Google Home");
        let mut table = FlowTable::default();
        table.add_frame(SimTime::ZERO, &stack::udp_unicast(a, b, 1, 2, b"x"));
        table.add_frame(
            SimTime::ZERO,
            &stack::tcp_segment(b, a, &iotlan_wire::tcp::Repr::syn(3, 8009, 1), &[]),
        );
        let graph = build_graph(&table, &catalog);
        assert_eq!(graph.edges.len(), 1);
        assert_eq!(graph.edges.values().next().unwrap().kind, EdgeKind::Both);
        assert_eq!(graph.count_by_kind(), (0, 0, 1));
    }

    #[test]
    fn vendor_cluster_filters() {
        let catalog = build_testbed();
        let nest = endpoint_of(&catalog, "Google Nest Hub");
        let home = endpoint_of(&catalog, "Google Home");
        let hue = endpoint_of(&catalog, "Philips Hue Bridge");
        let mut table = FlowTable::default();
        table.add_frame(SimTime::ZERO, &stack::udp_unicast(nest, home, 1, 2, b"g"));
        table.add_frame(SimTime::ZERO, &stack::udp_unicast(nest, hue, 1, 2, b"x"));
        let graph = build_graph(&table, &catalog);
        assert_eq!(graph.edges.len(), 2);
        let google = graph.vendor_cluster(&catalog, "Google");
        assert_eq!(google.edges.len(), 1);
        let rendered = google.render();
        assert!(rendered.contains("Google Home <-> Google Nest Hub"));
    }

    #[test]
    fn non_catalog_endpoints_ignored() {
        let catalog = build_testbed();
        let a = endpoint_of(&catalog, "Google Nest Hub");
        let outsider = Endpoint {
            mac: iotlan_wire::ethernet::EthernetAddress([2, 0, 0, 0, 0, 0x99]),
            ip: std::net::Ipv4Addr::new(192, 168, 10, 250),
        };
        let mut table = FlowTable::default();
        table.add_frame(SimTime::ZERO, &stack::udp_unicast(outsider, a, 5, 6, b"s"));
        let graph = build_graph(&table, &catalog);
        assert!(graph.edges.is_empty());
    }
}
