//! Ablation (DESIGN.md §5.1): classifier layering — ports-only baseline vs
//! nDPI signatures vs nDPI + the paper's manual rules, scored against the
//! strict-parse ground truth. Shows *why* §3.5 needed manual augmentation.

use iotlan_bench::bench_lab;
use iotlan_core::classify::flow::Transport;
use iotlan_core::classify::{Flow, FlowLabels};
use iotlan_util::bench::Criterion;

fn bench(c: &mut Criterion) {
    let lab = bench_lab();
    let table = lab.flow_table();
    let labels = table.labels();

    // Ports-only strawman: the label is whatever the well-known port says.
    let ports_only = |flow: &Flow| -> &'static str {
        match flow.key.transport {
            Transport::Udp | Transport::UdpV6 => match (flow.key.src_port, flow.key.dst_port) {
                (_, 5353) | (5353, _) => "mDNS",
                (_, 1900) | (1900, _) => "SSDP",
                (_, 67) | (_, 68) => "DHCP",
                (_, 53) | (53, _) => "DNS",
                (_, 9999) | (9999, _) => "TPLINK_SHP",
                _ => "UNKNOWN",
            },
            Transport::Tcp => match (flow.key.src_port, flow.key.dst_port) {
                (_, 80) | (80, _) | (_, 8008) | (8008, _) => "HTTP",
                (_, 443) | (443, _) | (_, 8009) | (8009, _) => "TLS",
                _ => "UNKNOWN",
            },
            Transport::L2(0x0806) => "ARP",
            Transport::L2(0x888e) => "EAPOL",
            Transport::Icmp => "ICMP",
            Transport::Igmp => "IGMP",
            Transport::IcmpV6 => "ICMPv6",
            _ => "UNKNOWN",
        }
    };

    // The share of flows whose label from `classifier` is the truth.
    let score = |classifier: &dyn Fn(&Flow, &FlowLabels) -> &'static str| -> f64 {
        let correct = table
            .flows
            .iter()
            .zip(labels)
            .filter(|(flow, labels)| classifier(flow, labels) == labels.truth)
            .count();
        correct as f64 / table.flows.len().max(1) as f64
    };

    println!("== Ablation: classifier layering (accuracy vs ground truth) ==");
    println!(
        "ports-only       {:.1}%",
        100.0 * score(&|f, _| ports_only(f))
    );
    println!("tshark model     {:.1}%", 100.0 * score(&|_, l| l.tshark));
    println!("nDPI model       {:.1}%", 100.0 * score(&|_, l| l.ndpi));
    println!(
        "nDPI + manual    {:.1}%   <- the paper's pipeline",
        100.0 * score(&|_, l| l.paper)
    );

    c.bench_function("ablation/ndpi_plus_rules", |b| {
        b.iter(|| score(&|_, l| l.paper))
    });
}

iotlan_util::bench_main!(bench);
