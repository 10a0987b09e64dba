//! Performance: flow assembly and classification throughput.

use iotlan_util::bench::{Criterion, Throughput};
use iotlan_core::classify::rules::{classify_with_rules, paper_rules};
use iotlan_core::classify::{truth, FlowTable};
use iotlan_core::{Lab, LabConfig};

fn bench(c: &mut Criterion) {
    let mut lab = Lab::new(LabConfig::fast());
    lab.run_idle();
    let capture = &lab.network.capture;
    let mut group = c.benchmark_group("perf_classify");
    group.throughput(Throughput::Elements(capture.len() as u64));
    group.bench_function("flow_assembly", |b| {
        b.iter(|| FlowTable::from_capture(capture))
    });
    let table = FlowTable::from_capture(capture);
    let rules = paper_rules();
    group.throughput(Throughput::Elements(table.len() as u64));
    group.bench_function("ndpi_with_rules", |b| {
        b.iter(|| {
            table
                .flows
                .iter()
                .map(|f| classify_with_rules(f, &rules))
                .count()
        })
    });
    group.bench_function("ground_truth", |b| {
        b.iter(|| table.flows.iter().map(truth::label_flow).count())
    });
    group.finish();
}

iotlan_util::bench_main!(bench);
