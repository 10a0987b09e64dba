//! The single-pass streaming engine.
//!
//! `StreamEngine` consumes packets one at a time — either as decoded
//! frames (it implements [`iotlan_netsim::FrameSink`], so
//! `Capture::stream_into` / `Capture::drain_into` feed it directly) or as
//! raw pcap bytes in arbitrary chunks — and produces a [`StreamReport`]
//! whose figure/table outputs are byte-identical to the batch pipeline's
//! on the same input.
//!
//! ## One flow table, bounded by structure
//!
//! The engine assembles the same [`FlowTable`] the batch pipeline builds,
//! with one difference: each flow keeps at most [`EVENT_CAP`] arrival
//! times. Every other per-flow field (key, counts, first-frame destination
//! MAC, the first few payloads) is O(1), so the table is O(flow-key
//! cardinality) — traffic structure, not traffic length. Fig. 1/4, Fig. 2
//! and App. D.1 are then the batch analyses run on that table:
//!
//! * The graph and prevalence read only keys, counts and payloads, so
//!   they are exact at any capture length.
//! * App. D.1 periodicity reads the arrival times. Below the cap the
//!   table holds every time and the report is exact
//!   ([`StreamReport::periodicity_exact`] says so); above it each flow
//!   contributes a prefix sample.
//! * Table 4 matches discovery and response *timestamps* within a 3 s
//!   window, which a capped time list cannot answer. The engine feeds
//!   every frame, in record order, to the one Table 4 matcher,
//!   [`ResponseMatcher`], prunes it with the flow table's state
//!   measurement, and reads its per-device records at
//!   [`StreamEngine::finish`].

use iotlan_analysis::graph::{build_graph, DeviceGraph};
use iotlan_analysis::periodicity::{
    analyze_periodicity, group_events, GroupKey, PeriodicityReport,
};
use iotlan_analysis::prevalence::{passive_prevalence, Prevalence};
use iotlan_analysis::responses::{
    rows_from_records, CategoryResponseRow, DeviceRecord, ResponseMatcher,
};
use iotlan_classify::flow::{dissect_frame, Flow, FlowKey, FlowTable};
use iotlan_devices::Catalog;
use iotlan_netsim::{Capture, FrameSink, SimTime, FRAME_OVERHEAD};
use iotlan_wire::ethernet::EthernetAddress;
use iotlan_wire::pcap::PcapStreamReader;
use std::collections::BTreeMap;

/// Per-flow packet-time cap: below this the periodicity report is exact.
pub const EVENT_CAP: usize = 2048;

/// The Table 4 matcher is pruned (and peak state re-measured) every this
/// many packets.
const PRUNE_EVERY: u64 = 1024;

/// The state estimate's fixed charge per flow: its struct and its index
/// entry.
const FLOW_BYTES: usize = std::mem::size_of::<Flow>() + std::mem::size_of::<(FlowKey, usize)>();

/// The single-pass engine. See the module docs for the design.
pub struct StreamEngine {
    table: FlowTable,
    responses: ResponseMatcher,

    reader: PcapStreamReader,
    /// The record being fed, reused across packets and chunks.
    record: Vec<u8>,
    pcap_bytes_pushed: u64,

    packets: u64,
    bytes: u64,
    streamed_bytes: u64,
    peak_state_bytes: usize,
    /// State measurements taken, each checked against the sweep.
    #[cfg(test)]
    measurements: u64,
}

impl StreamEngine {
    pub fn new(catalog: &Catalog) -> StreamEngine {
        StreamEngine {
            table: FlowTable::with_timestamp_cap(EVENT_CAP),
            responses: ResponseMatcher::new(catalog),
            reader: PcapStreamReader::new(),
            record: Vec::new(),
            pcap_bytes_pushed: 0,
            packets: 0,
            bytes: 0,
            streamed_bytes: 0,
            peak_state_bytes: 0,
            #[cfg(test)]
            measurements: 0,
        }
    }

    /// Feed raw pcap file bytes; any chunking (down to one byte) yields
    /// identical results. Errors are the same the batch `read_pcap` would
    /// report, except that truncation is only diagnosed at [`finish`].
    ///
    /// [`finish`]: StreamEngine::finish
    pub fn push_pcap_chunk(&mut self, chunk: &[u8]) -> Result<(), iotlan_wire::Error> {
        self.pcap_bytes_pushed += chunk.len() as u64;
        self.reader.push(chunk);
        let mut record = std::mem::take(&mut self.record);
        while let Some((ts_sec, ts_usec)) = self.reader.next_packet_into(&mut record)? {
            let time = SimTime(u64::from(ts_sec) * 1_000_000 + u64::from(ts_usec));
            self.on_frame(time, &record);
        }
        self.record = record;
        Ok(())
    }

    /// Packets consumed so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Current (not peak) resident state estimate in bytes: each flow's
    /// struct and index entry, its kept arrival times and payload samples,
    /// the Table 4 matcher's buffers and matches, and the pcap bytes
    /// buffered mid-record. Every part is kept up to date as packets are
    /// added and the matcher is pruned, so reading it costs no sweep.
    pub fn state_bytes(&self) -> usize {
        self.table.len() * FLOW_BYTES
            + self.table.evidence_bytes()
            + self.responses.state_bytes()
            + self.reader.buffered_bytes()
    }

    /// The reference for [`state_bytes`](StreamEngine::state_bytes): the
    /// same estimate, its flow part summed over every flow.
    #[cfg(test)]
    fn swept_state_bytes(&self) -> usize {
        let mut total = self.table.len() * FLOW_BYTES;
        for flow in &self.table.flows {
            total += flow.timestamps.len() * std::mem::size_of::<SimTime>();
            total += flow.payload_samples.iter().map(Vec::len).sum::<usize>();
        }
        total += self.responses.state_bytes();
        total += self.reader.buffered_bytes();
        total
    }

    fn prune_and_measure(&mut self) {
        self.responses.prune();
        let state = self.state_bytes();
        #[cfg(test)]
        {
            assert_eq!(
                state,
                self.swept_state_bytes(),
                "after {} packets",
                self.packets
            );
            self.measurements += 1;
        }
        if state > self.peak_state_bytes {
            self.peak_state_bytes = state;
        }
    }

    /// Finish the pass and build the report. Fails only when pcap bytes
    /// were pushed and the image was malformed or truncated mid-record.
    /// The pass's packets and flow keys are added to the `stream.packets`
    /// and `stream.flow_keys_created` counters here, once per pass.
    /// The table labels its flows once here, for `group_events` and
    /// `records`; the report's table keeps the labels for Fig. 2.
    pub fn finish(mut self) -> Result<StreamReport, iotlan_wire::Error> {
        iotlan_telemetry::counter!("stream.packets").add(self.packets);
        iotlan_telemetry::counter!("stream.flow_keys_created").add(self.table.len() as u64);
        if self.pcap_bytes_pushed > 0 {
            self.reader.finish()?;
        }
        self.prune_and_measure();
        Ok(StreamReport {
            packets: self.packets,
            bytes: self.bytes,
            streamed_bytes: self.streamed_bytes,
            peak_state_bytes: self.peak_state_bytes,
            flow_keys: self.table.len(),
            periodicity_groups: group_events(&self.table),
            periodicity_exact: self.table.timestamps_complete(),
            records: self.responses.records(&self.table),
            table: self.table,
        })
    }
}

impl FrameSink for StreamEngine {
    fn on_frame(&mut self, time: SimTime, data: &[u8]) {
        self.packets += 1;
        self.bytes += data.len() as u64;
        self.streamed_bytes += (FRAME_OVERHEAD + data.len()) as u64;

        let Some(evidence) = dissect_frame(data) else {
            return;
        };
        let index = self.table.add_evidence(time, data.len(), evidence);
        self.responses
            .observe(index, &self.table.flows[index], time);

        if self.packets % PRUNE_EVERY == 0 {
            self.prune_and_measure();
        }
    }
}

/// The engine's output: the pass's flow table and Table 4 records, read
/// through the *batch* analysis code paths.
#[derive(Debug, Clone)]
pub struct StreamReport {
    pub packets: u64,
    pub bytes: u64,
    /// What an in-memory `Capture` of the same packets would occupy —
    /// the baseline for the bounded-memory claim.
    pub streamed_bytes: u64,
    /// Peak resident streaming state.
    pub peak_state_bytes: usize,
    /// Distinct flow keys observed.
    pub flow_keys: usize,
    /// The pass's flows, each with at most [`EVENT_CAP`] timestamps.
    pub table: FlowTable,
    /// Table 4 per-device discovery/response records.
    pub records: BTreeMap<EthernetAddress, DeviceRecord>,
    /// App. D.1 event series of `table`, as `analyze_periodicity` groups
    /// them.
    pub periodicity_groups: BTreeMap<GroupKey, Vec<f64>>,
    /// True when every flow kept all its timestamps (none hit
    /// [`EVENT_CAP`]).
    pub periodicity_exact: bool,
}

impl StreamReport {
    /// The Fig. 1/4 device graph.
    pub fn graph(&self, catalog: &Catalog) -> DeviceGraph {
        build_graph(&self.table, catalog)
    }

    /// Fig. 2 passive prevalence.
    pub fn prevalence(&self, catalog: &Catalog) -> Prevalence {
        passive_prevalence(&self.table, catalog)
    }

    /// Table 4 rows, identical to
    /// `iotlan_analysis::responses::discovery_responses`.
    pub fn discovery_response_rows(&self, catalog: &Catalog) -> Vec<CategoryResponseRow> {
        rows_from_records(&self.records, catalog)
    }

    /// App. D.1 periodicity, identical to the batch report whenever
    /// [`periodicity_exact`](StreamReport::periodicity_exact) is true.
    pub fn periodicity(&self) -> PeriodicityReport {
        analyze_periodicity(&self.table)
    }

    /// Run manifest for a completed streaming pass: the bounded-memory
    /// claims (peak state vs. streamed bytes) and content digests of the
    /// rendered Fig. 1/2 artifacts. Everything in the deterministic
    /// section is a pure function of the input capture, so the manifest is
    /// byte-identical across thread counts.
    pub fn manifest(&self, catalog: &Catalog) -> iotlan_telemetry::Manifest {
        let mut manifest = iotlan_telemetry::Manifest::new("stream_pass");
        manifest.set("packets", self.packets);
        manifest.set("bytes", self.bytes);
        manifest.set("streamed_bytes", self.streamed_bytes);
        manifest.set("peak_state_bytes", self.peak_state_bytes);
        manifest.set("flow_keys", self.flow_keys);
        manifest.set("discovery_records", self.records.len());
        manifest.set("periodicity_groups", self.periodicity_groups.len());
        manifest.set("periodicity_exact", self.periodicity_exact);
        manifest.digest("graph.txt", self.graph(catalog).render().as_bytes());
        manifest.digest(
            "prevalence.txt",
            self.prevalence(catalog).render().as_bytes(),
        );
        manifest.attach_metrics();
        manifest.attach_host_info();
        manifest
    }
}

/// Stream one capture through a fresh engine.
pub fn stream_capture(capture: &Capture, catalog: &Catalog) -> StreamReport {
    let mut engine = StreamEngine::new(catalog);
    capture.stream_into(&mut engine);
    engine
        .finish()
        .expect("frame-fed engines cannot fail at finish")
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_classify::flow::FlowTable;
    use iotlan_devices::build_testbed;
    use iotlan_netsim::stack::{self, Endpoint};
    use std::net::Ipv4Addr;

    fn endpoint_of(catalog: &Catalog, name: &str) -> Endpoint {
        let d = catalog.find(name).unwrap();
        Endpoint {
            mac: d.mac,
            ip: d.ip,
        }
    }

    /// A small synthetic capture exercising every accumulator: unicast
    /// UDP/TCP between devices (graph), mDNS multicast (prevalence +
    /// discovery), an SSDP M-SEARCH with a unicast reply (Table 4), and a
    /// periodic beacon.
    fn synthetic_capture(catalog: &Catalog) -> Capture {
        let nest = endpoint_of(catalog, "Google Nest Hub");
        let home = endpoint_of(catalog, "Google Home");
        let hue = endpoint_of(catalog, "Philips Hue Bridge");
        let mut frames: Vec<(SimTime, Vec<u8>)> = Vec::new();
        for i in 0..30u64 {
            frames.push((
                SimTime::from_secs(10 + i * 20),
                stack::udp_multicast(
                    nest,
                    Ipv4Addr::new(224, 0, 0, 251),
                    5353,
                    5353,
                    &iotlan_wire::dns::Message::mdns_query(&[(
                        "_googlecast._tcp.local",
                        iotlan_wire::dns::RecordType::Ptr,
                    )])
                    .to_bytes(),
                ),
            ));
        }
        frames.push((
            SimTime::from_secs(15),
            stack::udp_unicast(nest, home, 10001, 10002, b"cast-data"),
        ));
        frames.push((
            SimTime::from_secs(16),
            stack::tcp_segment(
                home,
                nest,
                &iotlan_wire::tcp::Repr::syn(40000, 8009, 1),
                &[],
            ),
        ));
        let msearch = iotlan_wire::ssdp::Message::msearch("ssdp:all", 2).to_bytes();
        frames.push((
            SimTime::from_secs(50),
            stack::udp_multicast(
                nest,
                Ipv4Addr::new(239, 255, 255, 250),
                51234,
                1900,
                &msearch,
            ),
        ));
        let reply = iotlan_wire::ssdp::Message::response("upnp:rootdevice", "uuid-hue", None, None)
            .to_bytes();
        frames.push((
            SimTime::from_secs(51),
            stack::udp_unicast(hue, nest, 1900, 51234, &reply),
        ));
        frames.sort_by_key(|(time, _)| *time);
        Capture::from_frames(frames)
    }

    fn assert_equivalent(capture: &Capture, catalog: &Catalog, report: &StreamReport) {
        let table = FlowTable::from_capture(capture);
        let batch_graph = iotlan_analysis::graph::build_graph(&table, catalog);
        assert_eq!(report.graph(catalog).render(), batch_graph.render());
        let batch_prev = iotlan_analysis::prevalence::passive_prevalence(&table, catalog);
        assert_eq!(report.prevalence(catalog).render(), batch_prev.render());
        let batch_rows = iotlan_analysis::responses::discovery_responses(&table, catalog);
        assert_eq!(
            iotlan_analysis::responses::render(&report.discovery_response_rows(catalog)),
            iotlan_analysis::responses::render(&batch_rows),
        );
        assert!(report.periodicity_exact);
        let stream_period = report.periodicity();
        let batch_period = iotlan_analysis::periodicity::analyze_periodicity(&table);
        assert_eq!(stream_period.groups.len(), batch_period.groups.len());
        for (s, b) in stream_period.groups.iter().zip(&batch_period.groups) {
            assert_eq!(s.key, b.key);
            assert_eq!(s.events, b.events);
            assert_eq!(s.periodic, b.periodic);
            assert_eq!(s.period_secs, b.period_secs);
        }
    }

    #[test]
    fn frame_fed_engine_matches_batch() {
        let catalog = build_testbed();
        let capture = synthetic_capture(&catalog);
        let report = stream_capture(&capture, &catalog);
        assert_eq!(report.packets, capture.frames().len() as u64);
        assert_equivalent(&capture, &catalog, &report);
        // The SSDP reply must have matched: Hue responded to the Nest Hub.
        let hub_mac = catalog.find("Google Nest Hub").unwrap().mac;
        let record = &report.records[&hub_mac];
        assert!(record.protocols_with_response.contains("SSDP"));
        assert_eq!(record.responders.len(), 1);
    }

    #[test]
    fn pcap_fed_engine_matches_at_any_chunk_size() {
        let catalog = build_testbed();
        let capture = synthetic_capture(&catalog);
        let image = capture.to_pcap();
        let whole = {
            let mut engine = StreamEngine::new(&catalog);
            engine.push_pcap_chunk(&image).unwrap();
            engine.finish().unwrap()
        };
        assert_equivalent(&capture, &catalog, &whole);
        for chunk_size in [1usize, 7, 4096] {
            let mut engine = StreamEngine::new(&catalog);
            for chunk in image.chunks(chunk_size) {
                engine.push_pcap_chunk(chunk).unwrap();
            }
            let report = engine.finish().unwrap();
            assert_eq!(report.packets, whole.packets);
            assert_equivalent(&capture, &catalog, &report);
        }
    }

    #[test]
    fn truncated_pcap_fails_at_finish_only() {
        let catalog = build_testbed();
        let capture = synthetic_capture(&catalog);
        let image = capture.to_pcap();
        let mut engine = StreamEngine::new(&catalog);
        engine.push_pcap_chunk(&image[..image.len() - 3]).unwrap();
        assert!(matches!(
            engine.finish(),
            Err(iotlan_wire::Error::Truncated)
        ));
    }

    /// The testbed idling with no honeypot or phone: every device's own
    /// discovery and its answers, thousands of frames in two minutes.
    fn testbed_idle_capture(catalog: &Catalog) -> Capture {
        let mut network = iotlan_netsim::Network::new(7);
        network.add_node(Box::new(iotlan_netsim::router::Router::new()));
        for device in &catalog.devices {
            network.add_node(Box::new(iotlan_devices::Device::new(device.clone())));
        }
        network.run_for(iotlan_netsim::SimDuration::from_mins(2));
        network.capture.clone()
    }

    /// `prune_and_measure` asserts at each measurement that the kept-up
    /// state estimate equals the sweep over every flow; this feeds it a
    /// synthetic capture (measured at finish) and a lab capture measured
    /// every `PRUNE_EVERY` packets, by frame and as pcap chunks.
    #[test]
    fn kept_state_equals_the_sweep_at_every_measurement() {
        let catalog = build_testbed();
        let synthetic = synthetic_capture(&catalog);
        let lab = testbed_idle_capture(&catalog);
        assert!(lab.frames().len() as u64 > 4 * PRUNE_EVERY);
        for capture in [&synthetic, &lab] {
            let mut engine = StreamEngine::new(&catalog);
            capture.stream_into(&mut engine);
            assert_eq!(engine.measurements, engine.packets / PRUNE_EVERY);
            engine.finish().unwrap();

            let mut engine = StreamEngine::new(&catalog);
            for chunk in capture.to_pcap().chunks(1000) {
                engine.push_pcap_chunk(chunk).unwrap();
            }
            assert_eq!(engine.measurements, engine.packets / PRUNE_EVERY);
            engine.finish().unwrap();
        }
    }

    #[test]
    fn peak_state_is_tracked_and_bounded() {
        let catalog = build_testbed();
        let capture = synthetic_capture(&catalog);
        let report = stream_capture(&capture, &catalog);
        assert!(report.peak_state_bytes > 0);
        assert!(report.streamed_bytes > 0);
    }
}
