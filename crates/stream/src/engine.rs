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
//!   window, which a capped time list cannot answer. The engine matches
//!   online instead: capture record order can run behind stamps by a
//!   bounded skew (delayed sends are stamped ahead, at most ~30 s in the
//!   simulator), so a pair of horizon-pruned buffers
//!   ([`TABLE4_HORIZON_SECS`]) sees every pair the batch cross-join sees.
//!   Labels, and with them the excluded-protocol filter, are resolved at
//!   [`StreamEngine::finish`].

use iotlan_analysis::graph::{build_graph, DeviceGraph};
use iotlan_analysis::periodicity::{
    analyze_periodicity, group_events, GroupKey, PeriodicityReport,
};
use iotlan_analysis::prevalence::{passive_prevalence, Prevalence};
use iotlan_analysis::responses::{
    rows_from_records, CategoryResponseRow, DeviceRecord, EXCLUDED_PROTOCOLS,
    RESPONSE_WINDOW_SECS,
};
use iotlan_classify::flow::{dissect_frame, Flow, FlowKey, FlowTable, Transport};
use iotlan_classify::rules::{classify_with_rules, paper_rules};
use iotlan_devices::Catalog;
use iotlan_netsim::{Capture, FrameSink, SimTime, FRAME_OVERHEAD};
use iotlan_util::pool;
use iotlan_wire::ethernet::EthernetAddress;
use iotlan_wire::pcap::PcapStreamReader;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// Per-flow packet-time cap: below this the periodicity report is exact.
pub const EVENT_CAP: usize = 2048;

/// How long a Table 4 candidate event stays buffered behind the
/// high-water stamp. Must cover the 3 s response window plus the
/// simulator's maximum record-order/stamp skew (~30 s for delayed
/// sends); 64 s leaves a 2× margin.
pub const TABLE4_HORIZON_SECS: f64 = 64.0;

/// Buffers are pruned (and peak state re-measured) every this many packets.
const PRUNE_EVERY: u64 = 1024;

/// A flow's part in the Table 4 correlation, fixed by its first frame.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Table4Role {
    None,
    /// Multicast/broadcast UDP from a catalog device.
    Discovery,
    /// Unicast UDP towards a catalog device's IP (the device's MAC).
    Response(EthernetAddress),
}

struct DiscEvent {
    time: f64,
    flow: usize,
    device: EthernetAddress,
    src_port: u16,
}

struct RespEvent {
    time: f64,
    device: EthernetAddress,
    dst_port: u16,
    responder: EthernetAddress,
}

/// The single-pass engine. See the module docs for the design.
pub struct StreamEngine {
    device_macs: BTreeSet<EthernetAddress>,
    ip_to_mac: HashMap<Ipv4Addr, EthernetAddress>,

    table: FlowTable,
    /// Table 4 role of each flow in `table`, by flow index.
    roles: Vec<Table4Role>,

    disc_buffer: Vec<DiscEvent>,
    resp_buffer: Vec<RespEvent>,
    /// (discovery flow index, responder MAC) — label-independent, resolved
    /// (and excluded-protocol-filtered) at finish.
    matches: BTreeSet<(usize, EthernetAddress)>,
    max_stamp_secs: f64,

    reader: PcapStreamReader,
    pcap_bytes_pushed: u64,

    packets: u64,
    bytes: u64,
    streamed_bytes: u64,
    peak_state_bytes: usize,
}

impl StreamEngine {
    pub fn new(catalog: &Catalog) -> StreamEngine {
        let mut ip_to_mac = HashMap::new();
        for device in &catalog.devices {
            // First device wins on (hypothetical) duplicate IPs, matching
            // the batch pass's `.find()`.
            ip_to_mac.entry(device.ip).or_insert(device.mac);
        }
        StreamEngine {
            device_macs: catalog.devices.iter().map(|d| d.mac).collect(),
            ip_to_mac,
            table: FlowTable::with_timestamp_cap(EVENT_CAP),
            roles: Vec::new(),
            disc_buffer: Vec::new(),
            resp_buffer: Vec::new(),
            matches: BTreeSet::new(),
            max_stamp_secs: 0.0,
            reader: PcapStreamReader::new(),
            pcap_bytes_pushed: 0,
            packets: 0,
            bytes: 0,
            streamed_bytes: 0,
            peak_state_bytes: 0,
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
        while let Some(packet) = self.reader.next_packet()? {
            let time = SimTime(
                u64::from(packet.ts_sec) * 1_000_000 + u64::from(packet.ts_usec),
            );
            self.on_frame(time, &packet.data);
        }
        Ok(())
    }

    /// Packets consumed so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Current (not peak) resident state estimate in bytes.
    pub fn state_bytes(&self) -> usize {
        let per_flow = std::mem::size_of::<Flow>()
            + std::mem::size_of::<(FlowKey, usize)>()
            + std::mem::size_of::<Table4Role>();
        let mut total = self.table.len() * per_flow;
        for flow in &self.table.flows {
            total += flow.timestamps.len() * std::mem::size_of::<SimTime>();
            total += flow.payload_samples.iter().map(Vec::len).sum::<usize>();
        }
        total += self.disc_buffer.len() * std::mem::size_of::<DiscEvent>();
        total += self.resp_buffer.len() * std::mem::size_of::<RespEvent>();
        total += self.matches.len() * 32;
        total += self.reader.buffered_bytes();
        total
    }

    fn prune_and_measure(&mut self) {
        let horizon = self.max_stamp_secs - TABLE4_HORIZON_SECS;
        self.disc_buffer.retain(|e| e.time >= horizon);
        self.resp_buffer.retain(|e| e.time >= horizon);
        let state = self.state_bytes();
        if state > self.peak_state_bytes {
            self.peak_state_bytes = state;
        }
    }

    /// The Table 4 role of a new flow.
    fn role_of(&self, flow: &Flow) -> Table4Role {
        if !matches!(flow.key.transport, Transport::Udp | Transport::UdpV6) {
            Table4Role::None
        } else if flow.is_multicast_or_broadcast() {
            if self.device_macs.contains(&flow.key.src_mac) {
                Table4Role::Discovery
            } else {
                Table4Role::None
            }
        } else {
            match flow.key.dst_ip.and_then(|ip| self.ip_to_mac.get(&ip)) {
                Some(&mac) => Table4Role::Response(mac),
                None => Table4Role::None,
            }
        }
    }

    /// Finish the pass and build the report. Fails only when pcap bytes
    /// were pushed and the image was malformed or truncated mid-record.
    pub fn finish(mut self) -> Result<StreamReport, iotlan_wire::Error> {
        let _span = iotlan_telemetry::span!("stream.finish");
        if self.pcap_bytes_pushed > 0 {
            self.reader.finish()?;
        }
        self.prune_and_measure();

        // Table 4: label the discovery flows, now that the whole flow (and
        // so the batch classifier's evidence) is known, then resolve the
        // matches through the excluded-protocol filter.
        let rules = paper_rules();
        let mut labels: HashMap<usize, &'static str> = HashMap::new();
        let mut records: BTreeMap<EthernetAddress, DeviceRecord> = BTreeMap::new();
        for (index, flow) in self.table.flows.iter().enumerate() {
            if self.roles[index] != Table4Role::Discovery {
                continue;
            }
            let label = classify_with_rules(flow, &rules);
            labels.insert(index, label);
            if !EXCLUDED_PROTOCOLS.contains(&label) {
                records
                    .entry(flow.key.src_mac)
                    .or_default()
                    .discovery_protocols
                    .insert(label.to_string());
            }
        }
        for &(index, responder) in &self.matches {
            let label = labels[&index];
            if EXCLUDED_PROTOCOLS.contains(&label) {
                continue;
            }
            let record = records
                .entry(self.table.flows[index].key.src_mac)
                .or_default();
            record.protocols_with_response.insert(label.to_string());
            record.responders.insert(responder);
        }

        Ok(StreamReport {
            packets: self.packets,
            bytes: self.bytes,
            streamed_bytes: self.streamed_bytes,
            peak_state_bytes: self.peak_state_bytes,
            flow_keys: self.table.len(),
            periodicity_groups: group_events(&self.table),
            periodicity_exact: self.table.timestamps_complete(),
            records,
            table: self.table,
        })
    }
}

impl FrameSink for StreamEngine {
    fn on_frame(&mut self, time: SimTime, data: &[u8]) {
        iotlan_telemetry::counter!("stream.packets").incr();
        self.packets += 1;
        self.bytes += data.len() as u64;
        self.streamed_bytes += (FRAME_OVERHEAD + data.len()) as u64;

        let secs = time.as_secs_f64();
        if secs > self.max_stamp_secs {
            self.max_stamp_secs = secs;
        }

        let Some(evidence) = dissect_frame(data) else {
            return;
        };
        let key = evidence.key;
        let index = self.table.add_evidence(time, data.len(), evidence);
        if index == self.roles.len() {
            iotlan_telemetry::counter!("stream.flow_keys_created").incr();
            let role = self.role_of(&self.table.flows[index]);
            self.roles.push(role);
        }

        // Table 4: event buffers + bidirectional window matching. The
        // window test reproduces the batch f64 arithmetic bit-for-bit:
        // delta = response_secs - discovery_secs ∈ [0, 3].
        match self.roles[index] {
            Table4Role::Discovery => {
                for resp in &self.resp_buffer {
                    if resp.device != key.src_mac || resp.dst_port != key.src_port {
                        continue;
                    }
                    let delta = resp.time - secs;
                    if (0.0..=RESPONSE_WINDOW_SECS).contains(&delta) {
                        self.matches.insert((index, resp.responder));
                    }
                }
                self.disc_buffer.push(DiscEvent {
                    time: secs,
                    flow: index,
                    device: key.src_mac,
                    src_port: key.src_port,
                });
            }
            Table4Role::Response(device_mac) => {
                for disc in &self.disc_buffer {
                    if disc.device != device_mac || disc.src_port != key.dst_port {
                        continue;
                    }
                    let delta = secs - disc.time;
                    if (0.0..=RESPONSE_WINDOW_SECS).contains(&delta) {
                        self.matches.insert((disc.flow, key.src_mac));
                    }
                }
                self.resp_buffer.push(RespEvent {
                    time: secs,
                    device: device_mac,
                    dst_port: key.dst_port,
                    responder: key.src_mac,
                });
            }
            Table4Role::None => {}
        }

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
    /// Peak resident streaming state (max across merged shards).
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
        manifest.digest("prevalence.txt", self.prevalence(catalog).render().as_bytes());
        manifest.attach_metrics();
        manifest.attach_host_info();
        manifest
    }

    /// Merge the report of the traffic that followed this report's (call
    /// in input order). The flow table — and with it Fig. 1/4, Fig. 2 and
    /// App. D.1 — then equals one pass over the concatenated traffic.
    /// Table 4 records take the set union, which is exact when the shards
    /// are disjoint households; a discovery in one shard and its response
    /// in the next do not match. Peak state takes the max, since shards
    /// stream concurrently, each within its own bound.
    pub fn merge(&mut self, other: &StreamReport) {
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.streamed_bytes += other.streamed_bytes;
        self.peak_state_bytes = self.peak_state_bytes.max(other.peak_state_bytes);
        self.table.merge(&other.table);
        self.flow_keys = self.table.len();
        for (mac, record) in &other.records {
            self.records.entry(*mac).or_default().merge(record);
        }
        self.periodicity_groups = group_events(&self.table);
        self.periodicity_exact = self.table.timestamps_complete();
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

/// Household sharding: stream each capture on the deterministic pool and
/// merge the reports in input order. With disjoint households (separate
/// networks, as in the paper's crowd-scale analysis) the merged report
/// equals streaming the concatenated traffic; the result is bit-identical
/// at any `IOTLAN_THREADS` setting because per-shard work is independent
/// and the merge order is the input order.
pub fn stream_captures_sharded(captures: &[Capture], catalog: &Catalog) -> StreamReport {
    let reports = pool::par_map(captures, |_, capture| stream_capture(capture, catalog));
    let mut merged: Option<StreamReport> = None;
    for report in reports {
        match &mut merged {
            Some(m) => m.merge(&report),
            None => merged = Some(report),
        }
    }
    merged.unwrap_or_else(|| {
        StreamEngine::new(catalog)
            .finish()
            .expect("empty engine cannot fail")
    })
}

/// Pcap-shard variant of [`stream_captures_sharded`]: each shard is a pcap
/// file image, fed to its engine in `chunk_size`-byte chunks.
pub fn stream_pcaps_sharded(
    shards: &[Vec<u8>],
    chunk_size: usize,
    catalog: &Catalog,
) -> Result<StreamReport, iotlan_wire::Error> {
    let chunk_size = chunk_size.max(1);
    let reports = pool::par_map(shards, |_, image| -> Result<StreamReport, iotlan_wire::Error> {
        let mut engine = StreamEngine::new(catalog);
        for chunk in image.chunks(chunk_size) {
            engine.push_pcap_chunk(chunk)?;
        }
        engine.finish()
    });
    let mut merged: Option<StreamReport> = None;
    for report in reports {
        let report = report?;
        match &mut merged {
            Some(m) => m.merge(&report),
            None => merged = Some(report),
        }
    }
    match merged {
        Some(m) => Ok(m),
        None => Ok(StreamEngine::new(catalog)
            .finish()
            .expect("empty engine cannot fail")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_classify::flow::FlowTable;
    use iotlan_devices::build_testbed;
    use iotlan_netsim::stack::{self, Endpoint};

    fn endpoint_of(catalog: &Catalog, name: &str) -> Endpoint {
        let d = catalog.find(name).unwrap();
        Endpoint { mac: d.mac, ip: d.ip }
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
    fn sharded_merge_is_input_ordered_and_thread_invariant() {
        let catalog = build_testbed();
        let capture = synthetic_capture(&catalog);
        let shards: Vec<Capture> = vec![capture.clone(), capture.clone(), capture];
        let summarize = |r: &StreamReport| {
            (
                r.packets,
                r.graph(&catalog).render(),
                r.prevalence(&catalog).render(),
                r.flow_keys,
            )
        };
        let base = summarize(&stream_captures_sharded(&shards, &catalog));
        for threads in [1usize, 4] {
            let report = pool::with_threads(threads, || stream_captures_sharded(&shards, &catalog));
            assert_eq!(summarize(&report), base);
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

    #[test]
    fn peak_state_is_tracked_and_bounded() {
        let catalog = build_testbed();
        let capture = synthetic_capture(&catalog);
        let report = stream_capture(&capture, &catalog);
        assert!(report.peak_state_bytes > 0);
        assert!(report.streamed_bytes > 0);
    }
}
