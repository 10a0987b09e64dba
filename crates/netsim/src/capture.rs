//! The AP capture tap.
//!
//! The MonIoTr AP "captures all network traffic utilizing tcpdump ... stored
//! in separate files for each MAC address" (section 3.1). [`Capture`] is that
//! tap: it records every frame crossing the medium with its timestamp and
//! offers per-MAC views and pcap export.
//!
//! Frames are stored in a **byte arena**: one contiguous `Vec<u8>` holding
//! every frame back to back, plus a parallel index of
//! `(SimTime, offset, len)` records. Recording a frame is a bump append —
//! amortized zero allocations — instead of one `Vec` per frame, and the
//! whole capture is two allocations no matter how many frames it holds.
//! Consumers see frames through the borrowed [`FrameRef`] view, which keeps
//! the `src_mac`/`dst_mac` accessors of the old owning frame type.
//!
//! Each capture also carries a **generation**, so that a consumer can tell
//! whether it has seen this capture's frames before (see
//! [`Capture::generation`]).

use crate::time::SimTime;
use iotlan_wire::ethernet::{EthernetAddress, Frame};
use iotlan_wire::pcap::write_pcap_refs;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`Capture::generation`] values, process-wide so that no two
/// captures ever share one.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Index record for one frame in the arena: 16 bytes per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameMeta {
    time: SimTime,
    offset: u32,
    len: u32,
}

/// Per-frame bookkeeping overhead of the capture arena, in bytes — the
/// size of the index record stored alongside the frame bytes. Exposed so
/// accounting code (e.g. the streaming engine's `streamed_bytes`) can model
/// what an in-memory capture of a frame stream would occupy.
pub const FRAME_OVERHEAD: usize = std::mem::size_of::<FrameMeta>();

/// A borrowed view of one frame seen at the AP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    pub time: SimTime,
    data: &'a [u8],
}

impl<'a> FrameRef<'a> {
    /// The raw frame bytes.
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Source MAC (frames shorter than an Ethernet header never enter the
    /// capture, so this cannot fail).
    pub fn src_mac(&self) -> EthernetAddress {
        Frame::new_unchecked(self.data).src_addr()
    }

    /// Destination MAC.
    pub fn dst_mac(&self) -> EthernetAddress {
        Frame::new_unchecked(self.data).dst_addr()
    }
}

/// Iterator over the frames of a [`Capture`], yielding [`FrameRef`] views.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    arena: &'a [u8],
    metas: std::slice::Iter<'a, FrameMeta>,
}

impl<'a> Iterator for Frames<'a> {
    type Item = FrameRef<'a>;

    fn next(&mut self) -> Option<FrameRef<'a>> {
        let meta = self.metas.next()?;
        Some(FrameRef {
            time: meta.time,
            data: &self.arena[meta.offset as usize..(meta.offset + meta.len) as usize],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.metas.size_hint()
    }
}

impl<'a> DoubleEndedIterator for Frames<'a> {
    fn next_back(&mut self) -> Option<FrameRef<'a>> {
        let meta = self.metas.next_back()?;
        Some(FrameRef {
            time: meta.time,
            data: &self.arena[meta.offset as usize..(meta.offset + meta.len) as usize],
        })
    }
}

impl<'a> ExactSizeIterator for Frames<'a> {}

/// A consumer of captured frames, fed one at a time in record order.
///
/// This is the streaming tap: `iotlan-stream`'s engine implements it so a
/// simulation can analyze frames as they are drained instead of
/// materializing the whole capture. Frames arrive in *record* order (the
/// order the AP traced them), which is not strictly timestamp order —
/// scheduled transmissions are stamped with their future tx time, so
/// consumers must tolerate a bounded backward time skew.
pub trait FrameSink {
    fn on_frame(&mut self, time: SimTime, data: &[u8]);
}

/// The full promiscuous capture at the AP, arena-backed.
pub struct Capture {
    /// Every frame's bytes, back to back in record order.
    arena: Vec<u8>,
    /// One index record per frame, in record order.
    metas: Vec<FrameMeta>,
    /// See [`Capture::generation`].
    generation: u64,
}

impl Default for Capture {
    fn default() -> Capture {
        Capture {
            arena: Vec::new(),
            metas: Vec::new(),
            generation: next_generation(),
        }
    }
}

/// A clone is a new generation: the original and the clone may each be
/// extended with different frames from here on.
impl Clone for Capture {
    fn clone(&self) -> Capture {
        Capture {
            arena: self.arena.clone(),
            metas: self.metas.clone(),
            generation: next_generation(),
        }
    }
}

/// The frames only: two captures of the same frames print alike whatever
/// their generations.
impl std::fmt::Debug for Capture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Capture")
            .field("arena", &self.arena)
            .field("metas", &self.metas)
            .finish()
    }
}

impl Capture {
    pub fn new() -> Capture {
        Capture::default()
    }

    /// This capture's generation, unique in the process. It is drawn anew
    /// whenever the capture stops being an append-only extension of what it
    /// held before: at construction, on `clone` and on
    /// [`drain_into`](Capture::drain_into). Recording a frame keeps it.
    ///
    /// So two observations of one capture with equal `(generation(),
    /// len())` saw identical frames, and a consumer may key a result
    /// derived from the frames on that pair. The length alone is not such
    /// a key: a drained and refilled capture, or another capture of the
    /// same size, holds different frames.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Pre-size the capture for `frames` frames totalling `bytes` frame
    /// bytes. Recording within the reserved capacity performs no
    /// allocations at all (the allocation-regression test relies on this
    /// to pin the per-frame cost of the hot path).
    pub fn reserve(&mut self, frames: usize, bytes: usize) {
        self.metas.reserve(frames);
        self.arena.reserve(bytes);
    }

    /// Record one frame at `time`: a bump append into the arena. Within
    /// reserved capacity this performs no allocations.
    pub fn record(&mut self, time: SimTime, data: &[u8]) {
        // Count arena reallocation (growth past the reserved capacity):
        // a rising growth counter on a sized workload means a reserve call
        // is under-estimating.
        if self.arena.len() + data.len() > self.arena.capacity() {
            iotlan_telemetry::counter!("netsim.capture.arena_growth").incr();
        }
        let offset = self.arena.len() as u32;
        self.arena.extend_from_slice(data);
        iotlan_telemetry::gauge!("netsim.capture.arena_peak_bytes")
            .set_max(self.arena.len() as i64);
        self.metas.push(FrameMeta {
            time,
            offset,
            len: data.len() as u32,
        });
    }

    /// Build a capture from pre-stamped frames, kept in the given order
    /// (which should be record order). For replay tooling and tests that
    /// need a capture without running a simulation.
    pub fn from_frames(frames: Vec<(SimTime, Vec<u8>)>) -> Capture {
        let mut capture = Capture::new();
        capture.reserve(frames.len(), frames.iter().map(|(_, d)| d.len()).sum());
        for (time, data) in &frames {
            capture.record(*time, data);
        }
        capture
    }

    /// Iterate over all captured frames, in record order.
    pub fn frames(&self) -> Frames<'_> {
        Frames {
            arena: &self.arena,
            metas: self.metas.iter(),
        }
    }

    /// Iterate over the frames recorded at index `start` and later — the
    /// borrowed replacement for slicing an owned frame list (`[before..]`).
    pub fn frames_from(&self, start: usize) -> Frames<'_> {
        Frames {
            arena: &self.arena,
            metas: self.metas[start.min(self.metas.len())..].iter(),
        }
    }

    pub fn len(&self) -> usize {
        self.metas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Total frame bytes held in the arena.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Frames *sent* by `mac` only.
    pub fn sent_by(&self, mac: EthernetAddress) -> Vec<FrameRef<'_>> {
        self.frames().filter(|f| f.src_mac() == mac).collect()
    }

    /// Replay every recorded frame into `sink`, in record order, without
    /// consuming the capture.
    pub fn stream_into(&self, sink: &mut impl FrameSink) {
        for frame in self.frames() {
            sink.on_frame(frame.time, frame.data());
        }
    }

    /// Drain all buffered frames into `sink`, leaving the capture empty.
    ///
    /// This is the bounded-memory tap: a driver that runs the simulation in
    /// windows and drains between them never holds more than one window of
    /// frames, no matter how long the run. The arena's capacity is kept, so
    /// steady-state windowed runs record and drain without allocating.
    /// The emptied capture is a new [generation](Capture::generation).
    pub fn drain_into(&mut self, sink: &mut impl FrameSink) {
        for frame in self.frames() {
            sink.on_frame(frame.time, frame.data());
        }
        self.arena.clear();
        self.metas.clear();
        self.generation = next_generation();
    }

    /// Export the whole capture as a pcap file image.
    pub fn to_pcap(&self) -> Vec<u8> {
        self.to_pcap_filtered(|_| true)
    }

    /// Export the per-MAC capture file for `mac`.
    pub fn to_pcap_for_mac(&self, mac: EthernetAddress) -> Vec<u8> {
        self.to_pcap_filtered(|f| f.src_mac() == mac || f.dst_mac() == mac)
    }

    /// Serialize straight from arena slices: the only per-frame work is the
    /// one copy into the pre-sized output buffer — no owned intermediates.
    fn to_pcap_filtered(&self, keep: impl Fn(&FrameRef<'_>) -> bool) -> Vec<u8> {
        let records: Vec<(u32, u32, &[u8])> = self
            .frames()
            .filter(|f| keep(f))
            .map(|f| {
                let (ts_sec, ts_usec) = f.time.split();
                (ts_sec, ts_usec, f.data())
            })
            .collect();
        write_pcap_refs(&records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_wire::ethernet::{build_frame, EtherType, Repr};
    use iotlan_wire::pcap::read_pcap;

    fn frame(src: u8, dst: u8) -> Vec<u8> {
        build_frame(
            &Repr {
                src_addr: EthernetAddress([2, 0, 0, 0, 0, src]),
                dst_addr: if dst == 0xff {
                    EthernetAddress::BROADCAST
                } else {
                    EthernetAddress([2, 0, 0, 0, 0, dst])
                },
                ethertype: EtherType::Ipv4,
            },
            &[0u8; 10],
        )
    }

    #[test]
    fn per_mac_split() {
        let mut capture = Capture::new();
        capture.record(SimTime::from_secs(1), &frame(1, 2));
        capture.record(SimTime::from_secs(2), &frame(2, 1));
        capture.record(SimTime::from_secs(3), &frame(3, 0xff));
        let mac1 = EthernetAddress([2, 0, 0, 0, 0, 1]);
        assert_eq!(capture.sent_by(mac1).len(), 1);
    }

    #[test]
    fn pcap_export_roundtrip() {
        let mut capture = Capture::new();
        capture.record(SimTime::from_secs(1), &frame(1, 2));
        capture.record(SimTime(1_500_000), &frame(2, 1));
        let image = capture.to_pcap();
        let packets = read_pcap(&image).unwrap();
        assert_eq!(packets.len(), 2);
        assert_eq!(packets[0].ts_sec, 1);
        assert_eq!(packets[1].ts_usec, 500_000);
        assert_eq!(packets[0].data, capture.frames().next().unwrap().data());
    }

    #[test]
    fn stream_and_drain_tap() {
        struct Collector(Vec<(SimTime, usize)>);
        impl FrameSink for Collector {
            fn on_frame(&mut self, time: SimTime, data: &[u8]) {
                self.0.push((time, data.len()));
            }
        }
        let mut capture = Capture::new();
        capture.record(SimTime::from_secs(1), &frame(1, 2));
        capture.record(SimTime::from_secs(2), &frame(2, 1));
        let mut seen = Collector(Vec::new());
        capture.stream_into(&mut seen);
        assert_eq!(seen.0.len(), 2);
        assert_eq!(capture.len(), 2, "stream_into must not consume");
        let mut drained = Collector(Vec::new());
        capture.drain_into(&mut drained);
        assert_eq!(drained.0, seen.0, "drain replays the same frames");
        assert!(capture.is_empty(), "drain_into empties the buffer");
        // The arena keeps its capacity: recording after a drain reuses it.
        let bytes_capacity = capture.arena.capacity();
        capture.record(SimTime::from_secs(3), &frame(1, 2));
        assert_eq!(capture.arena.capacity(), bytes_capacity);
        assert_eq!(capture.frames().next().unwrap().time, SimTime::from_secs(3));
    }

    #[test]
    fn per_mac_pcap() {
        let mut capture = Capture::new();
        capture.record(SimTime::ZERO, &frame(1, 2));
        capture.record(SimTime::ZERO, &frame(3, 4));
        let mac1 = EthernetAddress([2, 0, 0, 0, 0, 1]);
        let packets = read_pcap(&capture.to_pcap_for_mac(mac1)).unwrap();
        assert_eq!(packets.len(), 1);
    }

    #[test]
    fn generation_changes_wherever_frames_stop_extending() {
        struct Discard;
        impl FrameSink for Discard {
            fn on_frame(&mut self, _: SimTime, _: &[u8]) {}
        }
        let mut first = Capture::new();
        let second = Capture::new();
        assert_ne!(first.generation(), second.generation());
        assert_ne!(Capture::default().generation(), second.generation());

        let before = first.generation();
        first.record(SimTime::from_secs(1), &frame(1, 2));
        assert_eq!(first.generation(), before, "recording extends the capture");
        let clone = first.clone();
        assert_ne!(clone.generation(), first.generation());
        assert_eq!(
            format!("{clone:?}"),
            format!("{first:?}"),
            "Debug shows frames only"
        );

        first.drain_into(&mut Discard);
        assert_ne!(first.generation(), before);
        assert_ne!(first.generation(), clone.generation());
        assert_ne!(first.generation(), second.generation());
    }

    #[test]
    fn frames_from_skips_prefix() {
        let mut capture = Capture::new();
        capture.record(SimTime::from_secs(1), &frame(1, 2));
        capture.record(SimTime::from_secs(2), &frame(2, 1));
        capture.record(SimTime::from_secs(3), &frame(3, 4));
        let tail: Vec<SimTime> = capture.frames_from(1).map(|f| f.time).collect();
        assert_eq!(tail, vec![SimTime::from_secs(2), SimTime::from_secs(3)]);
        assert_eq!(capture.frames_from(5).count(), 0, "past-the-end is empty");
    }

    #[test]
    fn record_within_reserve_does_not_move_arena() {
        let mut capture = Capture::new();
        let frames: Vec<Vec<u8>> = (0..8).map(|i| frame(i, (i + 1) % 8)).collect();
        capture.reserve(frames.len(), frames.iter().map(Vec::len).sum());
        let arena_capacity = capture.arena.capacity();
        let metas_capacity = capture.metas.capacity();
        for (i, data) in frames.iter().enumerate() {
            capture.record(SimTime::from_secs(i as u64), data);
        }
        assert_eq!(capture.arena.capacity(), arena_capacity);
        assert_eq!(capture.metas.capacity(), metas_capacity);
        assert_eq!(capture.len(), 8);
        for (recorded, data) in capture.frames().zip(&frames) {
            assert_eq!(recorded.data(), &data[..]);
        }
    }
}
