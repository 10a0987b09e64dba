//! The classic libpcap file format, implemented from scratch.
//!
//! The MonIoTr testbed stores `tcpdump` captures "in separate files for each
//! MAC address" (§3.1). This module writes and reads the standard
//! little-endian pcap format (magic `0xa1b2c3d4`, LINKTYPE_ETHERNET) so the
//! simulator's captures can be exported and re-imported byte-identically —
//! and opened in Wireshark.

use crate::{Error, Result};
use core::fmt;

const MAGIC_LE: u32 = 0xa1b2_c3d4;
const MAGIC_BE: u32 = 0xd4c3_b2a1;
const VERSION_MAJOR: u16 = 2;
const VERSION_MINOR: u16 = 4;
const LINKTYPE_ETHERNET: u32 = 1;

/// Hard ceiling on a record's `incl_len` — tcpdump's `MAXIMUM_SNAPLEN`.
/// A garbage length field (from a corrupt or adversarial file) would
/// otherwise make the reader buffer gigabytes waiting for a "record" that
/// never completes; anything above this is diagnosed as malformed
/// immediately instead.
pub const MAX_INCL_LEN: usize = 262_144;

/// A pcap stream-parse failure, located in the input.
///
/// Wraps the protocol-level [`Error`] with the absolute byte offset where
/// the problem lies and a note on what the reader was parsing. Converts
/// into the plain [`Error`] via `From` (dropping the location), so callers
/// that only route on the error kind — including `?` in functions returning
/// `Result<_, Error>` — are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamError {
    /// The protocol-level error kind.
    pub kind: Error,
    /// Absolute byte offset into the pcap stream where the problem lies.
    pub offset: u64,
    /// What the reader was parsing when it failed.
    pub context: &'static str,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at byte {} ({})",
            self.kind, self.offset, self.context
        )
    }
}

impl std::error::Error for StreamError {}

impl From<StreamError> for Error {
    fn from(error: StreamError) -> Error {
        error.kind
    }
}

/// One captured packet: a timestamp and the raw frame bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapPacket {
    /// Seconds since the epoch (simulation time in our captures).
    pub ts_sec: u32,
    /// Microseconds within the second.
    pub ts_usec: u32,
    pub data: Vec<u8>,
}

fn append_global_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC_LE.to_le_bytes());
    out.extend_from_slice(&VERSION_MAJOR.to_le_bytes());
    out.extend_from_slice(&VERSION_MINOR.to_le_bytes());
    out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    out.extend_from_slice(&65535u32.to_le_bytes()); // snaplen
    out.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
}

fn append_record(out: &mut Vec<u8>, ts_sec: u32, ts_usec: u32, data: &[u8]) {
    out.extend_from_slice(&ts_sec.to_le_bytes());
    out.extend_from_slice(&ts_usec.to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes()); // incl_len
    out.extend_from_slice(&(data.len() as u32).to_le_bytes()); // orig_len
    out.extend_from_slice(data);
}

/// Serialize `(ts_sec, ts_usec, frame)` records into a pcap file image
/// without taking ownership of any frame bytes.
///
/// The output buffer is sized up front and each frame is copied exactly
/// once — a capture holding its frames in an arena (or any caller with
/// frames in place) exports without first cloning every frame into a
/// [`PcapPacket`].
pub fn write_pcap_refs(packets: &[(u32, u32, &[u8])]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        24 + packets
            .iter()
            .map(|(_, _, data)| 16 + data.len())
            .sum::<usize>(),
    );
    append_global_header(&mut out);
    for &(ts_sec, ts_usec, data) in packets {
        append_record(&mut out, ts_sec, ts_usec, data);
    }
    out
}

/// Incremental pcap parser: feed arbitrary byte chunks with [`push`],
/// drain parsed packets with [`next_packet`], and close the stream with
/// [`finish`].
///
/// The reader never holds the file: consumed bytes are reclaimed as records
/// complete, so its buffer is bounded by one unparsed record (header bytes
/// plus the record's `incl_len`). Parsing is resumable across *any* buffer
/// split — a chunk boundary landing mid-header or mid-record simply makes
/// [`next_packet`] return `Ok(None)` until more bytes arrive.
///
/// Errors are [`StreamError`]s carrying the byte offset of the fault; the
/// kinds match [`read_pcap`] exactly (the batch function is a thin wrapper
/// over this type, so the two parsers cannot diverge):
///
/// * [`Error::Malformed`] — bad magic (offset 0), or a record whose
///   `incl_len` exceeds [`MAX_INCL_LEN`] (offset of the length field);
/// * [`Error::Unsupported`] — a non-Ethernet linktype (offset of the
///   linktype field);
/// * [`Error::Truncated`] — raised only by [`finish`], when the input ends
///   mid-header or mid-record (offset where the incomplete object began).
///   A chunk boundary there is *not* an error.
///
/// [`push`]: PcapStreamReader::push
/// [`next_packet`]: PcapStreamReader::next_packet
/// [`finish`]: PcapStreamReader::finish
#[derive(Debug, Default)]
pub struct PcapStreamReader {
    buffer: Vec<u8>,
    /// Bytes of `buffer` already consumed (reclaimed lazily).
    consumed: usize,
    /// Absolute stream offset of the first unconsumed byte — the running
    /// total of consumed bytes, immune to buffer compaction.
    absolute: u64,
    /// Set once the 24-byte global header has been parsed.
    big_endian: Option<bool>,
    /// A sticky header error: once raised, every later call re-raises it.
    error: Option<StreamError>,
}

/// Compact the internal buffer once this many consumed bytes accumulate.
const COMPACT_THRESHOLD: usize = 64 * 1024;

impl PcapStreamReader {
    pub fn new() -> PcapStreamReader {
        PcapStreamReader::default()
    }

    /// Append a chunk of the pcap byte stream. Chunks may split headers and
    /// records anywhere, down to one byte at a time.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buffer.extend_from_slice(chunk);
    }

    /// Bytes currently buffered awaiting a complete header/record — the
    /// reader's whole memory footprint beyond a few words.
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.len() - self.consumed
    }

    fn pending(&self) -> &[u8] {
        &self.buffer[self.consumed..]
    }

    fn consume(&mut self, n: usize) {
        self.consumed += n;
        self.absolute += n as u64;
        if self.consumed >= COMPACT_THRESHOLD && self.consumed * 2 >= self.buffer.len() {
            self.buffer.drain(..self.consumed);
            self.consumed = 0;
        }
    }

    /// Raise a sticky, located error.
    fn fail(&mut self, kind: Error, offset: u64, context: &'static str) -> StreamError {
        let error = StreamError {
            kind,
            offset,
            context,
        };
        self.error = Some(error);
        error
    }

    fn read_u32(&self, bytes: &[u8]) -> u32 {
        let array: [u8; 4] = bytes.try_into().unwrap();
        if self.big_endian == Some(true) {
            u32::from_be_bytes(array)
        } else {
            u32::from_le_bytes(array)
        }
    }

    /// Parse the next packet, if the buffered bytes complete one.
    ///
    /// `Ok(None)` means "need more input" — call [`push`][Self::push] with
    /// the next chunk, or [`finish`][Self::finish] if the stream is done.
    pub fn next_packet(&mut self) -> core::result::Result<Option<PcapPacket>, StreamError> {
        let mut data = Vec::new();
        Ok(self
            .next_packet_into(&mut data)?
            .map(|(ts_sec, ts_usec)| PcapPacket {
                ts_sec,
                ts_usec,
                data,
            }))
    }

    /// [`next_packet`][Self::next_packet] into a caller's buffer: the
    /// record's bytes replace `data`'s contents and its timestamp is
    /// returned, so a caller that reuses one buffer allocates nothing per
    /// packet.
    pub fn next_packet_into(
        &mut self,
        data: &mut Vec<u8>,
    ) -> core::result::Result<Option<(u32, u32)>, StreamError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        if self.big_endian.is_none() {
            if self.buffer.len() - self.consumed < 24 {
                return Ok(None);
            }
            let header = &self.pending()[..24];
            let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
            let big_endian = match magic {
                MAGIC_LE => false,
                MAGIC_BE => true,
                _ => {
                    return Err(self.fail(Error::Malformed, 0, "pcap global header magic"));
                }
            };
            self.big_endian = Some(big_endian);
            let linktype = self.read_u32(&self.pending()[20..24]);
            if linktype != LINKTYPE_ETHERNET {
                self.big_endian = None;
                return Err(self.fail(
                    Error::Unsupported,
                    20,
                    "pcap linktype (only LINKTYPE_ETHERNET is supported)",
                ));
            }
            self.consume(24);
        }
        let pending = &self.buffer[self.consumed..];
        if pending.len() < 16 {
            return Ok(None);
        }
        let incl_len = self.read_u32(&pending[8..12]) as usize;
        if incl_len > MAX_INCL_LEN {
            let offset = self.absolute + 8;
            return Err(self.fail(
                Error::Malformed,
                offset,
                "record incl_len exceeds MAX_INCL_LEN",
            ));
        }
        if pending.len() < 16 + incl_len {
            return Ok(None);
        }
        let stamp = (self.read_u32(&pending[0..4]), self.read_u32(&pending[4..8]));
        data.clear();
        data.extend_from_slice(&pending[16..16 + incl_len]);
        self.consume(16 + incl_len);
        Ok(Some(stamp))
    }

    /// Declare end-of-input. Errors with [`Error::Truncated`] when the
    /// stream stopped mid-header or mid-record — the *only* place truncation
    /// is diagnosed, so chunk boundaries can never masquerade as it. The
    /// reported offset is where the incomplete object began.
    pub fn finish(&self) -> core::result::Result<(), StreamError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        if self.big_endian.is_none() {
            return Err(StreamError {
                kind: Error::Truncated,
                offset: self.absolute,
                context: "stream ended inside the 24-byte global header",
            });
        }
        if self.buffered_bytes() > 0 {
            return Err(StreamError {
                kind: Error::Truncated,
                offset: self.absolute,
                context: "stream ended mid-record",
            });
        }
        Ok(())
    }
}

/// Parse a pcap file image back into packets. Handles both byte orders.
///
/// A thin wrapper over [`PcapStreamReader`]: the batch and streaming
/// parsers share one implementation, so they cannot diverge.
pub fn read_pcap(data: &[u8]) -> Result<Vec<PcapPacket>> {
    let mut reader = PcapStreamReader::new();
    reader.push(data);
    let mut packets = Vec::new();
    while let Some(packet) = reader.next_packet()? {
        packets.push(packet);
    }
    reader.finish()?;
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packets() -> Vec<PcapPacket> {
        vec![
            PcapPacket {
                ts_sec: 100,
                ts_usec: 5,
                data: vec![0xff; 60],
            },
            PcapPacket {
                ts_sec: 101,
                ts_usec: 250_000,
                data: vec![0x01, 0x02, 0x03],
            },
        ]
    }

    /// The pcap image of owned packets, through [`write_pcap_refs`].
    fn write_pcap(packets: &[PcapPacket]) -> Vec<u8> {
        let refs: Vec<(u32, u32, &[u8])> = packets
            .iter()
            .map(|p| (p.ts_sec, p.ts_usec, p.data.as_slice()))
            .collect();
        write_pcap_refs(&refs)
    }

    #[test]
    fn roundtrip() {
        let packets = sample_packets();
        let image = write_pcap(&packets);
        assert_eq!(read_pcap(&image).unwrap(), packets);
    }

    #[test]
    fn header_fields() {
        let image = write_pcap(&[]);
        assert_eq!(image.len(), 24);
        assert_eq!(&image[0..4], &MAGIC_LE.to_le_bytes());
        assert_eq!(u32::from_le_bytes(image[20..24].try_into().unwrap()), 1);
    }

    #[test]
    fn big_endian_accepted() {
        // Construct a minimal big-endian file with one packet.
        let mut image = Vec::new();
        image.extend_from_slice(&MAGIC_BE.to_le_bytes()); // stored as d4c3b2a1 LE == a1b2c3d4 BE read
        image.extend_from_slice(&VERSION_MAJOR.to_be_bytes());
        image.extend_from_slice(&VERSION_MINOR.to_be_bytes());
        image.extend_from_slice(&0u32.to_be_bytes());
        image.extend_from_slice(&0u32.to_be_bytes());
        image.extend_from_slice(&65535u32.to_be_bytes());
        image.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        image.extend_from_slice(&7u32.to_be_bytes());
        image.extend_from_slice(&8u32.to_be_bytes());
        image.extend_from_slice(&2u32.to_be_bytes());
        image.extend_from_slice(&2u32.to_be_bytes());
        image.extend_from_slice(&[0xaa, 0xbb]);
        let packets = read_pcap(&image).unwrap();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].ts_sec, 7);
        assert_eq!(packets[0].data, vec![0xaa, 0xbb]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut image = write_pcap(&sample_packets());
        image[0] = 0;
        assert_eq!(read_pcap(&image).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn truncated_packet_rejected() {
        let image = write_pcap(&sample_packets());
        assert_eq!(
            read_pcap(&image[..image.len() - 1]).unwrap_err(),
            Error::Truncated
        );
        assert_eq!(read_pcap(&image[..30]).unwrap_err(), Error::Truncated);
    }

    /// Drive a `PcapStreamReader` over `image` in `chunk`-byte pieces.
    fn stream_in_chunks(image: &[u8], chunk: usize) -> Result<Vec<PcapPacket>> {
        let mut reader = PcapStreamReader::new();
        let mut packets = Vec::new();
        for piece in image.chunks(chunk.max(1)) {
            reader.push(piece);
            while let Some(packet) = reader.next_packet()? {
                packets.push(packet);
            }
        }
        reader.finish()?;
        Ok(packets)
    }

    #[test]
    fn stream_reader_matches_batch_at_any_chunk_size() {
        let packets = sample_packets();
        let image = write_pcap(&packets);
        for chunk in [1, 2, 3, 7, 16, 24, 25, 4096, image.len()] {
            assert_eq!(
                stream_in_chunks(&image, chunk).unwrap(),
                packets,
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn one_reused_buffer_reads_every_record() {
        // Long, short, empty and long again: each record must replace the
        // buffer's contents, not append to them.
        let packets: Vec<PcapPacket> = [300usize, 5, 0, 64]
            .iter()
            .enumerate()
            .map(|(i, &len)| PcapPacket {
                ts_sec: i as u32,
                ts_usec: 7 * i as u32,
                data: (0..len).map(|b| (b * 31 + i) as u8).collect(),
            })
            .collect();
        let image = write_pcap(&packets);
        for chunk in [1, 3, 16, 17, 4096] {
            let mut reader = PcapStreamReader::new();
            let mut data = Vec::new();
            let mut read = Vec::new();
            for piece in image.chunks(chunk) {
                reader.push(piece);
                while let Some((ts_sec, ts_usec)) = reader.next_packet_into(&mut data).unwrap() {
                    read.push(PcapPacket {
                        ts_sec,
                        ts_usec,
                        data: data.clone(),
                    });
                }
            }
            reader.finish().unwrap();
            assert_eq!(read, packets, "chunk={chunk}");
        }
    }

    #[test]
    fn stream_reader_chunk_boundary_is_not_truncation() {
        let image = write_pcap(&sample_packets());
        let mut reader = PcapStreamReader::new();
        // Stop mid-record: more input may still arrive, so no error yet.
        reader.push(&image[..30]);
        assert_eq!(reader.next_packet().unwrap(), None);
        // Only finish() diagnoses truncation.
        assert_eq!(reader.finish().unwrap_err().kind, Error::Truncated);
        // …and feeding the rest recovers completely.
        reader.push(&image[30..]);
        assert!(reader.next_packet().unwrap().is_some());
        assert!(reader.next_packet().unwrap().is_some());
        assert_eq!(reader.next_packet().unwrap(), None);
        reader.finish().unwrap();
    }

    #[test]
    fn stream_reader_errors_are_sticky() {
        let mut image = write_pcap(&sample_packets());
        image[0] = 0;
        let mut reader = PcapStreamReader::new();
        reader.push(&image);
        assert_eq!(reader.next_packet().unwrap_err().kind, Error::Malformed);
        assert_eq!(reader.next_packet().unwrap_err().kind, Error::Malformed);
        assert_eq!(reader.finish().unwrap_err().kind, Error::Malformed);
    }

    #[test]
    fn stream_reader_rejects_non_ethernet_linktype() {
        let mut image = write_pcap(&sample_packets());
        image[20..24].copy_from_slice(&113u32.to_le_bytes()); // LINKTYPE_LINUX_SLL
        let mut reader = PcapStreamReader::new();
        // One byte at a time: the error must fire exactly when the 24-byte
        // header completes, regardless of chunking.
        let mut result = Ok(None);
        for (fed, byte) in image.iter().enumerate() {
            reader.push(&[*byte]);
            result = reader.next_packet();
            if fed + 1 < 24 {
                assert_eq!(result, Ok(None), "no verdict before header completes");
            } else {
                break;
            }
        }
        let error = result.unwrap_err();
        assert_eq!(error.kind, Error::Unsupported);
        assert_eq!(error.offset, 20, "points at the linktype field");
    }

    #[test]
    fn truncation_mid_global_header_reports_offset_zero() {
        let image = write_pcap(&sample_packets());
        let mut reader = PcapStreamReader::new();
        reader.push(&image[..10]);
        assert_eq!(reader.next_packet().unwrap(), None);
        let error = reader.finish().unwrap_err();
        assert_eq!(error.kind, Error::Truncated);
        assert_eq!(
            error.offset, 0,
            "the incomplete object is the global header"
        );
        assert!(error.context.contains("global header"), "{}", error.context);
    }

    #[test]
    fn truncation_mid_record_reports_record_start_offset() {
        let packets = sample_packets();
        let image = write_pcap(&packets);
        // Record 2 starts after the 24-byte global header plus record 1
        // (16-byte header + 60-byte frame).
        let record2_start = 24 + 16 + packets[0].data.len() as u64;
        let mut reader = PcapStreamReader::new();
        reader.push(&image[..image.len() - 1]);
        while reader.next_packet().unwrap().is_some() {}
        let error = reader.finish().unwrap_err();
        assert_eq!(error.kind, Error::Truncated);
        assert_eq!(error.offset, record2_start);
        assert!(error.context.contains("mid-record"), "{}", error.context);
    }

    #[test]
    fn bad_magic_reports_offset_zero_with_context() {
        let mut image = write_pcap(&sample_packets());
        image[0] = 0;
        let mut reader = PcapStreamReader::new();
        reader.push(&image);
        let error = reader.next_packet().unwrap_err();
        assert_eq!(error.kind, Error::Malformed);
        assert_eq!(error.offset, 0);
        assert!(error.context.contains("magic"), "{}", error.context);
        // The rendered message carries the location for operators.
        assert_eq!(
            error.to_string(),
            "malformed packet at byte 0 (pcap global header magic)"
        );
    }

    #[test]
    fn garbage_incl_len_is_malformed_not_a_silent_stall() {
        let packets = sample_packets();
        let mut image = write_pcap(&packets);
        // Overwrite record 1's incl_len with garbage far beyond any sane
        // snaplen; without the cap the reader would buffer forever waiting
        // for a 4 GiB "record".
        image[24 + 8..24 + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = PcapStreamReader::new();
        reader.push(&image);
        let error = reader.next_packet().unwrap_err();
        assert_eq!(error.kind, Error::Malformed);
        assert_eq!(error.offset, 24 + 8, "points at the incl_len field");
        assert!(error.context.contains("incl_len"), "{}", error.context);
        // Sticky, like every other stream error.
        assert_eq!(reader.finish().unwrap_err().kind, Error::Malformed);
        // The batch wrapper surfaces the same fault as a plain Error.
        assert_eq!(read_pcap(&image).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn stream_error_converts_to_plain_error() {
        let error = StreamError {
            kind: Error::Truncated,
            offset: 99,
            context: "x",
        };
        assert_eq!(Error::from(error), Error::Truncated);
    }

    #[test]
    fn stream_reader_reclaims_consumed_bytes() {
        // Feed many records; the buffer must stay bounded by one record,
        // not grow with the stream.
        let packet = PcapPacket {
            ts_sec: 1,
            ts_usec: 2,
            data: vec![0xab; 1024],
        };
        let record = &write_pcap(&[packet])[24..];
        let mut reader = PcapStreamReader::new();
        reader.push(&write_pcap(&[])); // global header only
        let mut parsed = 0;
        for _ in 0..256 {
            reader.push(record);
            while let Some(_packet) = reader.next_packet().unwrap() {
                parsed += 1;
            }
            assert_eq!(reader.buffered_bytes(), 0);
            assert!(
                reader.buffer.len() <= 2 * COMPACT_THRESHOLD,
                "buffer grew to {}",
                reader.buffer.len()
            );
        }
        assert_eq!(parsed, 256);
        reader.finish().unwrap();
    }
}
