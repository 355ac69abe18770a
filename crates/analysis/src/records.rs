//! TLS record extraction from a captured trace.
//!
//! Combines [`StreamFollower`] stream following with the keyless
//! [`RecordScanner`] to recover, for each direction, the sequence of record
//! headers with arrival timestamps. The result is the paper's working
//! dataset: its monitor counts GET requests with the filter
//! `ssl.record.content_type == 23` over exactly this view (§IV-D, §V).

use h2priv_netsim::{Dir, SimTime};
use h2priv_tls::{ContentType, RecordScanner};

use crate::follower::StreamFollower;
use crate::observed::{ObservedPacket, WireTrace};

/// One record as seen by the observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordEvent {
    /// Arrival time of the packet that completed the record.
    pub time: SimTime,
    /// Direction of travel.
    pub dir: Dir,
    /// Content type from the plaintext record header.
    pub content_type: ContentType,
    /// Full record size on the wire (header + encrypted fragment).
    pub wire_len: usize,
    /// Offset of the record within its direction's TLS byte stream.
    pub stream_offset: u64,
}

impl RecordEvent {
    /// The encrypted fragment's plaintext length (the observer knows the
    /// record-layer constants, so this is computable without keys).
    pub fn plaintext_len(&self) -> usize {
        self.wire_len
            .saturating_sub(h2priv_tls::HEADER_LEN + h2priv_tls::AEAD_OVERHEAD)
    }
}

/// Incremental record extractor for one direction.
#[derive(Debug, Clone, Default)]
pub struct RecordExtractor {
    follower: StreamFollower,
    scanner: RecordScanner,
}

impl RecordExtractor {
    /// Creates an extractor.
    pub fn new() -> Self {
        RecordExtractor::default()
    }

    /// Feeds one captured packet; returns records completed by it.
    pub fn push(&mut self, packet: &ObservedPacket) -> Vec<RecordEvent> {
        let mut out = Vec::new();
        self.push_into(packet, &mut out);
        out
    }

    /// Feeds one captured packet, appending the records it completes to
    /// `out`. Only record headers are looked at; payload bytes are skipped
    /// in place, never copied.
    pub fn push_into(&mut self, packet: &ObservedPacket, out: &mut Vec<RecordEvent>) {
        let scanner = &mut self.scanner;
        self.follower
            .follow(packet.seq, packet.flags, &packet.payload, |bytes| {
                scanner.scan(bytes, |r| {
                    out.push(RecordEvent {
                        time: packet.time,
                        dir: packet.dir,
                        content_type: r.content_type,
                        wire_len: r.wire_len,
                        stream_offset: r.stream_offset,
                    })
                })
            });
    }
}

/// Extracts all records from a completed capture, both directions, in
/// arrival order.
pub fn extract_records(trace: &WireTrace) -> Vec<RecordEvent> {
    let mut c2s = RecordExtractor::new();
    let mut s2c = RecordExtractor::new();
    let mut out = Vec::new();
    for packet in &trace.packets {
        let extractor = match packet.dir {
            Dir::LeftToRight => &mut c2s,
            Dir::RightToLeft => &mut s2c,
        };
        extractor.push_into(packet, &mut out);
    }
    out
}

/// Convenience filter: application-data records in one direction — the
/// paper's `content_type == 23` view.
pub fn app_data_records(records: &[RecordEvent], dir: Dir) -> Vec<RecordEvent> {
    records
        .iter()
        .filter(|r| r.dir == dir && r.content_type == ContentType::ApplicationData)
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_tcp::{Seq, TcpFlags, TcpSegment};
    use h2priv_tls::{RecordCipher, RecordWriter};

    /// Builds a capture of one direction carrying `messages` as records,
    /// split into MSS-sized packets.
    fn capture(messages: &[(ContentType, usize)]) -> WireTrace {
        let mut writer = RecordWriter::new(RecordCipher::new(5, 2));
        let mut stream = Vec::new();
        for &(ct, len) in messages {
            stream.extend(writer.seal_message(ct, &vec![0xAB; len]));
        }
        let mut trace = WireTrace::new();
        // SYN first.
        trace.push(ObservedPacket::capture(
            SimTime::ZERO,
            Dir::RightToLeft,
            &TcpSegment {
                seq: Seq(500),
                ack: Seq(0),
                flags: TcpFlags::SYN,
                window: 0,
                payload: h2priv_bytes::SharedBytes::new(),
            },
        ));
        for (i, chunk) in stream.chunks(1460).enumerate() {
            trace.push(ObservedPacket::capture(
                SimTime::from_millis(1 + i as u64),
                Dir::RightToLeft,
                &TcpSegment {
                    seq: Seq(501 + (i * 1460) as u32),
                    ack: Seq(0),
                    flags: TcpFlags::ACK,
                    window: 0,
                    payload: chunk.into(),
                },
            ));
        }
        trace
    }

    #[test]
    fn extracts_records_with_sizes() {
        let trace = capture(&[
            (ContentType::Handshake, 512),
            (ContentType::ApplicationData, 2_000),
            (ContentType::ApplicationData, 100),
        ]);
        let records = extract_records(&trace);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].content_type, ContentType::Handshake);
        assert_eq!(records[0].plaintext_len(), 512);
        assert_eq!(records[1].plaintext_len(), 2_000);
        assert_eq!(records[2].plaintext_len(), 100);
        // Offsets are cumulative.
        assert_eq!(records[1].stream_offset, records[0].wire_len as u64);
    }

    #[test]
    fn app_data_filter_matches_paper() {
        let trace = capture(&[
            (ContentType::Handshake, 512),
            (ContentType::ApplicationData, 64),
        ]);
        let records = extract_records(&trace);
        let app = app_data_records(&records, Dir::RightToLeft);
        assert_eq!(app.len(), 1);
        assert_eq!(app[0].plaintext_len(), 64);
        assert!(app_data_records(&records, Dir::LeftToRight).is_empty());
    }

    #[test]
    fn records_spanning_packets_stamp_completion_time() {
        // One 2000-byte record spans two 1460-byte packets: completion time
        // is the second packet's.
        let trace = capture(&[(ContentType::ApplicationData, 2_000)]);
        let records = extract_records(&trace);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].time, SimTime::from_millis(2));
    }

    #[test]
    fn out_of_order_capture_still_extracts() {
        let mut trace = capture(&[(ContentType::ApplicationData, 4_000)]);
        // Swap two data packets.
        let n = trace.packets.len();
        assert!(n >= 3);
        trace.packets.swap(1, 2);
        let records = extract_records(&trace);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].plaintext_len(), 4_000);
    }
}
