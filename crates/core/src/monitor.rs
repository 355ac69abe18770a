//! The traffic monitor — the paper's `tshark` component (§V: "the traffic
//! monitor, which was implemented using tshark").
//!
//! Runs *online* inside the adversary middlebox: it passively follows the
//! client→server TCP stream (the only direction GETs travel), parses TLS
//! record headers without keys, and counts GET requests using the paper's
//! filter (`ssl.record.content_type == 23`) plus a size heuristic that
//! separates request header blocks from small control frames
//! (WINDOW_UPDATE / SETTINGS-ack records are ≤ ~50 wire bytes;
//! HPACK-compressed GETs are larger).

use h2priv_analysis::{ObservedPacket, RecordEvent, RecordExtractor};
use h2priv_netsim::{Dir, SimTime};
use h2priv_tls::ContentType;

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Minimum wire length for a client→server application-data record to
    /// be counted as a GET request.
    pub get_min_wire_len: usize,
    /// Number of initial GET-sized records to skip: the client's
    /// connection preface and SETTINGS frame each ride in an
    /// application-data record of GET-like size.
    pub skip_initial: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            // A fully HPACK-indexed repeated GET shrinks to a 15-byte
            // frame (44 wire bytes); WINDOW_UPDATE and RST_STREAM records
            // are 13-byte frames (42 wire bytes). The margin is thin in
            // the simulator because our requests carry no cookies; real
            // requests are far larger.
            get_min_wire_len: 44,
            skip_initial: 2,
        }
    }
}

/// What the monitor concluded about one packet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PacketInsight {
    /// GET requests the packet completed (1-based indices assigned in
    /// order).
    pub new_gets: Vec<u64>,
}

/// The online passive monitor.
#[derive(Debug, Default)]
pub struct TrafficMonitor {
    config: MonitorConfig,
    c2s: RecordExtractor,
    /// The records the current packet completed (reused across packets).
    records: Vec<RecordEvent>,
    gets_seen: u64,
    skipped: usize,
    get_times: Vec<SimTime>,
}

impl TrafficMonitor {
    /// Creates a monitor.
    pub fn new(config: MonitorConfig) -> Self {
        TrafficMonitor {
            config,
            ..TrafficMonitor::default()
        }
    }

    /// Total GETs counted so far.
    pub fn gets_seen(&self) -> u64 {
        self.gets_seen
    }

    /// When the `n`-th GET (1-based) was observed, if it has been.
    pub fn get_time(&self, n: u64) -> Option<SimTime> {
        self.get_times.get((n as usize).checked_sub(1)?).copied()
    }

    /// Feeds one packet; returns what it revealed. Server→client packets
    /// reveal nothing: no GET travels that way.
    pub fn observe(&mut self, packet: &ObservedPacket) -> PacketInsight {
        if packet.dir != Dir::LeftToRight {
            return PacketInsight::default();
        }
        let mut new_gets = Vec::new();
        self.records.clear();
        self.c2s.push_into(packet, &mut self.records);
        for record in &self.records {
            if record.content_type == ContentType::ApplicationData
                && record.wire_len >= self.config.get_min_wire_len
            {
                if self.skipped < self.config.skip_initial {
                    self.skipped += 1;
                    continue;
                }
                self.gets_seen += 1;
                self.get_times.push(packet.time);
                if std::env::var_os("H2PRIV_MON_DEBUG").is_some() {
                    eprintln!(
                        "GET#{} at {} wire={} offset={}",
                        self.gets_seen, packet.time, record.wire_len, record.stream_offset
                    );
                }
                new_gets.push(self.gets_seen);
            }
        }
        PacketInsight { new_gets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_tcp::{Seq, TcpFlags, TcpSegment};
    use h2priv_tls::{RecordCipher, RecordWriter};

    struct Feed {
        writer: RecordWriter,
        next_seq: u32,
        sent_syn: bool,
    }

    impl Feed {
        fn new() -> Self {
            Feed {
                writer: RecordWriter::new(RecordCipher::new(1, 1)),
                next_seq: 101,
                sent_syn: false,
            }
        }

        fn packets(&mut self, ct: ContentType, len: usize, at_ms: u64) -> Vec<ObservedPacket> {
            let mut out = Vec::new();
            if !self.sent_syn {
                self.sent_syn = true;
                out.push(ObservedPacket::capture(
                    SimTime::ZERO,
                    Dir::LeftToRight,
                    &TcpSegment {
                        seq: Seq(100),
                        ack: Seq(0),
                        flags: TcpFlags::SYN,
                        window: 0,
                        payload: h2priv_bytes::SharedBytes::new(),
                    },
                ));
            }
            let wire = self.writer.seal_message(ct, &vec![0u8; len]);
            for chunk in wire.chunks(1460) {
                out.push(ObservedPacket::capture(
                    SimTime::from_millis(at_ms),
                    Dir::LeftToRight,
                    &TcpSegment {
                        seq: Seq(self.next_seq),
                        ack: Seq(0),
                        flags: TcpFlags::ACK,
                        window: 0,
                        payload: chunk.to_vec().into(),
                    },
                ));
                self.next_seq += chunk.len() as u32;
            }
            out
        }
    }

    fn observe_all(m: &mut TrafficMonitor, packets: Vec<ObservedPacket>) -> Vec<u64> {
        packets.iter().flat_map(|p| m.observe(p).new_gets).collect()
    }

    #[test]
    fn counts_gets_and_skips_settings() {
        let mut monitor = TrafficMonitor::new(MonitorConfig::default());
        let mut feed = Feed::new();
        // Handshake record: ignored by type.
        observe_all(&mut monitor, feed.packets(ContentType::Handshake, 500, 0));
        // Preface- and SETTINGS-sized app records: skipped as initial.
        observe_all(
            &mut monitor,
            feed.packets(ContentType::ApplicationData, 24, 1),
        );
        observe_all(
            &mut monitor,
            feed.packets(ContentType::ApplicationData, 48, 1),
        );
        assert_eq!(monitor.gets_seen(), 0);
        // Two GETs.
        let g1 = observe_all(
            &mut monitor,
            feed.packets(ContentType::ApplicationData, 70, 5),
        );
        let g2 = observe_all(
            &mut monitor,
            feed.packets(ContentType::ApplicationData, 13, 6),
        );
        let g3 = observe_all(
            &mut monitor,
            feed.packets(ContentType::ApplicationData, 80, 9),
        );
        assert_eq!(g1, vec![1]);
        assert_eq!(g2, Vec::<u64>::new()); // too small: a WINDOW_UPDATE
        assert_eq!(g3, vec![2]);
        assert_eq!(monitor.gets_seen(), 2);
        assert_eq!(monitor.get_time(1), Some(SimTime::from_millis(5)));
        assert_eq!(monitor.get_time(2), Some(SimTime::from_millis(9)));
        assert_eq!(monitor.get_time(3), None);
    }

    #[test]
    fn server_direction_not_counted() {
        let mut monitor = TrafficMonitor::new(MonitorConfig {
            skip_initial: 0,
            ..MonitorConfig::default()
        });
        // A GET-sized application-data record, sent server→client.
        let mut feed = Feed::new();
        let mut packets = feed.packets(ContentType::ApplicationData, 500, 1);
        for p in &mut packets {
            p.dir = Dir::RightToLeft;
        }
        for p in &packets {
            assert_eq!(monitor.observe(p), PacketInsight::default());
        }
        assert_eq!(monitor.gets_seen(), 0);
        // The client→server stream is followed on its own: the same bytes
        // sent that way count.
        for p in &mut packets {
            p.dir = Dir::LeftToRight;
        }
        assert_eq!(observe_all(&mut monitor, packets), vec![1]);
    }

    #[test]
    fn retransmissions_do_not_double_count() {
        let mut monitor = TrafficMonitor::new(MonitorConfig {
            skip_initial: 0,
            ..MonitorConfig::default()
        });
        let mut feed = Feed::new();
        let packets = feed.packets(ContentType::ApplicationData, 70, 2);
        let gets = observe_all(&mut monitor, packets.clone());
        assert_eq!(gets.len(), 1);
        // Same packets again (a TCP retransmission).
        let gets = observe_all(&mut monitor, packets);
        assert!(gets.is_empty());
        assert_eq!(monitor.gets_seen(), 1);
    }
}
