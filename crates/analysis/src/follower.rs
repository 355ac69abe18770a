//! Passive TCP stream following.
//!
//! `tshark` reconstructs TCP streams from captured packets without being an
//! endpoint; so does the paper's monitor. [`StreamFollower`] does the same:
//! it learns the initial sequence number from the SYN, maps wire sequence
//! numbers to stream offsets, and passes on each newly contiguous stretch
//! of the stream exactly once — duplicates and retransmissions included.
//! Reassembly is not an endpoint privilege.
//!
//! The follower never copies payload: in-order bytes are handed to the
//! caller as borrowed slices of the captured segment, and out-of-order
//! segments wait as refcounted views of their [`SharedBytes`].

use std::collections::BTreeMap;

use h2priv_bytes::SharedBytes;
use h2priv_tcp::{Seq, TcpFlags};

/// Follows one direction of one TCP connection from captured segments.
#[derive(Debug, Clone, Default)]
pub struct StreamFollower {
    /// The sender's ISN, learned from its SYN.
    isn: Option<Seq>,
    /// Stream offset of the first byte not yet passed on.
    frontier: u64,
    /// Out-of-order segments waiting for the gap in front of them, by
    /// start offset. Overlapping entries are allowed; draining trims them.
    stash: BTreeMap<u64, SharedBytes>,
    /// Segments seen before the SYN (should not happen in ordered captures;
    /// counted for diagnostics).
    orphan_segments: u64,
}

impl StreamFollower {
    /// Creates a follower awaiting the SYN.
    pub fn new() -> Self {
        StreamFollower::default()
    }

    /// Feeds one captured segment (must be from the followed direction),
    /// passing each newly contiguous stretch of the stream to `deliver` in
    /// stream order.
    pub fn follow(
        &mut self,
        seq: Seq,
        flags: TcpFlags,
        payload: &SharedBytes,
        mut deliver: impl FnMut(&[u8]),
    ) {
        if flags.syn {
            self.isn = Some(seq);
            return;
        }
        let Some(isn) = self.isn else {
            if !payload.is_empty() {
                self.orphan_segments += 1;
            }
            return;
        };
        if payload.is_empty() {
            return;
        }
        // Data starts at isn + 1 (the SYN consumes one sequence number).
        let offset = (seq - (isn + 1)) as u64;
        if offset > self.frontier {
            self.stash_segment(offset, payload);
            return;
        }
        self.deliver_from(offset, payload, &mut deliver);
        while let Some(entry) = self.stash.first_entry() {
            if *entry.key() > self.frontier {
                break;
            }
            let (start, view) = entry.remove_entry();
            self.deliver_from(start, &view, &mut deliver);
        }
    }

    /// Passes on the part of `bytes` (starting at stream `offset`, which is
    /// at or before the frontier) that lies beyond the frontier.
    fn deliver_from(&mut self, offset: u64, bytes: &[u8], deliver: &mut impl FnMut(&[u8])) {
        let seen = ((self.frontier - offset) as usize).min(bytes.len());
        let fresh = &bytes[seen..];
        if !fresh.is_empty() {
            self.frontier += fresh.len() as u64;
            deliver(fresh);
        }
    }

    /// Stashes an out-of-order segment; of two starting at the same
    /// offset, the longer is kept.
    fn stash_segment(&mut self, offset: u64, payload: &SharedBytes) {
        let held = self.stash.entry(offset).or_default();
        if payload.len() > held.len() {
            *held = payload.clone();
        }
    }

    /// Segments with data that arrived before the SYN was seen.
    pub fn orphan_segments(&self) -> u64 {
        self.orphan_segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_tcp::TcpSegment;

    fn syn(seq: u32) -> TcpSegment {
        TcpSegment {
            seq: Seq(seq),
            ack: Seq(0),
            flags: TcpFlags::SYN,
            window: 1000,
            payload: SharedBytes::new(),
        }
    }

    /// Feeds `segment`, returning the bytes it made contiguous.
    fn push(f: &mut StreamFollower, segment: &TcpSegment) -> Vec<u8> {
        let mut out = Vec::new();
        f.follow(segment.seq, segment.flags, &segment.payload, |b| {
            out.extend_from_slice(b)
        });
        out
    }

    fn data(seq: u32, payload: &[u8]) -> TcpSegment {
        TcpSegment {
            seq: Seq(seq),
            ack: Seq(0),
            flags: TcpFlags::ACK,
            window: 1000,
            payload: payload.to_vec().into(),
        }
    }

    #[test]
    fn follows_in_order_stream() {
        let mut f = StreamFollower::new();
        assert!(push(&mut f, &syn(100)).is_empty());
        assert_eq!(push(&mut f, &data(101, b"hel")), b"hel");
        assert_eq!(push(&mut f, &data(104, b"lo")), b"lo");
    }

    #[test]
    fn reorders_like_an_endpoint() {
        let mut f = StreamFollower::new();
        push(&mut f, &syn(100));
        assert!(push(&mut f, &data(104, b"lo")).is_empty());
        assert_eq!(push(&mut f, &data(101, b"hel")), b"hello");
    }

    #[test]
    fn retransmissions_are_deduplicated() {
        let mut f = StreamFollower::new();
        push(&mut f, &syn(100));
        assert_eq!(push(&mut f, &data(101, b"abc")), b"abc");
        assert!(push(&mut f, &data(101, b"abc")).is_empty());
    }

    #[test]
    fn overlapping_stashed_segments_pass_each_byte_once() {
        let mut f = StreamFollower::new();
        push(&mut f, &syn(100));
        assert!(push(&mut f, &data(111, b"KLMN")).is_empty());
        assert!(push(&mut f, &data(109, b"IJKL")).is_empty());
        assert!(push(&mut f, &data(109, b"IJ")).is_empty());
        assert!(push(&mut f, &data(113, b"MNOP")).is_empty());
        assert_eq!(push(&mut f, &data(101, b"ABCDEFGH")), b"ABCDEFGHIJKLMNOP");
        // Nothing is left stashed: later data passes straight on.
        assert_eq!(push(&mut f, &data(117, b"Q")), b"Q");
    }

    #[test]
    fn delivery_borrows_the_captured_segment() {
        let mut f = StreamFollower::new();
        push(&mut f, &syn(100));
        let seg = data(101, b"abcdef");
        let mut delivered = Vec::new();
        f.follow(seg.seq, seg.flags, &seg.payload, |b| {
            delivered.push(b.as_ptr())
        });
        assert_eq!(delivered, vec![seg.payload.as_slice().as_ptr()]);
    }

    #[test]
    fn data_before_syn_is_orphaned() {
        let mut f = StreamFollower::new();
        assert!(push(&mut f, &data(101, b"abc")).is_empty());
        assert_eq!(f.orphan_segments(), 1);
    }

    #[test]
    fn pure_acks_produce_nothing() {
        let mut f = StreamFollower::new();
        push(&mut f, &syn(100));
        assert!(push(&mut f, &data(101, b"")).is_empty());
    }
}
