//! Receive-side stream reassembly.
//!
//! Buffers out-of-order payload keyed by 64-bit stream offset and releases
//! the longest in-order prefix to the endpoint, which reads the bytes. The
//! passive observer (`h2priv-analysis`'s `StreamFollower`) follows the same
//! stream without this buffer: it needs only record headers, so it borrows
//! segment bytes instead of copying them.

use std::collections::BTreeMap;

/// Reassembles a byte stream from segments arriving at arbitrary offsets.
///
/// Offsets are absolute 64-bit stream positions (the connection translates
/// wire sequence numbers). Overlapping and duplicate data is tolerated and
/// deduplicated, as retransmissions routinely overlap.
#[derive(Debug, Clone, Default)]
pub struct Reassembler {
    /// Next offset expected (everything before it has been released).
    next_offset: u64,
    /// Out-of-order chunks: start offset → bytes.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Ready in-order bytes not yet drained by the application.
    ready: Vec<u8>,
    /// Total duplicate bytes discarded (diagnostics).
    duplicate_bytes: u64,
}

impl Reassembler {
    /// Creates an empty reassembler expecting offset 0.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// The next stream offset that has not yet been received in order.
    pub fn next_offset(&self) -> u64 {
        self.next_offset + self.ready.len() as u64
    }

    /// The offset up to which data has been *released or is ready*, i.e.
    /// the cumulative-ACK point.
    pub fn ack_point(&self) -> u64 {
        self.next_offset()
    }

    /// In-order bytes ready to be drained by [`read`](Self::read).
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Bytes sitting out of order (diagnostics).
    pub fn pending_bytes(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// Duplicate bytes discarded so far.
    pub fn duplicate_bytes(&self) -> u64 {
        self.duplicate_bytes
    }

    /// True if out-of-order data is buffered — the signal for sending a
    /// duplicate ACK.
    pub fn has_gap(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Inserts `data` at absolute stream `offset`.
    pub fn insert(&mut self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
        let ack = self.ack_point();
        if end <= ack {
            self.duplicate_bytes += data.len() as u64;
            return; // wholly old
        }
        // Trim the already-received prefix.
        let (offset, data) = if offset < ack {
            self.duplicate_bytes += ack - offset;
            (ack, &data[(ack - offset) as usize..])
        } else {
            (offset, data)
        };
        if offset == self.ack_point() {
            self.ready.extend_from_slice(data);
        } else {
            // Store out of order; trim against existing chunks lazily at
            // drain time by inserting only bytes not already covered.
            self.insert_pending(offset, data.to_vec());
        }
        self.drain_pending();
    }

    fn insert_pending(&mut self, offset: u64, data: Vec<u8>) {
        // Check the predecessor chunk for overlap.
        let mut offset = offset;
        let mut data = data;
        if let Some((&prev_start, prev)) = self.pending.range(..=offset).next_back() {
            let prev_end = prev_start + prev.len() as u64;
            if prev_end >= offset + data.len() as u64 {
                self.duplicate_bytes += data.len() as u64;
                return; // fully covered
            }
            if prev_end > offset {
                let trim = (prev_end - offset) as usize;
                self.duplicate_bytes += trim as u64;
                data.drain(..trim);
                offset = prev_end;
            }
        }
        // Absorb/trim successors that overlap the new chunk.
        let new_end = offset + data.len() as u64;
        let overlapping: Vec<u64> = self
            .pending
            .range(offset..new_end)
            .map(|(&k, _)| k)
            .collect();
        for key in overlapping {
            let chunk = self.pending.remove(&key).expect("key present");
            let chunk_end = key + chunk.len() as u64;
            if chunk_end > new_end {
                // Keep the non-overlapping tail.
                let keep_from = (new_end - key) as usize;
                self.duplicate_bytes += keep_from as u64;
                self.pending.insert(new_end, chunk[keep_from..].to_vec());
            } else {
                self.duplicate_bytes += chunk.len() as u64;
            }
        }
        self.pending.insert(offset, data);
    }

    fn drain_pending(&mut self) {
        loop {
            let ack = self.ack_point();
            let Some((&start, _)) = self.pending.first_key_value() else {
                return;
            };
            if start > ack {
                return;
            }
            let chunk = self.pending.remove(&start).expect("key present");
            let chunk_end = start + chunk.len() as u64;
            if chunk_end <= ack {
                self.duplicate_bytes += chunk.len() as u64;
                continue;
            }
            let skip = (ack - start) as usize;
            self.duplicate_bytes += skip as u64;
            self.ready.extend_from_slice(&chunk[skip..]);
        }
    }

    /// Drains all in-order bytes received so far.
    pub fn read(&mut self) -> Vec<u8> {
        let out = std::mem::take(&mut self.ready);
        self.next_offset += out.len() as u64;
        out
    }

    /// Drains all in-order bytes into `out` (appending), reusing the
    /// caller's buffer instead of surrendering the internal one. The
    /// batched host path calls this with one shared scratch buffer per
    /// shard, so draining N hosts costs zero steady-state allocations.
    pub fn read_into(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ready);
        self.next_offset += self.ready.len() as u64;
        self.ready.clear();
    }

    /// Surrenders the drained `ready` buffer's capacity (for a buffer
    /// pool), if it is empty and holds any. The reassembler reallocates on
    /// the next in-order insert, so this is for streams that are done.
    pub fn take_ready_spare(&mut self) -> Option<Vec<u8>> {
        if self.ready.is_empty() && self.ready.capacity() > 0 {
            Some(std::mem::take(&mut self.ready))
        } else {
            None
        }
    }

    /// Seeds the `ready` buffer with recycled capacity (the inverse of
    /// [`take_ready_spare`](Self::take_ready_spare)); kept only when the
    /// current buffer is empty with no capacity. `buf` is cleared.
    pub fn give_ready_spare(&mut self, mut buf: Vec<u8>) {
        if self.ready.is_empty() && self.ready.capacity() == 0 && buf.capacity() > 0 {
            buf.clear();
            self.ready = buf;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery() {
        let mut r = Reassembler::new();
        r.insert(0, b"hello ");
        r.insert(6, b"world");
        assert_eq!(r.read(), b"hello world");
        assert_eq!(r.next_offset(), 11);
        assert!(!r.has_gap());
    }

    #[test]
    fn out_of_order_fills_gap() {
        let mut r = Reassembler::new();
        r.insert(6, b"world");
        assert!(r.has_gap());
        assert_eq!(r.read(), b"");
        r.insert(0, b"hello ");
        assert_eq!(r.read(), b"hello world");
        assert!(!r.has_gap());
    }

    #[test]
    fn duplicates_are_discarded() {
        let mut r = Reassembler::new();
        r.insert(0, b"abcdef");
        assert_eq!(r.read(), b"abcdef");
        r.insert(0, b"abcdef");
        assert_eq!(r.read(), b"");
        assert_eq!(r.duplicate_bytes(), 6);
    }

    #[test]
    fn partial_overlap_with_released_data() {
        let mut r = Reassembler::new();
        r.insert(0, b"abcd");
        assert_eq!(r.read(), b"abcd");
        // Retransmission covering old + new bytes.
        r.insert(2, b"cdEF");
        assert_eq!(r.read(), b"EF");
        assert_eq!(r.duplicate_bytes(), 2);
    }

    #[test]
    fn overlapping_pending_chunks() {
        let mut r = Reassembler::new();
        r.insert(10, b"JKLM");
        r.insert(8, b"HIJK"); // overlaps [10,12)
        r.insert(12, b"LMNO"); // overlaps [12,14)
        r.insert(0, b"ABCDEFGH");
        assert_eq!(r.read(), b"ABCDEFGHHIJKLMNO");
    }

    #[test]
    fn chunk_fully_covered_by_pending() {
        let mut r = Reassembler::new();
        r.insert(4, b"EFGHIJ");
        r.insert(5, b"FG"); // inside existing chunk
        r.insert(0, b"ABCD");
        assert_eq!(r.read(), b"ABCDEFGHIJ");
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut r = Reassembler::new();
        r.insert(5, b"");
        assert!(!r.has_gap());
        assert_eq!(r.read(), b"");
    }

    #[test]
    fn ack_point_tracks_contiguity() {
        let mut r = Reassembler::new();
        assert_eq!(r.ack_point(), 0);
        r.insert(0, b"abc");
        assert_eq!(r.ack_point(), 3);
        r.insert(10, b"xyz");
        assert_eq!(r.ack_point(), 3);
        r.insert(3, b"defghij");
        assert_eq!(r.ack_point(), 13);
    }

    #[test]
    fn interleaved_reads() {
        let mut r = Reassembler::new();
        r.insert(0, b"one");
        assert_eq!(r.read(), b"one");
        r.insert(3, b"two");
        r.insert(9, b"four");
        assert_eq!(r.read(), b"two");
        r.insert(6, b"333");
        assert_eq!(r.read(), b"333four");
    }

    #[test]
    fn pending_bytes_accounting() {
        let mut r = Reassembler::new();
        r.insert(100, b"abcde");
        assert_eq!(r.pending_bytes(), 5);
        r.insert(200, b"fg");
        assert_eq!(r.pending_bytes(), 7);
    }

    #[test]
    fn massive_shuffle_reassembles() {
        // Deterministic pseudo-shuffle of 1000 chunks.
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut chunks: Vec<(u64, &[u8])> = data
            .chunks(100)
            .enumerate()
            .map(|(i, c)| ((i * 100) as u64, c))
            .collect();
        // Simple LCG-driven swap shuffle.
        let mut state = 12345u64;
        for i in (1..chunks.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            chunks.swap(i, j);
        }
        let mut r = Reassembler::new();
        for (off, c) in chunks {
            r.insert(off, c);
        }
        assert_eq!(r.read(), data);
        assert_eq!(r.pending_bytes(), 0);
    }
}
