//! Differential test of the passive observer.
//!
//! The header-only observer ([`StreamFollower`] handing borrowed slices to
//! the byte-skipping [`h2priv_tls::RecordScanner`]) must recover exactly
//! the records that the copying path recovers: the endpoint
//! [`Reassembler`] draining into a fresh buffer, scanned by a scanner that
//! buffers every byte. That copying path is kept below as the reference.
//!
//! Cases are generated from seeded [`SimRng`]s: random record streams
//! (zero-length and `MAX_CIPHERTEXT` fragments included), random
//! segmentation, reordering, duplicate and overlapping retransmits, data
//! before the SYN, pure ACKs, and corrupt headers that must desync. A
//! failing case prints its seed; `OBSERVER_SEED=<n>` replays just that one.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use h2priv_analysis::{extract_records, ObservedPacket, RecordEvent, StreamFollower, WireTrace};
use h2priv_bytes::SharedBytes;
use h2priv_netsim::{Dir, SimDuration, SimRng, SimTime};
use h2priv_tcp::{Reassembler, Seq, TcpFlags, TcpSegment};
use h2priv_tls::{
    ContentType, RecordCipher, RecordHeader, RecordWriter, HEADER_LEN, MAX_CIPHERTEXT,
    MAX_PLAINTEXT,
};

/// Runs `case` for seeds `0..cases` (or only `$OBSERVER_SEED`), printing
/// the seed of a failing case before re-raising its panic.
fn for_each_seed(cases: u64, case: impl Fn(u64)) {
    let seeds: Vec<u64> = match std::env::var("OBSERVER_SEED") {
        Ok(s) => vec![s.parse().expect("OBSERVER_SEED must be a u64")],
        Err(_) => (0..cases).collect(),
    };
    for seed in seeds {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| case(seed))) {
            eprintln!("failing seed: {seed} (replay with OBSERVER_SEED={seed})");
            resume_unwind(panic);
        }
    }
}

fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.gen_range_u64(0..items.len() as u64) as usize]
}

// ---------------------------------------------------------------------
// The reference: the copying observer path.
// ---------------------------------------------------------------------

/// A record scanner that buffers every observed byte until its record is
/// complete.
#[derive(Default)]
struct BufferedScanner {
    buf: Vec<u8>,
    offset: u64,
    desynced: bool,
}

impl BufferedScanner {
    /// Returns `(content_type, wire_len, stream_offset)` per completed record.
    fn push(&mut self, bytes: &[u8]) -> Vec<(ContentType, usize, u64)> {
        if self.desynced {
            return Vec::new();
        }
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        let mut pos = 0;
        while self.buf.len() - pos >= HEADER_LEN {
            let Some(header) = RecordHeader::decode(&self.buf[pos..]) else {
                self.desynced = true;
                break;
            };
            if self.buf.len() - pos < header.wire_len() {
                break;
            }
            out.push((header.content_type, header.wire_len(), self.offset));
            self.offset += header.wire_len() as u64;
            pos += header.wire_len();
        }
        self.buf.drain(..pos);
        out
    }
}

/// A stream follower built on the endpoint's reassembler.
#[derive(Default)]
struct ReassemblingFollower {
    isn: Option<Seq>,
    reassembler: Reassembler,
    orphan_segments: u64,
}

impl ReassemblingFollower {
    fn push(&mut self, packet: &ObservedPacket) -> Vec<u8> {
        if packet.flags.syn {
            self.isn = Some(packet.seq);
            return Vec::new();
        }
        let Some(isn) = self.isn else {
            if !packet.payload.is_empty() {
                self.orphan_segments += 1;
            }
            return Vec::new();
        };
        if packet.payload.is_empty() {
            return Vec::new();
        }
        let offset = (packet.seq - (isn + 1)) as u64;
        self.reassembler.insert(offset, &packet.payload);
        self.reassembler.read()
    }
}

#[derive(Default)]
struct ReferenceExtractor {
    follower: ReassemblingFollower,
    scanner: BufferedScanner,
}

/// The reference records of a capture, plus each direction's reassembled
/// stream and orphan count (client→server first).
fn reference_extract(trace: &WireTrace) -> (Vec<RecordEvent>, [(Vec<u8>, u64); 2]) {
    let mut ext = [ReferenceExtractor::default(), ReferenceExtractor::default()];
    let mut streams = [Vec::new(), Vec::new()];
    let mut out = Vec::new();
    for packet in &trace.packets {
        let i = dir_index(packet.dir);
        let bytes = ext[i].follower.push(packet);
        streams[i].extend_from_slice(&bytes);
        for (content_type, wire_len, stream_offset) in ext[i].scanner.push(&bytes) {
            out.push(RecordEvent {
                time: packet.time,
                dir: packet.dir,
                content_type,
                wire_len,
                stream_offset,
            });
        }
    }
    let [c2s, s2c] = streams;
    let orphans = [
        ext[0].follower.orphan_segments,
        ext[1].follower.orphan_segments,
    ];
    (out, [(c2s, orphans[0]), (s2c, orphans[1])])
}

fn dir_index(dir: Dir) -> usize {
    match dir {
        Dir::LeftToRight => 0,
        Dir::RightToLeft => 1,
    }
}

// ---------------------------------------------------------------------
// Case generation.
// ---------------------------------------------------------------------

const TYPES: [ContentType; 4] = [
    ContentType::ChangeCipherSpec,
    ContentType::Alert,
    ContentType::Handshake,
    ContentType::ApplicationData,
];

/// Appends a hand-built record: a valid header and `len` opaque bytes.
fn raw_record(stream: &mut Vec<u8>, content_type: ContentType, len: usize, fill: u8) {
    let header = RecordHeader {
        content_type,
        fragment_len: len as u16,
    };
    stream.extend_from_slice(&header.encode());
    stream.extend((0..len).map(|i| fill.wrapping_add(i as u8)));
}

/// A random TLS byte stream: sealed and hand-built records of every size
/// class, optionally with a corrupt header somewhere in it.
fn random_stream(rng: &mut SimRng, label: u64) -> Vec<u8> {
    let mut writer = RecordWriter::new(RecordCipher::new(rng.gen_range_u64(0..u64::MAX), label));
    let records = rng.gen_range_u64(0..30);
    let corrupt_at = rng.chance(0.2).then(|| rng.gen_range_u64(0..records + 1));
    let mut stream = Vec::new();
    for i in 0..=records {
        if corrupt_at == Some(i) {
            let len = rng.gen_range_u64(0..400) as usize;
            if rng.chance(0.5) {
                // Unknown content type.
                let mut header = [pick(rng, &[0u8, 19, 24, 255]), 3, 3, 0, 0];
                header[3..].copy_from_slice(&(len as u16).to_be_bytes());
                stream.extend_from_slice(&header);
            } else {
                // Length beyond MAX_CIPHERTEXT.
                let bad = rng.gen_range_u64(MAX_CIPHERTEXT as u64 + 1..1 << 16) as u16;
                stream.extend_from_slice(&[23, 3, 3]);
                stream.extend_from_slice(&bad.to_be_bytes());
            }
            stream.extend((0..len).map(|i| i as u8));
        }
        if i == records {
            break;
        }
        let content_type = pick(rng, &TYPES);
        let fill = rng.gen_range_u64(0..256) as u8;
        match rng.gen_range_u64(0..10) {
            0 => raw_record(&mut stream, content_type, 0, fill),
            1 => raw_record(&mut stream, content_type, MAX_CIPHERTEXT, fill),
            2 => writer.seal_message_into(content_type, &vec![fill; MAX_PLAINTEXT], &mut stream),
            3..=5 => {
                let len = rng.gen_range_u64(1..5_000) as usize;
                raw_record(&mut stream, content_type, len, fill)
            }
            _ => {
                let len = rng.gen_range_u64(0..3_000) as usize;
                writer.seal_message_into(content_type, &vec![fill; len], &mut stream)
            }
        }
    }
    stream
}

fn segment(seq: Seq, flags: TcpFlags, payload: SharedBytes) -> TcpSegment {
    TcpSegment {
        seq,
        ack: Seq(0),
        flags,
        window: 0,
        payload,
    }
}

/// One direction's packets: the stream cut into random segments, then
/// dropped, duplicated, retransmitted with new boundaries, reordered,
/// preceded by data from before the SYN and sprinkled with pure ACKs.
fn random_flow(rng: &mut SimRng, stream: &[u8]) -> Vec<TcpSegment> {
    let isn = Seq(rng.gen_range_u64(0..1 << 32) as u32);
    let bytes = SharedBytes::from_vec(stream.to_vec());
    let at = |off: usize| isn + 1 + off as u32;
    let mut cuts = Vec::new();
    let mut pos = 0;
    while pos < stream.len() {
        let len = match rng.gen_range_u64(0..5) {
            0 => rng.gen_range_u64(1..8),
            1 => rng.gen_range_u64(1..4_000),
            _ => rng.gen_range_u64(1..1_461),
        } as usize;
        let end = (pos + len).min(stream.len());
        cuts.push((pos, end));
        pos = end;
    }
    let data = |(s, e): (usize, usize)| segment(at(s), TcpFlags::ACK, bytes.slice(s..e));

    let mut flow = Vec::new();
    for &cut in &cuts {
        if !rng.chance(0.05) {
            flow.push(data(cut));
        }
        if rng.chance(0.08) {
            flow.push(data(cut));
        }
        if rng.chance(0.08) {
            // A retransmission straddling earlier and later boundaries.
            let s = cut.0.saturating_sub(rng.gen_range_u64(0..3_000) as usize);
            let e = (cut.1 + rng.gen_range_u64(0..3_000) as usize).min(stream.len());
            flow.push(data((s, e)));
        }
        if rng.chance(0.08) {
            // A retransmission from this boundary, coalescing what follows.
            let e = (cut.0 + rng.gen_range_u64(1..4_000) as usize).min(stream.len());
            flow.push(data((cut.0, e)));
        }
        if rng.chance(0.1) {
            flow.push(segment(at(cut.1), TcpFlags::ACK, SharedBytes::new()));
        }
    }
    // Reordering: local swaps, and a few long-distance ones.
    let n = flow.len();
    if n > 1 {
        for _ in 0..rng.gen_range_u64(0..n as u64) {
            let i = rng.gen_range_u64(0..n as u64 - 1) as usize;
            let j = (i + rng.gen_range_u64(1..8) as usize).min(n - 1);
            flow.swap(i, j);
        }
        for _ in 0..rng.gen_range_u64(0..3) {
            let i = rng.gen_range_u64(0..n as u64) as usize;
            let j = rng.gen_range_u64(0..n as u64) as usize;
            flow.swap(i, j);
        }
    }
    let syn = segment(isn, TcpFlags::SYN, SharedBytes::new());
    let mut packets = Vec::new();
    if !cuts.is_empty() && rng.chance(0.3) {
        // Copies of data seen before the SYN: orphans.
        for _ in 0..rng.gen_range_u64(1..4) {
            packets.push(data(pick(rng, &cuts)));
        }
    }
    packets.push(syn.clone());
    packets.extend(flow);
    if rng.chance(0.1) {
        // A retransmitted SYN somewhere in the flow.
        let i = rng.gen_range_u64(1..packets.len() as u64 + 1) as usize;
        packets.insert(i, syn);
    }
    packets
}

/// A two-direction capture with the flows' packets randomly interleaved.
fn random_capture(seed: u64) -> WireTrace {
    let mut rng = SimRng::seed_from(seed);
    let mut flows = [Dir::LeftToRight, Dir::RightToLeft].map(|dir| {
        let stream = random_stream(&mut rng, dir_index(dir) as u64);
        let packets = random_flow(&mut rng, &stream);
        (dir, packets.into_iter().peekable())
    });
    let mut trace = WireTrace::new();
    let mut now = SimTime::ZERO;
    loop {
        let live: Vec<usize> = (0..2).filter(|&i| flows[i].1.peek().is_some()).collect();
        if live.is_empty() {
            return trace;
        }
        let (dir, packets) = &mut flows[pick(&mut rng, &live)];
        let seg = packets.next().expect("live flow");
        now += SimDuration::from_micros(rng.gen_range_u64(0..500));
        trace.push(ObservedPacket::capture(now, *dir, &seg));
    }
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

#[test]
fn extractor_matches_the_copying_reference() {
    for_each_seed(400, |seed| {
        let trace = random_capture(seed);
        let (expected, _) = reference_extract(&trace);
        assert_eq!(extract_records(&trace), expected, "seed {seed}");
    });
}

#[test]
fn follower_matches_the_reassembler() {
    for_each_seed(400, |seed| {
        let trace = random_capture(seed);
        let (_, reference) = reference_extract(&trace);
        for dir in [Dir::LeftToRight, Dir::RightToLeft] {
            let mut follower = StreamFollower::new();
            let mut stream = Vec::new();
            for p in trace.in_dir(dir) {
                follower.follow(p.seq, p.flags, &p.payload, |b| stream.extend_from_slice(b));
            }
            let (ref_stream, ref_orphans) = &reference[dir_index(dir)];
            assert_eq!(&stream, ref_stream, "seed {seed} {dir:?}");
            assert_eq!(follower.orphan_segments(), *ref_orphans, "seed {seed}");
        }
    });
}

#[test]
fn generated_cases_cover_every_situation() {
    // Guards the generator: the properties above are only as strong as
    // the situations it actually produces.
    let (mut desyncs, mut zero, mut max, mut orphans, mut overlaps) = (0, 0, 0, 0, 0);
    for seed in 0..400 {
        let trace = random_capture(seed);
        let (records, reference) = reference_extract(&trace);
        zero += records.iter().filter(|r| r.wire_len == HEADER_LEN).count();
        max += records
            .iter()
            .filter(|r| r.wire_len == HEADER_LEN + MAX_CIPHERTEXT)
            .count();
        orphans += reference.iter().map(|(_, o)| o).sum::<u64>();
        for dir in [Dir::LeftToRight, Dir::RightToLeft] {
            let mut f = ReassemblingFollower::default();
            for p in trace.in_dir(dir) {
                f.push(p);
            }
            overlaps += u64::from(f.reassembler.duplicate_bytes() > 0);
            let mut scanner = h2priv_tls::RecordScanner::new();
            scanner.push(&reference[dir_index(dir)].0);
            desyncs += u64::from(scanner.is_desynced());
        }
    }
    assert!(desyncs >= 40, "desyncs {desyncs}");
    assert!(zero >= 100, "zero-length fragments {zero}");
    assert!(max >= 100, "MAX_CIPHERTEXT fragments {max}");
    assert!(orphans >= 100, "orphan segments {orphans}");
    assert!(overlaps >= 300, "flows with duplicates {overlaps}");
}

/// The passive follower reproduces the endpoint's byte stream for any
/// segmentation and delivery order of a sent stream.
#[test]
fn follower_matches_endpoint_stream() {
    for_each_seed(200, |seed| {
        let mut rng = SimRng::seed_from(seed);
        let len = rng.gen_range_u64(1..20_000) as usize;
        let mss = rng.gen_range_u64(100..1_460) as usize;
        let data: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
        let mut segments: Vec<TcpSegment> = data
            .chunks(mss)
            .enumerate()
            .map(|(i, c)| segment(Seq(1_001 + (i * mss) as u32), TcpFlags::ACK, c.into()))
            .collect();
        let n = segments.len() as u64;
        for _ in 0..rng.gen_range_u64(0..10) {
            let (a, b) = (rng.gen_range_u64(0..n), rng.gen_range_u64(0..n));
            segments.swap(a as usize, b as usize);
        }
        let mut follower = StreamFollower::new();
        follower.follow(Seq(1_000), TcpFlags::SYN, &SharedBytes::new(), |_| {});
        let mut stream = Vec::new();
        for seg in &segments {
            follower.follow(seg.seq, seg.flags, &seg.payload, |b| {
                stream.extend_from_slice(b)
            });
        }
        assert_eq!(stream, data, "seed {seed}");
    });
}
