//! Property-based tests of the analysis crate: the degree-of-multiplexing
//! metric's invariants and burst segmentation. The stream follower's
//! property lives in `observer_differential.rs`, which runs offline.
//!
//! Gated behind the `proptests` feature: the external `proptest` crate is
//! unavailable in offline builds. Re-add the dev-dependency and enable the
//! feature to run these.
#![cfg(feature = "proptests")]

use h2priv_analysis::{segment_bursts, GroundTruth};
use h2priv_http2::StreamId;
use h2priv_netsim::{SimDuration, SimTime};
use h2priv_web::ObjectId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Degrees are always within [0, 1].
    #[test]
    fn degree_is_a_fraction(
        layout in proptest::collection::vec((0u32..8, 1u64..2_000), 1..40),
    ) {
        // Lay consecutive ranges owned by pseudo-random instances.
        let mut gt = GroundTruth::new();
        let mut offset = 0u64;
        for &(who, len) in &layout {
            let inst = StreamId(1 + 2 * who);
            gt.add_range(offset, offset + len, ObjectId(who), inst);
            offset += len;
        }
        for &(who, _) in &layout {
            let inst = StreamId(1 + 2 * who);
            gt.mark_complete(inst);
            let d = gt.degree_of_instance(inst).unwrap();
            prop_assert!((0.0..=1.0).contains(&d), "degree {d}");
        }
    }

    /// Strictly sequential transmissions always have degree zero, in any
    /// instance order.
    #[test]
    fn sequential_layout_has_degree_zero(
        sizes in proptest::collection::vec(1u64..5_000, 1..20),
    ) {
        let mut gt = GroundTruth::new();
        let mut offset = 0;
        for (i, &len) in sizes.iter().enumerate() {
            let inst = StreamId(1 + 2 * i as u32);
            gt.add_range(offset, offset + len, ObjectId(i as u32), inst);
            gt.mark_complete(inst);
            offset += len;
        }
        for i in 0..sizes.len() {
            let inst = StreamId(1 + 2 * i as u32);
            prop_assert_eq!(gt.degree_of_instance(inst), Some(0.0));
        }
    }

    /// Perfect round-robin interleaving of ≥ 2 instances gives every
    /// instance a high degree (> 0.5 for interior chunks).
    #[test]
    fn round_robin_layout_is_multiplexed(
        instances in 2u32..6,
        rounds in 3u64..20,
        chunk in 1u64..2_000,
    ) {
        let mut gt = GroundTruth::new();
        let mut offset = 0;
        for _ in 0..rounds {
            for who in 0..instances {
                let inst = StreamId(1 + 2 * who);
                gt.add_range(offset, offset + chunk, ObjectId(who), inst);
                offset += chunk;
            }
        }
        for who in 0..instances {
            let inst = StreamId(1 + 2 * who);
            gt.mark_complete(inst);
            let d = gt.degree_of_instance(inst).unwrap();
            prop_assert!(d > 0.5, "instance {inst} degree {d}");
        }
    }

    /// Burst segmentation conserves records and bytes, and burst starts are
    /// separated by at least the gap.
    #[test]
    fn bursts_conserve_records(
        gaps_ms in proptest::collection::vec(0u64..100, 1..60),
        min_gap_ms in 1u64..50,
    ) {
        let mut t = 0u64;
        let mut offset = 0u64;
        let records: Vec<h2priv_analysis::RecordEvent> = gaps_ms
            .iter()
            .map(|&g| {
                t += g;
                let r = h2priv_analysis::RecordEvent {
                    time: SimTime::from_millis(t),
                    dir: h2priv_netsim::Dir::RightToLeft,
                    content_type: h2priv_tls::ContentType::ApplicationData,
                    wire_len: 100,
                    stream_offset: offset,
                };
                offset += 100;
                r
            })
            .collect();
        let bursts = segment_bursts(&records, SimDuration::from_millis(min_gap_ms));
        prop_assert_eq!(
            bursts.iter().map(|b| b.records).sum::<usize>(),
            records.len()
        );
        let total: u64 = bursts.iter().map(|b| b.plaintext_bytes).sum();
        prop_assert_eq!(total, records.iter().map(|r| r.plaintext_len() as u64).sum::<u64>());
        for w in bursts.windows(2) {
            prop_assert!(w[1].start.saturating_since(w[0].end) >= SimDuration::from_millis(min_gap_ms));
        }
    }
}
