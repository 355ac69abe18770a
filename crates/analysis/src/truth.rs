//! Ground truth and the paper's privacy metric.
//!
//! §II-A: *"We define the degree of multiplexing of an object as the
//! fraction of bytes of the object that is interleaved with those of
//! another object within the same TCP stream"*, and the attack succeeds on
//! an object only when its degree is driven to 0 **and** the object is
//! identified from the encrypted traffic.
//!
//! The simulation host records, at TLS-seal time, which server→client TCP
//! byte ranges carry which response's DATA. Each response *instance* (one
//! HTTP/2 stream serving one copy of an object — duplicate serves are
//! separate instances) owns a set of ranges; an instance's bytes are
//! *interleaved* when they fall inside the transmission span of any other
//! instance.

use h2priv_bytes::FxHashMap;

use h2priv_http2::StreamId;
use h2priv_web::ObjectId;

/// A contiguous server→client TCP byte range carrying one instance's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRange {
    /// First TCP stream offset (inclusive).
    pub start: u64,
    /// One past the last offset (exclusive).
    pub end: u64,
    /// The object whose bytes these are.
    pub object: ObjectId,
    /// The response instance (HTTP/2 stream) carrying them.
    pub instance: StreamId,
}

/// Ground-truth annotations for one connection's server→client stream.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    ranges: Vec<ObjectRange>,
    complete: FxHashMap<StreamId, bool>,
    object_of: FxHashMap<StreamId, ObjectId>,
}

impl GroundTruth {
    /// Creates an empty annotation set.
    pub fn new() -> Self {
        GroundTruth::default()
    }

    /// Records that `[start, end)` carries DATA of `object` on `instance`.
    pub fn add_range(&mut self, start: u64, end: u64, object: ObjectId, instance: StreamId) {
        debug_assert!(start <= end);
        if start == end {
            return;
        }
        self.ranges.push(ObjectRange {
            start,
            end,
            object,
            instance,
        });
        self.object_of.insert(instance, object);
        self.complete.entry(instance).or_insert(false);
    }

    /// Marks an instance as fully transmitted (its END_STREAM DATA frame
    /// was sealed).
    pub fn mark_complete(&mut self, instance: StreamId) {
        self.complete.insert(instance, true);
    }

    /// All recorded ranges.
    pub fn ranges(&self) -> &[ObjectRange] {
        &self.ranges
    }

    /// The object an instance serves, if known.
    pub fn object_of(&self, instance: StreamId) -> Option<ObjectId> {
        self.object_of.get(&instance).copied()
    }

    /// Instances serving `object`, in first-byte order.
    pub fn instances_of(&self, object: ObjectId) -> Vec<StreamId> {
        let mut firsts: FxHashMap<StreamId, u64> = FxHashMap::default();
        for r in &self.ranges {
            if r.object == object {
                let e = firsts.entry(r.instance).or_insert(r.start);
                *e = (*e).min(r.start);
            }
        }
        let mut v: Vec<(u64, StreamId)> = firsts.into_iter().map(|(s, f)| (f, s)).collect();
        v.sort_unstable_by_key(|&(f, s)| (f, s));
        v.into_iter().map(|(_, s)| s).collect()
    }

    /// True if the instance finished transmitting.
    pub fn is_complete(&self, instance: StreamId) -> bool {
        self.complete.get(&instance).copied().unwrap_or(false)
    }

    /// Total bytes recorded for an instance.
    pub fn instance_bytes(&self, instance: StreamId) -> u64 {
        self.ranges
            .iter()
            .filter(|r| r.instance == instance)
            .map(|r| r.end - r.start)
            .sum()
    }

    /// The degree of multiplexing of one instance — the fraction of its
    /// bytes whose size-contribution an observer cannot attribute by
    /// contiguity. Returns `None` for an unknown instance.
    ///
    /// Two effects make a byte "interleaved with those of another object"
    /// (§II-A), and the degree is the larger of the two fractions:
    ///
    /// * **span overlap** — bytes lying within the transmission span of any
    ///   *other* instance (including another copy of the same object): they
    ///   arrive mixed into someone else's transfer;
    /// * **run breakage** — bytes outside the instance's largest contiguous
    ///   foreign-free run: a foreign insertion in the middle of the
    ///   transfer means those bytes cannot be summed with the rest.
    ///
    /// Both reduce to 0 exactly when the instance was transmitted alone and
    /// unbroken — the condition the paper's attack engineers.
    pub fn degree_of_instance(&self, instance: StreamId) -> Option<f64> {
        Layout::of(&self.ranges).degree(instance)
    }

    /// The smallest degree of multiplexing across *complete* instances of
    /// `object` — the paper counts a trial "not multiplexed" when some
    /// fully-transmitted copy of the object was interleaving-free.
    pub fn min_degree_for(&self, object: ObjectId) -> Option<f64> {
        let layout = Layout::of(&self.ranges);
        self.instances_of(object)
            .into_iter()
            .filter(|&i| self.is_complete(i))
            .filter_map(|i| layout.degree(i))
            .min_by(|a, b| a.partial_cmp(b).expect("degrees are finite"))
    }

    /// The degree of the first (primary) complete instance of `object`.
    pub fn primary_degree_for(&self, object: ObjectId) -> Option<f64> {
        self.instances_of(object)
            .into_iter()
            .find(|&i| self.is_complete(i))
            .and_then(|i| self.degree_of_instance(i))
    }
}

/// The ranges in start order and every instance's transmission span:
/// built once per query, then each instance is scored in one pass.
struct Layout<'a> {
    by_start: Vec<&'a ObjectRange>,
    spans: FxHashMap<StreamId, (u64, u64)>,
}

impl<'a> Layout<'a> {
    fn of(ranges: &'a [ObjectRange]) -> Self {
        let mut by_start: Vec<&ObjectRange> = ranges.iter().collect();
        // Stable, and linear on the host's ranges, which arrive in order.
        by_start.sort_by_key(|r| r.start);
        let mut spans: FxHashMap<StreamId, (u64, u64)> = FxHashMap::default();
        for r in ranges {
            let e = spans.entry(r.instance).or_insert((r.start, r.end));
            e.0 = e.0.min(r.start);
            e.1 = e.1.max(r.end);
        }
        Layout { by_start, spans }
    }

    /// See [`GroundTruth::degree_of_instance`].
    fn degree(&self, instance: StreamId) -> Option<f64> {
        let foreign_spans = merge_intervals(
            self.spans
                .iter()
                .filter(|&(&i, _)| i != instance)
                .map(|(_, &span)| span)
                .collect(),
        );
        let (mut total, mut in_spans) = (0u64, 0u64);
        let (mut largest_run, mut current_run) = (0u64, 0u64);
        let mut prev_end: Option<u64> = None;
        // The latest end among foreign ranges starting before the current
        // own range: the run breaks if one ends past the previous own range.
        let mut foreign_end: Option<u64> = None;
        let mut seen = 0;
        for r in self.by_start.iter().filter(|r| r.instance == instance) {
            while let Some(f) = self.by_start.get(seen).filter(|f| f.start < r.start) {
                if f.instance != instance {
                    foreign_end = foreign_end.max(Some(f.end));
                }
                seen += 1;
            }
            if prev_end.is_some_and(|pe| foreign_end.is_some_and(|fe| fe > pe)) {
                largest_run = largest_run.max(current_run);
                current_run = 0;
            }
            current_run += r.end - r.start;
            total += r.end - r.start;
            in_spans += overlap_with(r.start, r.end, &foreign_spans);
            prev_end = Some(r.end);
        }
        if total == 0 {
            return None;
        }
        let span_degree = in_spans as f64 / total as f64;
        let run_degree = 1.0 - largest_run.max(current_run) as f64 / total as f64;
        Some(span_degree.max(run_degree))
    }
}

fn merge_intervals(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn overlap_with(start: u64, end: u64, merged: &[(u64, u64)]) -> u64 {
    // merged is sorted and disjoint.
    let mut total = 0;
    for &(s, e) in merged {
        if e <= start {
            continue;
        }
        if s >= end {
            break;
        }
        total += end.min(e) - start.max(s);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ObjectId = ObjectId(0);
    const B: ObjectId = ObjectId(1);
    const S1: StreamId = StreamId(1);
    const S3: StreamId = StreamId(3);
    const S5: StreamId = StreamId(5);

    #[test]
    fn sequential_transmissions_have_zero_degree() {
        let mut gt = GroundTruth::new();
        gt.add_range(0, 100, A, S1);
        gt.add_range(100, 250, B, S3);
        gt.mark_complete(S1);
        gt.mark_complete(S3);
        assert_eq!(gt.degree_of_instance(S1), Some(0.0));
        assert_eq!(gt.degree_of_instance(S3), Some(0.0));
        assert_eq!(gt.min_degree_for(A), Some(0.0));
    }

    #[test]
    fn fully_interleaved_is_one() {
        // A: [0,10) [20,30); B: [10,20) — B sits inside A's span entirely.
        let mut gt = GroundTruth::new();
        gt.add_range(0, 10, A, S1);
        gt.add_range(20, 30, A, S1);
        gt.add_range(10, 20, B, S3);
        gt.mark_complete(S1);
        gt.mark_complete(S3);
        assert_eq!(gt.degree_of_instance(S3), Some(1.0));
        // A's runs are broken in half by B's insertion: half its bytes
        // cannot be attributed by contiguity.
        assert_eq!(gt.degree_of_instance(S1), Some(0.5));
    }

    #[test]
    fn partial_interleaving_fraction() {
        // A occupies [0,50) and [60,110); B's span is [50,150): A's bytes
        // in [60,110) are interleaved and A's largest clean run is 50 of
        // 100 bytes → degree 0.5 under both sub-metrics.
        let mut gt = GroundTruth::new();
        gt.add_range(0, 50, A, S1);
        gt.add_range(60, 110, A, S1);
        gt.add_range(50, 60, B, S3);
        gt.add_range(140, 150, B, S3);
        gt.mark_complete(S1);
        gt.mark_complete(S3);
        assert_eq!(gt.degree_of_instance(S1), Some(0.5));
    }

    #[test]
    fn duplicate_copies_interleave_each_other() {
        // Two copies of A, interleaved: both are multiplexed even though
        // it's the "same object".
        let mut gt = GroundTruth::new();
        gt.add_range(0, 10, A, S1);
        gt.add_range(10, 20, A, S5);
        gt.add_range(20, 30, A, S1);
        gt.add_range(30, 40, A, S5);
        gt.mark_complete(S1);
        gt.mark_complete(S5);
        assert!(gt.degree_of_instance(S1).unwrap() > 0.0);
        assert!(gt.degree_of_instance(S5).unwrap() > 0.0);
        assert_eq!(gt.instances_of(A), vec![S1, S5]);
    }

    #[test]
    fn clean_retransmitted_copy_gives_min_degree_zero() {
        // Fig. 5 discussion: a success can come from "a retransmitted
        // version of the object and not the actual object". First copy
        // interleaved with B, second copy clean.
        let mut gt = GroundTruth::new();
        gt.add_range(0, 10, A, S1);
        gt.add_range(10, 20, B, S3);
        gt.add_range(20, 30, A, S1);
        gt.add_range(100, 130, A, S5); // clean second copy
        gt.mark_complete(S1);
        gt.mark_complete(S3);
        gt.mark_complete(S5);
        assert!(gt.degree_of_instance(S1).unwrap() > 0.0);
        assert_eq!(gt.degree_of_instance(S5), Some(0.0));
        assert_eq!(gt.min_degree_for(A), Some(0.0));
        assert!(gt.primary_degree_for(A).unwrap() > 0.0);
    }

    #[test]
    fn incomplete_instances_do_not_count() {
        let mut gt = GroundTruth::new();
        gt.add_range(0, 10, A, S1); // never completed
        assert_eq!(gt.min_degree_for(A), None);
        gt.mark_complete(S1);
        assert_eq!(gt.min_degree_for(A), Some(0.0));
    }

    #[test]
    fn bookkeeping_accessors() {
        let mut gt = GroundTruth::new();
        gt.add_range(0, 10, A, S1);
        gt.add_range(10, 30, A, S1);
        assert_eq!(gt.instance_bytes(S1), 30);
        assert_eq!(gt.object_of(S1), Some(A));
        assert_eq!(gt.object_of(S3), None);
        assert_eq!(gt.degree_of_instance(S3), None);
        assert!(!gt.is_complete(S1));
        // Zero-length ranges are ignored.
        gt.add_range(50, 50, B, S3);
        assert_eq!(gt.object_of(S3), None);
    }

    #[test]
    fn foreign_range_starting_with_own_does_not_break_run() {
        // B's one byte starts where A's second range does, so it is not
        // inserted *between* A's ranges: A keeps one 20-byte run, and only
        // the byte inside B's span counts against it.
        let mut gt = GroundTruth::new();
        gt.add_range(0, 10, A, S1);
        gt.add_range(20, 21, B, S3);
        gt.add_range(20, 30, A, S1);
        assert_eq!(gt.degree_of_instance(S1), Some(1.0 / 20.0));
    }

    #[test]
    fn merge_intervals_behaviour() {
        let merged = merge_intervals(vec![(10, 20), (0, 5), (15, 30), (40, 50)]);
        assert_eq!(merged, vec![(0, 5), (10, 30), (40, 50)]);
        assert_eq!(overlap_with(0, 100, &merged), 5 + 20 + 10);
        assert_eq!(overlap_with(5, 10, &merged), 0);
    }
}
