//! The linear degree-of-multiplexing scoring in `GroundTruth` must give
//! exactly (bit for bit) the degrees of the quadratic per-instance code it
//! replaced, kept below as the reference: paper attack trials, and random
//! layouts.

use h2priv_analysis::{GroundTruth, ObjectRange};
use h2priv_core::experiment::{objects_of_interest, run_paper_trial};
use h2priv_core::AttackConfig;
use h2priv_http2::StreamId;
use h2priv_netsim::SimRng;
use h2priv_web::ObjectId;

/// The degree of one instance, straight from the definition: the larger
/// of the fraction of its bytes inside another instance's span and the
/// fraction outside its largest run free of foreign insertions.
fn reference_degree(gt: &GroundTruth, instance: StreamId) -> Option<f64> {
    let mut mine: Vec<&ObjectRange> = gt
        .ranges()
        .iter()
        .filter(|r| r.instance == instance)
        .collect();
    if mine.is_empty() {
        return None;
    }
    mine.sort_unstable_by_key(|r| r.start);
    let total: u64 = mine.iter().map(|r| r.end - r.start).sum();

    let mut spans: Vec<(StreamId, u64, u64)> = Vec::new();
    for r in gt.ranges().iter().filter(|r| r.instance != instance) {
        match spans.iter_mut().find(|s| s.0 == r.instance) {
            Some(s) => {
                s.1 = s.1.min(r.start);
                s.2 = s.2.max(r.end);
            }
            None => spans.push((r.instance, r.start, r.end)),
        }
    }
    let mut sorted: Vec<(u64, u64)> = spans.iter().map(|&(_, s, e)| (s, e)).collect();
    sorted.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (s, e) in sorted {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    let in_spans: u64 = mine
        .iter()
        .map(|r| {
            merged
                .iter()
                .map(|&(s, e)| r.end.min(e).saturating_sub(r.start.max(s)))
                .sum::<u64>()
        })
        .sum();
    let span_degree = in_spans as f64 / total as f64;

    let foreign: Vec<(u64, u64)> = gt
        .ranges()
        .iter()
        .filter(|r| r.instance != instance)
        .map(|r| (r.start, r.end))
        .collect();
    let mut largest_run = 0u64;
    let mut current_run = 0u64;
    let mut prev_end: Option<u64> = None;
    for r in &mine {
        let broken = prev_end.is_some_and(|pe| {
            foreign
                .iter()
                .any(|&(fs, fe)| fe > pe && fs < r.start && fe > fs)
        });
        if broken {
            largest_run = largest_run.max(current_run);
            current_run = 0;
        }
        current_run += r.end - r.start;
        prev_end = Some(r.end);
    }
    largest_run = largest_run.max(current_run);
    let run_degree = 1.0 - largest_run as f64 / total as f64;
    Some(span_degree.max(run_degree))
}

fn reference_min_degree(gt: &GroundTruth, object: ObjectId) -> Option<f64> {
    gt.instances_of(object)
        .into_iter()
        .filter(|&i| gt.is_complete(i))
        .filter_map(|i| reference_degree(gt, i))
        .min_by(|a, b| a.partial_cmp(b).expect("degrees are finite"))
}

fn bits(d: Option<f64>) -> Option<u64> {
    d.map(f64::to_bits)
}

/// Every instance's degree and every object's minimum equal the reference.
fn assert_matches(gt: &GroundTruth, objects: &[ObjectId], what: &str) {
    let mut instances: Vec<StreamId> = gt.ranges().iter().map(|r| r.instance).collect();
    instances.sort_unstable_by_key(|i| i.0);
    instances.dedup();
    for &i in &instances {
        assert_eq!(
            bits(gt.degree_of_instance(i)),
            bits(reference_degree(gt, i)),
            "{what}: instance {i:?}"
        );
    }
    for &object in objects {
        assert_eq!(
            bits(gt.min_degree_for(object)),
            bits(reference_min_degree(gt, object)),
            "{what}: object {object:?}"
        );
    }
}

#[test]
fn paper_trials_score_as_the_reference() {
    let attack = AttackConfig::paper_attack();
    for seed in 0..40 {
        let trial = run_paper_trial(seed, Some(&attack), |_| {});
        assert_matches(
            &trial.result.truth,
            &objects_of_interest(&trial.iw),
            &format!("seed {seed}"),
        );
    }
}

/// A random layout: either a tiling of the stream by consecutive ranges
/// (what the simulation records), or overlapping ranges; added in random
/// order, some instances left incomplete.
fn random_layout(rng: &mut SimRng) -> (GroundTruth, Vec<ObjectId>) {
    let instances = rng.gen_range_u64(1..8) as u32;
    let objects = rng.gen_range_u64(1..5) as u32;
    let object_of = |i: u32| ObjectId(i % objects);
    let tiling = rng.chance(0.5);
    let mut ranges: Vec<(u64, u64, u32)> = Vec::new();
    let mut offset = 0;
    for _ in 0..rng.gen_range_u64(1..60) {
        let who = rng.gen_range_u64(0..instances as u64) as u32;
        // Overlapping layouts sit on a coarse grid, so that starts and
        // ends of different instances often coincide.
        let (start, len) = if tiling {
            (offset, rng.gen_range_u64(1..2_000))
        } else {
            (64 * rng.gen_range_u64(0..60), 64 * rng.gen_range_u64(1..16))
        };
        // The definition orders an instance's own ranges by start; keep
        // those starts distinct so that order is unambiguous.
        if ranges.iter().any(|&(s, _, w)| w == who && s == start) {
            continue;
        }
        ranges.push((start, start + len, who));
        offset = start + len;
    }
    let mut gt = GroundTruth::new();
    for k in rng.permutation(ranges.len()) {
        let (s, e, who) = ranges[k];
        gt.add_range(s, e, object_of(who), StreamId(1 + 2 * who));
    }
    for who in 0..instances {
        if rng.chance(0.8) {
            gt.mark_complete(StreamId(1 + 2 * who));
        }
    }
    (gt, (0..objects).map(ObjectId).collect())
}

#[test]
fn random_layouts_score_as_the_reference() {
    for seed in 0..2_000 {
        let (gt, objects) = random_layout(&mut SimRng::seed_from(seed));
        assert_matches(&gt, &objects, &format!("layout seed {seed}"));
    }
}
