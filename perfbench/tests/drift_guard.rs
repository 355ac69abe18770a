//! Drift guard: the benchmark rebuilds each trial from public calls and
//! wraps the adversary in its timing middlebox. For sampled seeds, the
//! rebuilt trial must match the program's own trial runners exactly —
//! events, outcomes, capture and analysis — so the benchmark measures the
//! same program the exhibits run.

use h2priv_core::experiment::{
    analyze_trial, calibrate_size_map, objects_of_interest, paper_scenario, run_paper_trial,
};
use h2priv_core::AttackConfig;
use h2priv_dos::{DetectorConfig, DosAttack, DosConfig, GuardConfig};
use h2priv_netsim::SimDuration;
use h2priv_perfbench::ops::{dos_config, dos_digest, paper_digest, paper_op, paper_run, Mode};
use h2priv_perfbench::stats::mix;
use h2priv_perfbench::trace::Tracer;
use h2priv_testkit::{run_dos_trial, DosScenarioConfig};
use h2priv_web::PoolConfig;

const PLAIN: Mode = Mode {
    traced: false,
    checked: false,
};

fn sampled_seeds() -> impl Iterator<Item = u64> {
    [3u64, 17, 40].into_iter().map(|i| mix(0xD81F7, i))
}

#[test]
fn rebuilt_paper_trial_matches_run_paper_trial() {
    let (iw, _) = paper_scenario(0);
    let map = calibrate_size_map(&objects_of_interest(&iw));
    let attack = AttackConfig::paper_attack();
    for dos_armed in [false, true] {
        for seed in sampled_seeds() {
            let trial = run_paper_trial(seed, Some(&attack), |cfg| {
                cfg.conformance = false;
                if dos_armed {
                    cfg.dos_guard = Some(GuardConfig::default());
                    cfg.dos_detector = Some(DetectorConfig::default());
                }
            });
            let start = trial
                .adversary
                .as_ref()
                .and_then(|s| s.analysis_start(&attack));
            let want = analyze_trial(&trial, &map, &objects_of_interest(&trial.iw), start);

            for traced in [false, true] {
                let mode = Mode { traced, ..PLAIN };
                let mut tr = Tracer::new(traced, seed);
                let root = tr.open("op", None);
                let got = paper_run(&map, seed, dos_armed, mode, &mut tr, root);
                let ctx = format!("seed {seed:#x} dos_armed {dos_armed} traced {traced}");
                assert_eq!(got.result.events, trial.result.events, "{ctx}");
                assert_eq!(got.result.stop, trial.result.stop, "{ctx}");
                assert_eq!(got.result.outcomes, trial.result.outcomes, "{ctx}");
                assert_eq!(got.result.trace, trial.result.trace, "{ctx}");
                assert_eq!(got.result.client_tcp, trial.result.client_tcp, "{ctx}");
                assert_eq!(got.result.server_tcp, trial.result.server_tcp, "{ctx}");
                assert_eq!(got.result.sched, trial.result.sched, "{ctx}");
                assert_eq!(got.result.dos_alerts.len(), trial.result.dos_alerts.len());
                assert_eq!(got.result.guard, trial.result.guard, "{ctx}");
                assert_eq!(got.analysis_start, start, "{ctx}");
                assert_eq!(got.analysis.objects, want.objects, "{ctx}");
                assert_eq!(got.analysis.predicted_parties, want.predicted_parties);
                assert_eq!(got.analysis.rank_correct, want.rank_correct, "{ctx}");
                assert_eq!(got.analysis.broken, want.broken, "{ctx}");
                let controller = trial.adversary.as_ref().expect("attacked").controller;
                assert_eq!(got.tally.drops, controller.dropped + controller.gated);
                assert_eq!(
                    paper_digest(&got.result, &got.analysis),
                    paper_digest(&trial.result, &want),
                    "{ctx}"
                );
            }
        }
    }
}

#[test]
fn timing_wrapper_and_tracing_do_not_change_outputs() {
    let (iw, _) = paper_scenario(0);
    let map = calibrate_size_map(&objects_of_interest(&iw));
    for seed in sampled_seeds() {
        let plain = paper_op(&map, seed, false, PLAIN);
        let traced = paper_op(
            &map,
            seed,
            false,
            Mode {
                traced: true,
                ..PLAIN
            },
        );
        assert_eq!(plain.digest, traced.digest);
        assert!(plain.spans.is_empty());
        assert!(traced.spans.iter().any(|s| s.name == "core.adversary"));
    }
}

#[test]
fn dos_trial_config_matches_the_direct_call() {
    for seed in sampled_seeds().take(2) {
        for attack in DosAttack::all() {
            for guarded in [false, true] {
                let direct = run_dos_trial(&DosScenarioConfig {
                    seed,
                    attack: DosConfig::for_attack(attack),
                    guard: guarded.then(GuardConfig::default),
                    detector: guarded.then(DetectorConfig::default),
                    pool: Some(PoolConfig::default()),
                    deadline: SimDuration::from_secs(30),
                    conformance: false,
                });
                let bench = run_dos_trial(&dos_config(seed, attack, guarded, false));
                assert_eq!(bench.events, direct.events, "{} {guarded}", attack.name());
                assert_eq!(bench.shed_at, direct.shed_at);
                assert_eq!(bench.detection_latency, direct.detection_latency);
                assert_eq!(dos_digest(&bench), dos_digest(&direct));
            }
        }
    }
}
