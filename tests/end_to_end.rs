//! End-to-end integration tests: the paper's headline claims must hold on
//! full simulated experiments spanning every crate in the workspace.

use jumanji::prelude::*;
use jumanji::telemetry::NoopSink;
use jumanji::types::Seconds;

fn opts() -> SimOptions {
    SimOptions {
        duration: Seconds(2.0),
        ..SimOptions::default()
    }
}

#[test]
#[should_panic(expected = "covers no")]
fn a_run_shorter_than_one_interval_is_rejected() {
    let opts = SimOptions {
        duration: Seconds(0.01),
        ..SimOptions::default()
    };
    Experiment::new(case_study_mix(1), LcLoad::High, opts);
}

/// Margin over the isolation-measured deadline allowed for contention and
/// p95 sampling noise.
const TAIL_SLACK: f64 = 1.35;

#[test]
fn tail_aware_designs_meet_deadlines_jigsaw_does_not() {
    let exp = Experiment::new(case_study_mix(0), LcLoad::High, opts());
    for design in [
        DesignKind::Adaptive,
        DesignKind::VmPart,
        DesignKind::Jumanji,
    ] {
        let r = exp.run(design, &NoopSink);
        assert!(
            r.max_norm_tail() < TAIL_SLACK,
            "{design} violated: {:?}",
            r.norm_tails()
        );
    }
    let jigsaw = exp.run(DesignKind::Jigsaw, &NoopSink);
    assert!(
        jigsaw.max_norm_tail() > TAIL_SLACK,
        "jigsaw must violate: {:?}",
        jigsaw.norm_tails()
    );
    // How badly Jigsaw violates depends on how cache-hungry the drawn
    // batch co-runners are; mix 4 draws an aggressive mix where the
    // violation is massive (the paper reports up to 100x).
    let aggressive = Experiment::new(case_study_mix(4), LcLoad::High, opts());
    let jigsaw = aggressive.run(DesignKind::Jigsaw, &NoopSink);
    assert!(
        jigsaw.max_norm_tail() > 2.0,
        "jigsaw must violate massively on an aggressive mix: {:?}",
        jigsaw.norm_tails()
    );
}

#[test]
fn speedup_ordering_matches_the_paper() {
    // Jigsaw >= Jumanji >> Adaptive ~ Static; D-NUCAs clearly positive.
    let exp = Experiment::new(case_study_mix(1), LcLoad::High, opts());
    let stat = exp.run(DesignKind::Static, &NoopSink);
    let speedup = |d: DesignKind| exp.run(d, &NoopSink).weighted_speedup_vs(&stat);
    let adaptive = speedup(DesignKind::Adaptive);
    let jigsaw = speedup(DesignKind::Jigsaw);
    let jumanji = speedup(DesignKind::Jumanji);
    assert!(jumanji > 1.05, "jumanji speedup {jumanji}");
    assert!(jigsaw > jumanji, "jigsaw {jigsaw} vs jumanji {jumanji}");
    assert!(
        jumanji > adaptive + 0.04,
        "jumanji {jumanji} vs adaptive {adaptive}"
    );
    assert!(adaptive < 1.06, "adaptive barely improves: {adaptive}");
}

#[test]
fn jumanji_is_near_insecure_and_ideal_batch() {
    // Fig. 16: bank isolation costs little; greedy placement is near-ideal.
    let exp = Experiment::new(case_study_mix(2), LcLoad::High, opts());
    let stat = exp.run(DesignKind::Static, &NoopSink);
    let jumanji = exp
        .run(DesignKind::Jumanji, &NoopSink)
        .weighted_speedup_vs(&stat);
    let insecure = exp
        .run(DesignKind::JumanjiInsecure, &NoopSink)
        .weighted_speedup_vs(&stat);
    let ideal = exp
        .run(DesignKind::JumanjiIdealBatch, &NoopSink)
        .weighted_speedup_vs(&stat);
    assert!(
        insecure - jumanji < 0.03,
        "isolation cost: {insecure} vs {jumanji}"
    );
    assert!(ideal - jumanji < 0.04, "ideality gap: {ideal} vs {jumanji}");
}

#[test]
fn vulnerability_matches_fig14() {
    let exp = Experiment::new(case_study_mix(3), LcLoad::High, opts());
    let adaptive = exp.run(DesignKind::Adaptive, &NoopSink);
    let vmpart = exp.run(DesignKind::VmPart, &NoopSink);
    let jigsaw = exp.run(DesignKind::Jigsaw, &NoopSink);
    let jumanji = exp.run(DesignKind::Jumanji, &NoopSink);
    assert!((adaptive.vulnerability - 15.0).abs() < 0.2);
    assert!((vmpart.vulnerability - 15.0).abs() < 0.2);
    assert!(jigsaw.vulnerability > 0.0 && jigsaw.vulnerability < 5.0);
    assert_eq!(jumanji.vulnerability, 0.0);
}

#[test]
fn energy_dnuca_saves_vs_static() {
    // Fig. 15 shape: D-NUCAs clearly below Static; VM-Part does not save.
    let exp = Experiment::new(case_study_mix(4), LcLoad::High, opts());
    let stat = exp
        .run(DesignKind::Static, &NoopSink)
        .energy_per_instruction()
        .total();
    let jumanji = exp
        .run(DesignKind::Jumanji, &NoopSink)
        .energy_per_instruction()
        .total();
    let jigsaw = exp
        .run(DesignKind::Jigsaw, &NoopSink)
        .energy_per_instruction()
        .total();
    let vmpart = exp
        .run(DesignKind::VmPart, &NoopSink)
        .energy_per_instruction()
        .total();
    assert!(jumanji < 0.97 * stat, "jumanji {jumanji} vs static {stat}");
    assert!(jigsaw < 0.97 * stat, "jigsaw {jigsaw} vs static {stat}");
    assert!(
        vmpart > 0.97 * stat,
        "vm-part saves little: {vmpart} vs {stat}"
    );
}

#[test]
fn low_load_keeps_deadlines_for_tail_aware_designs() {
    let exp = Experiment::new(case_study_mix(5), LcLoad::Low, opts());
    for design in [DesignKind::Adaptive, DesignKind::Jumanji] {
        let r = exp.run(design, &NoopSink);
        assert!(
            r.max_norm_tail() < TAIL_SLACK,
            "{design} at low load: {:?}",
            r.norm_tails()
        );
    }
}

#[test]
fn mixed_lc_experiment_works_end_to_end() {
    let exp = Experiment::new(WorkloadMix::mixed_lc(7), LcLoad::High, opts());
    let stat = exp.run(DesignKind::Static, &NoopSink);
    let r = exp.run(DesignKind::Jumanji, &NoopSink);
    assert_eq!(r.lc_names.len(), 4);
    assert!(r.max_norm_tail() < TAIL_SLACK, "{:?}", r.norm_tails());
    assert!(r.weighted_speedup_vs(&stat) > 1.03);
    assert_eq!(r.vulnerability, 0.0);
}

#[test]
fn twelve_vm_grouping_runs_and_isolates() {
    // The most fragmented Fig. 17 configuration.
    let spec = fig17_configs().last().expect("configs exist").1.clone();
    let mix = WorkloadMix::from_spec(&spec, &tailbench()[..4], 9);
    let exp = Experiment::new(mix, LcLoad::High, opts());
    let r = exp.run(DesignKind::Jumanji, &NoopSink);
    assert_eq!(r.vulnerability, 0.0, "12 VMs still bank-isolated");
    assert!(r.max_norm_tail() < 2.0, "{:?}", r.norm_tails());
}

#[test]
fn experiments_are_deterministic() {
    let run = || {
        let exp = Experiment::new(case_study_mix(6), LcLoad::High, opts());
        let r = exp.run(DesignKind::Jumanji, &NoopSink);
        (r.lc_tail_latency_ms.clone(), r.batch_work.clone())
    };
    assert_eq!(run(), run());
}
