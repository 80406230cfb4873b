//! Property tests for the cell keys: two inputs key apart whenever their
//! `Debug` forms differ, and a clone keys like its original. A gated
//! test checks the same on every cell every figure plans at paper scale.
//!
//! Experiment and detail keys are composed from the VM structure, bit-exact
//! profile fingerprints and the allocation's fields, not hashed from a
//! `Debug` string. These tests pin that the composed key is at least as
//! fine as that string: each case perturbs one part of an input and
//! checks that the keys of the two inputs are equal exactly when their
//! `Debug` forms are.

use jumanji::prelude::*;
use jumanji::sim::detail::DetailOptions;
use jumanji::sim::perf::Profile;
use jumanji::types::hash::DetMap;
use jumanji::workloads::curves::Component;
use jumanji::workloads::{BatchProfile, CurveShape, LcProfile, VmWorkload};
use jumanji_bench::cell_cache::{detail_key, experiment_key, run_key, Cell};
use jumanji_bench::figures::plan::{self, DetailPlan};
use jumanji_bench::{ExperimentSpec, FigureKind};
use proptest::prelude::*;

/// A base mix of each shape the figures build: the case study, four
/// different servers, and the fig17 VM groupings.
fn base_mix(which: usize, seed: u64) -> WorkloadMix {
    match which % 3 {
        0 => case_study_mix(seed),
        1 => WorkloadMix::mixed_lc(seed),
        _ => {
            let configs = fig17_configs();
            let (_, spec) = &configs[seed as usize % configs.len()];
            WorkloadMix::from_spec(spec, &tailbench(), seed)
        }
    }
}

/// `shape` with `f` applied to its `k`-th float (the floor, then each
/// component's floats), wrapping `k`.
fn edit_shape(shape: &CurveShape, k: usize, f: impl Fn(f64) -> f64) -> CurveShape {
    let mut floor = shape.floor();
    let mut components = shape.components().to_vec();
    let mut slots: Vec<&mut f64> = vec![&mut floor];
    for c in &mut components {
        match c {
            Component::Smooth {
                weight, sharpness, ..
            } => {
                slots.push(weight);
                slots.push(sharpness);
            }
            Component::Cliff { weight, .. } => slots.push(weight),
        }
    }
    let n = slots.len();
    *slots[k % n] = f(*slots[k % n]);
    CurveShape::new(floor, components)
}

/// Applies `f` to the `k`-th float field of `p`, its shape's included.
fn edit_lc(p: &mut LcProfile, k: usize, f: impl Fn(f64) -> f64) {
    let fields = [
        &mut p.qps_low,
        &mut p.qps_high,
        &mut p.work_cycles,
        &mut p.accesses_per_req,
        &mut p.miss_stall,
    ];
    match fields.into_iter().nth(k) {
        Some(x) => *x = f(*x),
        None => p.shape = edit_shape(&p.shape, k - 5, f),
    }
}

/// [`edit_lc`] for a batch profile.
fn edit_batch(p: &mut BatchProfile, k: usize, f: impl Fn(f64) -> f64) {
    match [&mut p.llc_apki, &mut p.base_cpi].into_iter().nth(k) {
        Some(x) => *x = f(*x),
        None => p.shape = edit_shape(&p.shape, k - 2, f),
    }
}

/// Applies `f` to float `k` of app `app` (LC apps first within a VM,
/// VMs in order), both wrapping.
fn edit_float(mix: &mut WorkloadMix, app: usize, k: usize, f: impl Fn(f64) -> f64) {
    let app = app % mix.num_apps();
    let mut seen = 0;
    for vm in &mut mix.vms {
        if app < seen + vm.num_apps() {
            let i = app - seen;
            match vm.lc.get_mut(i) {
                Some(p) => edit_lc(p, k % 12, f),
                None => edit_batch(&mut vm.batch[i - vm.lc.len()], k % 9, f),
            }
            return;
        }
        seen += vm.num_apps();
    }
}

/// One perturbation of a mix, chosen by `kind`, placed by `a` and `b`.
/// Some draws leave the mix as it is; the property covers those too.
fn perturb_mix(mix: &mut WorkloadMix, kind: usize, a: usize, b: usize) {
    let nvms = mix.vms.len();
    match kind {
        // Swap a profile for another catalog profile.
        0 => {
            let vm = &mut mix.vms[a % nvms];
            if vm.batch.is_empty() {
                vm.lc[0] = tailbench().swap_remove(b % 5);
            } else {
                let i = b % vm.batch.len();
                vm.batch[i] = spec2006().swap_remove(b % 16);
            }
        }
        // Move a batch app to another VM.
        1 => {
            let (from, to) = (a % nvms, b % nvms);
            if let Some(p) = mix.vms[from].batch.pop() {
                mix.vms[to].batch.push(p);
            }
        }
        // Change the VM count.
        2 => {
            if b.is_multiple_of(2) && nvms > 1 {
                mix.vms.remove(a % nvms);
            } else {
                let vm = mix.vms[a % nvms].clone();
                mix.vms.push(vm);
            }
        }
        // Nudge one float by one ULP.
        3 => edit_float(mix, a, b, f64::next_up),
        // Flip a zero's sign (the caller zeroed the field on both sides).
        4 => edit_float(mix, a, b, |x| -x),
        // An empty VM.
        5 => mix.vms.push(VmWorkload {
            lc: Vec::new(),
            batch: Vec::new(),
        }),
        _ => {}
    }
}

/// `opts` perturbed by `kind`.
fn perturb_opts(opts: &SimOptions, kind: usize) -> SimOptions {
    let mut opts = opts.clone();
    match kind % 5 {
        0 => opts.seed += 1,
        1 => opts.duration = Seconds(opts.duration.as_f64().next_up()),
        2 => opts.reconfig = Seconds(opts.reconfig.as_f64().next_down()),
        3 => {
            let llc = opts.cfg.llc.total_bytes() as f64;
            opts.controller = match opts.controller {
                Some(_) => None,
                None => Some(ControllerParams::micro2020(llc)),
            }
        }
        _ => opts.cfg.noc.router_cycles += 1,
    }
    opts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Experiment keys tell two inputs apart exactly when their `Debug`
    /// forms differ; clones key alike.
    #[test]
    fn experiment_keys_are_as_fine_as_debug_forms(
        which in 0usize..3,
        seed in 0u64..40,
        kind in 0usize..9,
        a in 0usize..1000,
        b in 0usize..1000,
    ) {
        let mut base = base_mix(which, seed);
        if kind == 4 {
            // Zero the field on both sides; the perturbation flips it.
            edit_float(&mut base, a, b, |_| 0.0);
        }
        let (mut load, mut opts) = (LcLoad::High, SimOptions::default());
        let mut mix = base.clone();
        match kind {
            0..=5 => perturb_mix(&mut mix, kind, a, b),
            6 => opts = perturb_opts(&opts, a),
            7 => load = LcLoad::Low,
            _ => {}
        }
        let key = experiment_key(&mix, load, &opts);
        let base_key = experiment_key(&base, LcLoad::High, &SimOptions::default());
        let debug = format!("{load:?}|{opts:?}|{mix:?}");
        let base_debug = format!("{:?}|{:?}|{base:?}", LcLoad::High, SimOptions::default());
        prop_assert_eq!(key == base_key, debug == base_debug, "kind {}", kind);
        prop_assert_eq!(experiment_key(&mix.clone(), load, &opts.clone()), key);
    }
}

/// The detailed cells validate plans: real profiles, pinning and
/// allocations.
fn detail_plans() -> Vec<DetailPlan> {
    let spec = ExperimentSpec::new(FigureKind::Validate)
        .mixes(3)
        .accesses(1_000);
    plan::of(&spec).expect("plannable").details
}

/// The inputs of a detailed cell, owned.
type DetailInputs = (
    DetailOptions,
    Vec<Profile>,
    Vec<CoreId>,
    Vec<VmId>,
    Allocation,
);

fn inputs_of(p: &DetailPlan) -> DetailInputs {
    let p = p.clone();
    (p.opts, p.profiles, p.cores, p.vms, p.alloc)
}

fn key_of(i: &DetailInputs) -> u128 {
    detail_key(&i.0, &i.1, &i.2, &i.3, &i.4)
}

/// Applies `f` to float `k` of profile `i`, both wrapping.
fn edit_profile(profiles: &mut [Profile], i: usize, k: usize, f: impl Fn(f64) -> f64) {
    let n = profiles.len();
    match &mut profiles[i % n] {
        Profile::Batch(p) => edit_batch(p, k % 9, f),
        Profile::Lc(p, _) => edit_lc(p, k % 12, f),
    }
}

/// Applies `f` to the byte count of placement slot `k` of app `i`, both
/// wrapping; pooled apps edit their pool's placement.
fn edit_alloc(alloc: &mut Allocation, i: usize, k: usize, f: impl Fn(f64) -> f64) {
    let n = alloc.apps.len();
    let app = &mut alloc.apps[i % n];
    let placement = match app.pool {
        Some(pool) if app.placement.is_empty() => &mut alloc.pools[pool].placement,
        _ => &mut app.placement,
    };
    if !placement.is_empty() {
        let m = placement.len();
        let slot = &mut placement[k % m].1;
        *slot = f(*slot);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Detail keys tell two inputs apart exactly when their `Debug`
    /// forms differ; clones key alike.
    #[test]
    fn detail_keys_are_as_fine_as_debug_forms(
        which in 0usize..6,
        kind in 0usize..10,
        a in 0usize..1000,
        b in 0usize..1000,
        c in 0usize..1000,
    ) {
        let plans = detail_plans();
        let mut base = inputs_of(&plans[which % plans.len()]);
        match kind {
            3 => edit_profile(&mut base.1, a, b, |_| 0.0),
            5 => edit_alloc(&mut base.4, a, b, |_| 0.0),
            _ => {}
        }
        let mut x = base.clone();
        match kind {
            // Another cell's profiles (the same ones under another seed).
            0 => x.1 = inputs_of(&plans[c % plans.len()]).1,
            1 => x.0.seed += 1 + (c as u64 % 3),
            2 => edit_profile(&mut x.1, a, b, f64::next_up),
            3 => edit_profile(&mut x.1, a, b, |v| -v),
            4 => edit_alloc(&mut x.4, a, b, f64::next_up),
            5 => edit_alloc(&mut x.4, a, b, |v| -v),
            6 => {
                let n = x.2.len();
                x.2.swap(a % n, b % n);
            }
            7 => {
                let n = x.3.len();
                x.3[a % n] = VmId(b % 5);
            }
            8 => x.4.ideal_batch = !x.4.ideal_batch,
            _ => {}
        }
        let debug = |i: &DetailInputs| format!("{i:?}");
        prop_assert_eq!(key_of(&x) == key_of(&base), debug(&x) == debug(&base), "kind {}", kind);
        prop_assert_eq!(key_of(&x.clone()), key_of(&x));
    }
}

/// A detailed cell's key is the one [`DetailPlan::new`] computed: a
/// plan carries the key of its own inputs.
#[test]
fn a_detail_plan_keys_its_own_inputs() {
    for p in detail_plans() {
        assert_eq!(p.key(), key_of(&inputs_of(&p)));
    }
}

/// Records that `key` names an input whose `Debug` form is `debug`, and
/// fails when an earlier input broke "equal keys exactly when equal
/// `Debug` forms".
fn record(
    by_key: &mut DetMap<u128, String>,
    by_debug: &mut DetMap<String, u128>,
    what: &str,
    key: u128,
    debug: String,
) {
    if let Some(prior) = by_key.get(&key) {
        assert_eq!(prior, &debug, "{what}: two inputs share key {key:#x}");
        return;
    }
    if let Some(prior) = by_debug.insert(debug.clone(), key) {
        panic!("{what}: one input keyed both {prior:#x} and {key:#x}: {debug}");
    }
    by_key.insert(key, debug);
}

/// Every cell of every figure at the paper's 40 mixes: experiment, run,
/// detail and scenario keys are equal exactly when the cells' `Debug`
/// forms are, so the composed keys separate every input the `Debug`
/// strings did, on the inputs the figures really plan. Gated behind
/// `JUMANJI_SUITE_GOLDEN=1` (`scripts/verify.sh` sets it): it formats
/// every planned cell, which takes seconds in a debug build.
#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "the test gate reads its own opt-in env switch; never fingerprinted output"
)]
fn gated_keys_match_debug_forms_on_every_figure_at_paper_scale() {
    if std::env::var_os("JUMANJI_SUITE_GOLDEN").is_none() {
        eprintln!("skipping: set JUMANJI_SUITE_GOLDEN=1 to plan every figure at --mixes 40");
        return;
    }
    let (mut by_key, mut by_debug) = (DetMap::default(), DetMap::default());
    let mut counts = [0usize; 4];
    for kind in FigureKind::all() {
        let plan = plan::of(&ExperimentSpec::new(kind).mixes(40)).expect("figure plans");
        for cell in &plan.cells {
            let exp = format!("{:?}|{:?}|{:?}", cell.load, cell.opts, cell.mix);
            let key = cell.experiment_key();
            for &design in &cell.designs {
                let debug = format!("{exp}|{design:?}");
                record(
                    &mut by_key,
                    &mut by_debug,
                    "run",
                    run_key(key, design),
                    debug,
                );
                counts[1] += 1;
            }
            record(&mut by_key, &mut by_debug, "experiment", key, exp);
            counts[0] += 1;
        }
        for p in &plan.details {
            let debug = format!("{:?}", inputs_of(p));
            record(&mut by_key, &mut by_debug, "detail", p.key(), debug);
            counts[2] += 1;
        }
        for s in &plan.scenarios {
            record(
                &mut by_key,
                &mut by_debug,
                "scenario",
                s.key(),
                format!("{s:?}"),
            );
            counts[3] += 1;
        }
    }
    assert!(counts.iter().all(|&n| n > 0), "planned {counts:?}");
    eprintln!(
        "{counts:?} planned (experiments, runs, details, scenarios): {} distinct keys",
        by_key.len()
    );
}
