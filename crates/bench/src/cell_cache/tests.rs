//! Unit tests of the cell cache: every input field reaches its key, and
//! cached, traced and stored runs match direct ones exactly.
//!
//! They live outside `cell_cache.rs`, which `build.rs` salts the store
//! with, so editing a test does not make every stored cell miss.

use super::*;
use crate::spec::{ExperimentSpec, FigureKind};
use jumanji::telemetry::{Event, NoopSink, RecordingSink};
use jumanji::types::{
    CacheLevelConfig, EnergyConfig, LlcConfig, MemConfig, NocConfig, Seconds, SystemConfig,
};
use jumanji::workloads::curves::Component;
use jumanji::workloads::{
    case_study_mix, spec2006, tailbench, BatchProfile, CurveShape, LcProfile,
};

fn quick_opts() -> SimOptions {
    SimOptions {
        duration: Seconds(0.5),
        ..SimOptions::default()
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("jumanji-cell-cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One perturbation of one option field: its name and the edit.
type OptEdit = (&'static str, fn(&mut SimOptions));

#[test]
fn every_sim_option_reaches_the_experiment_key() {
    // Exhaustive destructuring of `SimOptions` and of the `SystemConfig`
    // and `ControllerParams` inside it: a new field does not compile
    // here until an edit below perturbs it.
    let params = ControllerParams::micro2020(20.0 * 1048576.0);
    let base = SimOptions {
        controller: Some(params),
        ..SimOptions::default()
    };
    let SimOptions {
        cfg,
        duration: _,
        reconfig: _,
        seed: _,
        controller: _,
    } = &base;
    let SystemConfig {
        freq_hz: _,
        num_cores: _,
        mesh_cols: _,
        mesh_rows: _,
        l1,
        l2: _,
        llc,
        noc,
        mem,
        energy,
    } = cfg;
    let CacheLevelConfig {
        size_bytes: _,
        ways: _,
        latency: _,
    } = l1;
    let LlcConfig {
        num_banks: _,
        bank_bytes: _,
        ways: _,
        bank_latency: _,
        line_bytes: _,
        bank_ports: _,
    } = llc;
    let NocConfig {
        router_cycles: _,
        link_cycles: _,
        flit_bits: _,
    } = noc;
    let MemConfig {
        num_controllers: _,
        latency: _,
        cycles_per_line: _,
    } = mem;
    let EnergyConfig {
        l1_access_pj: _,
        l2_access_pj: _,
        llc_bank_access_pj: _,
        noc_hop_flit_pj: _,
        dram_access_pj: _,
    } = energy;
    let ControllerParams {
        percentile: _,
        interval: _,
        target_high: _,
        target_low: _,
        panic_threshold: _,
        step: _,
        panic_bytes: _,
        min_bytes: _,
        max_bytes: _,
    } = params;
    fn ctrl(o: &mut SimOptions) -> &mut ControllerParams {
        o.controller.as_mut().expect("the base sets a controller")
    }
    let edits: [OptEdit; 40] = [
        ("duration", |o| o.duration = Seconds(o.duration.0.next_up())),
        ("reconfig", |o| o.reconfig = Seconds(o.reconfig.0.next_up())),
        ("seed", |o| o.seed += 1),
        ("controller", |o| o.controller = None),
        ("cfg.freq_hz", |o| o.cfg.freq_hz = o.cfg.freq_hz.next_up()),
        ("cfg.num_cores", |o| o.cfg.num_cores += 1),
        ("cfg.mesh_cols", |o| o.cfg.mesh_cols += 1),
        ("cfg.mesh_rows", |o| o.cfg.mesh_rows += 1),
        ("cfg.l1.size_bytes", |o| o.cfg.l1.size_bytes += 1),
        ("cfg.l1.ways", |o| o.cfg.l1.ways += 1),
        ("cfg.l1.latency", |o| o.cfg.l1.latency.0 += 1),
        ("cfg.l2.size_bytes", |o| o.cfg.l2.size_bytes += 1),
        ("cfg.l2.ways", |o| o.cfg.l2.ways += 1),
        ("cfg.l2.latency", |o| o.cfg.l2.latency.0 += 1),
        ("cfg.llc.num_banks", |o| o.cfg.llc.num_banks += 1),
        ("cfg.llc.bank_bytes", |o| o.cfg.llc.bank_bytes += 1),
        ("cfg.llc.ways", |o| o.cfg.llc.ways += 1),
        ("cfg.llc.bank_latency", |o| o.cfg.llc.bank_latency.0 += 1),
        ("cfg.llc.line_bytes", |o| o.cfg.llc.line_bytes += 1),
        ("cfg.llc.bank_ports", |o| o.cfg.llc.bank_ports += 1),
        ("cfg.noc.router_cycles", |o| o.cfg.noc.router_cycles += 1),
        ("cfg.noc.link_cycles", |o| o.cfg.noc.link_cycles += 1),
        ("cfg.noc.flit_bits", |o| o.cfg.noc.flit_bits += 1),
        ("cfg.mem.num_controllers", |o| {
            o.cfg.mem.num_controllers += 1
        }),
        ("cfg.mem.latency", |o| o.cfg.mem.latency.0 += 1),
        ("cfg.mem.cycles_per_line", |o| {
            o.cfg.mem.cycles_per_line += 1
        }),
        ("cfg.energy.l1_access_pj", |o| {
            o.cfg.energy.l1_access_pj = o.cfg.energy.l1_access_pj.next_up()
        }),
        ("cfg.energy.l2_access_pj", |o| {
            o.cfg.energy.l2_access_pj = o.cfg.energy.l2_access_pj.next_up()
        }),
        ("cfg.energy.llc_bank_access_pj", |o| {
            o.cfg.energy.llc_bank_access_pj = o.cfg.energy.llc_bank_access_pj.next_up()
        }),
        ("cfg.energy.noc_hop_flit_pj", |o| {
            o.cfg.energy.noc_hop_flit_pj = o.cfg.energy.noc_hop_flit_pj.next_up()
        }),
        ("cfg.energy.dram_access_pj", |o| {
            o.cfg.energy.dram_access_pj = o.cfg.energy.dram_access_pj.next_up()
        }),
        ("controller.percentile", |o| {
            ctrl(o).percentile = ctrl(o).percentile.next_up()
        }),
        ("controller.interval", |o| ctrl(o).interval += 1),
        ("controller.target_high", |o| {
            ctrl(o).target_high = ctrl(o).target_high.next_up()
        }),
        ("controller.target_low", |o| {
            ctrl(o).target_low = ctrl(o).target_low.next_up()
        }),
        ("controller.panic_threshold", |o| {
            ctrl(o).panic_threshold = ctrl(o).panic_threshold.next_up()
        }),
        ("controller.step", |o| ctrl(o).step = ctrl(o).step.next_up()),
        ("controller.panic_bytes", |o| {
            ctrl(o).panic_bytes = ctrl(o).panic_bytes.next_up()
        }),
        ("controller.min_bytes", |o| {
            ctrl(o).min_bytes = ctrl(o).min_bytes.next_up()
        }),
        ("controller.max_bytes", |o| {
            ctrl(o).max_bytes = ctrl(o).max_bytes.next_up()
        }),
    ];
    let mix = case_study_mix(1);
    let key = experiment_key(&mix, LcLoad::High, &base);
    let mut keys = vec![key];
    for (field, edit) in &edits {
        let mut opts = base.clone();
        edit(&mut opts);
        let perturbed = experiment_key(&mix, LcLoad::High, &opts);
        assert_ne!(
            perturbed, key,
            "SimOptions::{field} does not reach the experiment key"
        );
        keys.push(perturbed);
    }
    // Every edit keys apart from every other, too: no two fields share
    // one slot of the key.
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), 1 + edits.len());
    // The load level reaches the key as well.
    assert_ne!(experiment_key(&mix, LcLoad::Low, &base), key, "LcLoad");
}

/// Pairs of values a float field takes in two otherwise equal
/// inputs: `x` against its one-ULP successor, and `0.0` against
/// `-0.0` (equal under `==`, apart under `Debug`). Each pair must key
/// apart.
fn float_pairs(x: f64) -> [(f64, f64); 2] {
    [(x, x.next_up()), (0.0, -0.0)]
}

/// A profile's float field: its name, its value, and a setter.
type FloatField<P> = (&'static str, f64, fn(&mut P, f64));

/// The key of a one-VM mix of `lc` and `batch`.
fn profiles_key(lc: &LcProfile, batch: &BatchProfile) -> u128 {
    let vm = VmWorkload {
        lc: vec![lc.clone()],
        batch: vec![batch.clone()],
    };
    let mix = WorkloadMix { vms: vec![vm] };
    experiment_key(&mix, LcLoad::High, &SimOptions::default())
}

#[test]
fn every_lc_profile_field_reaches_the_experiment_key() {
    let lc = tailbench().remove(1);
    let batch = spec2006().remove(0);
    // Exhaustive destructuring: a new `LcProfile` field does not
    // compile here until it is perturbed below (`shape`: see
    // `every_curve_shape_field_reaches_the_experiment_key`).
    let LcProfile {
        name,
        qps_low,
        qps_high,
        num_queries,
        work_cycles,
        accesses_per_req,
        miss_stall,
        shape: _,
    } = lc.clone();
    let key = |p: &LcProfile| profiles_key(p, &batch);
    let renamed = LcProfile {
        name: if name == "silo" { "moses" } else { "silo" },
        ..lc.clone()
    };
    assert_ne!(key(&renamed), key(&lc), "LcProfile::name");
    let more = LcProfile {
        num_queries: num_queries + 1,
        ..lc.clone()
    };
    assert_ne!(key(&more), key(&lc), "LcProfile::num_queries");
    let floats: [FloatField<LcProfile>; 5] = [
        ("qps_low", qps_low, |p, v| p.qps_low = v),
        ("qps_high", qps_high, |p, v| p.qps_high = v),
        ("work_cycles", work_cycles, |p, v| p.work_cycles = v),
        ("accesses_per_req", accesses_per_req, |p, v| {
            p.accesses_per_req = v
        }),
        ("miss_stall", miss_stall, |p, v| p.miss_stall = v),
    ];
    for (field, x, set) in floats {
        for (a, b) in float_pairs(x) {
            let (mut pa, mut pb) = (lc.clone(), lc.clone());
            set(&mut pa, a);
            set(&mut pb, b);
            assert_ne!(key(&pa), key(&pb), "LcProfile::{field}: {a:?} vs {b:?}");
        }
    }
}

#[test]
fn every_batch_profile_field_reaches_the_experiment_key() {
    let lc = tailbench().remove(1);
    let batch = spec2006().remove(0);
    // Exhaustive destructuring, as for `LcProfile` above.
    let BatchProfile {
        name,
        llc_apki,
        base_cpi,
        shape: _,
    } = batch.clone();
    let key = |p: &BatchProfile| profiles_key(&lc, p);
    let renamed = BatchProfile {
        name: if name == "429.mcf" {
            "470.lbm"
        } else {
            "429.mcf"
        },
        ..batch.clone()
    };
    assert_ne!(key(&renamed), key(&batch), "BatchProfile::name");
    let floats: [FloatField<BatchProfile>; 2] = [
        ("llc_apki", llc_apki, |p, v| p.llc_apki = v),
        ("base_cpi", base_cpi, |p, v| p.base_cpi = v),
    ];
    for (field, x, set) in floats {
        for (a, b) in float_pairs(x) {
            let (mut pa, mut pb) = (batch.clone(), batch.clone());
            set(&mut pa, a);
            set(&mut pb, b);
            assert_ne!(key(&pa), key(&pb), "BatchProfile::{field}: {a:?} vs {b:?}");
        }
    }
}

#[test]
fn every_curve_shape_field_reaches_the_experiment_key() {
    let smooth = Component::Smooth {
        weight: 0.3,
        ws_bytes: 1 << 20,
        sharpness: 2.0,
    };
    let cliff = Component::Cliff {
        weight: 0.2,
        ws_bytes: 4 << 20,
    };
    let floor = 0.1;
    // Every field of every component, perturbed one at a time:
    // `(label, shape a, shape b)`.
    let mut pairs = Vec::new();
    for (a, b) in float_pairs(floor) {
        let shape = |f| CurveShape::new(f, vec![smooth, cliff]);
        pairs.push(("floor".to_string(), shape(a), shape(b)));
    }
    for (i, component) in [smooth, cliff].into_iter().enumerate() {
        let with = |c: Component| {
            let mut components = vec![smooth, cliff];
            components[i] = c;
            CurveShape::new(floor, components)
        };
        // Exhaustive match: a new variant or field does not compile
        // here until it is perturbed.
        let variants: Vec<(&str, Component, Component)> = match component {
            Component::Smooth {
                weight,
                ws_bytes,
                sharpness,
            } => {
                let mut v = vec![(
                    "Smooth::ws_bytes",
                    component,
                    Component::Smooth {
                        weight,
                        ws_bytes: ws_bytes + 1,
                        sharpness,
                    },
                )];
                for (a, b) in float_pairs(weight) {
                    let c = |weight| Component::Smooth {
                        weight,
                        ws_bytes,
                        sharpness,
                    };
                    v.push(("Smooth::weight", c(a), c(b)));
                }
                for (a, b) in float_pairs(sharpness) {
                    let c = |sharpness| Component::Smooth {
                        weight,
                        ws_bytes,
                        sharpness,
                    };
                    v.push(("Smooth::sharpness", c(a), c(b)));
                }
                v.push(("variant", component, Component::Cliff { weight, ws_bytes }));
                v
            }
            Component::Cliff { weight, ws_bytes } => {
                let mut v = vec![(
                    "Cliff::ws_bytes",
                    component,
                    Component::Cliff {
                        weight,
                        ws_bytes: ws_bytes + 1,
                    },
                )];
                for (a, b) in float_pairs(weight) {
                    let c = |weight| Component::Cliff { weight, ws_bytes };
                    v.push(("Cliff::weight", c(a), c(b)));
                }
                v
            }
        };
        for (label, a, b) in variants {
            pairs.push((format!("component {i}: {label}"), with(a), with(b)));
        }
    }
    let lc = tailbench().remove(1);
    let batch = spec2006().remove(0);
    for (label, a, b) in &pairs {
        let lc_with = |shape: &CurveShape| LcProfile {
            shape: shape.clone(),
            ..lc.clone()
        };
        let batch_with = |shape: &CurveShape| BatchProfile {
            shape: shape.clone(),
            ..batch.clone()
        };
        let lc_keys = [a, b].map(|s| profiles_key(&lc_with(s), &batch));
        assert_ne!(lc_keys[0], lc_keys[1], "LcProfile::shape {label}");
        let batch_keys = [a, b].map(|s| profiles_key(&lc, &batch_with(s)));
        assert_ne!(batch_keys[0], batch_keys[1], "BatchProfile::shape {label}");
    }
}

#[test]
fn sensitivity_miss_stall_variants_key_apart_from_their_catalog_profile() {
    // The sensitivity study's first rows keep xapian's catalog name
    // but set its `miss_stall` to 2, 3 and 4 in `case_study_mix(0)`;
    // the catalog's is 3. Only the bit-identical variant may share
    // the catalog mix's key.
    let spec = ExperimentSpec::new(FigureKind::Sensitivity).mixes(1);
    let plan = crate::figures::plan::of(&spec).expect("plannable");
    let catalog = tailbench().remove(1);
    assert_eq!(catalog.name, "xapian");
    let mut apart = Vec::new();
    for cell in &plan.cells[..3] {
        let lc = &cell.mix.vms[0].lc[0];
        assert_eq!(lc.name, catalog.name);
        let plain = experiment_key(&case_study_mix(0), cell.load, &cell.opts);
        if lc.miss_stall.to_bits() == catalog.miss_stall.to_bits() {
            assert_eq!(cell.experiment_key(), plain, "bit-identical mixes");
        } else {
            assert_ne!(cell.experiment_key(), plain, "miss_stall {}", lc.miss_stall);
            apart.push(lc.miss_stall);
        }
    }
    assert_eq!(apart, [2.0, 4.0]);
}

#[test]
fn every_detail_option_reaches_the_detail_key() {
    use jumanji::cache::ReplPolicy;
    // Exhaustive destructuring, as for `SimOptions` above.
    let base = DetailOptions::default();
    let DetailOptions {
        cfg,
        accesses_per_app,
        policy,
        seed,
    } = base.clone();
    let perturbed = [
        (
            "cfg",
            DetailOptions {
                cfg: jumanji::types::SystemConfig {
                    freq_hz: cfg.freq_hz * 2.0,
                    ..cfg
                },
                ..base.clone()
            },
        ),
        (
            "accesses_per_app",
            DetailOptions {
                accesses_per_app: accesses_per_app + 1,
                ..base.clone()
            },
        ),
        (
            "policy",
            DetailOptions {
                policy: if policy == ReplPolicy::Lru {
                    ReplPolicy::Drrip
                } else {
                    ReplPolicy::Lru
                },
                ..base.clone()
            },
        ),
        (
            "seed",
            DetailOptions {
                seed: seed + 1,
                ..base.clone()
            },
        ),
    ];
    let alloc = Allocation {
        apps: Vec::new(),
        pools: Vec::new(),
        ideal_batch: false,
    };
    let key = detail_key(&base, &[], &[], &[], &alloc);
    for (field, opts) in &perturbed {
        assert_ne!(
            detail_key(opts, &[], &[], &[], &alloc),
            key,
            "DetailOptions::{field} does not reach the detail key"
        );
    }
}

#[test]
fn cached_run_matches_direct_run_exactly() {
    let cache = CellCache::new();
    let handle = cache.experiment(case_study_mix(3), LcLoad::High, quick_opts());
    let (cached, _) = cache.run_sourced(&handle, DesignKind::Jumanji, &NoopSink);
    let direct = Experiment::new(case_study_mix(3), LcLoad::High, quick_opts())
        .run(DesignKind::Jumanji, &NoopSink);
    assert_eq!(format!("{cached:?}"), format!("{direct:?}"));
}

#[test]
fn handles_are_lazy_and_constructions_dedup_across_handles() {
    let cache = CellCache::new();
    let h1 = cache.experiment(case_study_mix(1), LcLoad::Low, quick_opts());
    let h2 = cache.experiment(case_study_mix(1), LcLoad::Low, quick_opts());
    // Nothing is constructed until a run forces it.
    assert!(!h1.built() && !h2.built());
    let (r1, s1) = cache.run_sourced(&h1, DesignKind::Jigsaw, &NoopSink);
    let (r2, s2) = cache.run_sourced(&h2, DesignKind::Jigsaw, &NoopSink);
    assert_eq!(s1, RunSource::Computed);
    assert_eq!(s2, RunSource::Memory);
    assert!(Arc::ptr_eq(&r1, &r2));
    // The run served from memory constructed nothing.
    assert!(h1.built() && !h2.built());
    // Clones share one construction.
    let h3 = h1.clone();
    assert!(Arc::ptr_eq(
        &cache.force_experiment(&h1),
        &cache.force_experiment(&h3)
    ));
    let s = cache.stats();
    assert_eq!(s.cells.hits, 1);
    assert_eq!(s.cells.misses, 1);
}

#[test]
fn tracing_bypasses_reads_but_writes_through() {
    let cache = CellCache::new();
    let handle = cache.experiment(case_study_mix(2), LcLoad::High, quick_opts());
    // Warm the cache untraced.
    let (warm, _) = cache.run_sourced(&handle, DesignKind::Jumanji, &NoopSink);
    // A traced run must still emit the full event stream...
    let sink = RecordingSink::new();
    let (traced, _) = cache.run_sourced(&handle, DesignKind::Jumanji, &sink);
    assert!(
        sink.events()
            .iter()
            .any(|e| matches!(e, Event::RunSummary { .. })),
        "traced run must emit events even on a warm cache"
    );
    // ...and its result must be bit-identical to the cached one.
    assert_eq!(format!("{traced:?}"), format!("{warm:?}"));
    // The traced result replaced the entry (write-through, counted as
    // a miss) — never served from cache.
    assert_eq!(cache.stats().cells.hits, 0);
    assert_eq!(cache.stats().cells.misses, 2);
}

#[test]
fn disk_store_serves_a_fresh_cache_without_constructing() {
    let dir = temp_dir("warm");
    // Cold process: compute one run cell and persist it.
    let cold = CellCache::new();
    cold.attach_disk(Arc::new(DiskCache::open(&dir).expect("open store")));
    let handle = cold.experiment(case_study_mix(5), LcLoad::Low, quick_opts());
    let (cold_result, src) = cold.run_sourced(&handle, DesignKind::Static, &NoopSink);
    assert_eq!(src, RunSource::Computed);
    assert_eq!(cold.stats().disk.expect("disk attached").writes, 1);

    // Warm process (fresh cache, same store): the run is served from
    // disk, byte-identical, without constructing any experiment.
    let warm = CellCache::new();
    warm.attach_disk(Arc::new(DiskCache::open(&dir).expect("open store")));
    let handle = warm.experiment(case_study_mix(5), LcLoad::Low, quick_opts());
    let (warm_result, src) = warm.run_sourced(&handle, DesignKind::Static, &NoopSink);
    assert_eq!(src, RunSource::Disk);
    assert_eq!(format!("{warm_result:?}"), format!("{cold_result:?}"));
    assert!(!handle.built(), "warm run must construct nothing");
    assert_eq!(warm.stats().disk.expect("disk attached").hits, 1);

    // Second lookup in the same process comes from memory.
    let (_, src) = warm.run_sourced(&handle, DesignKind::Static, &NoopSink);
    assert_eq!(src, RunSource::Memory);

    // probe_run sees disk entries; a fresh cache has no store to see
    // them in.
    let key = run_key(
        experiment_key(&case_study_mix(5), LcLoad::Low, &quick_opts()),
        DesignKind::Static,
    );
    let probe = CellCache::new();
    probe.attach_disk(Arc::new(DiskCache::open(&dir).expect("open store")));
    assert!(probe.probe_run(key));
    let throwaway = CellCache::new();
    assert!(throwaway.disk().is_none(), "a fresh cache has no store");
    assert!(!throwaway.probe_run(key));
    let _ = std::fs::remove_dir_all(&dir);
}
