//! Execution-driven detailed simulation.
//!
//! Where the epoch model ([`crate::perf`]) evaluates closed-form formulas,
//! this module actually *drives the hardware*: per-application synthetic
//! address streams ([`nuca_workloads::StreamGenerator`]) are translated by
//! real [`nuca_vc::PlacementDescriptor`]s, queue on per-bank
//! [`nuca_noc::BankPorts`], hit or miss in real [`nuca_cache::CacheBank`]s
//! with way-partitioning, and pay DRAM channel occupancy on misses.
//!
//! It exists for three reasons:
//!
//! 1. **Cross-validation** — the detailed miss ratios and latencies must
//!    agree with the analytic model where their domains overlap (see
//!    `tests/substrate_crosscheck.rs` and the `validate` binary).
//! 2. **Security ground truth** — bank occupancy comes from actual cache
//!    contents, so VM isolation can be checked against real state rather
//!    than the allocation's intent.
//! 3. **Attack realism** — the port/leakage demonstrations share these
//!    structures.

use crate::perf::Profile;
use jumanji_core::Allocation;
use jumanji_telemetry::{Event, NoopSink, Telemetry};
use nuca_cache::{BankConfig, CacheBank, PartitionId, ReplPolicy, WayMask};
use nuca_mem::MemSystem;
use nuca_noc::{BankPorts, MeshNoc};
use nuca_types::{AppId, CoreId, SystemConfig, VmId};
use nuca_vc::{page_of_line, PlacementDescriptor, Tlb, Vtb};
use nuca_workloads::StreamGenerator;

/// Fraction of accesses that are writes (dirty their lines).
const WRITE_FRAC: f64 = 0.3;

/// Options for one detailed run.
#[derive(Debug, Clone)]
pub struct DetailOptions {
    /// Machine configuration.
    pub cfg: SystemConfig,
    /// LLC accesses each application issues.
    pub accesses_per_app: usize,
    /// Replacement policy in the LLC banks.
    pub policy: ReplPolicy,
    /// Stream RNG seed.
    pub seed: u64,
}

impl Default for DetailOptions {
    fn default() -> DetailOptions {
        DetailOptions {
            cfg: SystemConfig::micro2020(),
            accesses_per_app: 50_000,
            policy: ReplPolicy::Drrip,
            seed: 1,
        }
    }
}

/// Per-application statistics from a detailed run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct DetailAppStats {
    /// LLC accesses issued.
    pub accesses: u64,
    /// LLC misses.
    pub misses: u64,
    /// Summed end-to-end access latency in cycles.
    pub total_latency: f64,
    /// Summed hop distance of the accesses.
    pub total_hops: f64,
    /// Cycles spent waiting on bank ports.
    pub port_wait: u64,
    /// TLB misses (each pays a page walk).
    pub tlb_misses: u64,
    /// Dirty lines written back to memory on eviction.
    pub writebacks: u64,
}

impl DetailAppStats {
    /// Measured miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Average hops to data.
    pub fn avg_hops(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_hops / self.accesses as f64
        }
    }
}

/// The outcome of a detailed run.
#[derive(Debug, Clone)]
pub struct DetailReport {
    /// Per-application statistics, indexed by `AppId`.
    pub apps: Vec<DetailAppStats>,
    /// For each bank, the set of apps with at least one resident line at
    /// the end of the run — *observed* occupancy, from real cache state.
    pub bank_occupants: Vec<Vec<AppId>>,
}

impl DetailReport {
    /// True if no bank holds lines from two different VMs (ground-truth
    /// check of Jumanji's isolation guarantee).
    pub fn vm_isolated(&self, vms: &[VmId]) -> bool {
        self.bank_occupants.iter().all(|occ| {
            let mut it = occ.iter().map(|a| vms[a.index()]);
            match it.next() {
                Some(first) => it.all(|v| v == first),
                None => true,
            }
        })
    }
}

/// Builds per-bank way masks realizing `alloc` (partitions rounded to
/// whole ways; pools share one mask among members).
fn build_masks(cfg: &SystemConfig, alloc: &Allocation, n_apps: usize) -> Vec<Vec<WayMask>> {
    let nbanks = cfg.llc.num_banks;
    let way_bytes = cfg.llc.way_bytes() as f64;
    let ways = cfg.llc.ways;
    // masks[bank][app]
    let mut masks = vec![vec![WayMask(0); n_apps]; nbanks];
    let mut next_way = vec![0u32; nbanks];
    let grant = |bank: usize, bytes: f64, next_way: &mut Vec<u32>| -> WayMask {
        let want = (bytes / way_bytes).round() as u32;
        let have = ways - next_way[bank];
        let take = want.min(have);
        let mask = WayMask::range(next_way[bank], take);
        next_way[bank] += take;
        mask
    };
    for a in &alloc.apps {
        for &(bank, bytes) in &a.placement {
            if bytes > 0.0 {
                masks[bank.index()][a.app.index()] = grant(bank.index(), bytes, &mut next_way);
            }
        }
    }
    for pool in &alloc.pools {
        for &(bank, bytes) in &pool.placement {
            if bytes > 0.0 {
                let mask = grant(bank.index(), bytes, &mut next_way);
                for m in &pool.members {
                    masks[bank.index()][m.index()] = mask;
                }
            }
        }
    }
    masks
}

/// Runs the detailed simulation of `alloc` for the given applications.
///
/// `apps` supplies each application's behavioural profile, core, and VM in
/// `AppId` order. Applications issue their streams round-robin (one access
/// per turn), each with its own clock; contention meets at the banks'
/// ports and the memory channels.
///
/// Untraced callers pass [`&NoopSink`](NoopSink); with an enabled sink,
/// per-bank contention counters ([`Event::DetailBank`]) are accumulated
/// during the run and emitted at the end, one event per bank. Tracing
/// never perturbs the simulation — a traced run returns a bit-identical
/// [`DetailReport`].
///
/// # Panics
///
/// Panics if `apps`, `cores`, and the allocation disagree in length.
pub fn run_detailed<T: Telemetry + ?Sized>(
    opts: &DetailOptions,
    profiles: &[Profile],
    cores: &[CoreId],
    vms: &[VmId],
    alloc: &Allocation,
    tel: &T,
) -> DetailReport {
    // Streams realize each profile's miss-curve shape.
    let mut gens: Vec<StreamGenerator> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let shape = match p {
                Profile::Batch(b) => &b.shape,
                Profile::Lc(l, _) => &l.shape,
            };
            StreamGenerator::from_shape(shape, opts.cfg.llc.line_bytes, i, opts.seed)
        })
        .collect();
    run_with(opts, profiles.len(), cores, vms, alloc, tel, |a, _| {
        gens[a].next_line()
    })
}

/// Runs the detailed simulation on user-supplied address traces (one trace
/// of line addresses per application, cycled if shorter than
/// `opts.accesses_per_app`).
///
/// # Panics
///
/// Panics if any trace is empty or counts disagree.
pub fn run_traces(
    opts: &DetailOptions,
    traces: &[Vec<nuca_cache::LineAddr>],
    cores: &[CoreId],
    vms: &[VmId],
    alloc: &Allocation,
) -> DetailReport {
    assert!(
        traces.iter().all(|t| !t.is_empty()),
        "every trace needs at least one access"
    );
    run_with(opts, traces.len(), cores, vms, alloc, &NoopSink, |a, k| {
        traces[a][k % traces[a].len()]
    })
}

/// Per-bank contention counters accumulated during a traced run.
#[derive(Debug, Default, Clone, Copy)]
struct BankTrace {
    accesses: u64,
    misses: u64,
    port_conflicts: u64,
    port_wait_cycles: u64,
}

/// Shared engine: `next(app, access_index)` supplies the address stream.
fn run_with<T: Telemetry + ?Sized>(
    opts: &DetailOptions,
    n: usize,
    cores: &[CoreId],
    vms: &[VmId],
    alloc: &Allocation,
    tel: &T,
    mut next: impl FnMut(usize, usize) -> nuca_cache::LineAddr,
) -> DetailReport {
    let tracing = tel.enabled();
    let cfg = &opts.cfg;
    assert_eq!(n, cores.len(), "one core per app");
    assert_eq!(n, vms.len(), "one VM per app");
    assert_eq!(n, alloc.apps.len(), "allocation covers every app");
    let noc = MeshNoc::new(cfg);
    let mem = MemSystem::new(cfg);
    let mesh = cfg.mesh();

    // Hardware state.
    let mut banks: Vec<CacheBank> = (0..cfg.llc.num_banks)
        .map(|_| {
            CacheBank::new(BankConfig {
                sets: cfg.llc.sets_per_bank() as usize,
                ways: cfg.llc.ways,
                policy: opts.policy,
            })
        })
        .collect();
    let masks = build_masks(cfg, alloc, n);
    for (b, bank) in banks.iter_mut().enumerate() {
        for (a, &mask) in masks[b].iter().enumerate() {
            bank.set_mask(PartitionId(a), mask);
        }
    }
    let mut ports: Vec<BankPorts> = (0..cfg.llc.num_banks)
        .map(|_| BankPorts::new(cfg.llc.bank_ports, nuca_types::Cycles(4)))
        .collect();
    let mut channels: Vec<BankPorts> = (0..mem.num_controllers())
        .map(|_| mem.event_channel())
        .collect();

    // Virtual caches: one descriptor per app from its placement shares.
    let mut vtb = Vtb::new();
    for a in 0..n {
        let placement = alloc.placement_of(AppId(a));
        let desc = if placement.iter().any(|(_, b)| *b > 0.0) {
            PlacementDescriptor::from_shares(placement)
        } else {
            // No LLC space at all: stripe (accesses will simply miss).
            PlacementDescriptor::uniform(cfg.llc.num_banks)
        };
        vtb.install(AppId(a), desc);
    }

    // Per-app clocks.
    let mut clocks = vec![0u64; n];
    let mut stats = vec![DetailAppStats::default(); n];
    /// Entries in each core's TLB (which carries the page's VC id).
    const TLB_ENTRIES: usize = 64;
    /// Page-walk latency charged on a TLB miss, in cycles.
    const TLB_MISS_CYCLES: u64 = 50;
    let mut tlbs: Vec<Tlb> = (0..n).map(|_| Tlb::new(TLB_ENTRIES)).collect();
    // Cheap deterministic write-marking LCG. The draw is a 31-bit integer
    // x compared against `WRITE_FRAC` as x * 2^-31 < WRITE_FRAC; both sides of that
    // float compare are exact (scaling by a power of two never rounds), so
    // it is equivalent to the pure integer compare
    // x < ceil(WRITE_FRAC * 2^31) —
    // bit-identical outcome, no int→float conversion in the loop.
    let wthresh = (WRITE_FRAC * (1u64 << 31) as f64).ceil() as u64;
    let mut wstate: u64 = 0x5DEECE66D ^ opts.seed;
    let mut is_write = || {
        wstate = wstate
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (wstate >> 33) < wthresh
    };

    // Everything the per-access code needs that depends only on
    // (core, bank) or bank alone is table-driven: the mesh geometry and
    // NoC latencies are loop invariants, so the hot loop does flat-array
    // reads instead of re-deriving hop counts and flit serialization.
    let nbanks = cfg.llc.num_banks;
    let ncores = cores.iter().map(|c| c.index()).max().unwrap_or(0) + 1;
    let mut hops_tab = vec![0u64; ncores * nbanks];
    let mut req_tab = vec![0u64; ncores * nbanks];
    let mut tail_tab = vec![0u64; ncores * nbanks];
    for c in 0..ncores {
        for b in 0..nbanks {
            let hops = mesh.hops_core_to_bank(CoreId(c), nuca_types::BankId(b));
            hops_tab[c * nbanks + b] = hops as u64;
            req_tab[c * nbanks + b] = noc.oneway(hops, 8).as_u64();
            tail_tab[c * nbanks + b] =
                cfg.llc.bank_latency.as_u64() + noc.oneway(hops, 64).as_u64();
        }
    }
    let mut corner_tab = vec![0u64; nbanks];
    let mut pen_tab = vec![0u64; nbanks];
    let mut ctrl_tab = vec![0usize; nbanks];
    for b in 0..nbanks {
        let bank = nuca_types::BankId(b);
        corner_tab[b] = noc
            .oneway(mesh.hops_to_nearest_corner(mesh.bank_tile(bank)), 8)
            .as_u64();
        pen_tab[b] = noc.miss_penalty(bank).as_u64();
        ctrl_tab[b] = mem.controller_for_bank(bank);
    }
    let core_base: Vec<usize> = cores.iter().map(|c| c.index() * nbanks).collect();

    // Latency and hop totals are integers; accumulate them as integers and
    // convert once at the end. Summing exact integers below 2^53 in f64
    // would give the same bits, so the reported floats are unchanged — but
    // the loop drops two int→float conversions and float adds per access.
    let mut lat_acc = vec![0u64; n];
    let mut hop_acc = vec![0u64; n];
    // Tracing-only per-bank counters; the hot loop touches them behind
    // `tracing`, which constant-folds away under `NoopSink`.
    let mut bank_trace = vec![BankTrace::default(); if tracing { nbanks } else { 0 }];

    for k in 0..opts.accesses_per_app {
        for a in 0..n {
            let line = next(a, k);
            // The TLB carries the page's VC id; a miss pays a page walk
            // before the LLC access can even be routed (Sec. IV-A).
            let tlb_hit = tlbs[a].access(page_of_line(line));
            let walk = if tlb_hit { 0 } else { TLB_MISS_CYCLES };
            clocks[a] += walk;
            let bank = vtb.lookup(AppId(a), line);
            let bi = bank.index();
            let cell = core_base[a] + bi;
            let hops = hops_tab[cell];
            let req = req_tab[cell];
            let arrival = clocks[a] + req;
            let grant = ports[bi].request(nuca_types::Cycles(arrival));
            let wait = grant.start.as_u64() - arrival;
            let write = is_write();
            let outcome = banks[bi].access_rw(line, PartitionId(a), write);
            let mut latency = req + wait + tail_tab[cell];
            if !outcome.hit {
                let ctrl = ctrl_tab[bi];
                let mem_arrival = grant.done.as_u64() + corner_tab[bi];
                let mgrant = channels[ctrl].request(nuca_types::Cycles(mem_arrival));
                let mwait = mgrant.start.as_u64() - mem_arrival;
                latency += pen_tab[bi] + mwait;
                if outcome.writeback {
                    // Write-backs consume channel bandwidth off the
                    // critical path; charge occupancy only.
                    channels[ctrl].request(nuca_types::Cycles(mgrant.done.as_u64()));
                    stats[a].writebacks += 1;
                }
            }
            if tracing {
                let t = &mut bank_trace[bi];
                t.accesses += 1;
                t.misses += u64::from(!outcome.hit);
                t.port_conflicts += u64::from(wait > 0);
                t.port_wait_cycles += wait;
            }
            let s = &mut stats[a];
            s.accesses += 1;
            s.misses += u64::from(!outcome.hit);
            s.port_wait += wait;
            s.tlb_misses += u64::from(!tlb_hit);
            lat_acc[a] += latency + walk;
            hop_acc[a] += hops;
            clocks[a] += latency;
        }
    }
    for (s, (&lat, &hop)) in stats.iter_mut().zip(lat_acc.iter().zip(&hop_acc)) {
        s.total_latency = lat as f64;
        s.total_hops = hop as f64;
    }
    if tracing {
        for (b, t) in bank_trace.iter().enumerate() {
            tel.emit(&Event::DetailBank {
                bank: b,
                accesses: t.accesses,
                misses: t.misses,
                port_conflicts: t.port_conflicts,
                port_wait_cycles: t.port_wait_cycles,
            });
        }
    }

    let bank_occupants = (0..cfg.llc.num_banks)
        .map(|b| {
            (0..n)
                .map(AppId)
                .filter(|a| banks[b].occupancy(PartitionId(a.index())) > 0)
                .collect()
        })
        .collect();
    DetailReport {
        apps: stats,
        bank_occupants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumanji_core::{DesignKind, PlacementInput};
    use nuca_workloads::{spec2006, tailbench, LcLoad};

    fn setup() -> (
        SystemConfig,
        Vec<Profile>,
        Vec<CoreId>,
        Vec<VmId>,
        PlacementInput,
    ) {
        let cfg = SystemConfig::micro2020();
        let input = PlacementInput::example(&cfg);
        let lc = tailbench();
        let batch = spec2006();
        let mut profiles = Vec::new();
        for (i, a) in input.apps.iter().enumerate() {
            profiles.push(match a.kind {
                jumanji_core::AppKind::LatencyCritical => {
                    Profile::Lc(lc[i % lc.len()].clone(), LcLoad::High)
                }
                jumanji_core::AppKind::Batch => Profile::Batch(batch[i % batch.len()].clone()),
            });
        }
        let cores = input.apps.iter().map(|a| a.core).collect();
        let vms = input.apps.iter().map(|a| a.vm).collect();
        (cfg, profiles, cores, vms, input)
    }

    fn quick_opts(cfg: &SystemConfig) -> DetailOptions {
        DetailOptions {
            cfg: cfg.clone(),
            accesses_per_app: 20_000,
            policy: ReplPolicy::Drrip,
            seed: 3,
        }
    }

    #[test]
    fn jumanji_allocation_isolates_vms_in_real_cache_state() {
        let (cfg, profiles, cores, vms, input) = setup();
        let alloc = DesignKind::Jumanji.allocate(&input);
        let report = run_detailed(
            &quick_opts(&cfg),
            &profiles,
            &cores,
            &vms,
            &alloc,
            &NoopSink,
        );
        assert!(
            report.vm_isolated(&vms),
            "occupancy: {:?}",
            report.bank_occupants
        );
    }

    #[test]
    fn snuca_allocation_mixes_vms_in_real_cache_state() {
        let (cfg, profiles, cores, vms, input) = setup();
        let alloc = DesignKind::Adaptive.allocate(&input);
        let report = run_detailed(
            &quick_opts(&cfg),
            &profiles,
            &cores,
            &vms,
            &alloc,
            &NoopSink,
        );
        assert!(!report.vm_isolated(&vms));
    }

    #[test]
    fn dnuca_measured_latency_beats_snuca() {
        let (cfg, profiles, cores, vms, input) = setup();
        let snuca = run_detailed(
            &quick_opts(&cfg),
            &profiles,
            &cores,
            &vms,
            &DesignKind::Adaptive.allocate(&input),
            &NoopSink,
        );
        let dnuca = run_detailed(
            &quick_opts(&cfg),
            &profiles,
            &cores,
            &vms,
            &DesignKind::Jumanji.allocate(&input),
            &NoopSink,
        );
        let avg = |r: &DetailReport| {
            r.apps.iter().map(|a| a.avg_hops()).sum::<f64>() / r.apps.len() as f64
        };
        assert!(
            avg(&dnuca) < 0.6 * avg(&snuca),
            "dnuca hops {:.2} vs snuca {:.2}",
            avg(&dnuca),
            avg(&snuca)
        );
    }

    #[test]
    fn measured_miss_ratio_tracks_analytic_shape() {
        let (cfg, profiles, cores, vms, input) = setup();
        let alloc = DesignKind::Jumanji.allocate(&input);
        let mut opts = quick_opts(&cfg);
        opts.accesses_per_app = 60_000;
        let report = run_detailed(&opts, &profiles, &cores, &vms, &alloc, &NoopSink);
        let mut checked = 0;
        for a in &input.apps {
            let cap = alloc.of(a.id).total_bytes();
            if cap < 512.0 * 1024.0 {
                continue; // tiny allocations are cold-miss dominated
            }
            let want = profiles[a.id.index()].miss_ratio(cap);
            let got = report.apps[a.id.index()].miss_ratio();
            assert!(
                (got - want).abs() < 0.3,
                "{}: measured {got:.3} vs analytic {want:.3} at {cap:.0} B",
                a.id
            );
            checked += 1;
        }
        assert!(checked >= 6, "checked only {checked} apps");
    }

    #[test]
    fn trace_driven_mode_matches_known_traces() {
        let (cfg, _profiles, cores, vms, input) = setup();
        let alloc = DesignKind::Jumanji.allocate(&input);
        // Every app scans a tiny 8-line working set: after the cold pass,
        // everything hits.
        let traces: Vec<Vec<u64>> = (0..20u64)
            .map(|a| (0..8u64).map(|l| (a + 1) * 1_000_000 + l).collect())
            .collect();
        let mut opts = quick_opts(&cfg);
        opts.accesses_per_app = 4_000;
        let report = run_traces(&opts, &traces, &cores, &vms, &alloc);
        for (i, s) in report.apps.iter().enumerate() {
            assert!(
                s.miss_ratio() < 0.02,
                "app {i}: tiny scan should almost always hit ({:.3})",
                s.miss_ratio()
            );
        }
    }

    #[test]
    fn detailed_run_is_deterministic() {
        let (cfg, profiles, cores, vms, input) = setup();
        let alloc = DesignKind::Jumanji.allocate(&input);
        let r1 = run_detailed(
            &quick_opts(&cfg),
            &profiles,
            &cores,
            &vms,
            &alloc,
            &NoopSink,
        );
        let r2 = run_detailed(
            &quick_opts(&cfg),
            &profiles,
            &cores,
            &vms,
            &alloc,
            &NoopSink,
        );
        assert_eq!(r1.apps, r2.apps);
    }

    #[test]
    fn writebacks_occur() {
        let (cfg, profiles, cores, vms, input) = setup();
        let alloc = DesignKind::Jumanji.allocate(&input);
        let r = run_detailed(
            &quick_opts(&cfg),
            &profiles,
            &cores,
            &vms,
            &alloc,
            &NoopSink,
        );
        assert!(r.apps.iter().map(|a| a.writebacks).sum::<u64>() > 0);
    }

    #[test]
    fn tlbs_capture_page_locality() {
        let (cfg, profiles, cores, vms, input) = setup();
        let alloc = DesignKind::Jumanji.allocate(&input);
        let report = run_detailed(
            &quick_opts(&cfg),
            &profiles,
            &cores,
            &vms,
            &alloc,
            &NoopSink,
        );
        for (i, s) in report.apps.iter().enumerate() {
            // Hot regions have strong page locality; even streaming apps
            // get some spatial reuse within a page. TLB misses must be
            // non-trivial but far below 100%.
            let rate = s.tlb_misses as f64 / s.accesses as f64;
            assert!(rate < 0.9, "app {i}: tlb miss rate {rate}");
        }
        let any_misses: u64 = report.apps.iter().map(|s| s.tlb_misses).sum();
        assert!(any_misses > 0);
    }

    #[test]
    fn port_waits_are_recorded() {
        let (cfg, profiles, cores, vms, input) = setup();
        let alloc = DesignKind::Adaptive.allocate(&input);
        let report = run_detailed(
            &quick_opts(&cfg),
            &profiles,
            &cores,
            &vms,
            &alloc,
            &NoopSink,
        );
        let total_wait: u64 = report.apps.iter().map(|a| a.port_wait).sum();
        // Twenty apps striped over twenty banks collide occasionally.
        assert!(total_wait > 0, "some port contention must occur");
    }
}
