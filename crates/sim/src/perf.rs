//! The per-interval analytic performance model.
//!
//! Given an [`Allocation`] and each application's profile, this module
//! computes the quantities the rest of the simulator consumes:
//!
//! - **Effective capacity**: partitioned applications own their bytes;
//!   members of an unpartitioned pool settle to the occupancy equilibrium
//!   of [`nuca_cache::analytic::shared_occupancy_into`].
//! - **Miss ratio**: the profile's curve at the effective capacity,
//!   inflated by the way-partitioning associativity penalty
//!   ([`nuca_cache::analytic::assoc_penalty`]). D-NUCA allocations occupy
//!   whole banks at full associativity and pay no penalty — one of the two
//!   mechanisms behind Fig. 8.
//! - **LLC access latency**: bank latency + NoC round trip at the
//!   placement's average hop distance (the other Fig. 8 mechanism) + M/D/1
//!   port queueing.
//! - **Miss penalty**: DRAM latency + bank↔controller hops + bandwidth
//!   queueing at the per-controller demand.

use jumanji_core::{Allocation, AppKind};
use nuca_cache::analytic::{assoc_penalty, shared_occupancy_into, OccupancyScratch};
use nuca_cache::MissCurve;
use nuca_mem::MemSystem;
use nuca_noc::queueing::md1_wait;
use nuca_noc::{LinkLoads, MeshNoc, RouteTable};
use nuca_types::hash::Fingerprinter;
use nuca_types::{AppId, BankId, CoreId, SystemConfig};
use nuca_workloads::{BatchProfile, LcLoad, LcProfile};
use std::sync::Arc;

/// Cycles one access occupies a bank port (data transfer of a 64 B line
/// over a 128-bit port).
const PORT_OCCUPANCY: f64 = 4.0;

/// Flits moved per LLC access (1-flit request + 4-flit line response),
/// charged on the request path; the symmetric response path is charged by
/// [`LinkLoads::add_flow_routed`] itself.
const FLITS_PER_ACCESS: f64 = 2.5;

/// Extra contention misses suffered by members of an *unpartitioned* pool,
/// beyond the occupancy equilibrium: co-runners' insertions evict lines in
/// flight between uses. This transient-interference term is exactly what
/// utility-based partitioning removes \[69\]; its magnitude scales with
/// how much of the pool belongs to others.
const POOL_CHURN: f64 = 0.06;

/// An application as the simulator sees it.
#[derive(Debug, Clone)]
pub enum Profile {
    /// A batch application.
    Batch(BatchProfile),
    /// A latency-critical application and its load level.
    Lc(LcProfile, LcLoad),
}

impl Profile {
    /// Streams the profile into a key: its kind, its content fingerprint
    /// ([`BatchProfile::fingerprint`], [`LcProfile::fingerprint`]) and
    /// an LC app's load.
    pub fn fingerprint_into(&self, f: &mut Fingerprinter) {
        match self {
            Profile::Batch(p) => {
                f.write_u8(0);
                f.write_u128(p.fingerprint());
            }
            Profile::Lc(p, load) => {
                f.write_u8(1);
                f.write_u128(p.fingerprint());
                f.write_u8(match load {
                    LcLoad::Low => 0,
                    LcLoad::High => 1,
                });
            }
        }
    }

    /// The application's miss-ratio shape evaluated at `bytes`.
    pub fn miss_ratio(&self, bytes: f64) -> f64 {
        let b = bytes.max(0.0) as u64;
        match self {
            Profile::Batch(p) => p.shape.ratio(b),
            Profile::Lc(p, _) => p.shape.ratio(b),
        }
    }

    /// The kind used by placement algorithms.
    pub fn kind(&self) -> AppKind {
        match self {
            Profile::Batch(_) => AppKind::Batch,
            Profile::Lc(..) => AppKind::LatencyCritical,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Profile::Batch(p) => p.name,
            Profile::Lc(p, _) => p.name,
        }
    }
}

/// The memo key of a curve sampled from `prof` on a grid of `units`
/// `unit`-byte steps: a fingerprint of `tag`, the profile
/// ([`Profile::fingerprint_into`]) and the grid.
pub(crate) fn curve_key(tag: &str, prof: &Profile, unit: u64, units: usize) -> u128 {
    let mut f = Fingerprinter::new();
    f.write_str(tag);
    prof.fingerprint_into(&mut f);
    f.write_u64(unit);
    f.write_usize(units);
    f.finish128()
}

/// Per-application outputs of the performance model for one interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AppPerf {
    /// Effective cache capacity in bytes (equilibrium share for pooled
    /// apps).
    pub capacity_bytes: f64,
    /// Miss ratio after the associativity penalty.
    pub miss_ratio: f64,
    /// Average hops from the core to the data.
    pub avg_hops: f64,
    /// Average LLC access latency in cycles (bank + network + port wait).
    pub llc_latency: f64,
    /// Average additional latency of a miss, in cycles.
    pub miss_penalty: f64,
    /// Instructions per second (batch apps; 0 for LC).
    pub ips: f64,
    /// Service time per request in cycles (LC apps; 0 for batch).
    pub service_cycles: f64,
    /// LLC accesses per second generated at this operating point.
    pub access_rate: f64,
}

/// Reusable buffers for [`evaluate_with`]: per-bank port loads, per-
/// controller bandwidth demand, the per-link flow map, and the pooled-
/// capacity machinery (per-app sampled ratio curves, scaled absolute
/// curves, and occupancy fixed-point buffers). The interval loop in the
/// runner evaluates the model hundreds of times on the same geometry;
/// keeping one scratch per experiment makes each evaluation allocation-
/// free instead of re-sampling, re-scaling, and reallocating per call.
#[derive(Debug, Default)]
pub struct EvalScratch {
    bank_load: Vec<f64>,
    ctrl_load: Vec<f64>,
    link_loads: LinkLoads,
    /// Precomputed core↔bank routes (geometry is fixed per experiment).
    routes: Option<RouteTable>,
    /// Per bank: nearest controller index and unloaded miss penalty —
    /// pure geometry, computed once instead of per (app, bank) pair.
    bank_ctrl_pen: Vec<(usize, f64)>,
    /// Memoized unit-granularity ratio curve per app index; filled lazily
    /// (profiles are fixed for the lifetime of a scratch).
    sampled: Vec<Option<Arc<MissCurve>>>,
    /// Reusable scaled absolute-miss-rate curves for pool members.
    pool_scaled: Vec<MissCurve>,
    /// Occupancy equilibrium output and iteration buffers.
    occ: Vec<f64>,
    occ_scratch: OccupancyScratch,
    /// Per-app effective capacities.
    caps: Vec<f64>,
    /// Fixed-point access-rate iterate.
    rates: Vec<f64>,
    /// Per-bank port wait, per-link M/D/1 wait, and per-controller queue
    /// delay for the current iterate. Each is a pure function of the load
    /// on that one resource, so computing it once per iteration and
    /// sharing it across every application that touches the resource adds
    /// the exact same values in the exact same order as recomputing it
    /// per (app, bank) pair did.
    port_delay: Vec<f64>,
    link_delay: Vec<f64>,
    ctrl_delay: Vec<f64>,
}

impl EvalScratch {
    /// A fresh scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized unit-granularity ratio curve of app `i`, sampling it on
    /// first use. Valid only while the scratch is used with one fixed
    /// profile set — which is the contract of the scratch (one experiment).
    fn sampled_curve(
        &mut self,
        profiles: &[Profile],
        i: usize,
        unit: u64,
        units: usize,
    ) -> Arc<MissCurve> {
        if self.sampled.len() < profiles.len() {
            self.sampled.resize(profiles.len(), None);
        }
        Arc::clone(
            self.sampled[i].get_or_insert_with(|| sampled_ratio_curve(&profiles[i], unit, units)),
        )
    }
}

/// Per-application quantities that are fixed by the allocation and thus
/// loop-invariant across the fixed-point iterations: the fixed point only
/// moves `rates`, while capacity, geometry, and the miss-ratio at that
/// capacity stay put.
struct AppStatics<'a> {
    /// Miss ratio after associativity penalty and pool churn (the value
    /// reported in [`AppPerf::miss_ratio`]).
    miss_ratio: f64,
    /// Raw curve miss ratio at the effective capacity (drives DRAM
    /// traffic; associativity conflicts refetch from the LLC itself).
    traffic_miss_ratio: f64,
    /// Average hop distance from the core to the data.
    hops: f64,
    /// `(bank, placement bytes)` pairs, as stored in the allocation.
    placement: &'a [(BankId, f64)],
    /// Total placed bytes (0 when the placement is unknown).
    total_bytes: f64,
}

/// Evaluates the performance model for every application, with
/// caller-provided scratch buffers (see [`EvalScratch`]).
///
/// `prev_rates[a]` is the previous interval's access rate estimate
/// (accesses/second), used to seed the fixed point between IPS and
/// latency; pass the profile-based initial guess on the first interval.
pub fn evaluate_with(
    cfg: &SystemConfig,
    profiles: &[Profile],
    cores: &[CoreId],
    alloc: &Allocation,
    prev_rates: &[f64],
    scratch: &mut EvalScratch,
) -> Vec<AppPerf> {
    let mut out = Vec::new();
    evaluate_into(cfg, profiles, cores, alloc, prev_rates, scratch, &mut out);
    out
}

/// [`evaluate_with`] writing into a caller-provided vector, so the epoch
/// loop can reuse one perf buffer across intervals.
pub fn evaluate_into(
    cfg: &SystemConfig,
    profiles: &[Profile],
    cores: &[CoreId],
    alloc: &Allocation,
    prev_rates: &[f64],
    scratch: &mut EvalScratch,
    out: &mut Vec<AppPerf>,
) {
    assert_eq!(profiles.len(), cores.len(), "one core per application");
    let noc = MeshNoc::new(cfg);
    let mem = MemSystem::new(cfg);
    let n = profiles.len();
    out.clear();
    out.resize(n, AppPerf::default());
    if scratch.routes.is_none() {
        scratch.routes = Some(RouteTable::new(
            cfg.mesh(),
            cfg.num_cores,
            cfg.llc.num_banks,
        ));
    }
    if scratch.bank_ctrl_pen.is_empty() {
        scratch.bank_ctrl_pen = (0..cfg.llc.num_banks)
            .map(|b| {
                let b = BankId(b);
                (
                    mem.controller_for_bank(b),
                    noc.miss_penalty(b).as_u64() as f64,
                )
            })
            .collect();
    }

    // Geometry and capacity are fixed by the allocation; latency and rates
    // need a few fixed-point iterations. Everything that depends only on
    // the allocation is computed once, outside the fixed point.
    effective_capacities_into(cfg, profiles, alloc, prev_rates, scratch);
    // The capacity and rate buffers are lifted out of the scratch for the
    // duration of the call so the per-iteration borrows stay disjoint.
    let capacities = std::mem::take(&mut scratch.caps);
    let mut rates = std::mem::take(&mut scratch.rates);
    rates.clear();
    rates.extend_from_slice(prev_rates);
    let statics: Vec<AppStatics> = profiles
        .iter()
        .enumerate()
        .map(|(i, prof)| {
            let app = AppId(i);
            let cap = capacities[i];
            let ways = avg_ways(cfg, alloc, app);
            // Unpartitioned sharing adds transient contention misses on
            // top of the equilibrium, proportional to the pool share held
            // by co-runners.
            let churn = match alloc.of(app).pool {
                Some(p) => {
                    let pool_bytes = alloc.pools[p].total_bytes().max(1.0);
                    1.0 + POOL_CHURN * (1.0 - cap / pool_bytes)
                }
                None => 1.0,
            };
            let raw_mr = prof.miss_ratio(cap);
            let placement = alloc.placement_of(app);
            AppStatics {
                miss_ratio: (raw_mr * assoc_penalty(ways, cfg.llc.ways) * churn).min(1.0),
                traffic_miss_ratio: raw_mr.min(1.0),
                hops: alloc_distance(cfg, alloc, app, cores[i]),
                placement,
                total_bytes: placement.iter().map(|(_, b)| b).sum(),
            }
        })
        .collect();
    for _ in 0..3 {
        traffic(cfg, &statics, cores, &rates, &mem, scratch);
        let EvalScratch {
            bank_load,
            ctrl_load,
            link_loads,
            routes,
            bank_ctrl_pen,
            port_delay,
            link_delay,
            ctrl_delay,
            ..
        } = scratch;
        let routes = routes.as_ref().expect("routes built above");
        // Hoist the per-resource waits out of the per-application loop:
        // every app crossing a link (or hitting a bank port / memory
        // controller) sees the same wait at the same load, so one
        // evaluation per resource replaces one per (app, bank) pair.
        port_delay.clear();
        port_delay.extend(bank_load.iter().map(|&u| md1_wait(u, PORT_OCCUPANCY)));
        // Only routed links carry flow or are read by a path; every other
        // slot keeps the zero wait of an idle link.
        let flows = link_loads.flows();
        link_delay.clear();
        link_delay.resize(flows.len(), 0.0);
        for &l in routes.used_links() {
            link_delay[l as usize] = md1_wait(flows[l as usize], 1.0);
        }
        ctrl_delay.clear();
        ctrl_delay.extend(ctrl_load.iter().map(|&u| mem.queue_delay(u)));
        for (i, prof) in profiles.iter().enumerate() {
            let st = &statics[i];
            let total_bytes = st.total_bytes;
            // Port wait averaged over the banks this app touches, and
            // link congestion along the app's paths, weighted by its
            // per-bank traffic shares.
            let (port_wait, link_wait) = if total_bytes > 0.0 {
                st.placement
                    .iter()
                    .map(|&(b, bytes)| {
                        let w = bytes / total_bytes;
                        (
                            port_delay[b.index()] * w,
                            routes.round_trip_sum(link_delay, cores[i], b) * w,
                        )
                    })
                    .fold((0.0, 0.0), |(p, l), (dp, dl)| (p + dp, l + dl))
            } else {
                (0.0, 0.0)
            };
            let llc_lat = cfg.llc.bank_latency.as_u64() as f64
                + noc.round_trip_for_hops(st.hops)
                + port_wait
                + link_wait;
            // Miss penalty: bank to nearest controller and back + DRAM +
            // bandwidth queueing at that controller.
            let miss_pen = if total_bytes > 0.0 {
                st.placement
                    .iter()
                    .map(|&(b, bytes)| {
                        let (ctrl, base) = bank_ctrl_pen[b.index()];
                        (base + ctrl_delay[ctrl]) * bytes / total_bytes
                    })
                    .sum()
            } else {
                noc.avg_miss_penalty() + mem.queue_delay(ctrl_load.iter().sum::<f64>() / 4.0)
            };
            let mr = st.miss_ratio;
            let perf = &mut out[i];
            perf.capacity_bytes = capacities[i];
            perf.miss_ratio = mr;
            perf.avg_hops = st.hops;
            perf.llc_latency = llc_lat;
            perf.miss_penalty = miss_pen;
            match prof {
                Profile::Batch(p) => {
                    perf.ips = p.ips(llc_lat, mr, miss_pen, cfg.freq_hz);
                    perf.access_rate = perf.ips * p.llc_apki / 1000.0;
                    perf.service_cycles = 0.0;
                }
                Profile::Lc(p, load) => {
                    perf.service_cycles = p.service_cycles(llc_lat, mr, miss_pen);
                    // Served request rate cannot exceed the service rate.
                    let offered = p.qps(*load);
                    let served = offered.min(cfg.freq_hz / perf.service_cycles);
                    perf.access_rate = served * p.accesses_per_req;
                    perf.ips = 0.0;
                }
            }
        }
        for i in 0..n {
            rates[i] = out[i].access_rate;
        }
    }
    scratch.caps = capacities;
    scratch.rates = rates;
}

/// Resolves each application's effective capacity into `scratch.caps`:
/// partition bytes, or the equilibrium share of its pool. Reuses the
/// scratch's sampled curves, scaled-curve slots, and occupancy buffers so
/// the per-interval pool equilibrium allocates nothing.
fn effective_capacities_into(
    cfg: &SystemConfig,
    profiles: &[Profile],
    alloc: &Allocation,
    rates: &[f64],
    scratch: &mut EvalScratch,
) {
    let unit = cfg.llc.way_bytes();
    let units = cfg.llc.total_ways() as usize;
    scratch.caps.clear();
    scratch
        .caps
        .extend(alloc.apps.iter().map(|a| a.total_bytes()));
    for pool in &alloc.pools {
        let pool_units = pool.total_bytes() / unit as f64;
        // Members' absolute miss-rate curves at unit granularity. The
        // sampled ratio curve depends only on (profile, unit, ways) — the
        // per-interval access rate just scales it — so the expensive
        // sampling is memoized in the scratch and only the cheap in-place
        // scaling runs per call.
        let k = pool.members.len();
        while scratch.pool_scaled.len() < k {
            scratch.pool_scaled.push(MissCurve::new(1, vec![0.0]));
        }
        for (j, m) in pool.members.iter().enumerate() {
            let rate = rates[m.index()].max(1.0);
            let base = scratch.sampled_curve(profiles, m.index(), unit, units);
            scratch.pool_scaled[j].clone_scaled_from(&base, rate);
        }
        {
            let EvalScratch {
                pool_scaled,
                occ,
                occ_scratch,
                ..
            } = scratch;
            shared_occupancy_into(&pool_scaled[..k], pool_units, occ, occ_scratch);
        }
        for (j, m) in pool.members.iter().enumerate() {
            scratch.caps[m.index()] = scratch.occ[j] * unit as f64;
        }
    }
}

/// The process-wide memo of sampled miss-ratio curves (see
/// [`sampled_ratio_curve`]). Shared by every worker thread, so each
/// profile is sampled once per process instead of once per thread.
static SAMPLED_CURVES: std::sync::LazyLock<nuca_types::ShardedMap<u128, Arc<MissCurve>>> =
    std::sync::LazyLock::new(nuca_types::ShardedMap::new);

/// Memoized unit-granularity sampling of a profile's miss-ratio curve.
///
/// Sampling evaluates `units + 1` parametric curve points (each a `powf`
/// per smooth component), and pooled designs resample every member on
/// every interval; the cache turns that into one sampling per profile per
/// process, keyed by [`curve_key`] of the full input. Returns an
/// `Arc` so per-scratch memoization shares the curve without copying the
/// point vector.
fn sampled_ratio_curve(prof: &Profile, unit: u64, units: usize) -> Arc<MissCurve> {
    let key = curve_key("sampled", prof, unit, units);
    SAMPLED_CURVES.get_or_compute(key, || {
        let pts: Vec<f64> = (0..=units)
            .map(|u| prof.miss_ratio((u as u64 * unit) as f64))
            .collect();
        Arc::new(MissCurve::new(unit, pts))
    })
}

/// Average ways available to the app where its data lives (pool ways for
/// pooled apps).
fn avg_ways(cfg: &SystemConfig, alloc: &Allocation, app: AppId) -> f64 {
    let a = alloc.of(app);
    match a.pool {
        Some(p) => alloc.pools[p].avg_ways(cfg),
        None => a.avg_ways(cfg),
    }
}

/// Average hop distance for `app` under `alloc`.
fn alloc_distance(cfg: &SystemConfig, alloc: &Allocation, app: AppId, core: CoreId) -> f64 {
    let mesh = cfg.mesh();
    let placement = alloc.placement_of(app);
    if placement.is_empty() {
        // No data in the LLC at all: misses travel the S-NUCA average.
        return mesh.snuca_avg_distance(core);
    }
    mesh.weighted_distance(core, placement.iter().copied())
}

/// Per-bank port utilization and per-controller bandwidth demand for the
/// current rates, written into `scratch`.
fn traffic(
    cfg: &SystemConfig,
    statics: &[AppStatics],
    cores: &[CoreId],
    rates: &[f64],
    mem: &MemSystem,
    scratch: &mut EvalScratch,
) {
    let nbanks = cfg.llc.num_banks;
    let mesh = cfg.mesh();
    scratch.bank_load.clear();
    scratch.bank_load.resize(nbanks, 0.0); // utilization per bank port
    scratch.ctrl_load.clear();
    scratch.ctrl_load.resize(mem.num_controllers(), 0.0); // lines/cycle
    scratch.link_loads.reset(mesh);
    let routes = scratch.routes.as_ref().expect("routes built by caller");
    let bank_ctrl_pen = &scratch.bank_ctrl_pen;
    for (i, st) in statics.iter().enumerate() {
        let rate_cyc = rates[i] / cfg.freq_hz; // accesses per cycle
        let mr = st.traffic_miss_ratio;
        if st.total_bytes <= 0.0 {
            // Uniform striping assumption when no placement is known.
            for (b, load) in scratch.bank_load.iter_mut().enumerate() {
                *load += rate_cyc / nbanks as f64 * PORT_OCCUPANCY;
                let c = bank_ctrl_pen[b].0;
                scratch.ctrl_load[c] += rate_cyc * mr / nbanks as f64;
                scratch.link_loads.add_flow_routed(
                    routes,
                    cores[i],
                    BankId(b),
                    rate_cyc / nbanks as f64 * FLITS_PER_ACCESS,
                );
            }
            continue;
        }
        for &(b, bytes) in st.placement {
            let share = bytes / st.total_bytes;
            scratch.bank_load[b.index()] += rate_cyc * share * PORT_OCCUPANCY;
            scratch.ctrl_load[bank_ctrl_pen[b.index()].0] += rate_cyc * mr * share;
            scratch.link_loads.add_flow_routed(
                routes,
                cores[i],
                b,
                rate_cyc * share * FLITS_PER_ACCESS,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumanji_core::{DesignKind, PlacementInput};
    use nuca_workloads::{spec2006, tailbench};

    fn profiles() -> Vec<Profile> {
        // Mirror PlacementInput::example's 4 VMs x (1 LC + 4 batch).
        let lc = tailbench();
        let batch = spec2006();
        let mut out = Vec::new();
        for vm in 0..4 {
            out.push(Profile::Lc(lc[vm % lc.len()].clone(), LcLoad::High));
            for i in 0..4 {
                out.push(Profile::Batch(batch[(vm * 4 + i) % batch.len()].clone()));
            }
        }
        out
    }

    #[test]
    fn curve_keys_separate_every_input_the_debug_form_did() {
        let lc = tailbench()[0].clone();
        let keys = [
            curve_key("a", &Profile::Lc(lc.clone(), LcLoad::High), 64, 10),
            curve_key("a", &Profile::Lc(lc.clone(), LcLoad::Low), 64, 10),
            curve_key("b", &Profile::Lc(lc.clone(), LcLoad::High), 64, 10),
            curve_key("a", &Profile::Lc(lc, LcLoad::High), 32, 10),
            curve_key("a", &Profile::Batch(spec2006()[0].clone()), 64, 10),
            curve_key("a", &Profile::Batch(spec2006()[0].clone()), 64, 11),
            curve_key("a", &Profile::Batch(spec2006()[1].clone()), 64, 10),
        ];
        let distinct: nuca_types::hash::DetSet<u128> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len());
        assert_eq!(
            keys[4],
            curve_key("a", &Profile::Batch(spec2006()[0].clone()), 64, 10)
        );
    }

    fn cores() -> Vec<CoreId> {
        let quadrants: [[usize; 5]; 4] = [
            [0, 1, 5, 6, 2],
            [4, 3, 9, 8, 7],
            [15, 16, 10, 11, 12],
            [19, 18, 14, 13, 17],
        ];
        quadrants.iter().flatten().map(|&c| CoreId(c)).collect()
    }

    /// One evaluation on the Table II machine, with a fresh scratch.
    fn eval_fresh(profs: &[Profile], alloc: &Allocation, rates: &[f64]) -> Vec<AppPerf> {
        let cfg = SystemConfig::micro2020();
        evaluate_with(&cfg, profs, &cores(), alloc, rates, &mut EvalScratch::new())
    }

    fn initial_rates(profiles: &[Profile]) -> Vec<f64> {
        profiles
            .iter()
            .map(|p| match p {
                Profile::Batch(b) => 1.5e9 * b.llc_apki / 1000.0,
                Profile::Lc(l, load) => l.qps(*load) * l.accesses_per_req,
            })
            .collect()
    }

    #[test]
    fn dnuca_latency_beats_snuca() {
        let cfg = SystemConfig::micro2020();
        let input = PlacementInput::example(&cfg);
        let profs = profiles();
        let rates = initial_rates(&profs);
        let snuca = eval_fresh(&profs, &DesignKind::Adaptive.allocate(&input), &rates);
        let dnuca = eval_fresh(&profs, &DesignKind::Jumanji.allocate(&input), &rates);
        let avg = |v: &[AppPerf]| v.iter().map(|p| p.llc_latency).sum::<f64>() / v.len() as f64;
        assert!(
            avg(&dnuca) < avg(&snuca) - 5.0,
            "D-NUCA {:.1} vs S-NUCA {:.1}",
            avg(&dnuca),
            avg(&snuca)
        );
    }

    #[test]
    fn batch_ips_positive_and_bounded() {
        let cfg = SystemConfig::micro2020();
        let input = PlacementInput::example(&cfg);
        let profs = profiles();
        let rates = initial_rates(&profs);
        let perf = eval_fresh(&profs, &DesignKind::Static.allocate(&input), &rates);
        for (p, prof) in perf.iter().zip(&profs) {
            if let Profile::Batch(b) = prof {
                assert!(p.ips > 1e8, "{}: ips {}", b.name, p.ips);
                assert!(p.ips < cfg.freq_hz / b.base_cpi);
            }
        }
    }

    #[test]
    fn lc_service_time_reflects_capacity() {
        let cfg = SystemConfig::micro2020();
        let mut input = PlacementInput::example(&cfg);
        let profs = profiles();
        let rates = initial_rates(&profs);
        // Starved LC allocation.
        for a in 0..input.lc_sizes.len() {
            if input.lc_sizes[a] > 0.0 {
                input.lc_sizes[a] = 512.0 * 1024.0;
            }
        }
        let starved = eval_fresh(&profs, &DesignKind::Jumanji.allocate(&input), &rates);
        // Generous LC allocation.
        for a in 0..input.lc_sizes.len() {
            if input.lc_sizes[a] > 0.0 {
                input.lc_sizes[a] = 4.0 * 1024.0 * 1024.0;
            }
        }
        let fed = eval_fresh(&profs, &DesignKind::Jumanji.allocate(&input), &rates);
        for i in (0..20).step_by(5) {
            assert!(
                starved[i].service_cycles > fed[i].service_cycles * 1.2,
                "app {i}: starved {} vs fed {}",
                starved[i].service_cycles,
                fed[i].service_cycles
            );
        }
    }

    #[test]
    fn pooled_capacity_sums_to_pool() {
        let cfg = SystemConfig::micro2020();
        let input = PlacementInput::example(&cfg);
        let profs = profiles();
        let rates = initial_rates(&profs);
        let alloc = DesignKind::Adaptive.allocate(&input);
        let perf = eval_fresh(&profs, &alloc, &rates);
        let pool_cap: f64 = alloc.pools[0].total_bytes();
        let member_caps: f64 = alloc.pools[0]
            .members
            .iter()
            .map(|m| perf[m.index()].capacity_bytes)
            .sum();
        assert!(
            (member_caps - pool_cap).abs() / pool_cap < 0.02,
            "members hold {member_caps} of pool {pool_cap}"
        );
    }

    #[test]
    fn narrow_partitions_pay_associativity() {
        let cfg = SystemConfig::micro2020();
        let input = PlacementInput::example(&cfg);
        let profs = profiles();
        let rates = initial_rates(&profs);
        // VM-Part stripes small VM pools across all banks: few ways each.
        let vmpart = eval_fresh(&profs, &DesignKind::VmPart.allocate(&input), &rates);
        let jumanji = eval_fresh(&profs, &DesignKind::Jumanji.allocate(&input), &rates);
        // Compare miss ratios at (roughly) matched capacity for a batch app.
        let i = 1; // a batch app
        let vm_mr_per_cap = vmpart[i].miss_ratio / profs[i].miss_ratio(vmpart[i].capacity_bytes);
        let ju_mr_per_cap = jumanji[i].miss_ratio / profs[i].miss_ratio(jumanji[i].capacity_bytes);
        assert!(
            vm_mr_per_cap > ju_mr_per_cap,
            "VM-Part pays associativity penalty: {vm_mr_per_cap} vs {ju_mr_per_cap}"
        );
    }
}
