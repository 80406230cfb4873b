//! Configuration tables: the simulated system (Table II) and the
//! latency-critical workload roster (Table III).

use jumanji::prelude::*;
use jumanji::sim::deadline::deadline_cycles;
use jumanji::types::Error;
use std::io::Write;

/// Table II: system parameters of the simulated multicore.
pub fn table2(out: &mut dyn Write) -> Result<(), Error> {
    let cfg = SystemConfig::micro2020();
    cfg.validate().map_err(jumanji::types::Error::from)?;
    writeln!(out, "# Table II: system parameters (paper Sec. VII)")?;
    writeln!(out, "parameter\tvalue")?;
    writeln!(
        out,
        "cores\t{} cores, x86-64, {:.2} GHz OOO",
        cfg.num_cores,
        cfg.freq_hz / 1e9
    )?;
    writeln!(
        out,
        "l1\t{} KB, {}-way, {}-cycle",
        cfg.l1.size_bytes / 1024,
        cfg.l1.ways,
        cfg.l1.latency.as_u64()
    )?;
    writeln!(
        out,
        "l2\t{} KB private, {}-way, {}-cycle",
        cfg.l2.size_bytes / 1024,
        cfg.l2.ways,
        cfg.l2.latency.as_u64()
    )?;
    writeln!(
        out,
        "llc\t{} MB shared, {}x{} MB banks, {}-way, {}-cycle bank latency",
        cfg.llc.total_bytes() >> 20,
        cfg.llc.num_banks,
        cfg.llc.bank_bytes >> 20,
        cfg.llc.ways,
        cfg.llc.bank_latency.as_u64()
    )?;
    writeln!(
        out,
        "noc\t{}x{} mesh, {}-bit flits, {}-cycle routers, {}-cycle links, X-Y routing",
        cfg.mesh_cols, cfg.mesh_rows, cfg.noc.flit_bits, cfg.noc.router_cycles, cfg.noc.link_cycles
    )?;
    writeln!(
        out,
        "memory\t{} controllers at chip corners, {}-cycle latency",
        cfg.mem.num_controllers,
        cfg.mem.latency.as_u64()
    )?;
    writeln!(
        out,
        "derived\t{} total ways, {} sets/bank, {} B lines",
        cfg.llc.total_ways(),
        cfg.llc.sets_per_bank(),
        cfg.llc.line_bytes
    )?;
    Ok(())
}

/// Table III: workload configuration for latency-critical applications,
/// plus the derived deadlines used throughout the evaluation.
pub fn table3(out: &mut dyn Write) -> Result<(), Error> {
    let cfg = SystemConfig::micro2020();
    writeln!(out, "# Table III: latency-critical workload configuration")?;
    writeln!(out, "app\tqps_low\tqps_high\tnum_queries\tdeadline_ms")?;
    for p in tailbench() {
        let deadline = deadline_cycles(&p, &cfg) / cfg.freq_hz * 1e3;
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{:.3}",
            p.name, p.qps_low, p.qps_high, p.num_queries, deadline
        )?;
    }
    writeln!(
        out,
        "# deadline = p95 latency in isolation, high load, 4-way partition (Sec. VII)"
    )?;
    Ok(())
}
