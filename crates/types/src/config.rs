//! System configuration of the simulated multicore.
//!
//! [`SystemConfig::micro2020`] reproduces Table II of the paper: a 20-core
//! chip at 2.66 GHz with private L1/L2 caches, a 20 MB LLC distributed as
//! 20 × 1 MB banks over a 5×4 mesh, and four memory controllers at the chip
//! corners.

use crate::error::ConfigError;
use crate::time::Cycles;
use crate::topology::Mesh;

/// Configuration of one private cache level (L1 or L2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevelConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways).
    pub ways: u32,
    /// Access latency.
    pub latency: Cycles,
}

/// Configuration of the shared, banked last-level cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlcConfig {
    /// Number of banks (one per tile).
    pub num_banks: usize,
    /// Capacity of one bank in bytes.
    pub bank_bytes: u64,
    /// Associativity of each bank.
    pub ways: u32,
    /// Bank access latency (tag + data array).
    pub bank_latency: Cycles,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Number of access ports per bank. Port contention on this shared
    /// resource is the basis of the paper's LLC port attack (Sec. VI-B).
    pub bank_ports: u32,
}

impl LlcConfig {
    /// Total LLC capacity across all banks, in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bank_bytes * self.num_banks as u64
    }

    /// Capacity of a single way within one bank, in bytes.
    pub fn way_bytes(&self) -> u64 {
        self.bank_bytes / self.ways as u64
    }

    /// Number of sets per bank.
    pub fn sets_per_bank(&self) -> u64 {
        self.bank_bytes / (self.line_bytes * self.ways as u64)
    }

    /// Total ways across all banks — the associativity pool available to a
    /// D-NUCA partitioner (20 banks × 32 ways = 640 in the paper).
    pub fn total_ways(&self) -> u32 {
        self.ways * self.num_banks as u32
    }
}

/// Configuration of the mesh network-on-chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Pipelined router traversal latency per hop.
    pub router_cycles: u64,
    /// Link traversal latency per hop.
    pub link_cycles: u64,
    /// Flit (and link) width in bits.
    pub flit_bits: u64,
}

impl NocConfig {
    /// Latency contributed by one hop (router + link).
    pub fn hop_latency(&self) -> Cycles {
        Cycles(self.router_cycles + self.link_cycles)
    }

    /// Number of flits needed to carry `bytes` of payload.
    pub fn flits_for_bytes(&self, bytes: u64) -> u64 {
        let bits = bytes * 8;
        bits.div_ceil(self.flit_bits)
    }
}

/// Configuration of main memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Number of memory controllers (placed at chip corners).
    pub num_controllers: usize,
    /// Fixed access latency once a request is issued.
    pub latency: Cycles,
    /// Minimum cycles between line transfers on one controller; models
    /// per-controller bandwidth for the bandwidth-partitioning model.
    pub cycles_per_line: u64,
}

/// Per-event dynamic energy constants, in picojoules.
///
/// Values follow the data-movement energy breakdown used by Jenga
/// \[Tsai et al., ISCA'17\], which the paper cites for Fig. 15.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConfig {
    /// Energy per L1 access.
    pub l1_access_pj: f64,
    /// Energy per L2 access.
    pub l2_access_pj: f64,
    /// Energy per LLC bank access.
    pub llc_bank_access_pj: f64,
    /// Energy per flit per hop on the NoC.
    pub noc_hop_flit_pj: f64,
    /// Energy per DRAM line access.
    pub dram_access_pj: f64,
}

/// Full system configuration (Table II of the paper).
///
/// # Examples
///
/// ```
/// use nuca_types::SystemConfig;
/// let cfg = SystemConfig::micro2020();
/// assert_eq!(cfg.llc.total_bytes(), 20 * 1024 * 1024);
/// assert_eq!(cfg.llc.total_ways(), 640);
/// cfg.validate().expect("the paper configuration is valid");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Core clock frequency in Hz.
    pub freq_hz: f64,
    /// Number of cores (one per mesh tile).
    pub num_cores: usize,
    /// Mesh columns.
    pub mesh_cols: usize,
    /// Mesh rows.
    pub mesh_rows: usize,
    /// Private L1 data cache.
    pub l1: CacheLevelConfig,
    /// Private, inclusive L2 cache.
    pub l2: CacheLevelConfig,
    /// Shared banked LLC.
    pub llc: LlcConfig,
    /// Mesh NoC parameters.
    pub noc: NocConfig,
    /// Main memory parameters.
    pub mem: MemConfig,
    /// Dynamic energy constants.
    pub energy: EnergyConfig,
}

impl SystemConfig {
    /// The 20-core configuration of the paper's evaluation (Table II).
    pub fn micro2020() -> SystemConfig {
        SystemConfig {
            freq_hz: 2.66e9,
            num_cores: 20,
            mesh_cols: 5,
            mesh_rows: 4,
            l1: CacheLevelConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                latency: Cycles(3),
            },
            l2: CacheLevelConfig {
                size_bytes: 128 * 1024,
                ways: 8,
                latency: Cycles(6),
            },
            llc: LlcConfig {
                num_banks: 20,
                bank_bytes: 1024 * 1024,
                ways: 32,
                bank_latency: Cycles(13),
                line_bytes: 64,
                bank_ports: 1,
            },
            noc: NocConfig {
                router_cycles: 2,
                link_cycles: 1,
                flit_bits: 128,
            },
            mem: MemConfig {
                num_controllers: 4,
                latency: Cycles(120),
                cycles_per_line: 4,
            },
            energy: EnergyConfig {
                // Jenga-style relative magnitudes (pJ per event).
                l1_access_pj: 10.0,
                l2_access_pj: 25.0,
                llc_bank_access_pj: 110.0,
                noc_hop_flit_pj: 16.0,
                dram_access_pj: 2000.0,
            },
        }
    }

    /// The mesh topology implied by this configuration.
    pub fn mesh(&self) -> Mesh {
        Mesh::new(self.mesh_cols, self.mesh_rows)
    }

    /// Checks internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the mesh does not cover the cores and
    /// banks, when sizes are not divisible into sets/ways/lines, or when any
    /// required quantity is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let tiles = self.mesh_cols * self.mesh_rows;
        if tiles == 0 {
            return Err(ConfigError::new("mesh has zero tiles"));
        }
        if self.num_cores != tiles {
            return Err(ConfigError::new(format!(
                "num_cores ({}) must equal mesh tiles ({tiles})",
                self.num_cores
            )));
        }
        if self.llc.num_banks != tiles {
            return Err(ConfigError::new(format!(
                "llc.num_banks ({}) must equal mesh tiles ({tiles})",
                self.llc.num_banks
            )));
        }
        if self.llc.ways == 0 || self.llc.bank_ports == 0 {
            return Err(ConfigError::new("LLC ways and ports must be nonzero"));
        }
        if !self
            .llc
            .bank_bytes
            .is_multiple_of(self.llc.line_bytes * self.llc.ways as u64)
        {
            return Err(ConfigError::new(
                "LLC bank size must be divisible into sets of ways of lines",
            ));
        }
        for (name, lvl) in [("l1", &self.l1), ("l2", &self.l2)] {
            if lvl.ways == 0 {
                return Err(ConfigError::new(format!("{name} ways must be nonzero")));
            }
            if !lvl
                .size_bytes
                .is_multiple_of(self.llc.line_bytes * lvl.ways as u64)
            {
                return Err(ConfigError::new(format!(
                    "{name} size must be divisible into sets of ways of lines"
                )));
            }
        }
        if self.mem.num_controllers == 0 {
            return Err(ConfigError::new("need at least one memory controller"));
        }
        if self.freq_hz <= 0.0 || self.freq_hz.is_nan() {
            return Err(ConfigError::new("frequency must be positive"));
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    /// Defaults to the paper's Table II configuration.
    fn default() -> Self {
        SystemConfig::micro2020()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_parameters() {
        let cfg = SystemConfig::micro2020();
        assert_eq!(cfg.num_cores, 20);
        assert_eq!(cfg.mesh_cols * cfg.mesh_rows, 20);
        assert_eq!(cfg.l1.size_bytes, 32 * 1024);
        assert_eq!(cfg.l1.latency, Cycles(3));
        assert_eq!(cfg.l2.size_bytes, 128 * 1024);
        assert_eq!(cfg.l2.latency, Cycles(6));
        assert_eq!(cfg.llc.num_banks, 20);
        assert_eq!(cfg.llc.bank_bytes, 1024 * 1024);
        assert_eq!(cfg.llc.ways, 32);
        assert_eq!(cfg.llc.bank_latency, Cycles(13));
        assert_eq!(cfg.noc.router_cycles, 2);
        assert_eq!(cfg.noc.link_cycles, 1);
        assert_eq!(cfg.noc.flit_bits, 128);
        assert_eq!(cfg.mem.num_controllers, 4);
        assert_eq!(cfg.mem.latency, Cycles(120));
        cfg.validate().unwrap();
    }

    #[test]
    fn derived_llc_quantities() {
        let llc = SystemConfig::micro2020().llc;
        assert_eq!(llc.total_bytes(), 20 << 20);
        assert_eq!(llc.way_bytes(), 32 * 1024);
        assert_eq!(llc.sets_per_bank(), 512);
        assert_eq!(llc.total_ways(), 640);
    }

    #[test]
    fn noc_flit_math() {
        let noc = SystemConfig::micro2020().noc;
        assert_eq!(noc.hop_latency(), Cycles(3));
        // A 64 B line is 512 bits = 4 flits of 128 bits.
        assert_eq!(noc.flits_for_bytes(64), 4);
        // A small 8 B control message is a single flit.
        assert_eq!(noc.flits_for_bytes(8), 1);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut cfg = SystemConfig::micro2020();
        cfg.num_cores = 16;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::micro2020();
        cfg.llc.ways = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::micro2020();
        cfg.llc.bank_bytes = 1000; // not divisible into 64 B lines x 32 ways
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::micro2020();
        cfg.mem.num_controllers = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::micro2020();
        cfg.freq_hz = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_is_micro2020() {
        assert_eq!(SystemConfig::default(), SystemConfig::micro2020());
    }
}
