//! Architecture configuration, mirroring Table 1 of the paper.
//!
//! [`ArchConfig::paper_default`] reproduces the simulated machine of the
//! evaluation: a 5×5 2D mesh, one core per node, 32 KB 2-way L1s with
//! 64 B lines, 512 KB 64-way line-interleaved L2 banks with 256 B lines,
//! 16 B links with a 3-cycle router pipeline and XY routing, 4 memory
//! controllers with 4 KB interleaving, and DDR2-800 style banked DRAM
//! with 4 KB row buffers. (Table 1's FR-FCFS scheduling is not modelled
//! as a queue; `ndc-mem`'s `dram` module says what the controller does.)

use crate::{Cycle, NdcLocation};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (per node for both L1 and L2 banks).
    pub size_bytes: u64,
    /// Cache line (block) size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Access latency in cycles (hit latency; also the tag-check cost
    /// paid on a miss before the request is forwarded).
    pub latency: Cycle,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.ways as u64)
    }

    /// Number of lines the cache can hold.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }
}

/// On-chip network parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Mesh width (columns).
    pub width: u16,
    /// Mesh height (rows).
    pub height: u16,
    /// Link width in bytes; messages occupy a link for
    /// `ceil(message_bytes / link_bytes)` cycles.
    pub link_bytes: u64,
    /// Per-hop router pipeline depth in cycles.
    pub hop_cycles: Cycle,
}

impl NocConfig {
    pub fn nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }
}

/// DRAM device timing, reduced to the quantities the simulator's
/// row-buffer model needs. Derived from the Micron DDR2-800 part in
/// Table 1 (tRCD/tRP/tCAS ≈ 5-5-5 at a 2:1 core:bus clock ratio).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Banks per device (per memory controller).
    pub banks_per_device: u32,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Row buffer size in bytes (Table 1: 4 KB, same as the page size).
    pub row_bytes: u64,
    /// Cycles for a column access when the row is already open
    /// (row-buffer hit).
    pub row_hit_cycles: Cycle,
    /// Cycles to activate a closed row then access (row-buffer miss).
    pub row_miss_cycles: Cycle,
    /// Cycles to precharge + activate + access when a different row is
    /// open (row-buffer conflict).
    pub row_conflict_cycles: Cycle,
    /// Data-burst occupancy of the bank per request, bounding bank
    /// throughput.
    pub burst_cycles: Cycle,
}

/// Memory-system parameters: controller count, interleaving, and device
/// timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Number of memory controllers (Table 1: 4, placed at the mesh
    /// corners as in Figure 1).
    pub num_controllers: u32,
    /// Address interleaving granularity across controllers (Table 1:
    /// 4 KB, same as the page size).
    pub interleave_bytes: u64,
    /// DRAM device timing.
    pub dram: DramConfig,
}

/// Which computation types may be offloaded (Figure 17's last
/// sensitivity experiment restricts this to `+`/`-`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// All arithmetic and logic operations (the default in Table 1).
    All,
    /// Only additions and subtractions.
    AddSubOnly,
}

impl OpClass {
    pub fn allows(self, op: crate::Op) -> bool {
        match self {
            OpClass::All => true,
            OpClass::AddSubOnly => op.is_add_sub(),
        }
    }
}

/// NDC hardware parameters: which components have compute units enabled
/// (the "control register" ⓔ in Figure 1), time-out registers, and
/// service-table capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdcConfig {
    /// Bitmask over [`NdcLocation::index`]: which components are
    /// candidate NDC locations. Figure 14 isolates single components by
    /// setting a one-hot mask.
    pub enabled_mask: u8,
    /// Time-out register value: how long the first-arriving operand may
    /// wait at a component before NDC is aborted and the computation is
    /// performed at the original core. `None` disables the time-out
    /// (wait-forever, the paper's "Default" NDC bar in Figure 4).
    pub timeout: Option<Cycle>,
    /// Entries per per-component service table; a full table triggers
    /// the time-out path immediately (§2).
    pub service_table_entries: usize,
    /// Entries in the per-core LD/ST offload table; a full offload table
    /// stalls further offloads.
    pub offload_table_entries: usize,
    /// Which op types may be offloaded.
    pub op_class: OpClass,
}

impl NdcConfig {
    pub fn location_enabled(&self, loc: NdcLocation) -> bool {
        self.enabled_mask & (1 << loc.index()) != 0
    }

    /// Mask with all four locations enabled.
    pub const ALL_LOCATIONS: u8 = 0b1111;

    /// One-hot mask for a single location (Figure 14 isolation runs).
    pub fn only(loc: NdcLocation) -> u8 {
        1 << loc.index()
    }
}

/// The complete simulated-machine description, the "architecture
/// description" input of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchConfig {
    pub noc: NocConfig,
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    pub mem: MemConfig,
    pub ndc: NdcConfig,
    /// Threads per core (Table 1: 1).
    pub threads_per_core: u32,
    /// Issue width of the in-order front end (Table 1: two-issue).
    pub issue_width: u32,
    /// Maximum outstanding misses per core (MSHR count), bounding
    /// memory-level parallelism.
    pub mshrs: u32,
}

impl ArchConfig {
    /// The paper's Table 1 configuration (5×5 mesh).
    ///
    /// Latencies are in core cycles: L1 2, L2 20, 3 cycles per NoC hop.
    /// DRAM timings approximate DDR2-800 (5-5-5) at a 2 GHz core:
    /// ~60-cycle row hit, ~90 activate, ~120 conflict.
    pub fn paper_default() -> Self {
        ArchConfig {
            noc: NocConfig {
                width: 5,
                height: 5,
                link_bytes: 16,
                hop_cycles: 3,
            },
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 2,
                latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                line_bytes: 256,
                ways: 64,
                latency: 20,
            },
            mem: MemConfig {
                num_controllers: 4,
                interleave_bytes: 4096,
                dram: DramConfig {
                    banks_per_device: 4,
                    rows_per_bank: 16384,
                    row_bytes: 4096,
                    row_hit_cycles: 30,
                    row_miss_cycles: 60,
                    row_conflict_cycles: 90,
                    burst_cycles: 4,
                },
            },
            ndc: NdcConfig {
                enabled_mask: NdcConfig::ALL_LOCATIONS,
                timeout: Some(500),
                service_table_entries: 16,
                offload_table_entries: 16,
                op_class: OpClass::All,
            },
            threads_per_core: 1,
            issue_width: 2,
            mshrs: 8,
        }
    }

    /// A scaled-down configuration for fast unit/integration tests:
    /// smaller caches so misses occur with small synthetic footprints,
    /// same structure as the paper machine.
    pub fn test_small() -> Self {
        let mut c = Self::paper_default();
        c.noc.width = 4;
        c.noc.height = 4;
        c.l1.size_bytes = 1024;
        c.l2.size_bytes = 8 * 1024;
        c.l2.ways = 8;
        c
    }

    /// The paper machine lifted onto a `width`×`height` mesh — the
    /// first-class mesh-size experiment axis. Everything else (link
    /// width, hop latency, cache geometry, the four corner memory
    /// controllers, DRAM timing) stays at Table 1 values so a sweep
    /// over mesh sizes isolates the topology term.
    pub fn with_mesh(width: u16, height: u16) -> Self {
        let mut c = Self::paper_default();
        c.noc.width = width;
        c.noc.height = height;
        c
    }

    /// Number of nodes (cores) on the mesh.
    pub fn nodes(&self) -> usize {
        self.noc.nodes()
    }

    /// Home L2 bank of an address under static NUCA, cache-line
    /// interleaved across banks (Table 1: "cache line interleaved").
    pub fn l2_home(&self, addr: crate::Addr) -> crate::NodeId {
        let line = addr / self.l2.line_bytes;
        crate::NodeId((line % self.nodes() as u64) as u16)
    }

    /// Memory controller owning an address (4 KB interleaving).
    pub fn mc_of(&self, addr: crate::Addr) -> u32 {
        ((addr / self.mem.interleave_bytes) % self.mem.num_controllers as u64) as u32
    }

    /// DRAM bank within the owning controller's device.
    pub fn dram_bank_of(&self, addr: crate::Addr) -> u32 {
        let frame = addr / self.mem.interleave_bytes;
        let per_mc_frame = frame / self.mem.num_controllers as u64;
        (per_mc_frame % self.mem.dram.banks_per_device as u64) as u32
    }

    /// DRAM row within the bank.
    pub fn dram_row_of(&self, addr: crate::Addr) -> u64 {
        let frame = addr / self.mem.interleave_bytes;
        let per_mc_frame = frame / self.mem.num_controllers as u64;
        (per_mc_frame / self.mem.dram.banks_per_device as u64) % self.mem.dram.rows_per_bank
    }

    /// The address maps above, precomputed for the simulator's hot path.
    pub fn addr_map(&self) -> crate::AddrMap {
        crate::AddrMap::new(self)
    }

    /// Mesh coordinates of a memory controller. The four controllers sit
    /// at the mesh corners (Figure 1: MC1-MC4 with DDR4 channels at the
    /// corners); extra controllers beyond four (not used by the paper)
    /// are spread along the top edge.
    pub fn mc_coord(&self, mc: u32) -> crate::Coord {
        let w = self.noc.width;
        let h = self.noc.height;
        match mc {
            0 => crate::Coord::new(0, 0),
            1 => crate::Coord::new(w - 1, 0),
            2 => crate::Coord::new(0, h - 1),
            3 => crate::Coord::new(w - 1, h - 1),
            n => crate::Coord::new((n as u16) % w, 0),
        }
    }

    /// Node id hosting a memory controller.
    pub fn mc_node(&self, mc: u32) -> crate::NodeId {
        crate::NodeId::from_coord(self.mc_coord(mc), self.noc.width)
    }

    /// JSON echo of the configuration, used by the experiment and bench
    /// harnesses to stamp result files with the machine they ran on.
    pub fn to_json(&self) -> crate::Json {
        use crate::Json;
        let cache = |c: &CacheConfig| {
            Json::obj()
                .with("size_bytes", c.size_bytes)
                .with("line_bytes", c.line_bytes)
                .with("ways", c.ways)
                .with("latency", c.latency)
        };
        Json::obj()
            .with(
                "noc",
                Json::obj()
                    .with("width", self.noc.width as u64)
                    .with("height", self.noc.height as u64)
                    .with("link_bytes", self.noc.link_bytes)
                    .with("hop_cycles", self.noc.hop_cycles),
            )
            .with("l1", cache(&self.l1))
            .with("l2", cache(&self.l2))
            .with(
                "mem",
                Json::obj()
                    .with("num_controllers", self.mem.num_controllers)
                    .with("interleave_bytes", self.mem.interleave_bytes)
                    .with(
                        "dram",
                        Json::obj()
                            .with("banks_per_device", self.mem.dram.banks_per_device)
                            .with("rows_per_bank", self.mem.dram.rows_per_bank)
                            .with("row_bytes", self.mem.dram.row_bytes)
                            .with("row_hit_cycles", self.mem.dram.row_hit_cycles)
                            .with("row_miss_cycles", self.mem.dram.row_miss_cycles)
                            .with("row_conflict_cycles", self.mem.dram.row_conflict_cycles)
                            .with("burst_cycles", self.mem.dram.burst_cycles),
                    ),
            )
            .with(
                "ndc",
                Json::obj()
                    .with("enabled_mask", self.ndc.enabled_mask as u64)
                    .with("timeout", self.ndc.timeout.map_or(Json::Null, Json::UInt))
                    .with("service_table_entries", self.ndc.service_table_entries)
                    .with("offload_table_entries", self.ndc.offload_table_entries)
                    .with(
                        "op_class",
                        match self.ndc.op_class {
                            OpClass::All => "all",
                            OpClass::AddSubOnly => "add_sub_only",
                        },
                    ),
            )
            .with("threads_per_core", self.threads_per_core)
            .with("issue_width", self.issue_width)
            .with("mshrs", self.mshrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NdcLocation;

    #[test]
    fn paper_default_matches_table1() {
        let c = ArchConfig::paper_default();
        assert_eq!(c.noc.width, 5);
        assert_eq!(c.noc.height, 5);
        assert_eq!(c.nodes(), 25);
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.line_bytes, 64);
        assert_eq!(c.l1.ways, 2);
        assert_eq!(c.l1.latency, 2);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.l2.line_bytes, 256);
        assert_eq!(c.l2.ways, 64);
        assert_eq!(c.l2.latency, 20);
        assert_eq!(c.noc.link_bytes, 16);
        assert_eq!(c.noc.hop_cycles, 3);
        assert_eq!(c.mem.num_controllers, 4);
        assert_eq!(c.mem.interleave_bytes, 4096);
        assert_eq!(c.mem.dram.row_bytes, 4096);
        assert_eq!(c.mem.dram.banks_per_device, 4);
        assert_eq!(c.threads_per_core, 1);
        assert_eq!(c.issue_width, 2);
    }

    #[test]
    fn cache_geometry_derivations() {
        let c = ArchConfig::paper_default();
        // 32 KB / (64 B * 2 ways) = 256 sets.
        assert_eq!(c.l1.sets(), 256);
        assert_eq!(c.l1.lines(), 512);
        // 512 KB / (256 B * 64 ways) = 32 sets.
        assert_eq!(c.l2.sets(), 32);
        assert_eq!(c.l2.lines(), 2048);
    }

    #[test]
    fn l2_home_is_line_interleaved() {
        let c = ArchConfig::paper_default();
        let line = c.l2.line_bytes;
        // Consecutive L2 lines map to consecutive banks, wrapping at 25.
        for i in 0..50u64 {
            let home = c.l2_home(i * line);
            assert_eq!(home.0 as u64, i % 25);
        }
        // All addresses within one line share a home.
        assert_eq!(c.l2_home(0), c.l2_home(line - 1));
        assert_ne!(c.l2_home(0), c.l2_home(line));
    }

    #[test]
    fn mc_interleaving_is_page_granular() {
        let c = ArchConfig::paper_default();
        assert_eq!(c.mc_of(0), 0);
        assert_eq!(c.mc_of(4095), 0);
        assert_eq!(c.mc_of(4096), 1);
        assert_eq!(c.mc_of(3 * 4096), 3);
        assert_eq!(c.mc_of(4 * 4096), 0);
    }

    #[test]
    fn mc_nodes_sit_at_corners() {
        let c = ArchConfig::paper_default();
        assert_eq!(c.mc_coord(0), crate::Coord::new(0, 0));
        assert_eq!(c.mc_coord(1), crate::Coord::new(4, 0));
        assert_eq!(c.mc_coord(2), crate::Coord::new(0, 4));
        assert_eq!(c.mc_coord(3), crate::Coord::new(4, 4));
    }

    #[test]
    fn dram_mapping_spreads_rows_and_banks() {
        let c = ArchConfig::paper_default();
        // Consecutive 4 KB frames on the same MC hit different banks.
        let a0 = 0u64; // frame 0 -> MC0, per-MC frame 0 -> bank 0
        let a1 = 4 * 4096; // frame 4 -> MC0, per-MC frame 1 -> bank 1
        assert_eq!(c.mc_of(a0), c.mc_of(a1));
        assert_ne!(c.dram_bank_of(a0), c.dram_bank_of(a1));
        // 16 frames later we wrap banks and advance the row.
        let a16 = 16 * 4096;
        assert_eq!(c.dram_bank_of(a16), c.dram_bank_of(a0));
        assert_eq!(c.dram_row_of(a16), c.dram_row_of(a0) + 1);
    }

    #[test]
    fn ndc_control_register_masks() {
        let mut ndc = ArchConfig::paper_default().ndc;
        assert!(ndc.location_enabled(NdcLocation::LinkBuffer));
        assert!(ndc.location_enabled(NdcLocation::MemoryBank));
        ndc.enabled_mask = NdcConfig::only(NdcLocation::CacheController);
        assert!(ndc.location_enabled(NdcLocation::CacheController));
        assert!(!ndc.location_enabled(NdcLocation::LinkBuffer));
        assert!(!ndc.location_enabled(NdcLocation::MemoryController));
        assert!(!ndc.location_enabled(NdcLocation::MemoryBank));
    }

    #[test]
    fn op_class_restriction() {
        assert!(OpClass::All.allows(crate::Op::Mul));
        assert!(OpClass::AddSubOnly.allows(crate::Op::Add));
        assert!(OpClass::AddSubOnly.allows(crate::Op::Sub));
        assert!(!OpClass::AddSubOnly.allows(crate::Op::Mul));
        assert!(!OpClass::AddSubOnly.allows(crate::Op::Div));
    }

    #[test]
    fn config_json_echo_carries_table1() {
        let c = ArchConfig::paper_default();
        let json = c.to_json().render();
        // Spot-check the Table 1 numbers survive into the emitted JSON.
        assert!(json.contains(r#""noc":{"width":5,"height":5"#), "{json}");
        assert!(json.contains(r#""size_bytes":32768"#), "{json}");
        assert!(json.contains(r#""timeout":500"#), "{json}");
        assert!(json.contains(r#""op_class":"all""#), "{json}");
        // Deterministic emission: rendering twice gives identical text.
        assert_eq!(json, c.to_json().render());
    }
}
