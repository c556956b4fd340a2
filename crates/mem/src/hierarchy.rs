//! The two-level memory hierarchy of the paper's experimental framework.

use crate::cache::Cache;
use crate::config::HierarchyConfig;
use crate::stats::HierarchyStats;
use crate::tlb::Tlb;

/// The kind of data-side access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Load,
    /// A store (write-allocate).
    Store,
}

/// The level that satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Satisfied by the L1 cache.
    L1,
    /// Satisfied by the unified L2.
    L2,
    /// Went all the way to main memory.
    Memory,
}

/// The result of presenting one access to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResult {
    /// Total latency in cycles, including TLB miss penalty if any.
    pub latency: u32,
    /// Which level satisfied the access.
    pub level: HitLevel,
    /// Whether the L1 hit.
    pub l1_hit: bool,
    /// Whether the TLB hit.
    pub tlb_hit: bool,
    /// Line-aligned address filled into the L1 on a miss (the line whose
    /// extension bits must be regenerated, per §2.6 of the paper).
    pub l1_fill: Option<u32>,
}

/// Split L1 instruction/data caches, a unified L2, and split TLBs.
///
/// Writebacks of dirty victims are charged to L2 occupancy but, as in most
/// trace-driven studies, do not add latency to the triggering access.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    il1: Cache,
    dl1: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    memory_accesses: u64,
}

impl MemoryHierarchy {
    /// Creates an empty hierarchy with the given configuration.
    #[must_use]
    pub fn new(config: &HierarchyConfig) -> Self {
        MemoryHierarchy {
            config: *config,
            il1: Cache::new(config.il1),
            dl1: Cache::new(config.dl1),
            l2: Cache::new(config.l2),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            memory_accesses: 0,
        }
    }

    /// The configuration the hierarchy was built with.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Fetches an instruction word.
    pub fn fetch_instruction(&mut self, addr: u32) -> MemResult {
        let tlb_latency = self.itlb.access(addr);
        let tlb_hit = tlb_latency <= self.config.itlb.hit_latency;
        let mut result = self.cached_access(addr, false, true);
        if !tlb_hit {
            result.latency += self.config.itlb.miss_penalty;
        }
        result.tlb_hit = tlb_hit;
        result
    }

    /// Performs a data-side load or store.
    pub fn data_access(&mut self, addr: u32, kind: AccessKind) -> MemResult {
        let tlb_latency = self.dtlb.access(addr);
        let tlb_hit = tlb_latency <= self.config.dtlb.hit_latency;
        let mut result = self.cached_access(addr, kind == AccessKind::Store, false);
        if !tlb_hit {
            result.latency += self.config.dtlb.miss_penalty;
        }
        result.tlb_hit = tlb_hit;
        result
    }

    fn cached_access(&mut self, addr: u32, is_write: bool, instruction: bool) -> MemResult {
        let (l1, l1_cfg) = if instruction {
            (&mut self.il1, &self.config.il1)
        } else {
            (&mut self.dl1, &self.config.dl1)
        };

        let l1_access = l1.access(addr, is_write);
        if l1_access.hit {
            return MemResult {
                latency: l1_cfg.hit_latency,
                level: HitLevel::L1,
                l1_hit: true,
                tlb_hit: true,
                l1_fill: None,
            };
        }

        // L1 miss: the fill request goes to the unified L2. Dirty L1 victims
        // are written back into the L2.
        if let Some(victim) = l1_access.evicted {
            if victim.dirty {
                self.l2.access(victim.line_addr, true);
            }
        }

        let l2_access = self.l2.access(addr, false);
        let (latency, level) = if l2_access.hit {
            (
                l1_cfg.hit_latency + self.config.l2.hit_latency,
                HitLevel::L2,
            )
        } else {
            self.memory_accesses += 1;
            // Dirty L2 victims go to memory; modelled as occupancy only.
            (
                l1_cfg.hit_latency + self.config.l2.hit_latency + self.config.memory_latency,
                HitLevel::Memory,
            )
        };

        MemResult {
            latency,
            level,
            l1_hit: false,
            tlb_hit: true,
            l1_fill: Some(l1_access.line_addr),
        }
    }

    /// A snapshot of all counters.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            il1: *self.il1.stats(),
            dl1: *self.dl1.stats(),
            l2: *self.l2.stats(),
            itlb: *self.itlb.stats(),
            dtlb: *self.dtlb.stats(),
            memory_accesses: self.memory_accesses,
        }
    }

    /// Resets all counters (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.il1.reset_stats();
        self.dl1.reset_stats();
        self.l2.reset_stats();
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
        self.memory_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&HierarchyConfig::paper())
    }

    #[test]
    fn instruction_stream_has_high_hit_rate() {
        let mut m = hierarchy();
        // Two passes over a 1 KB loop body.
        for _ in 0..2 {
            for pc in (0x0040_0000u32..0x0040_0400).step_by(4) {
                m.fetch_instruction(pc);
            }
        }
        let s = m.stats();
        assert_eq!(s.il1.accesses, 512);
        // First pass misses once per 32-byte line (32 lines), second pass hits.
        assert_eq!(s.il1.misses, 32);
        assert!(s.il1.miss_rate() < 0.1);
    }

    #[test]
    fn latencies_follow_paper_parameters() {
        let mut m = hierarchy();
        let cold = m.data_access(0x1000_0000, AccessKind::Load);
        // 1 (L1) + 6 (L2) + 30 (memory) plus a 30-cycle D-TLB miss.
        assert_eq!(cold.level, HitLevel::Memory);
        assert_eq!(cold.latency, 1 + 6 + 30 + 30);
        assert!(!cold.tlb_hit);

        let warm = m.data_access(0x1000_0004, AccessKind::Load);
        assert_eq!(warm.level, HitLevel::L1);
        assert_eq!(warm.latency, 1);
        assert!(warm.tlb_hit);
    }

    #[test]
    fn l2_catches_l1_conflict_misses() {
        let mut m = hierarchy();
        m.data_access(0x1000_0000, AccessKind::Load);
        // 8 KB away: conflicts in the direct-mapped L1 but fits in the 4-way L2.
        m.data_access(0x1000_2000, AccessKind::Load);
        let back = m.data_access(0x1000_0000, AccessKind::Load);
        assert_eq!(back.level, HitLevel::L2);
        assert_eq!(back.latency, 1 + 6);
    }

    #[test]
    fn fills_report_line_addresses() {
        let mut m = hierarchy();
        let r = m.data_access(0x1000_0013, AccessKind::Store);
        assert_eq!(r.l1_fill, Some(0x1000_0000));
        let r2 = m.data_access(0x1000_0017, AccessKind::Store);
        assert_eq!(r2.l1_fill, None);
    }

    #[test]
    fn stats_reset_preserves_contents() {
        let mut m = hierarchy();
        m.data_access(0x1000_0000, AccessKind::Load);
        m.reset_stats();
        assert_eq!(m.stats().dl1.accesses, 0);
        let r = m.data_access(0x1000_0000, AccessKind::Load);
        assert!(r.l1_hit, "contents must survive a stats reset");
    }

    #[test]
    fn dirty_l1_victims_are_written_back_to_l2() {
        let mut m = hierarchy();
        m.data_access(0x1000_0000, AccessKind::Store);
        // Evict the dirty line with a conflicting address (8 KB stride).
        m.data_access(0x1000_2000, AccessKind::Load);
        assert_eq!(m.stats().dl1.writebacks, 1);
        // The writeback shows up as an L2 write access.
        assert!(m.stats().l2.writes >= 1);
    }
}
