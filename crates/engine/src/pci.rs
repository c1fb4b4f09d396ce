//! The PCI bus and DMA transfer model.
//!
//! The PC↔board communication is *"interrupt oriented and realized through
//! DMA transfers"* over a 32-bit PCI bus at 66 MHz (§3, §3.1) — 264 MB/s
//! peak, which §4.1 identifies as *"the bottleneck of the system"*. Images
//! are not moved in one pass but in strips written to alternating ZBT
//! blocks, so processing can start before the transfer completes.
//!
//! # Examples
//!
//! ```
//! use vip_engine::config::EngineConfig;
//! use vip_engine::pci::PciBus;
//!
//! let mut pci = PciBus::new(&EngineConfig::prototype());
//! let cycles = pci.transfer_cycles(352 * 16 * 8); // one CIF strip
//! assert_eq!(cycles.count(), 352 * 16 * 2); // two words per pixel
//! ```

use core::fmt;

use crate::clock::{ClockDomain, Cycles};
use crate::config::EngineConfig;

/// Direction of a DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// PC memory → ZBT.
    HostToBoard,
    /// ZBT → PC memory.
    BoardToHost,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::HostToBoard => f.write_str("host→board"),
            Direction::BoardToHost => f.write_str("board→host"),
        }
    }
}

/// One completed DMA transfer, for traces and utilisation accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Transfer direction.
    pub direction: Direction,
    /// Payload size in bytes.
    pub bytes: usize,
    /// PCI cycle at which the transfer started.
    pub start: Cycles,
    /// PCI cycles the transfer occupied the bus.
    pub cycles: Cycles,
}

impl Transfer {
    /// PCI cycle at which the transfer completed.
    #[must_use]
    pub fn end(&self) -> Cycles {
        self.start + self.cycles
    }
}

/// The PCI bus model: serialises DMA transfers and accumulates busy time.
#[derive(Debug, Clone)]
pub struct PciBus {
    clock: ClockDomain,
    bytes_per_cycle: usize,
    efficiency: f64,
    interrupt_overhead: u64,
    /// PCI cycle up to which the bus is busy.
    busy_until: Cycles,
    transfers: Vec<Transfer>,
}

impl PciBus {
    /// Creates the bus from an engine configuration.
    #[must_use]
    pub fn new(config: &EngineConfig) -> Self {
        PciBus {
            clock: config.pci_clock,
            bytes_per_cycle: config.pci_bytes_per_cycle,
            efficiency: config.pci_efficiency,
            interrupt_overhead: config.interrupt_overhead_cycles,
            busy_until: Cycles::ZERO,
            transfers: Vec::new(),
        }
    }

    /// The bus clock domain.
    #[must_use]
    pub const fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Pure payload cycles for `bytes` (no interrupt overhead).
    #[must_use]
    pub fn transfer_cycles(&self, bytes: usize) -> Cycles {
        let beats = bytes.div_ceil(self.bytes_per_cycle) as f64;
        Cycles((beats / self.efficiency).ceil() as u64)
    }

    /// Schedules a DMA transfer that may not start before `earliest`.
    /// Returns the completed [`Transfer`]; the bus serialises transfers in
    /// submission order.
    pub fn schedule(&mut self, direction: Direction, bytes: usize, earliest: Cycles) -> Transfer {
        let start = self.busy_until.max(earliest);
        let cycles = self.transfer_cycles(bytes);
        let t = Transfer {
            direction,
            bytes,
            start,
            cycles,
        };
        self.busy_until = t.end();
        self.transfers.push(t);
        t
    }

    /// Accounts the per-call interrupt/DMA-descriptor overhead and returns
    /// the cycle at which the bus becomes usable.
    pub fn interrupt(&mut self) -> Cycles {
        self.busy_until += Cycles(self.interrupt_overhead);
        self.busy_until
    }

    /// Cycle at which the last scheduled activity finishes.
    #[must_use]
    pub const fn busy_until(&self) -> Cycles {
        self.busy_until
    }

    /// Completed transfers in schedule order.
    #[must_use]
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// Total payload bytes moved.
    #[must_use]
    pub fn bytes_moved(&self) -> usize {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Total cycles the bus spent moving payload.
    #[must_use]
    pub fn payload_cycles(&self) -> Cycles {
        self.transfers.iter().map(|t| t.cycles).sum()
    }

    /// Bus utilisation: payload cycles over elapsed cycles (0 when idle).
    #[must_use]
    pub fn utilisation(&self) -> f64 {
        if self.busy_until.count() == 0 {
            return 0.0;
        }
        self.payload_cycles().count() as f64 / self.busy_until.count() as f64
    }

    /// Clears the schedule and counters.
    pub fn reset(&mut self) {
        self.busy_until = Cycles::ZERO;
        self.transfers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::geometry::ImageFormat;

    fn bus() -> PciBus {
        PciBus::new(&EngineConfig::prototype())
    }

    #[test]
    fn cif_image_transfer_time() {
        let pci = bus();
        let cycles = pci.transfer_cycles(ImageFormat::Cif.bytes());
        // 811 008 B / 4 B per cycle = 202 752 cycles ≈ 3.07 ms at 66 MHz.
        assert_eq!(cycles.count(), 202_752);
        let t = pci.clock().duration_of(cycles);
        assert!((t.as_secs_f64() - 0.003072).abs() < 1e-5, "{t:?}");
    }

    #[test]
    fn schedule_serialises() {
        let mut pci = bus();
        let a = pci.schedule(Direction::HostToBoard, 400, Cycles::ZERO);
        let b = pci.schedule(Direction::HostToBoard, 400, Cycles::ZERO);
        assert_eq!(a.start, Cycles::ZERO);
        assert_eq!(a.cycles, Cycles(100));
        assert_eq!(b.start, Cycles(100), "second transfer waits for the first");
        assert_eq!(pci.busy_until(), Cycles(200));
    }

    #[test]
    fn schedule_honours_earliest() {
        let mut pci = bus();
        let t = pci.schedule(Direction::BoardToHost, 40, Cycles(500));
        assert_eq!(t.start, Cycles(500));
        assert_eq!(t.end(), Cycles(510));
    }

    #[test]
    fn efficiency_scales_cycles() {
        let mut cfg = EngineConfig::prototype();
        cfg.pci_efficiency = 0.5;
        let pci = PciBus::new(&cfg);
        assert_eq!(pci.transfer_cycles(400).count(), 200);
    }

    #[test]
    fn interrupt_overhead_advances_bus() {
        let mut pci = bus();
        let after = pci.interrupt();
        assert_eq!(after, Cycles(2_000));
        let t = pci.schedule(Direction::HostToBoard, 4, Cycles::ZERO);
        assert_eq!(t.start, Cycles(2_000));
    }

    #[test]
    fn accounting() {
        let mut pci = bus();
        pci.schedule(Direction::HostToBoard, 400, Cycles::ZERO);
        pci.schedule(Direction::BoardToHost, 200, Cycles(150));
        assert_eq!(pci.bytes_moved(), 600);
        assert_eq!(pci.payload_cycles(), Cycles(150));
        assert_eq!(pci.transfers().len(), 2);
        // 100 busy + gap 50 + 50 busy → utilisation 150/200.
        assert!((pci.utilisation() - 0.75).abs() < 1e-12);
        pci.reset();
        assert_eq!(pci.transfers().len(), 0);
        assert_eq!(pci.utilisation(), 0.0);
    }

    #[test]
    fn odd_byte_counts_round_up() {
        let pci = bus();
        assert_eq!(pci.transfer_cycles(1).count(), 1);
        assert_eq!(pci.transfer_cycles(5).count(), 2);
        assert_eq!(pci.transfer_cycles(0).count(), 0);
    }

    #[test]
    fn direction_display() {
        assert_eq!(Direction::HostToBoard.to_string(), "host→board");
        assert_eq!(Direction::BoardToHost.to_string(), "board→host");
    }
}
