//! Clock domains and cycle counting.
//!
//! The prototype has two relevant clock domains: the PCI bus at 66 MHz
//! (the system bottleneck, §4.1) and the FPGA design clock, whose maximum
//! frequency after synthesis is 102.208 MHz but which the prototype runs
//! at the PCI frequency (§4.1: *"the prototype implementation running
//! with 66 MHz"*).
//!
//! # Examples
//!
//! ```
//! use vip_engine::clock::ClockDomain;
//!
//! let pci = ClockDomain::pci_66();
//! assert_eq!(pci.hz * 4.0, 264e6); // 32-bit words: 264 MB/s (§4.1)
//! ```

use core::fmt;

/// A cycle count within one clock domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cycles(pub u64);

/// A clock domain with a fixed frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomain {
    /// Frequency in hertz.
    pub hz: f64,
    /// Human-readable name.
    pub name: &'static str,
}

impl ClockDomain {
    /// The 66 MHz PCI clock of the prototype board.
    #[must_use]
    pub const fn pci_66() -> Self {
        ClockDomain {
            hz: 66_000_000.0,
            name: "pci",
        }
    }

    /// The FPGA design clock at the prototype's operating point (66 MHz).
    #[must_use]
    pub const fn engine_66() -> Self {
        ClockDomain {
            hz: 66_000_000.0,
            name: "engine",
        }
    }

    /// The post-synthesis maximum frequency reported in Table 1
    /// (102.208 MHz from a 9.784 ns minimum period).
    #[must_use]
    pub const fn engine_fmax() -> Self {
        ClockDomain {
            hz: 102_208_000.0,
            name: "engine-fmax",
        }
    }

    /// Creates a custom clock domain.
    #[must_use]
    pub const fn new(name: &'static str, hz: f64) -> Self {
        ClockDomain { hz, name }
    }
}

impl fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {:.3} MHz", self.name, self.hz / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pci_clock_frequency() {
        let pci = ClockDomain::pci_66();
        assert_eq!(pci.hz, 66e6);
        // 264 MB/s at 4 bytes/word (§4.1).
        let bytes_per_sec = pci.hz * 4.0;
        assert_eq!(bytes_per_sec, 264e6);
    }

    #[test]
    fn fmax_matches_table1() {
        // Table 1: minimum period 9.784 ns → 102.208 MHz.
        let fmax = ClockDomain::engine_fmax();
        let period_ns = 1e9 / fmax.hz;
        assert!((period_ns - 9.784).abs() < 0.01, "{period_ns}");
    }

    #[test]
    fn displays() {
        assert!(ClockDomain::pci_66().to_string().contains("66.000 MHz"));
    }
}
