//! Seeded property sweeps of the engine substrate invariants: ZBT, IIM,
//! OIM, matrix register, PCI bus, analytic timing and the detailed
//! datapath against the software AddressLib.
//!
//! Each property runs [`CASES`] cases drawn from its own
//! [`XorShift64`] seed. A failure names the property's seed and the case
//! index, which reproduce the failing input exactly.

use vip::core::addressing::intra::run_intra;
use vip::core::border::BorderPolicy;
use vip::core::frame::Frame;
use vip::core::geometry::{Dims, Point};
use vip::core::neighborhood::{Connectivity, Window};
use vip::core::ops::filter::BoxBlur;
use vip::core::pixel::Pixel;
use vip::engine::clock::Cycles;
use vip::engine::iim::Iim;
use vip::engine::matrix::MatrixRegister;
use vip::engine::oim::Oim;
use vip::engine::pci::{Direction, PciBus};
use vip::engine::timing::{inter_timeline, intra_timeline};
use vip::engine::zbt::{ZbtMemory, ZbtRegion};
use vip::engine::{AddressEngine, EngineConfig};
use vip::video::rng::XorShift64;

/// Cases per property.
const CASES: usize = 48;

/// Input generator for one property.
struct Gen(XorShift64);

impl Gen {
    /// Uniform integer in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.0.next_u64() % (hi - lo) as u64) as usize
    }

    /// A pixel with every channel random.
    fn pixel(&mut self) -> Pixel {
        let r = self.0.next_u64();
        Pixel::new(
            r as u8,
            (r >> 8) as u8,
            (r >> 16) as u8,
            (r >> 24) as u16,
            (r >> 40) as u16,
        )
    }

    fn pixels(&mut self, n: usize) -> Vec<Pixel> {
        (0..n).map(|_| self.pixel()).collect()
    }

    /// Frame dimensions of 4..28 × 4..28 pixels.
    fn dims(&mut self) -> Dims {
        Dims::new(self.range(4, 28), self.range(4, 28))
    }
}

/// Runs `property` on [`CASES`] generated cases; `seed` picks the stream.
fn check(seed: u64, mut property: impl FnMut(&mut Gen, &str)) {
    let mut gen = Gen(XorShift64::new(seed));
    for case in 0..CASES {
        property(&mut gen, &format!("seed {seed} case {case}"));
    }
}

#[test]
fn zbt_input_roundtrip() {
    check(101, |g, ctx| {
        let px = g.pixel();
        let idx = g.range(0, 10_000);
        let mut zbt = ZbtMemory::new(&EngineConfig::prototype());
        for region in [ZbtRegion::InputA, ZbtRegion::InputB] {
            zbt.write_input_pixel(region, idx, px).unwrap();
            assert_eq!(zbt.read_input_pixel(region, idx).unwrap(), px, "{ctx}");
        }
    });
}

#[test]
fn zbt_result_roundtrip() {
    check(102, |g, ctx| {
        let px = g.pixel();
        let idx = g.range(0, 5_000);
        let total = idx + g.range(1, 5_000);
        let mut zbt = ZbtMemory::new(&EngineConfig::prototype());
        zbt.write_result_pixel(idx, total, px).unwrap();
        assert_eq!(zbt.read_result_pixel(idx, total).unwrap(), px, "{ctx}");
    });
}

#[test]
fn oim_preserves_order() {
    check(103, |g, ctx| {
        let n = g.range(1, 64);
        let pixels = g.pixels(n);
        let mut oim = Oim::new(16, 16);
        for (i, px) in pixels.iter().enumerate() {
            assert!(oim.push(i, *px), "{ctx}: push {i}");
        }
        for (i, px) in pixels.iter().enumerate() {
            assert_eq!(oim.pop(), Some((i, *px)), "{ctx}");
        }
    });
}

#[test]
fn iim_window_agrees_with_software() {
    check(104, |g, ctx| {
        let dims = g.dims();
        let centre = Point::new(
            (g.range(0, 28) % dims.width) as i32,
            (g.range(0, 28) % dims.height) as i32,
        );
        let frame = Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x * 13 + p.y * 7) % 256) as u8)
        });
        let mut iim = Iim::new(dims.height.max(2), dims.width);
        for l in 0..dims.height {
            iim.load_line(l, frame.line(l));
        }
        let hw = iim
            .fetch_window(centre, Connectivity::Con8, dims, BorderPolicy::Clamp)
            .expect("all lines resident");
        let sw = Window::gather(&frame, centre, Connectivity::Con8, BorderPolicy::Clamp);
        for (off, px) in hw {
            assert_eq!(Some(px), sw.sample(off), "{ctx}: offset {off}");
        }
    });
}

#[test]
fn matrix_shift_equals_load() {
    // Slide a 3-wide matrix along random columns; every SHIFT must equal
    // a fresh LOAD of the same three columns.
    check(105, |g, ctx| {
        let n = g.range(4, 10);
        let cols: Vec<Vec<Pixel>> = (0..n).map(|_| g.pixels(3)).collect();
        let mut m = MatrixRegister::new(Connectivity::Con8);
        m.load(cols[..3].to_vec());
        for i in 3..cols.len() {
            m.shift(cols[i].clone());
            let mut fresh = MatrixRegister::new(Connectivity::Con8);
            fresh.load(cols[i - 2..=i].to_vec());
            assert_eq!(m.samples(), fresh.samples(), "{ctx}: column {i}");
        }
    });
}

#[test]
fn pci_transfers_never_overlap() {
    check(106, |g, ctx| {
        let n = g.range(1, 20);
        let mut pci = PciBus::new(&EngineConfig::prototype());
        for i in 0..n {
            let dir = if i % 2 == 0 {
                Direction::HostToBoard
            } else {
                Direction::BoardToHost
            };
            pci.schedule(dir, g.range(1, 10_000), Cycles(i as u64 * 7));
        }
        let ts = pci.transfers();
        for w in ts.windows(2) {
            assert!(w[1].start >= w[0].end(), "{ctx}: overlap {w:?}");
        }
        let payload: u64 = ts.iter().map(|t| t.cycles.count()).sum();
        assert!(pci.busy_until().count() >= payload, "{ctx}");
    });
}

#[test]
fn timeline_monotone_in_pixels() {
    check(107, |g, ctx| {
        let (w, h) = (g.range(8, 64), g.range(8, 64));
        let cfg = EngineConfig::prototype();
        let small = intra_timeline(Dims::new(w, h), 1, &cfg);
        let large = intra_timeline(Dims::new(w * 2, h), 1, &cfg);
        assert!(large.total > small.total, "{ctx}");
        assert!(large.input_pci > small.input_pci, "{ctx}");
        let inter = inter_timeline(Dims::new(w, h), &cfg);
        assert!(
            inter.total > small.total,
            "{ctx}: inter moves twice the input"
        );
    });
}

#[test]
fn engine_intra_always_matches_software() {
    check(108, |g, ctx| {
        let dims = g.dims();
        let seed = g.range(0, 255);
        let frame = Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x as usize * 31 + p.y as usize * 17 + seed) % 256) as u8)
        });
        let mut engine = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
        let hw = engine.run_intra(&frame, &BoxBlur::con8()).unwrap();
        let sw = run_intra(&frame, &BoxBlur::con8()).unwrap();
        assert_eq!(hw.output, sw.output, "{ctx}");
    });
}
