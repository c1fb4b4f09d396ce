//! Seeded property sweeps of the engine substrate invariants: ZBT, IIM,
//! OIM, matrix register, the call schedule and its recorded transfers,
//! and the detailed datapath against the software AddressLib.
//!
//! Each property runs [`CASES`] cases drawn from its own
//! [`XorShift64`] seed. A failure names the property's seed and the case
//! index, which reproduce the failing input exactly.

use vip::core::addressing::intra::run_intra;
use vip::core::border::BorderPolicy;
use vip::core::frame::Frame;
use vip::core::geometry::{Dims, Point};
use vip::core::neighborhood::{Connectivity, Window};
use vip::core::ops::arith::AbsDiff;
use vip::core::ops::filter::BoxBlur;
use vip::core::pixel::Pixel;
use vip::engine::iim::Iim;
use vip::engine::matrix::MatrixRegister;
use vip::engine::oim::Oim;
use vip::engine::timing::{inter_timeline, intra_timeline};
use vip::engine::zbt::{ZbtMemory, ZbtRegion};
use vip::engine::{AddressEngine, EngineConfig, InterOverlap, Phase, Session, TraceRecord, Track};
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

/// Each PCI/DMA span's (start, end) in nanoseconds, in emission order.
fn spans(events: &[TraceRecord], name: &str) -> Vec<(u64, u64)> {
    events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| (e.ts_ns, e.end_ns()))
        .collect()
}

#[test]
fn transfer_spans_sit_on_schedule_instants() {
    let (mut short, mut ragged) = (0, 0);
    check(106, |g, ctx| {
        let mut config = EngineConfig::prototype();
        config.interrupt_overhead_cycles = [0, 2_000][g.range(0, 2)];
        config.pci_efficiency = [1.0, 0.8][g.range(0, 2)];
        config.output_latency_fraction = [0.0, 0.125, 0.25, 0.5][g.range(0, 4)];
        config.inter_overlap = [InterOverlap::Sequential, InterOverlap::Interleaved][g.range(0, 2)];
        let dims = Dims::new(g.range(1, 40), g.range(1, 48));
        short += usize::from(dims.height < config.strip_lines);
        ragged += usize::from(!dims.height.is_multiple_of(config.strip_lines));
        let frame = Frame::from_fn(dims, |p| Pixel::from_luma((p.x * 3 + p.y) as u8));
        for inter in [false, true] {
            let ctx = format!("{ctx} {dims} inter={inter} {:?}", config.inter_overlap);
            let mut engine = AddressEngine::new(config.clone()).unwrap();
            let session = Session::new();
            engine.set_recorder(session.recorder());
            if inter {
                engine.run_inter(&frame, &frame, &AbsDiff::luma()).unwrap();
            } else {
                engine.run_intra(&frame, &BoxBlur::con8()).unwrap();
            }
            let events = session.finish().events;
            let instant = |name: &str| {
                let e = events
                    .iter()
                    .find(|e| e.name == name && e.phase == Phase::Instant)
                    .unwrap_or_else(|| panic!("{ctx}: no {name}"));
                assert_eq!(e.track, Track::Engine, "{ctx}: {name}");
                e.ts_ns
            };
            let input = (instant("input_dma_started"), instant("input_dma_completed"));
            let output = (
                instant("output_dma_started"),
                instant("output_dma_completed"),
            );
            assert_eq!(spans(&events, "input_dma"), [input], "{ctx}");
            assert_eq!(spans(&events, "output_dma"), [output], "{ctx}");

            let strips = spans(&events, "strip_in");
            let images = if inter { 2 } else { 1 };
            assert_eq!(
                strips.len(),
                images * dims.height.div_ceil(config.strip_lines),
                "{ctx}"
            );
            assert_eq!(strips[0].0, input.0, "{ctx}: first strip");
            assert_eq!(strips[strips.len() - 1].1, input.1, "{ctx}: last strip");
            assert!(
                strips.windows(2).all(|w| w[0].1 == w[1].0),
                "{ctx}: {strips:?}"
            );

            let halves = spans(&events, "result_out");
            assert_eq!(halves.len(), 2, "{ctx}");
            assert_eq!((halves[0].0, halves[1].1), output, "{ctx}: halves");
            assert_eq!(halves[0].1, halves[1].0, "{ctx}: one bank switch");
        }
    });
    assert!(short > 0 && ragged > 0, "short {short} ragged {ragged}");
}

#[test]
fn pci_transfers_never_overlap() {
    // The bus carries one transfer at a time: across a run of calls, the
    // strips in and result halves out on the PCI track never overlap.
    check(108, |g, ctx| {
        let mut config = EngineConfig::prototype();
        config.interrupt_overhead_cycles = [0, 2_000][g.range(0, 2)];
        config.output_latency_fraction = [0.0, 0.25, 0.5][g.range(0, 3)];
        config.inter_overlap = [InterOverlap::Sequential, InterOverlap::Interleaved][g.range(0, 2)];
        let mut engine = AddressEngine::new(config).unwrap();
        let session = Session::new();
        engine.set_recorder(session.recorder());
        let calls = g.range(1, 4);
        for _ in 0..calls {
            let dims = g.dims();
            let frame = Frame::from_fn(dims, |p| Pixel::from_luma((p.x + 5 * p.y) as u8));
            if g.range(0, 2) == 0 {
                engine.run_intra(&frame, &BoxBlur::con8()).unwrap();
            } else {
                engine.run_inter(&frame, &frame, &AbsDiff::luma()).unwrap();
            }
        }
        let mut transfers: Vec<_> = session
            .finish()
            .events
            .iter()
            .filter(|e| e.track == Track::Pci)
            .map(|e| (e.ts_ns, e.end_ns()))
            .collect();
        assert!(transfers.len() >= 2 * calls, "{ctx}: {transfers:?}");
        transfers.sort_unstable();
        for w in transfers.windows(2) {
            assert!(w[1].0 >= w[0].1, "{ctx}: overlap {w:?}");
        }
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
