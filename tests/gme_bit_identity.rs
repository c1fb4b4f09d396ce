//! Bit-identity golden hashes for the Table 3 path.
//!
//! Two FNV-1a digests pin the exact output of the code Table 3 runs:
//!
//! * the GME sequence run over four frames (0, 7, 14, 21) of every Table 3 clip, on
//!   both the prototype `EngineBackend` and the `SoftwareBackend` — every
//!   motion parameter as its IEEE-754 bit pattern, plus iterations,
//!   residuals, inlier fractions, call tallies and modelled seconds;
//! * the software AddressLib executors over every border policy, for the
//!   kernels GME issues and two more — every output pixel plus the access
//!   counters and pixel counts of each call, each call hashed
//!   [`REPEATS`] times.
//!
//! The constants were recorded before the executors and GME host loops
//! were rewritten to sweep by rows, and must never change: a refactor of
//! those loops is correct only if it reproduces every bit. A digest
//! mismatch means some output changed; bisect with the per-item prints.
//!
//! The digest is a hand-written FNV-1a because `DefaultHasher`'s
//! algorithm is not pinned by std across releases.

use vip::core::addressing::inter::run_inter;
use vip::core::addressing::intra::{run_intra_with, IntraOptions};
use vip::core::border::BorderPolicy;
use vip::core::frame::Frame;
use vip::core::geometry::Dims;
use vip::core::ops::arith::AbsDiff;
use vip::core::ops::filter::{Binomial3, BoxBlur, CentralGradient, SobelGradient};
use vip::core::ops::morph::AlphaMajority;
use vip::core::ops::IntraOp;
use vip::core::pixel::Pixel;
use vip::gme::{
    EngineBackend, GmeBackend, GmeConfig, SequenceReport, SequenceRunner, SoftwareBackend,
};
use vip::video::rng::XorShift64;
use vip::video::TestSequence;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn frame(&mut self, f: &Frame) {
        self.u64(f.width() as u64);
        self.u64(f.height() as u64);
        for px in f.pixels() {
            self.u64(px.to_bits());
        }
    }
}

/// Frames per clip: three frame pairs, spread over the clip's script.
const FRAMES: usize = 4;

fn hash_report(h: &mut Fnv, report: &SequenceReport) {
    h.u64(report.frames as u64);
    for rec in &report.records {
        h.u64(rec.index as u64);
        for v in rec.relative.h.iter().chain(&rec.absolute.h) {
            h.f64(*v);
        }
        h.u64(rec.gme.iterations as u64);
        h.f64(rec.gme.residual);
        h.f64(rec.gme.inlier_fraction);
    }
    // Call counts only: per-class pixel totals are asserted equal across
    // the two backends by `backends_agree_end_to_end`.
    h.u64(report.tally.intra);
    h.u64(report.tally.inter);
    h.f64(report.backend_seconds);
    h.f64(report.pm_seconds);
}

#[test]
fn gme_table3_path_is_bit_identical() {
    let runner = SequenceRunner::new(GmeConfig::default());
    let mut h = Fnv::new();
    for seq in TestSequence::table3() {
        let frames: Vec<Frame> = (0..FRAMES).map(|t| seq.render_frame(t * 7)).collect();
        let backends: [Box<dyn GmeBackend>; 2] = [
            Box::new(EngineBackend::prototype()),
            Box::new(SoftwareBackend::new()),
        ];
        for mut backend in backends {
            let report = runner
                .run(frames.iter().cloned(), backend.as_mut())
                .unwrap();
            let mut item = Fnv::new();
            hash_report(&mut item, &report);
            println!("{} on {}: {:#018x}", seq.name(), backend.name(), item.0);
            hash_report(&mut h, &report);
        }
    }
    assert_eq!(h.0, GME_DIGEST, "GME digest {:#018x}", h.0);
}

/// A frame with every channel populated, so merges of unwritten channels
/// and alpha-driven kernels are both exercised.
fn textured(dims: Dims, seed: u64) -> Frame {
    let mut rng = XorShift64::new(seed);
    let mut data = Vec::with_capacity(dims.pixel_count());
    for _ in 0..dims.pixel_count() {
        let r = rng.next_u64();
        data.push(Pixel::new(
            r as u8,
            (r >> 8) as u8,
            (r >> 16) as u8,
            ((r >> 24) & 1) as u16,
            (r >> 32) as u16,
        ));
    }
    Frame::from_pixels(dims, data).unwrap()
}

fn hash_intra(h: &mut Fnv, frame: &Frame, op: &dyn IntraOp) {
    let borders = [
        BorderPolicy::Clamp,
        BorderPolicy::Mirror,
        BorderPolicy::Skip,
        BorderPolicy::Constant(Pixel::new(9, 8, 7, 1, 6)),
    ];
    for _ in 0..REPEATS {
        for border in borders {
            let r = run_intra_with(frame, &op, IntraOptions { border }).unwrap();
            h.frame(&r.output);
            h.u64(r.report.counter.reads());
            h.u64(r.report.counter.writes());
            h.u64(r.report.pixels_processed);
            h.u64(r.report.op_applies);
        }
    }
}

#[test]
fn addresslib_executors_are_bit_identical() {
    let mut h = Fnv::new();
    for (i, dims) in [
        Dims::new(1, 1),
        Dims::new(2, 5),
        Dims::new(13, 7),
        Dims::new(40, 33),
    ]
    .into_iter()
    .enumerate()
    {
        let a = textured(dims, 11 + i as u64);
        let b = textured(dims, 101 + i as u64);
        let kernels: [&dyn IntraOp; 5] = [
            &Binomial3::new(),
            &CentralGradient::new(),
            &AlphaMajority::new(),
            &BoxBlur::con8(),
            &SobelGradient::new(),
        ];
        for op in kernels {
            hash_intra(&mut h, &a, op);
        }
        for _ in 0..REPEATS {
            let r = run_inter(&a, &b, &AbsDiff::yuv()).unwrap();
            h.frame(&r.output);
            h.u64(r.report.counter.reads());
            h.u64(r.report.counter.writes());
            h.u64(r.report.pixels_processed);
            h.u64(r.report.op_applies);
        }
    }
    assert_eq!(h.0, KERNEL_DIGEST, "kernel digest {:#018x}", h.0);
}

/// Times each executor call is hashed: the digest was pinned when every
/// call ran once per scan order, four orders that never changed a bit.
const REPEATS: usize = 4;

const GME_DIGEST: u64 = 0x4f25_fdc6_11c9_5213;
const KERNEL_DIGEST: u64 = 0x0441_4700_7b92_8dc5;
