//! The cycle-stepped reference shared by the differential tests.
//!
//! `AddressEngine` runs every detailed call through the event-driven
//! datapath of `vip-engine::fast`; the cycle-stepped loops in
//! `vip-engine::process_unit` are the reference it must match. This
//! module runs one call through that reference on a ZBT loaded the way
//! the engine loads it (bulk input write, then a statistics reset), and
//! draws the seeded configurations the sweeps share.

use vip::core::accounting::{AccessModel, CallDescriptor};
use vip::core::border::BorderPolicy;
use vip::core::frame::Frame;
use vip::core::geometry::Dims;
use vip::core::ops::arith::AbsDiff;
use vip::core::ops::filter::BoxBlur;
use vip::core::ops::{InterOp, IntraOp};
use vip::core::pixel::Pixel;
use vip::engine::process_unit::{run_inter_detailed_probed, run_intra_detailed_probed, PuProbe};
use vip::engine::timing::{inter_timeline, intra_timeline};
use vip::engine::zbt::{BankStats, ZbtMemory, ZbtRegion};
use vip::engine::{AddressEngine, EngineConfig, EngineReport, EngineResult, EngineRun};

/// One random detailed configuration, drawn across (and beyond) the
/// legal IIM/OIM/drain range so both clean and deadlocking cases appear.
pub fn random_case(seed: u64) -> (EngineConfig, Dims, usize) {
    let mut rng = vip::video::rng::XorShift64::new(seed ^ 0x5eed_f0f0);
    let width = 4 + (rng.next_u64() % 29) as usize; // 4..=32
    let height = 4 + (rng.next_u64() % 21) as usize; // 4..=24
    let radius = (rng.next_u64() % 4) as usize; // 0..=3
    let mut config = EngineConfig::prototype_detailed();
    config.iim_lines = 2 + (rng.next_u64() % 9) as usize;
    config.oim_lines = 1 + (rng.next_u64() % 16) as usize;
    config.oim_drain_cycles_per_pixel = 1 + rng.next_u64() % 4;
    config.output_latency_fraction = [0.0, 0.125, 0.25, 0.5][(rng.next_u64() % 4) as usize];
    (config, Dims::new(width, height), radius)
}

/// The first input frame of every call.
pub fn test_frame(dims: Dims) -> Frame {
    Frame::from_fn(dims, |p| {
        Pixel::from_luma(((p.x * 7 + p.y * 13) % 256) as u8)
    })
}

/// The second input frame of inter calls.
pub fn second_frame(dims: Dims) -> Frame {
    Frame::from_fn(dims, |p| {
        Pixel::from_luma(((p.x * 5 + p.y * 3 + 17) % 256) as u8)
    })
}

/// One detailed call: an intra box blur of the given radius, or an
/// inter absolute difference.
#[derive(Debug, Clone, Copy)]
pub enum Call<'a> {
    Intra(&'a Frame, usize),
    Inter(&'a Frame, &'a Frame),
}

fn blur(radius: usize) -> BoxBlur {
    BoxBlur::with_radius(radius).expect("radius ≤ 4")
}

impl Call<'_> {
    /// Runs the call on `engine`.
    pub fn run(&self, engine: &mut AddressEngine) -> EngineResult<EngineRun> {
        match *self {
            Call::Intra(frame, radius) => engine.run_intra(frame, &blur(radius)),
            Call::Inter(a, b) => engine.run_inter(a, b, &AbsDiff::luma()),
        }
    }
}

/// What the stepped reference leaves behind after one call.
#[derive(Debug)]
pub struct Reference {
    /// The report the engine must produce: analytic schedule and access
    /// model, the reference's processing statistics and ZBT traffic.
    pub report: EngineReport,
    /// Per-bank ZBT traffic, result unload included (as the engine
    /// records it).
    pub banks: Vec<BankStats>,
    /// The produced frame.
    pub output: Frame,
}

/// Runs `call` through the cycle-stepped reference with `probe`
/// attached.
///
/// # Errors
///
/// The reference's own verdict: `PipelineHazard` for deadlocking
/// configurations.
pub fn reference(
    config: &EngineConfig,
    call: Call<'_>,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<Reference> {
    let mut zbt = ZbtMemory::new(config);
    let (dims, descriptor, timeline, stats) = match call {
        Call::Intra(frame, radius) => {
            let op = blur(radius);
            zbt.write_input_run(ZbtRegion::InputA, 0, frame.pixels())?;
            zbt.reset_stats();
            let dims = frame.dims();
            let stats = run_intra_detailed_probed(
                &mut zbt,
                dims,
                &op,
                BorderPolicy::Clamp,
                config,
                trace_limit,
                probe,
            )?;
            let descriptor =
                CallDescriptor::intra(op.shape(), op.input_channels(), op.output_channels());
            (
                dims,
                descriptor,
                intra_timeline(dims, op.shape().radius(), config),
                stats,
            )
        }
        Call::Inter(a, b) => {
            let op = AbsDiff::luma();
            zbt.write_input_run(ZbtRegion::InputA, 0, a.pixels())?;
            zbt.write_input_run(ZbtRegion::InputB, 0, b.pixels())?;
            zbt.reset_stats();
            let dims = a.dims();
            let stats = run_inter_detailed_probed(&mut zbt, dims, &op, config, trace_limit, probe)?;
            let descriptor = CallDescriptor::inter(op.input_channels(), op.output_channels());
            (dims, descriptor, inter_timeline(dims, config), stats)
        }
    };
    let hardware_accesses = zbt.pixel_access_cycles();
    let total = dims.pixel_count();
    let output = Frame::from_pixels(dims, zbt.read_result_run(0, total, total)?)?;
    Ok(Reference {
        report: EngineReport {
            descriptor,
            timeline,
            access_model: AccessModel::for_call(&descriptor, dims),
            hardware_accesses,
            processing: Some(stats),
        },
        banks: zbt.stats().to_vec(),
        output,
    })
}
