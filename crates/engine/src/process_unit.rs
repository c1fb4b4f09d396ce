//! The Process Unit: the cycle-stepped 4-stage datapath (fig. 6).
//!
//! §3.5: stage 1 scans the image, stage 2 fills the matrix register from
//! the IIM (LOAD/SHIFT), stage 3 executes the pixel operation, stage 4
//! stores the result into the OIM. A transmission unit concurrently moves
//! lines ZBT → IIM, and the OIM drains to the ZBT result banks at half
//! the production rate (§3.1).
//!
//! [`run_intra_detailed`] and [`run_inter_detailed`] simulate one call
//! cycle by cycle. They are the reference semantics: the engine runs the
//! event-driven [`crate::fast`] datapath, which the tests hold
//! bit-identical to these loops, and the analytic model in
//! [`crate::timing`] is validated against them.

use vip_core::border::BorderPolicy;
use vip_core::geometry::{Dims, Point};
use vip_core::neighborhood::{Connectivity, Window};
use vip_core::ops::{InterOp, IntraOp};
use vip_core::pixel::Pixel;
use vip_core::scan::ScanOrder;
use vip_obs::{Recorder, Track};

use crate::config::EngineConfig;
use crate::error::EngineResult;
use crate::iim::Iim;
use crate::matrix::MatrixRegister;
use crate::oim::Oim;
use crate::plc::{Arbiter, ControlFsm, FetchKind, StageSnapshot, StartPipeline};
use crate::zbt::{ZbtMemory, ZbtRegion};

/// Statistics of one detailed (cycle-stepped) processing phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessingStats {
    /// Engine cycles from processing start until the last result pixel
    /// reached the ZBT.
    pub cycles: u64,
    /// Pixels produced.
    pub pixels: u64,
    /// Cycles the pipeline stalled on a missing IIM line.
    pub iim_stalls: u64,
    /// Cycles the pipeline stalled on a full OIM.
    pub oim_stalls: u64,
    /// Cycles every stage slot sat empty with nothing left to issue —
    /// the drain tail where only the OIM → ZBT port is still working.
    pub idle_cycles: u64,
    /// Matrix-register LOAD instructions.
    pub matrix_loads: u64,
    /// Matrix-register SHIFT instructions.
    pub matrix_shifts: u64,
    /// Largest OIM occupancy observed.
    pub oim_max_occupancy: usize,
    /// First cycles of the stage-occupancy trace (for the fig. 5 print).
    pub trace: Vec<StageSnapshot>,
}

impl ProcessingStats {
    /// Effective engine cycles per produced pixel.
    #[must_use]
    pub fn cycles_per_pixel(&self) -> f64 {
        if self.pixels == 0 {
            return 0.0;
        }
        self.cycles as f64 / self.pixels as f64
    }

    /// Cycles the pipeline actually advanced work. Stall, idle and busy
    /// cycles are mutually exclusive per-cycle classifications, so this
    /// complements the three counters exactly; the subtraction only
    /// saturates on hand-built inconsistent stats.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.cycles
            .saturating_sub(self.iim_stalls + self.oim_stalls + self.idle_cycles)
    }
}

/// Observability probe for the detailed datapath and its cycle-stepped
/// reference: maps engine cycles onto the session's virtual clock and
/// publishes spans for line fills, pipeline bubbles, line sweeps, and OIM
/// occupancy.
#[derive(Debug, Clone, Default)]
pub struct PuProbe {
    /// Where the spans go; disabled by default.
    pub recorder: Recorder,
    /// Virtual-clock time of processing-phase cycle 0, in nanoseconds.
    pub t0_ns: u64,
    /// Nanoseconds per engine cycle (`1e9 / engine_clock.hz`).
    pub ns_per_cycle: f64,
}

/// Shortest stall run worth a span of its own. The OIM drains at two
/// cycles per pixel, so a steady-state CIF call alternates produce /
/// stall every other cycle — tens of thousands of one-cycle bubbles
/// that would swamp the trace. Short runs still reach the aggregate
/// stall counters; only runs of at least this length become spans.
const MIN_STALL_RUN: u64 = 8;

impl PuProbe {
    /// A probe publishing nothing (the default).
    #[must_use]
    pub fn disabled() -> Self {
        PuProbe::default()
    }

    /// A probe attached to `recorder` with the given timebase.
    #[must_use]
    pub fn new(recorder: Recorder, t0_ns: u64, ns_per_cycle: f64) -> Self {
        PuProbe {
            recorder,
            t0_ns,
            ns_per_cycle,
        }
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Virtual-clock nanoseconds of engine cycle `cycle`.
    pub(crate) fn ts(&self, cycle: u64) -> u64 {
        self.t0_ns + (cycle as f64 * self.ns_per_cycle).round() as u64
    }
}

/// Coalesces per-cycle stall flags into runs, emitting one span per run
/// of at least [`MIN_STALL_RUN`] cycles.
pub(crate) struct StallRuns<'a> {
    probe: &'a PuProbe,
    kind: Option<&'static str>,
    start_cycle: u64,
}

impl<'a> StallRuns<'a> {
    pub(crate) fn new(probe: &'a PuProbe) -> Self {
        StallRuns {
            probe,
            kind: None,
            start_cycle: 0,
        }
    }

    /// Feeds the stall state of one cycle (`None` = pipeline advanced).
    pub(crate) fn step(&mut self, cycle: u64, stalled: Option<&'static str>) {
        if self.kind == stalled {
            return;
        }
        self.flush(cycle);
        if stalled.is_some() {
            self.kind = stalled;
            self.start_cycle = cycle;
        }
    }

    /// Closes any open run at `cycle` (exclusive).
    pub(crate) fn flush(&mut self, cycle: u64) {
        if let Some(kind) = self.kind.take() {
            if cycle.saturating_sub(self.start_cycle) >= MIN_STALL_RUN {
                self.probe.recorder.span(
                    Track::Pu,
                    kind,
                    self.probe.ts(self.start_cycle),
                    self.probe.ts(cycle),
                    &[("cycles", (cycle - self.start_cycle).into())],
                );
            }
        }
    }
}

/// Runs the processing phase of an intra call cycle by cycle.
///
/// The input frame must already reside in the `region` input banks of
/// `zbt` (the DMA phase is modelled by [`crate::engine::AddressEngine`]).
/// Results land in the ZBT result banks.
///
/// # Errors
///
/// Propagates ZBT addressing errors; none occur for frames that passed
/// [`ZbtMemory::fits`].
pub fn run_intra_detailed<O: IntraOp>(
    zbt: &mut ZbtMemory,
    dims: Dims,
    op: &O,
    border: BorderPolicy,
    config: &EngineConfig,
    trace_limit: usize,
) -> EngineResult<ProcessingStats> {
    run_intra_detailed_probed(zbt, dims, op, border, config, trace_limit, &PuProbe::disabled())
}

/// [`run_intra_detailed`] with an observability probe: emits IIM
/// line-fill spans, per-line sweep spans, coalesced pipeline-bubble
/// spans, OIM occupancy samples, and one enclosing processing span.
///
/// # Errors
///
/// Propagates ZBT addressing errors; none occur for frames that passed
/// [`ZbtMemory::fits`].
pub fn run_intra_detailed_probed<O: IntraOp>(
    zbt: &mut ZbtMemory,
    dims: Dims,
    op: &O,
    border: BorderPolicy,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    let total = dims.pixel_count();
    let radius = op.shape().radius();
    let square = square_shape(op.shape());
    let mut iim = Iim::new(config.iim_lines, dims.width);
    let mut oim = Oim::new(config.oim_lines, dims.width);
    let mut matrix = MatrixRegister::new(square);
    let mut pipeline = StartPipeline::new();
    let mut arbiter = Arbiter::new();
    let mut fsm = ControlFsm::new(dims, ScanOrder::RowMajor);
    let mut stats = ProcessingStats::default();

    // Transmission-unit state: next line to load and position within it.
    let mut txu_line = 0usize;
    let mut txu_x = 0usize;
    let mut txu_buf: Vec<Pixel> = Vec::with_capacity(dims.width);

    // In-flight pipeline data.
    let mut scan_slot: Option<(Point, FetchKind, usize)> = None;
    let mut fetch_slot: Option<(Point, Window, usize)> = None;
    let mut exec_slot: Option<(usize, Pixel)> = None;

    let mut drained = 0usize;
    let mut drain_timer = 0u64;
    let mut cycles = 0u64;
    // Generous safety bound: every pixel may stall a few times.
    let bound = (total as u64 + 64) * (config.oim_drain_cycles_per_pixel + 6)
        + (dims.height as u64 + 4) * dims.width as u64;

    // Observability state: line-fill start, current sweep line, stall runs.
    let mut stall_runs = StallRuns::new(probe);
    let mut fill_start: Option<u64> = None;
    let mut sweep: Option<(i32, u64)> = None;
    let occupancy_every = dims.width.max(1) as u64;

    while drained < total {
        cycles += 1;
        if cycles > bound {
            return Err(crate::error::EngineError::PipelineHazard {
                detail: "cycle-stepped intra simulation exceeded its cycle bound",
            });
        }
        arbiter.next_cycle();
        let mut stalled: Option<&'static str> = None;

        // Idle classification (slot state at cycle start, mirrored by
        // `fast.rs`): nothing in flight and nothing left to issue.
        if exec_slot.is_none() && fetch_slot.is_none() && scan_slot.is_none() && fsm.len() == 0 {
            stats.idle_cycles += 1;
        }

        // --- OIM → ZBT drain (result port, independent of input banks).
        drain_timer += 1;
        if drain_timer >= config.oim_drain_cycles_per_pixel {
            if let Some((idx, px)) = oim.pop() {
                zbt.write_result_pixel(idx, total, px)?;
                drained += 1;
                drain_timer = 0;
            }
        }

        // --- Transmission unit: one pixel per cycle ZBT → IIM line buffer.
        if txu_line < dims.height {
            // Gate: never evict a line the sweep still needs — track the
            // oldest in-flight pixel (a fetch may lag the issue counter).
            let inflight_line = fetch_slot
                .as_ref()
                .map(|f| f.0.y as usize)
                .or_else(|| scan_slot.as_ref().map(|s| s.0.y as usize))
                .unwrap_or_else(|| fsm.issued() / dims.width.max(1));
            let needed_oldest = inflight_line.saturating_sub(radius);
            if iim.can_accept(needed_oldest) {
                let idx = txu_line * dims.width + txu_x;
                let px = zbt.read_input_pixel(ZbtRegion::InputA, idx)?;
                if probe.is_enabled() && txu_x == 0 {
                    fill_start = Some(cycles);
                }
                txu_buf.push(px);
                txu_x += 1;
                if txu_x == dims.width {
                    iim.load_line(txu_line, &txu_buf);
                    if let Some(start) = fill_start.take() {
                        probe.recorder.span(
                            Track::Iim,
                            "line_fill",
                            probe.ts(start),
                            probe.ts(cycles),
                            &[("line", (txu_line as u64).into())],
                        );
                    }
                    txu_buf.clear();
                    txu_line += 1;
                    txu_x = 0;
                }
            }
        }

        // --- Stage 4: store into OIM.
        let mut advance = true;
        if let Some((idx, px)) = exec_slot {
            if oim.push(idx, px) {
                exec_slot = None;
            } else {
                stats.oim_stalls += 1;
                stalled = Some("oim_stall");
                advance = false;
            }
        }

        // --- Stage 3: execute (always single-cycle once data present).
        // --- Stage 2: fetch window from the IIM.
        if advance {
            if let (Some((point, window, idx)), None) = (&fetch_slot, &exec_slot) {
                let shaped = Window::from_samples(*point, op.shape(), window.iter());
                let result = op.apply(&shaped);
                let mut out = window
                    .sample(Point::ORIGIN)
                    .unwrap_or_default();
                out.merge_channels(result, op.output_channels());
                exec_slot = Some((*idx, out));
                fetch_slot = None;
            }
        }
        if advance {
            if let (Some((point, fetch, idx)), None) = (scan_slot, &fetch_slot) {
                match iim.fetch_window(point, square, dims, border) {
                    Some(samples) => {
                        drive_matrix(&mut matrix, fetch, &samples, square);
                        stats.matrix_loads = matrix.loads();
                        stats.matrix_shifts = matrix.shifts();
                        fetch_slot =
                            Some((point, Window::from_samples(point, square, samples), idx));
                        scan_slot = None;
                    }
                    None => {
                        stats.iim_stalls += 1;
                        stalled = Some("iim_stall");
                        advance = false;
                    }
                }
            }
        }

        // --- Stage 1: scan — issue the next pixel position.
        if scan_slot.is_none() {
            if let Some((point, bundle)) = fsm.next() {
                if probe.is_enabled() {
                    match sweep {
                        Some((line, start)) if line != point.y => {
                            emit_sweep(probe, line, start, cycles);
                            sweep = Some((point.y, cycles));
                        }
                        None => sweep = Some((point.y, cycles)),
                        Some(_) => {}
                    }
                }
                scan_slot = Some((point, bundle.fetch, bundle.pixel_index));
            }
        }

        // --- Start-pipeline bookkeeping (occupancy trace, fig. 5).
        track_pipeline(
            &mut pipeline,
            &mut arbiter,
            advance,
            scan_slot.as_ref().map(|s| s.2),
        );
        if stats.trace.len() < trace_limit {
            stats.trace.push(snapshot_of(
                scan_slot.as_ref().map(|s| s.2),
                fetch_slot.as_ref().map(|s| s.2),
                exec_slot.as_ref().map(|s| s.0),
            ));
        }

        if probe.is_enabled() {
            stall_runs.step(cycles, stalled);
            if cycles.is_multiple_of(occupancy_every) {
                probe
                    .recorder
                    .counter(Track::Oim, "occupancy", probe.ts(cycles), oim.occupancy() as f64);
            }
        }
    }

    if probe.is_enabled() {
        stall_runs.flush(cycles);
        if let Some((line, start)) = sweep {
            emit_sweep(probe, line, start, cycles);
        }
        emit_processing_span(probe, cycles, &stats, total);
    }

    stats.cycles = cycles;
    stats.pixels = total as u64;
    stats.oim_max_occupancy = oim.max_occupancy();
    Ok(stats)
}

/// Closes one PLC line-sweep span.
pub(crate) fn emit_sweep(probe: &PuProbe, line: i32, start_cycle: u64, end_cycle: u64) {
    probe.recorder.span(
        Track::Plc,
        "line_sweep",
        probe.ts(start_cycle),
        probe.ts(end_cycle),
        &[("line", i64::from(line).into())],
    );
}

/// Emits the span covering the whole cycle-stepped processing phase.
pub(crate) fn emit_processing_span(probe: &PuProbe, cycles: u64, stats: &ProcessingStats, pixels: usize) {
    probe.recorder.span(
        Track::Pu,
        "processing",
        probe.ts(0),
        probe.ts(cycles),
        &[
            ("cycles", cycles.into()),
            ("pixels", (pixels as u64).into()),
            ("iim_stalls", stats.iim_stalls.into()),
            ("oim_stalls", stats.oim_stalls.into()),
        ],
    );
}

/// Runs the processing phase of an inter call cycle by cycle: stage 2
/// reads the pixel pair from both input regions in a single parallel-bank
/// cycle (no IIM windows needed).
///
/// # Errors
///
/// Propagates ZBT addressing errors.
pub fn run_inter_detailed<O: InterOp>(
    zbt: &mut ZbtMemory,
    dims: Dims,
    op: &O,
    config: &EngineConfig,
    trace_limit: usize,
) -> EngineResult<ProcessingStats> {
    run_inter_detailed_probed(zbt, dims, op, config, trace_limit, &PuProbe::disabled())
}

/// [`run_inter_detailed`] with an observability probe: emits coalesced
/// pipeline-bubble spans, OIM occupancy samples, and one enclosing
/// processing span (inter mode bypasses the IIM, so no line fills).
///
/// # Errors
///
/// Propagates ZBT addressing errors.
pub fn run_inter_detailed_probed<O: InterOp>(
    zbt: &mut ZbtMemory,
    dims: Dims,
    op: &O,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    let total = dims.pixel_count();
    let mut oim = Oim::new(config.oim_lines, dims.width);
    let mut stats = ProcessingStats::default();

    let mut fetch_slot: Option<(usize, Pixel, Pixel)> = None;
    let mut exec_slot: Option<(usize, Pixel)> = None;
    let mut next_pixel = 0usize;
    let mut drained = 0usize;
    let mut drain_timer = 0u64;
    let mut cycles = 0u64;
    let bound = (total as u64 + 64) * (config.oim_drain_cycles_per_pixel + 6);

    let mut stall_runs = StallRuns::new(probe);
    let occupancy_every = dims.width.max(1) as u64;

    while drained < total {
        cycles += 1;
        if cycles > bound {
            return Err(crate::error::EngineError::PipelineHazard {
                detail: "cycle-stepped inter simulation exceeded its cycle bound",
            });
        }
        let mut stalled: Option<&'static str> = None;

        // Idle classification (slot state at cycle start, mirrored by
        // `fast.rs`): the sweep is exhausted and both slots are empty.
        if exec_slot.is_none() && fetch_slot.is_none() && next_pixel >= total {
            stats.idle_cycles += 1;
        }

        drain_timer += 1;
        if drain_timer >= config.oim_drain_cycles_per_pixel {
            if let Some((idx, px)) = oim.pop() {
                zbt.write_result_pixel(idx, total, px)?;
                drained += 1;
                drain_timer = 0;
            }
        }

        let mut advance = true;
        if let Some((idx, px)) = exec_slot {
            if oim.push(idx, px) {
                exec_slot = None;
            } else {
                stats.oim_stalls += 1;
                stalled = Some("oim_stall");
                advance = false;
            }
        }
        if advance {
            if let (Some((idx, a, b)), None) = (fetch_slot, &exec_slot) {
                let result = op.apply(a, b);
                let mut out = a;
                out.merge_channels(result, op.output_channels());
                exec_slot = Some((idx, out));
                fetch_slot = None;
            }
            if fetch_slot.is_none() && next_pixel < total {
                let (a, b) = zbt.read_input_pair(next_pixel)?;
                fetch_slot = Some((next_pixel, a, b));
                next_pixel += 1;
            }
        }

        if stats.trace.len() < trace_limit {
            stats.trace.push(snapshot_of(
                (next_pixel < total).then_some(next_pixel),
                fetch_slot.as_ref().map(|s| s.0),
                exec_slot.as_ref().map(|s| s.0),
            ));
        }

        if probe.is_enabled() {
            stall_runs.step(cycles, stalled);
            if cycles.is_multiple_of(occupancy_every) {
                probe
                    .recorder
                    .counter(Track::Oim, "occupancy", probe.ts(cycles), oim.occupancy() as f64);
            }
        }
    }

    if probe.is_enabled() {
        stall_runs.flush(cycles);
        emit_processing_span(probe, cycles, &stats, total);
    }

    stats.cycles = cycles;
    stats.pixels = total as u64;
    stats.oim_max_occupancy = oim.max_occupancy();
    Ok(stats)
}

/// The full-square shape backing the matrix register for any sub-shape.
pub(crate) fn square_shape(shape: Connectivity) -> Connectivity {
    match shape.radius() {
        0 => Connectivity::Con0,
        1 => Connectivity::Con8,
        r => Connectivity::Square(r as u8),
    }
}

fn drive_matrix(
    matrix: &mut MatrixRegister,
    fetch: FetchKind,
    samples: &[(Point, Pixel)],
    square: Connectivity,
) {
    let r = square.radius() as i32;
    let side = (2 * r + 1) as usize;
    // Full-square fetches arrive in row-major offset order, so the cell
    // for (dx, dy) normally sits at a fixed index; fall back to a scan
    // when border skipping thinned the sample list.
    let sample_at = |dx: i32, dy: i32| -> Pixel {
        let idx = (dy + r) as usize * side + (dx + r) as usize;
        match samples.get(idx) {
            Some((o, p)) if o.x == dx && o.y == dy => *p,
            _ => samples
                .iter()
                .find(|(o, _)| o.x == dx && o.y == dy)
                .map(|(_, p)| *p)
                .unwrap_or_default(),
        }
    };
    match fetch {
        FetchKind::Load => {
            matrix.load_with(|col, row| sample_at(col as i32 - r, row as i32 - r));
        }
        FetchKind::Shift => {
            if matrix.is_valid() {
                matrix.shift_with(|row| sample_at(r, row as i32 - r));
            } else {
                matrix.load_with(|col, row| sample_at(col as i32 - r, row as i32 - r));
            }
        }
    }
}

fn track_pipeline(
    pipeline: &mut StartPipeline,
    arbiter: &mut Arbiter,
    advanced: bool,
    issuable: Option<usize>,
) {
    use crate::plc::{PixelBundle, Resource, Stage};
    if advanced {
        pipeline.advance();
        if pipeline.can_issue() {
            if let Some(idx) = issuable {
                pipeline.issue(PixelBundle::new(idx, FetchKind::Shift));
            }
        }
        for stage in Stage::ALL {
            if pipeline.at(stage).is_some() {
                // In-order pipeline: each stage locks its own resource.
                let _ = arbiter.try_lock(stage.resource());
            }
        }
        debug_assert!(
            Resource::ALL.iter().filter(|r| arbiter.is_locked(**r)).count() <= 4
        );
    } else {
        pipeline.stall();
    }
}

fn snapshot_of(scan: Option<usize>, fetch: Option<usize>, exec: Option<usize>) -> StageSnapshot {
    StageSnapshot {
        slots: [scan, fetch, exec, None],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::frame::Frame;
    use vip_core::ops::arith::AbsDiff;
    use vip_core::ops::filter::{BoxBlur, Identity, SobelGradient};

    fn load_input(zbt: &mut ZbtMemory, region: ZbtRegion, frame: &Frame) {
        for (i, px) in frame.pixels().iter().enumerate() {
            zbt.write_input_pixel(region, i, *px).unwrap();
        }
    }

    fn read_result(zbt: &mut ZbtMemory, dims: Dims) -> Frame {
        let total = dims.pixel_count();
        let pixels: Vec<Pixel> = (0..total)
            .map(|i| zbt.read_result_pixel(i, total).unwrap())
            .collect();
        Frame::from_pixels(dims, pixels).unwrap()
    }

    fn test_frame(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x * 7 + p.y * 13) % 251) as u8).with_alpha((p.x + p.y) as u16)
        })
    }

    #[test]
    fn intra_detailed_matches_software_boxblur() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(20, 12);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let stats =
            run_intra_detailed(&mut zbt, dims, &BoxBlur::con8(), BorderPolicy::Clamp, &cfg, 0)
                .unwrap();
        let hw = read_result(&mut zbt, dims);
        let sw = vip_core::addressing::intra::run_intra(&frame, &BoxBlur::con8())
            .unwrap()
            .output;
        assert_eq!(hw, sw, "hardware result must be bit-exact");
        assert_eq!(stats.pixels, 240);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn intra_detailed_matches_software_sobel() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(18, 10);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        run_intra_detailed(&mut zbt, dims, &SobelGradient::new(), BorderPolicy::Clamp, &cfg, 0)
            .unwrap();
        let hw = read_result(&mut zbt, dims);
        let sw = vip_core::addressing::intra::run_intra(&frame, &SobelGradient::new())
            .unwrap()
            .output;
        assert_eq!(hw, sw);
    }

    #[test]
    fn inter_detailed_matches_software() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(16, 8);
        let a = test_frame(dims);
        let b = Frame::from_fn(dims, |p| Pixel::from_luma((p.x * 3) as u8));
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &a);
        load_input(&mut zbt, ZbtRegion::InputB, &b);
        run_inter_detailed(&mut zbt, dims, &AbsDiff::luma(), &cfg, 0).unwrap();
        let hw = read_result(&mut zbt, dims);
        let sw = vip_core::addressing::inter::run_inter(&a, &b, &AbsDiff::luma())
            .unwrap()
            .output;
        assert_eq!(hw, sw);
    }

    #[test]
    fn zbt_pixel_accesses_match_table2_hardware_model() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(16, 16);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        zbt.reset_stats();
        run_intra_detailed(&mut zbt, dims, &BoxBlur::con8(), BorderPolicy::Clamp, &cfg, 0)
            .unwrap();
        // Exactly 2 pixel-access cycles per pixel: one TxU read, one
        // result write — the Table 2 hardware count.
        assert_eq!(zbt.pixel_access_cycles(), 2 * dims.pixel_count() as u64);
    }

    #[test]
    fn inter_zbt_accesses_also_two_per_pixel() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(8, 8);
        let a = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &a);
        load_input(&mut zbt, ZbtRegion::InputB, &a);
        zbt.reset_stats();
        run_inter_detailed(&mut zbt, dims, &AbsDiff::luma(), &cfg, 0).unwrap();
        assert_eq!(zbt.pixel_access_cycles(), 2 * 64);
    }

    #[test]
    fn drain_rate_governs_throughput() {
        // With drain = 2 cycles/pixel the steady state is ~2 cycles/pixel.
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(32, 16);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let stats =
            run_intra_detailed(&mut zbt, dims, &Identity::luma(), BorderPolicy::Clamp, &cfg, 0)
                .unwrap();
        let cpp = stats.cycles_per_pixel();
        assert!((2.0..2.6).contains(&cpp), "cycles/pixel = {cpp}");
    }

    #[test]
    fn matrix_instruction_mix() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(10, 6);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let stats =
            run_intra_detailed(&mut zbt, dims, &BoxBlur::con8(), BorderPolicy::Clamp, &cfg, 0)
                .unwrap();
        assert_eq!(stats.matrix_loads, 6, "one LOAD per line");
        assert_eq!(stats.matrix_shifts, (10 - 1) * 6);
    }

    #[test]
    fn trace_is_recorded_when_requested() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(6, 4);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let stats =
            run_intra_detailed(&mut zbt, dims, &BoxBlur::con8(), BorderPolicy::Clamp, &cfg, 30)
                .unwrap();
        assert_eq!(stats.trace.len(), 30);
        // The pipeline fills within a few cycles.
        assert!(stats.trace.iter().any(|s| s.occupancy() >= 2));
    }

    #[test]
    fn probe_emits_iim_plc_pu_and_oim_events() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(20, 12);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let session = vip_obs::Session::new();
        let ns_per_cycle = 1e9 / cfg.engine_clock.hz;
        let probe = PuProbe::new(session.recorder(), 5_000, ns_per_cycle);
        let stats = run_intra_detailed_probed(
            &mut zbt,
            dims,
            &BoxBlur::con8(),
            BorderPolicy::Clamp,
            &cfg,
            0,
            &probe,
        )
        .unwrap();
        let recording = session.finish();
        // One line_fill per image line, one line_sweep per swept line.
        assert_eq!(recording.on_track(Track::Iim).len(), dims.height);
        assert_eq!(recording.on_track(Track::Plc).len(), dims.height);
        let pu = recording.on_track(Track::Pu);
        assert!(
            pu.iter().any(|e| e.name == "processing"),
            "missing processing span"
        );
        assert!(!recording.on_track(Track::Oim).is_empty(), "no occupancy samples");
        // The processing span covers [t0, t0 + cycles × ns/cycle].
        let span = pu.iter().find(|e| e.name == "processing").unwrap();
        assert_eq!(span.ts_ns, 5_000);
        assert_eq!(
            span.end_ns(),
            5_000 + (stats.cycles as f64 * ns_per_cycle).round() as u64
        );
        // Short steady-state bubbles are coalesced away, never spanned.
        let stall_spans = pu.iter().filter(|e| e.name.ends_with("_stall")).count();
        assert!(
            stall_spans as u64 <= stats.oim_stalls + stats.iim_stalls,
            "more stall spans than stalls"
        );
    }

    #[test]
    fn probe_results_identical_to_unprobed() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(16, 10);
        let frame = test_frame(dims);

        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let plain =
            run_intra_detailed(&mut zbt, dims, &SobelGradient::new(), BorderPolicy::Clamp, &cfg, 0)
                .unwrap();
        let plain_out = read_result(&mut zbt, dims);

        let session = vip_obs::Session::new();
        let probe = PuProbe::new(session.recorder(), 0, 1.0);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let probed = run_intra_detailed_probed(
            &mut zbt,
            dims,
            &SobelGradient::new(),
            BorderPolicy::Clamp,
            &cfg,
            0,
            &probe,
        )
        .unwrap();
        assert_eq!(plain, probed, "probing must not change the simulation");
        assert_eq!(plain_out, read_result(&mut zbt, dims));
    }

    #[test]
    fn inter_probe_emits_processing_span() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(16, 8);
        let a = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &a);
        load_input(&mut zbt, ZbtRegion::InputB, &a);
        let session = vip_obs::Session::new();
        let probe = PuProbe::new(session.recorder(), 0, 2.0);
        run_inter_detailed_probed(&mut zbt, dims, &AbsDiff::luma(), &cfg, 0, &probe).unwrap();
        let recording = session.finish();
        assert!(recording
            .on_track(Track::Pu)
            .iter()
            .any(|e| e.name == "processing"));
        assert!(recording.on_track(Track::Iim).is_empty(), "inter bypasses the IIM");
    }

    #[test]
    fn tall_frame_exceeding_iim_capacity() {
        // More lines than the 16-line IIM: eviction gating must keep
        // results exact.
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(8, 40);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        run_intra_detailed(&mut zbt, dims, &BoxBlur::con8(), BorderPolicy::Clamp, &cfg, 0)
            .unwrap();
        let hw = read_result(&mut zbt, dims);
        let sw = vip_core::addressing::intra::run_intra(&frame, &BoxBlur::con8())
            .unwrap()
            .output;
        assert_eq!(hw, sw);
    }

    #[test]
    fn large_radius_window() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(12, 12);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let op = vip_core::ops::filter::BoxBlur::with_radius(3).unwrap();
        run_intra_detailed(&mut zbt, dims, &op, BorderPolicy::Clamp, &cfg, 0).unwrap();
        let hw = read_result(&mut zbt, dims);
        let sw = vip_core::addressing::intra::run_intra(&frame, &op).unwrap().output;
        assert_eq!(hw, sw);
    }
}
