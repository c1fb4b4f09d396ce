//! The call schedule on the observability bus, laid out straight from the
//! call's [`CallTimeline`]: its seven milestones as instants on the engine
//! track, and its transfers as spans on the PCI and DMA tracks.
//!
//! §3.1: the input image *"is divided into parts which are written to
//! alternate ZBT blocks"*, so processing starts before the transfer
//! completes; outbound, *"the bank switching is performed only once"*,
//! so the result leaves in two halves.
//!
//! # Examples
//!
//! ```
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::ops::filter::SobelGradient;
//! use vip_core::pixel::Pixel;
//! use vip_engine::{AddressEngine, EngineConfig, Phase, Session, Track};
//!
//! # fn main() -> Result<(), vip_engine::error::EngineError> {
//! let mut engine = AddressEngine::new(EngineConfig::prototype())?;
//! let session = Session::new();
//! engine.set_recorder(session.recorder());
//! let frame = Frame::filled(Dims::new(64, 48), Pixel::from_luma(40));
//! engine.run_intra(&frame, &SobelGradient::new())?;
//! let recording = session.finish();
//! let instants: Vec<_> = recording
//!     .on_track(Track::Engine)
//!     .into_iter()
//!     .filter(|r| r.phase == Phase::Instant)
//!     .collect();
//! assert_eq!(instants.len(), 7);
//! assert!(instants.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
//! # Ok(())
//! # }
//! ```

use vip_core::accounting::AddressingMode;
use vip_core::geometry::Dims;
use vip_core::scan::{strips, ScanOrder};
use vip_obs::{Recorder, Track};

use crate::config::{EngineConfig, InterOverlap};
use crate::timing::{pci_seconds_per_pixel, seconds_to_ns, CallTimeline};

/// The call's seven milestones as (seconds from call issue, name), in
/// time order; simultaneous instants keep the order listed here (so
/// `output_dma_started` precedes `processing_completed` whenever the
/// outbound DMA starts before the drain ends).
fn schedule_instants(timeline: &CallTimeline) -> [(f64, &'static str); 7] {
    let irq = timeline.interrupt_overhead / 2.0;
    let mut instants = [
        (0.0, "call_issued"),
        (irq, "input_dma_started"),
        (timeline.input_end, "input_dma_completed"),
        (timeline.drain_end, "processing_completed"),
        (timeline.output_start, "output_dma_started"),
        (timeline.total - irq, "output_dma_completed"),
        (timeline.total, "call_completed"),
    ];
    instants.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(core::cmp::Ordering::Equal));
    instants
}

/// Publishes the call's milestones as instants on the engine track,
/// `t0_ns` being the call-issue time on the session's virtual clock.
pub(crate) fn emit_schedule_instants(recorder: &Recorder, t0_ns: u64, timeline: &CallTimeline) {
    for (at, name) in schedule_instants(timeline) {
        recorder.instant(Track::Engine, name, t0_ns + seconds_to_ns(at), &[]);
    }
}

/// Publishes the transfers of a call over `dims` frames: one `strip_in`
/// span per input strip and one `result_out` span per result half on the
/// PCI track, and the enclosing `input_dma`/`output_dma` phases on the DMA
/// track. Strips tile `[irq, input_end]` in bus order at the bus's
/// per-pixel rate (image 0 then image 1 for sequential inter, strip pairs
/// for interleaved), landing in alternating blocks A/B; the two halves
/// tile `[output_start, total − irq]`.
pub(crate) fn emit_transfer_spans(
    recorder: &Recorder,
    t0_ns: u64,
    timeline: &CallTimeline,
    dims: Dims,
    config: &EngineConfig,
) {
    let layout = strips(dims, ScanOrder::RowMajor, config.strip_lines);
    let bus_order: Vec<_> = match (timeline.mode, config.inter_overlap) {
        (AddressingMode::Inter, InterOverlap::Sequential) => (0..2usize)
            .flat_map(|image| layout.iter().map(move |s| (image, s)))
            .collect(),
        (AddressingMode::Inter, InterOverlap::Interleaved) => {
            layout.iter().flat_map(|s| [(0, s), (1, s)]).collect()
        }
        _ => layout.iter().map(|s| (0, s)).collect(),
    };
    let irq = timeline.interrupt_overhead / 2.0;
    let per_pixel = pci_seconds_per_pixel(config);
    let ns = |seconds: f64| t0_ns + seconds_to_ns(seconds);

    let (mut landed, mut start) = (0, irq);
    for &(image, s) in &bus_order {
        landed += s.pixel_count(dims);
        let end = irq + landed as f64 * per_pixel;
        let block = if s.index.is_multiple_of(2) { "A" } else { "B" };
        recorder.span(
            Track::Pci,
            "strip_in",
            ns(start),
            ns(end),
            &[
                ("strip", s.index.into()),
                ("image", image.into()),
                ("block", block.into()),
                ("bytes", s.bytes(dims).into()),
            ],
        );
        start = end;
    }
    recorder.span(
        Track::Dma,
        "input_dma",
        ns(irq),
        ns(timeline.input_end),
        &[("strips", bus_order.len().into())],
    );

    let half = dims.pixel_count().div_ceil(2);
    let switch = timeline.output_start + half as f64 * per_pixel;
    let output_end = timeline.total - irq;
    for (i, (from, to, pixels)) in [
        (timeline.output_start, switch, half),
        (switch, output_end, dims.pixel_count() - half),
    ]
    .into_iter()
    .enumerate()
    {
        recorder.span(
            Track::Pci,
            "result_out",
            ns(from),
            ns(to),
            &[("half", i.into()), ("bytes", (pixels * 8).into())],
        );
    }
    recorder.span(
        Track::Dma,
        "output_dma",
        ns(timeline.output_start),
        ns(output_end),
        &[],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{inter_timeline, intra_timeline};
    use vip_core::geometry::ImageFormat;
    use vip_obs::{AttrValue, TraceRecord};

    const CIF: Dims = Dims::new(352, 288);

    fn cfg() -> EngineConfig {
        EngineConfig::prototype()
    }

    /// The transfer spans of one call over `dims` frames issued at 0:
    /// intra when `inter` is false.
    fn transfers(dims: Dims, inter: bool, config: &EngineConfig) -> Vec<TraceRecord> {
        let timeline = if inter {
            inter_timeline(dims, config)
        } else {
            intra_timeline(dims, 1, config)
        };
        let session = vip_obs::Session::new();
        emit_transfer_spans(&session.recorder(), 0, &timeline, dims, config);
        session.finish().events
    }

    fn named<'a>(events: &'a [TraceRecord], name: &str) -> Vec<&'a TraceRecord> {
        events.iter().filter(|e| e.name == name).collect()
    }

    fn arg(event: &TraceRecord, key: &str) -> AttrValue {
        event
            .args
            .iter()
            .find(|(k, _)| *k == key)
            .expect("arg present")
            .1
            .clone()
    }

    fn bytes(events: &[&TraceRecord]) -> u64 {
        events
            .iter()
            .map(|e| match arg(e, "bytes") {
                AttrValue::U64(b) => b,
                other => panic!("bytes {other:?}"),
            })
            .sum()
    }

    #[test]
    fn events_are_time_ordered() {
        for t in [
            intra_timeline(Dims::new(352, 288), 1, &cfg()),
            inter_timeline(Dims::new(352, 288), &cfg()),
        ] {
            let events = schedule_instants(&t);
            assert!(events.windows(2).all(|w| w[0].0 <= w[1].0), "{events:?}");
            assert_eq!(events[0].1, "call_issued");
            assert_eq!(events[6].1, "call_completed");
        }
    }

    #[test]
    fn bracketing_events_match_timeline() {
        let t = intra_timeline(Dims::new(352, 288), 1, &cfg());
        let events = schedule_instants(&t);
        let at = |name: &str| events.iter().find(|e| e.1 == name).unwrap().0;
        assert_eq!(at("call_completed"), t.total);
        assert_eq!(at("input_dma_completed"), t.input_end);
        assert_eq!(at("output_dma_started"), t.output_start);
        assert!(at("input_dma_started") <= at("input_dma_completed"));
    }

    #[test]
    fn kind_names_are_stable_and_distinct() {
        let t = inter_timeline(Dims::new(64, 64), &cfg());
        let names: std::collections::BTreeSet<&str> =
            schedule_instants(&t).iter().map(|e| e.1).collect();
        assert_eq!(names.len(), 7);
        assert!(names.iter().all(|n| !n.contains(' ')));
    }

    #[test]
    fn emit_places_all_events_on_engine_track() {
        let t = intra_timeline(Dims::new(64, 64), 1, &cfg());
        let session = vip_obs::Session::new();
        emit_schedule_instants(&session.recorder(), 1_000, &t);
        let recording = session.finish();
        assert_eq!(recording.len(), 7);
        assert!(recording.events.iter().all(|e| e.track == Track::Engine));
        assert_eq!(recording.events[0].ts_ns, 1_000);
        // Disabled recorder: no-op.
        emit_schedule_instants(&Recorder::disabled(), 0, &t);
    }

    #[test]
    fn intra_schedule_has_all_strips_alternating() {
        let events = transfers(CIF, false, &cfg());
        let strips = named(&events, "strip_in");
        assert_eq!(strips.len(), 18);
        for (i, s) in strips.iter().enumerate() {
            assert_eq!(arg(s, "strip"), AttrValue::U64(i as u64));
            assert_eq!(arg(s, "image"), AttrValue::U64(0));
            let block = if i.is_multiple_of(2) { "A" } else { "B" };
            assert_eq!(arg(s, "block"), AttrValue::Str(block), "strip {i}");
        }
        // Strips are contiguous on the bus.
        assert!(strips.windows(2).all(|w| w[1].ts_ns == w[0].end_ns()));
        // Input payload: 18 strips × 45 056 B = one CIF image.
        assert_eq!(bytes(&strips), ImageFormat::Cif.bytes() as u64);
    }

    #[test]
    fn output_is_two_halves_with_one_switch() {
        let events = transfers(CIF, false, &cfg());
        let halves = named(&events, "result_out");
        assert_eq!(halves.len(), 2);
        assert_eq!(
            halves[1].ts_ns,
            halves[0].end_ns(),
            "Res_block_B follows immediately"
        );
        assert_eq!(bytes(&halves), ImageFormat::Cif.bytes() as u64);
        // An odd pixel count puts the extra pixel in the first half.
        let halves_of = |dims| bytes(&named(&transfers(dims, false, &cfg()), "result_out")[..1]);
        assert_eq!(halves_of(Dims::new(3, 3)), 5 * 8);
    }

    #[test]
    fn sequential_inter_gates_output_past_bus_free() {
        let events = transfers(CIF, true, &cfg());
        let strips = named(&events, "strip_in");
        assert_eq!(strips.len(), 36);
        // Image 0 crosses the bus before image 1.
        assert!(strips[..18]
            .iter()
            .all(|s| arg(s, "image") == AttrValue::U64(0)));
        assert!(strips[18..]
            .iter()
            .all(|s| arg(s, "image") == AttrValue::U64(1)));
        assert!(
            named(&events, "output_dma")[0].ts_ns > named(&events, "input_dma")[0].end_ns(),
            "the drain gate must delay the outbound DMA (the 12.5 % overhead)"
        );
    }

    #[test]
    fn interleaved_inter_starts_output_at_bus_free() {
        let mut c = cfg();
        c.inter_overlap = InterOverlap::Interleaved;
        let events = transfers(CIF, true, &c);
        let strips = named(&events, "strip_in");
        // Strip pairs alternate images: (0, img0), (0, img1), (1, img0)…
        assert_eq!(arg(strips[0], "image"), AttrValue::U64(0));
        assert_eq!(arg(strips[1], "image"), AttrValue::U64(1));
        assert_eq!(arg(strips[1], "strip"), AttrValue::U64(0));
        assert_eq!(arg(strips[2], "strip"), AttrValue::U64(1));
        assert_eq!(
            named(&events, "output_dma")[0].ts_ns,
            named(&events, "input_dma")[0].end_ns(),
            "no gate: processing tracked the input"
        );
    }

    #[test]
    fn interrupt_overhead_shifts_schedule() {
        let mut c = cfg();
        c.interrupt_overhead_cycles = 5_000;
        let events = transfers(CIF, false, &c);
        let irq_ns = seconds_to_ns(5_000.0 / c.pci_clock.hz);
        assert_eq!(named(&events, "strip_in")[0].ts_ns, irq_ns);
        assert_eq!(named(&events, "input_dma")[0].ts_ns, irq_ns);
        // The closing interrupt follows the last result word.
        let timeline = intra_timeline(CIF, 1, &c);
        let irq = timeline.interrupt_overhead / 2.0;
        let last = named(&events, "result_out")[1].end_ns();
        assert_eq!(last, seconds_to_ns(timeline.total - irq));
    }

    #[test]
    fn interrupt_overhead_delays_first_transfer() {
        // The opening interrupt (2 000 PCI cycles) holds the bus: nothing
        // crosses it before the interrupt ends, and the first strip starts
        // exactly then.
        let c = cfg();
        let irq_ns = seconds_to_ns(2_000.0 / c.pci_clock.hz);
        for inter in [false, true] {
            let events = transfers(CIF, inter, &c);
            let first = events
                .iter()
                .filter(|e| e.track == Track::Pci)
                .map(|e| e.ts_ns)
                .min();
            assert_eq!(first, Some(irq_ns), "inter={inter}");
        }
    }

    #[test]
    fn emitted_spans_cover_the_schedule() {
        let c = cfg();
        let events = transfers(CIF, false, &c);
        // 18 strips + 2 result halves on PCI; input + output phase on DMA.
        assert_eq!(events.iter().filter(|e| e.track == Track::Pci).count(), 20);
        assert_eq!(events.iter().filter(|e| e.track == Track::Dma).count(), 2);
        let end_ns = seconds_to_ns(intra_timeline(CIF, 1, &c).total);
        assert!(events.iter().all(|e| e.end_ns() <= end_ns));
        // Disabled recorder records nothing (and must not panic).
        let timeline = intra_timeline(CIF, 1, &c);
        emit_transfer_spans(&Recorder::disabled(), 0, &timeline, CIF, &c);
    }

    #[test]
    fn qcif_schedule_scales() {
        let events = transfers(ImageFormat::Qcif.dims(), false, &cfg());
        let strips = named(&events, "strip_in");
        assert_eq!(strips.len(), 9); // 144 / 16
        assert_eq!(bytes(&strips), ImageFormat::Qcif.bytes() as u64);
    }
}
