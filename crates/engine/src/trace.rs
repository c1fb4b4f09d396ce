//! Schedule instants: the seven milestones of one engine call, emitted
//! straight from its [`CallTimeline`] as instants on the engine track of
//! the observability bus, next to the call span and the subsystem spans.
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

use vip_obs::{Recorder, Track};

use crate::timing::{seconds_to_ns, CallTimeline};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{inter_timeline, intra_timeline};
    use crate::EngineConfig;
    use vip_core::geometry::Dims;

    fn cfg() -> EngineConfig {
        EngineConfig::prototype()
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
}
