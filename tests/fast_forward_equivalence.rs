//! Differential tests: the detailed engine vs the cycle-stepped reference.
//!
//! `AddressEngine` runs every detailed call through the event-driven
//! datapath of `vip-engine::fast`, which claims to be a pure performance
//! optimisation of the cycle-stepped loops in `vip-engine::process_unit`.
//! On every configuration it must produce **bit-identical** results to
//! that reference: the output frame, the full
//! [`vip::engine::EngineReport`] (processing statistics including the
//! fig. 5 stage trace, hardware access count), the per-bank ZBT traffic,
//! the error verdict for configurations whose eviction gate deadlocks,
//! and — with a recorder attached — every line-fill, line-sweep,
//! stall-run, occupancy and processing event. The intra sweep runs
//! ~100 xorshift-seeded configurations in parallel through `vip-par`,
//! whose own determinism (identical output at 1 and N threads) is
//! asserted along the way.

mod reference;

use reference::{random_case, reference, second_frame, test_frame, Call};
use vip::core::geometry::Dims;
use vip::engine::process_unit::PuProbe;
use vip::engine::report::zbt_bank_key;
use vip::engine::timing::{inter_timeline, intra_timeline, processing_start, seconds_to_ns};
use vip::engine::{
    AddressEngine, EngineConfig, EngineError, InterOverlap, Recorder, Session, TraceRecord, Track,
};

/// Number of seeded random configurations in the intra sweep.
const CONFIGS: u64 = 100;

/// Runs `call` on a fresh engine and the stepped reference and asserts
/// the two are indistinguishable. Returns a compact verdict.
fn verdict(config: &EngineConfig, call: Call<'_>, trace_limit: usize, context: &str) -> String {
    let mut engine = AddressEngine::new(config.clone()).expect("valid config");
    engine.set_trace_limit(trace_limit);
    let run = call.run(&mut engine);
    match (
        run,
        reference(config, call, trace_limit, &PuProbe::disabled()),
    ) {
        (Ok(run), Ok(r)) => {
            assert_eq!(run.output, r.output, "{context}: output pixels diverge");
            assert_eq!(run.report, r.report, "{context}: reports diverge");
            for (bank, s) in r.banks.iter().enumerate() {
                assert_eq!(
                    engine.metrics().counter(zbt_bank_key(bank)),
                    s.total(),
                    "{context}: ZBT bank {bank} traffic diverges"
                );
            }
            let p = r.report.processing.as_ref().expect("detailed stats");
            format!(
                "ok cycles={} iim={} oim={} occ={} trace={}",
                p.cycles,
                p.iim_stalls,
                p.oim_stalls,
                p.oim_max_occupancy,
                p.trace.len()
            )
        }
        (Err(e @ EngineError::PipelineHazard { .. }), Err(r)) => {
            assert_eq!(
                e.to_string(),
                r.to_string(),
                "{context}: hazard verdicts diverge"
            );
            "deadlock".to_owned()
        }
        (e, r) => panic!(
            "{context}: verdicts diverge — engine {:?}, reference {:?}",
            e.map(|_| "ok").map_err(|e| e.to_string()),
            r.map(|_| "ok").map_err(|e| e.to_string()),
        ),
    }
}

/// One seed's intra verdict, compact enough to compare across thread
/// counts.
fn intra_verdict(seed: u64) -> String {
    let (config, dims, radius) = random_case(seed);
    let frame = test_frame(dims);
    verdict(
        &config,
        Call::Intra(&frame, radius),
        32,
        &format!("seed {seed} {dims:?} r{radius}"),
    )
}

#[test]
fn intra_fast_forward_is_bit_identical_across_seeded_configs() {
    let threads = vip::par::default_threads();
    let verdicts = vip::par::map_indexed(CONFIGS as usize, threads, |i| intra_verdict(i as u64));
    let clean = verdicts.iter().filter(|v| v.starts_with("ok")).count();
    let deadlocked = verdicts.iter().filter(|v| *v == "deadlock").count();
    // The sweep must exercise both verdicts to mean anything.
    assert!(
        clean >= 20,
        "only {clean} clean configurations out of {CONFIGS}"
    );
    assert!(
        deadlocked >= 10,
        "only {deadlocked} deadlocks out of {CONFIGS}"
    );

    // vip-par determinism: the same sweep serially, byte-identical.
    let serial = vip::par::map_indexed(CONFIGS as usize, 1, |i| intra_verdict(i as u64));
    assert_eq!(verdicts, serial, "parallel sweep diverges from serial");
}

#[test]
fn inter_fast_forward_is_bit_identical() {
    for seed in 0..24 {
        let (config, dims, _) = random_case(seed);
        let (a, b) = (test_frame(dims), second_frame(dims));
        let v = verdict(
            &config,
            Call::Inter(&a, &b),
            24,
            &format!("inter seed {seed} {dims:?}"),
        );
        assert!(v.starts_with("ok"), "inter seed {seed}: {v}");
    }
}

/// The datapath's own tracks: everything a `PuProbe` writes to.
fn datapath_events(events: Vec<TraceRecord>) -> Vec<TraceRecord> {
    events
        .into_iter()
        .filter(|e| matches!(e.track, Track::Iim | Track::Oim | Track::Pu | Track::Plc))
        .collect()
}

/// Records `call` on a fresh engine and on the stepped reference, the
/// latter through a probe on the engine's timebase (processing starts
/// when the first strip — inter: both images, or the first strip pair
/// when interleaved — has landed). Asserts the recorded run equals an
/// unrecorded one and returns the two datapath event lists.
fn recorded_pair(
    config: &EngineConfig,
    call: Call<'_>,
    trace_limit: usize,
    context: &str,
) -> (Vec<TraceRecord>, Vec<TraceRecord>) {
    let run_engine = |recorder: Recorder| {
        let mut engine = AddressEngine::new(config.clone()).expect("valid config");
        engine.set_trace_limit(trace_limit);
        engine.set_recorder(recorder);
        let run = call.run(&mut engine);
        (run, engine.metrics().clone())
    };
    let session = Session::new();
    let (recorded, recorded_metrics) = run_engine(session.recorder());
    let (plain, plain_metrics) = run_engine(Recorder::disabled());
    match (&recorded, &plain) {
        (Ok(r), Ok(p)) => {
            assert_eq!(
                r.output, p.output,
                "{context}: recording changes the output"
            );
            assert_eq!(
                r.report, p.report,
                "{context}: recording changes the report"
            );
        }
        (Err(r), Err(p)) => assert_eq!(r.to_string(), p.to_string(), "{context}"),
        _ => panic!("{context}: recording changes the verdict"),
    }
    assert_eq!(
        recorded_metrics, plain_metrics,
        "{context}: recording changes the registry"
    );

    let (timeline, dims) = match call {
        Call::Intra(frame, radius) => (intra_timeline(frame.dims(), radius, config), frame.dims()),
        Call::Inter(a, _) => (inter_timeline(a.dims(), config), a.dims()),
    };
    let reference_session = Session::new();
    let probe = PuProbe::new(
        reference_session.recorder(),
        seconds_to_ns(processing_start(&timeline, dims, config)),
        1e9 / config.engine_clock.hz,
    );
    let stepped = reference(config, call, trace_limit, &probe);
    assert_eq!(
        stepped.is_ok(),
        recorded.is_ok(),
        "{context}: engine and reference verdicts diverge"
    );
    (
        datapath_events(session.finish().events),
        reference_session.finish().events,
    )
}

#[test]
fn recorded_runs_emit_the_stepped_reference_events() {
    // The seeded distribution, half of it with interleaved inter
    // transfers, plus slow drains whose OIM stall runs are skipped in
    // one jump — the drain of 12 makes those runs long enough to span.
    let mut cases: Vec<(EngineConfig, Dims, usize)> = (0..40)
        .map(|seed| {
            let (mut config, dims, radius) = random_case(seed);
            if seed % 2 == 1 {
                config.inter_overlap = InterOverlap::Interleaved;
            }
            (config, dims, radius)
        })
        .collect();
    for (drain, dims) in [(3, Dims::new(16, 9)), (12, Dims::new(20, 6))] {
        let mut config = EngineConfig::prototype_detailed();
        config.oim_drain_cycles_per_pixel = drain;
        config.oim_lines = 1;
        cases.push((config, dims, 1));
    }

    let mut skipped_stall_spans = 0;
    for (i, (config, dims, radius)) in cases.iter().enumerate() {
        let (a, b) = (test_frame(*dims), second_frame(*dims));
        for trace_limit in [0, 32] {
            for (kind, call) in [
                ("intra", Call::Intra(&a, *radius)),
                ("inter", Call::Inter(&a, &b)),
            ] {
                let context = format!("case {i} {dims:?} {kind} trace {trace_limit}");
                let (engine, stepped) = recorded_pair(config, call, trace_limit, &context);
                assert!(
                    !stepped.is_empty(),
                    "{context}: the reference emitted nothing"
                );
                assert_eq!(
                    engine.len(),
                    stepped.len(),
                    "{context}: event counts diverge"
                );
                for (k, (e, s)) in engine.iter().zip(&stepped).enumerate() {
                    assert_eq!(e, s, "{context}: event {k} diverges");
                }
                if config.oim_drain_cycles_per_pixel >= 12 {
                    skipped_stall_spans += engine.iter().filter(|e| e.name == "oim_stall").count();
                }
            }
        }
    }
    assert!(
        skipped_stall_spans > 0,
        "no skipped OIM stall run became a span"
    );
}
