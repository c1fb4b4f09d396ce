//! Differential tests: the engine's cycle attribution must equal the
//! cycle-stepped reference's.
//!
//! `vipctl report` reads its stall buckets, per-bank ZBT duty and
//! call-second split from the engine's metrics [`Registry`]. For the
//! report to be trustworthy, the *whole registry* — every counter,
//! gauge and histogram, including the `attrib.*`, `pu.idle_cycles` and
//! `zbt.bankN.access_words` keys — must equal the registry built from the
//! cycle-stepped reference of `vip-engine::process_unit` on the same call
//! (`report::record_into` over its report, plus its per-bank ZBT
//! traffic). This sweep asserts exactly that across xorshift-seeded
//! configurations in every addressing mode, and checks the
//! busy/iim/oim/idle buckets partition the cycle count exactly.

mod reference;

use reference::{random_case, reference, second_frame, test_frame, Call};
use vip::core::accounting::{AccessModel, AddressingMode, CallDescriptor};
use vip::core::addressing::segment::{run_segment, SegmentOptions};
use vip::core::geometry::{Dims, Point};
use vip::core::neighborhood::Connectivity;
use vip::core::ops::segment_ops::HomogeneityCriterion;
use vip::core::pixel::ChannelSet;
use vip::engine::process_unit::PuProbe;
use vip::engine::report::{keys, record_into, zbt_bank_key};
use vip::engine::timing::segment_timeline;
use vip::engine::{AddressEngine, EngineConfig, EngineError, EngineReport, Registry};

/// The busy/iim/oim/idle buckets are a mutually exclusive partition of
/// the processing cycles, so they must sum back exactly.
fn assert_partition(registry: &Registry, context: &str) {
    let total = registry.counter(keys::PU_CYCLES);
    let parts = registry.counter(keys::ATTRIB_PU_BUSY_CYCLES)
        + registry.counter(keys::PU_IIM_STALLS)
        + registry.counter(keys::PU_OIM_STALLS)
        + registry.counter(keys::PU_IDLE_CYCLES);
    assert_eq!(total, parts, "{context}: cycle buckets do not partition");
}

/// Runs `call` on a fresh engine and through the stepped reference and
/// returns the engine's registry next to the reference's, or `None` when
/// both deadlock.
fn registries(
    config: &EngineConfig,
    call: Call<'_>,
    context: &str,
) -> Option<(Registry, Registry)> {
    let mut engine = AddressEngine::new(config.clone()).expect("valid config");
    match (
        call.run(&mut engine),
        reference(config, call, 0, &PuProbe::disabled()),
    ) {
        (Ok(run), Ok(r)) => {
            assert_eq!(run.output, r.output, "{context}: output pixels diverge");
            let mut expected = Registry::new();
            record_into(&mut expected, &r.report);
            for (bank, s) in r.banks.iter().enumerate() {
                expected.inc(zbt_bank_key(bank), s.total());
            }
            Some((engine.metrics().clone(), expected))
        }
        (Err(EngineError::PipelineHazard { .. }), Err(EngineError::PipelineHazard { .. })) => None,
        (e, r) => panic!(
            "{context}: verdicts diverge — engine {:?}, reference {:?}",
            e.map(|_| "ok").map_err(|e| e.to_string()),
            r.map(|_| "ok").map_err(|e| e.to_string()),
        ),
    }
}

#[test]
fn intra_attribution_is_mode_independent_across_seeded_configs() {
    let mut clean = 0;
    for seed in 0..60 {
        let (config, dims, radius) = random_case(seed);
        let frame = test_frame(dims);
        let context = format!("seed {seed} {dims:?} r{radius}");
        let Some((engine, expected)) = registries(&config, Call::Intra(&frame, radius), &context)
        else {
            continue;
        };
        assert_eq!(engine, expected, "{context}: registries diverge");
        assert_partition(&engine, &context);
        let banks: u64 = (0..6).map(|b| engine.counter(zbt_bank_key(b))).sum();
        assert!(banks > 0, "{context}: no ZBT bank traffic recorded");
        clean += 1;
    }
    assert!(clean >= 15, "only {clean} clean configurations out of 60");
}

#[test]
fn inter_attribution_is_mode_independent() {
    for seed in 0..20 {
        let (config, dims, _) = random_case(seed);
        let (a, b) = (test_frame(dims), second_frame(dims));
        let context = format!("inter seed {seed} {dims:?}");
        let (engine, expected) = registries(&config, Call::Inter(&a, &b), &context)
            .unwrap_or_else(|| panic!("{context}: inter calls cannot deadlock"));
        assert_eq!(engine, expected, "{context}: registries diverge");
        assert_partition(&engine, &context);
    }
}

#[test]
fn segment_attribution_is_mode_independent() {
    // Segment calls have no cycle-level datapath: the engine runs the
    // software segment path and prices it with the segment timeline, so
    // its registry must be exactly `record_into` of that report — no
    // processing keys, no ZBT bank keys.
    let dims = Dims::new(24, 18);
    let frame = test_frame(dims);
    let seeds = [Point::new(12, 9)];
    let criterion = HomogeneityCriterion::luma(40);
    let options = SegmentOptions::default();
    let cfg = EngineConfig::outlook_v2();
    let mut engine = AddressEngine::new(cfg.clone()).expect("valid config");
    engine
        .run_segment(&frame, &seeds, &criterion, options)
        .expect("segment call succeeds");

    let pixels = run_segment(&frame, &seeds, &criterion, options)
        .expect("software segment call succeeds")
        .report
        .pixels_processed;
    let descriptor = CallDescriptor::segment(
        options.connectivity,
        ChannelSet::Y,
        ChannelSet::ALPHA.union(ChannelSet::AUX),
    );
    let mut expected = Registry::new();
    record_into(
        &mut expected,
        &EngineReport {
            descriptor,
            timeline: segment_timeline(dims, pixels, &cfg),
            access_model: AccessModel::for_call(&descriptor, dims),
            hardware_accesses: 2 * pixels,
            processing: None,
        },
    );
    assert_eq!(engine.metrics(), &expected, "segment registries diverge");
    assert_eq!(expected.counter(keys::SEGMENT_CALLS), 1);
}

#[test]
fn segment_indexed_records_attribution_without_a_call_tally() {
    // Segment-indexed addressing has no engine entry point (it is the
    // write-back half of a segment call), but its reports still flow
    // through `record_into`: gauges accumulate while the per-mode call
    // counter stays untouched, identically for any two registries.
    let dims = Dims::new(24, 18);
    let cfg = EngineConfig::outlook_v2();
    let descriptor = CallDescriptor {
        mode: AddressingMode::SegmentIndexed,
        shape: Connectivity::Con4,
        input_channels: ChannelSet::Y,
        output_channels: ChannelSet::ALPHA,
    };
    let report = EngineReport {
        descriptor,
        timeline: vip::engine::timing::intra_timeline(dims, 1, &cfg),
        access_model: AccessModel::for_call(&descriptor, dims),
        hardware_accesses: dims.pixel_count() as u64,
        processing: None,
    };
    let mut a = Registry::new();
    let mut b = Registry::new();
    record_into(&mut a, &report);
    record_into(&mut b, &report);
    assert_eq!(a, b);
    assert_eq!(
        a.counter(keys::SEGMENT_CALLS),
        0,
        "indexed pass is not a new call"
    );
    assert!(a.gauge(keys::BUSY_SECONDS) > 0.0);
    assert!(a.gauge(keys::ATTRIB_PCI_INPUT_SECONDS) > 0.0);
}
