//! The repository benchmark. Three workloads over the AddressEngine
//! reproduction, each from one process and thread, closed loop (every
//! call starts after the previous one returns):
//!
//! * `gme_table3`: Table 3's GME path on the `Analytic` prototype backend;
//! * `engine_detailed`: the GME call mix on the detailed simulator;
//! * `engine_recorded`: the same stream with a `vip_obs` recorder attached.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gme_table3 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced. `--trace 1` runs
//! the same untraced phase, then a traced phase that times the calls into
//! each crate from this side of the call, and prints the per-layer
//! metrics. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod engine_calls;
mod gme;
mod inputs;
mod report;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use vip_core::geometry::{Dims, ImageFormat};
use vip_engine::report::{keys, zbt_bank_key};
use vip_obs::Registry;

use crate::calib::Reference;
use crate::engine_calls::EngineCalls;
use crate::gme::GmeTable3;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, relative_iqr};
use crate::trace::Trace;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["gme_table3", "engine_detailed", "engine_recorded"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Fewest repetitions a phase measures, however long they take.
const MIN_REPS: usize = 3;

/// Call-latency samples a traced phase collects at least, so that 95th
/// percentile has ten samples beyond it.
const MIN_CALL_SAMPLES: usize = 20 * stats::MIN_BEYOND;

/// One set-up: rendering the input frames plus building the engine.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Host seconds of the whole set-up.
    pub seconds: f64,
    /// Host seconds of the rendering part.
    pub render_s: f64,
    /// Frames rendered.
    pub frames: usize,
    /// Host seconds of the whole set-up on the nominal host (see [`calib`]).
    pub scaled_seconds: f64,
}

/// Simulated (modelled) outcomes of one repetition; deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Modelled {
    /// Pentium-M seconds over engine seconds for the same calls.
    pub speedup: f64,
    /// Relative error of the speed-up against the paper's Table 3.
    pub err_vs_paper: f64,
    /// Mean translation error against the scripted ground truth, px
    /// (`NaN` where nothing is estimated).
    pub gt_err_px: f64,
}

/// One repetition over the whole input window.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds of the workload, trace work excluded.
    pub seconds: f64,
    /// Host seconds on the nominal host: every timed part scaled by the
    /// host speed measured around it (see [`calib`]).
    pub scaled_seconds: f64,
    /// Frame pairs processed.
    pub pairs: u64,
    /// Simulated engine cycles.
    pub sim_cycles: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (error or output check).
    pub failed: u64,
    /// Exact simulated counters; identical on every repetition.
    pub counts: BTreeMap<&'static str, f64>,
    /// Simulated outcomes.
    pub modelled: Modelled,
}

/// A workload with its inputs rendered.
pub trait Workload {
    /// Lines describing the inputs the seed picked.
    fn describe(&self) -> Vec<String>;
    /// Computes the reference outputs (outside every timed region).
    fn prepare_checks(&mut self);
    /// Runs one repetition, timing each part with [`timed_part`];
    /// `trace` collects per-layer timings.
    fn rep(&mut self, clock: &mut Reference, trace: Option<&mut Trace>) -> Rep;
    /// Whether the workload itself records with `vip-obs`.
    fn records(&self) -> bool {
        false
    }
}

/// Runs `part` of a repetition between two passes of `clock` and adds
/// its host seconds, less the work the trace adds inside it, to `rep`:
/// as timed to `seconds`, and scaled to the nominal host to
/// `scaled_seconds`.
pub fn timed_part<T>(
    rep: &mut Rep,
    clock: &mut Reference,
    trace: &mut Option<&mut Trace>,
    part: impl FnOnce(&mut Option<&mut Trace>) -> T,
) -> T {
    let excluded_before = trace.as_ref().map_or(0, |t| t.excluded_ns);
    let before = clock.start();
    let t = Instant::now();
    let out = part(trace);
    let wall = t.elapsed().as_nanos();
    let scale = clock.scale(before);
    let excluded = trace.as_ref().map_or(0, |t| t.excluded_ns) - excluded_before;
    let seconds = (wall - excluded) as f64 / 1e9;
    rep.seconds += seconds;
    rep.scaled_seconds += seconds * scale;
    out
}

/// The exact engine counters of a registry, with `sim_cycles` as the
/// workload counts them.
#[must_use]
pub fn engine_counts(registry: &Registry, sim_cycles: f64) -> BTreeMap<&'static str, f64> {
    let c = |key| registry.counter(key) as f64;
    let banks: Vec<f64> = (0..6).map(|b| c(zbt_bank_key(b))).collect();
    let mut counts = BTreeMap::from([
        ("engine.sim_cycles", sim_cycles),
        ("engine.pu.iim_stalls", c(keys::PU_IIM_STALLS)),
        ("engine.pu.oim_stalls", c(keys::PU_OIM_STALLS)),
        ("engine.pu.idle_cycles", c(keys::PU_IDLE_CYCLES)),
        ("engine.zbt.access_words", banks.iter().sum()),
        ("engine.calls.intra", c(keys::INTRA_CALLS)),
        ("engine.calls.inter", c(keys::INTER_CALLS)),
        ("engine.modelled_busy_s", registry.gauge(keys::BUSY_SECONDS)),
    ]);
    const BANK_NAMES: [&str; 6] = [
        "engine.zbt.bank0.access_words",
        "engine.zbt.bank1.access_words",
        "engine.zbt.bank2.access_words",
        "engine.zbt.bank3.access_words",
        "engine.zbt.bank4.access_words",
        "engine.zbt.bank5.access_words",
    ];
    for (name, words) in BANK_NAMES.iter().zip(banks) {
        counts.insert(name, words);
    }
    counts
}

fn count_unit(name: &str) -> &'static str {
    if name == "engine.modelled_busy_s" {
        "sim_s"
    } else {
        "count"
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(format!("unknown workload `{value}`")),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err("--seconds must be a non-negative number".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    });
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Measures repetitions until `seconds` of workload time (and, traced,
/// enough call samples) have accumulated.
fn phase(
    w: &mut dyn Workload,
    clock: &mut Reference,
    seconds: f64,
    mut trace: Option<&mut Trace>,
) -> Vec<Rep> {
    let mut reps = Vec::new();
    let mut timed = 0.0;
    loop {
        let rep = w.rep(clock, trace.as_deref_mut());
        if let Some(tr) = trace.as_deref_mut() {
            tr.finish_rep(w.records());
        }
        timed += rep.seconds;
        reps.push(rep);
        let samples = trace.as_ref().map_or(MIN_CALL_SAMPLES, |t| t.call_ms.len());
        if timed >= seconds && reps.len() >= MIN_REPS && samples >= MIN_CALL_SAMPLES {
            return reps;
        }
    }
}

/// Checks that every repetition repeated the first one's exact counters
/// and simulated outcomes, and folds their operation counts into `report`.
fn account(report: &mut Report, label: &str, reps: &[Rep], first: &Rep) {
    for (i, rep) in reps.iter().enumerate() {
        report.attempted += rep.attempted;
        report.failed += rep.failed;
        if rep.counts != first.counts || !same_modelled(&rep.modelled, &first.modelled) {
            report.problems.push(format!(
                "{label} repetition {i}: exact counters differ from the first untraced repetition"
            ));
        }
    }
}

fn same_modelled(a: &Modelled, b: &Modelled) -> bool {
    let same = |x: f64, y: f64| x == y || (x.is_nan() && y.is_nan());
    same(a.speedup, b.speedup)
        && same(a.err_vs_paper, b.err_vs_paper)
        && same(a.gt_err_px, b.gt_err_px)
}

/// Work per measured second over all repetitions of a phase, as timed.
fn rate(reps: &[Rep], work: impl Fn(&Rep) -> f64) -> f64 {
    reps.iter().map(&work).sum::<f64>() / reps.iter().map(|r| r.seconds).sum::<f64>()
}

/// [`rate`] on the nominal host (see [`calib`]).
fn scaled_rate(reps: &[Rep], work: impl Fn(&Rep) -> f64) -> f64 {
    reps.iter().map(&work).sum::<f64>() / reps.iter().map(|r| r.scaled_seconds).sum::<f64>()
}

/// Runs the workload named in `args` at `dims` and reports on it.
fn run(args: &Args, dims: Dims) -> Report {
    let mut clock = Reference::new();
    let mut setups = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first: peak memory holds one set-up.
        drop(workload.take());
        let before = clock.start();
        let (w, mut setup): (Box<dyn Workload>, Setup) = match args.workload.as_str() {
            "gme_table3" => {
                let (w, s) = GmeTable3::setup(args.seed, dims);
                (Box::new(w), s)
            }
            name => {
                let (w, s) = EngineCalls::setup(args.seed, dims, name == "engine_recorded");
                (Box::new(w), s)
            }
        };
        setup.scaled_seconds = setup.seconds * clock.scale(before);
        workload = Some(w);
        setups.push(setup);
    }
    let mut w = workload.expect("at least one set-up");
    w.prepare_checks();

    let mut report = Report::default();
    report.note(format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    report.note(machine_fingerprint());
    for line in w.describe() {
        report.note(line);
    }
    report.note(
        "model: IIM/OIM state starts empty on every call and every repetition builds a fresh engine; \
         the model is checked only against the paper's four Table 3 rows",
    );

    // Traced, the untraced phase only anchors `trace.overhead` and the
    // exact-count comparison. It gets half of `--seconds` and the traced
    // phase a quarter, as shadowing roughly doubles the traced wall time.
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = phase(w.as_mut(), &mut clock, untraced_s, None);
    let first = untraced[0].clone();
    account(&mut report, "untraced", &untraced, &first);
    let pair_rates: Vec<f64> = untraced
        .iter()
        .map(|r| r.pairs as f64 / r.seconds)
        .collect();
    report.note(format!(
        "untraced: {} repetitions, {:.2} s measured; frame pairs/s per repetition IQR/median {:.3}",
        untraced.len(),
        untraced.iter().map(|r| r.seconds).sum::<f64>(),
        relative_iqr(&pair_rates)
    ));
    let setup_s: Vec<f64> = setups.iter().map(|s| s.scaled_seconds).collect();
    let pairs_per_s = rate(&untraced, |r| r.pairs as f64);
    let scales: Vec<f64> = untraced
        .iter()
        .map(|r| r.scaled_seconds / r.seconds)
        .collect();
    report.note(format!(
        "host speed: reference pass {:.3} ms (nominal {:.3} ms); as timed: {:.4} frame pairs/s, \
         {:.4e} sim cycles/s, set-up {:.4} s",
        1e3 * calib::REFERENCE_S / median(&scales),
        1e3 * calib::REFERENCE_S,
        pairs_per_s,
        rate(&untraced, |r| r.sim_cycles),
        median(&setups.iter().map(|s| s.seconds).collect::<Vec<_>>()),
    ));
    report.set(
        "frame_pairs_per_s",
        scaled_rate(&untraced, |r| r.pairs as f64),
        "1/s",
    );
    report.set(
        "sim_cycles_per_s",
        scaled_rate(&untraced, |r| r.sim_cycles),
        "1/s",
    );
    report.set("setup_s", median(&setup_s), "s");
    report.set("peak_rss_mib", peak_rss_mib(), "MiB");
    report.set("modelled_speedup", first.modelled.speedup, "x");
    report.set("speedup_err_vs_paper", first.modelled.err_vs_paper, "ratio");
    if first.modelled.gt_err_px.is_finite() {
        report.set("gt_err_px", first.modelled.gt_err_px, "px");
    }
    for (&name, &value) in &first.counts {
        report.set(name, value, count_unit(name));
    }

    if args.trace {
        let mut tr = Trace::new();
        let traced = phase(w.as_mut(), &mut clock, args.seconds / 4.0, Some(&mut tr));
        account(&mut report, "traced", &traced, &first);
        report.attempted += tr.checked;
        report.failed += tr.mismatched;
        per_layer(&mut report, &tr, &traced, &setups, pairs_per_s);
        report.chrome_trace = Some(tr.last_chrome);
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.set("error_rate", error_rate, "ratio");
    report
}

/// The per-layer metrics of a traced phase.
fn per_layer(
    report: &mut Report,
    tr: &Trace,
    traced: &[Rep],
    setups: &[Setup],
    untraced_rate: f64,
) {
    let render_ms: Vec<f64> = setups
        .iter()
        .map(|s| s.render_s * 1e3 / s.frames as f64)
        .collect();
    report.set("video.render_ms_per_frame", median(&render_ms), "ms");
    let per_px = |ns: u128, px: u64| ns as f64 / px.max(1) as f64;
    report.set(
        "core.intra_ns_per_px",
        per_px(tr.intra.ns, tr.intra.pixels),
        "ns/px",
    );
    report.set(
        "core.inter_ns_per_px",
        per_px(tr.inter.ns, tr.inter.pixels),
        "ns/px",
    );
    let reps = traced.len() as f64;
    let core_calls = (tr.intra.calls + tr.inter.calls) as f64 / reps;
    report.set("core.calls", core_calls, "count");
    report.set(
        "core.pixels",
        (tr.intra.pixels + tr.inter.pixels) as f64 / reps,
        "count",
    );
    let overhead_ns = tr.analytic_ns as f64 - (tr.intra.ns + tr.inter.ns) as f64;
    report.set(
        "engine.analytic_overhead_us_per_call",
        overhead_ns / tr.analytic_calls.max(1) as f64 / 1e3,
        "us",
    );
    for (name, p) in [("engine.call_ms_p50", 50.0), ("engine.call_ms_p95", 95.0)] {
        match percentile(&tr.call_ms, p) {
            Some(q) => {
                report.set(name, q.value, "ms");
                report.note(format!(
                    "{name}: {} samples, {} beyond",
                    q.samples, q.beyond
                ));
            }
            None => report.note(format!("{name}: not reported, too few samples beyond it")),
        }
    }
    report.set("engine.call_samples", tr.call_ms.len() as f64, "count");
    let cycles: f64 = traced.iter().map(|r| r.sim_cycles).sum();
    report.set(
        "engine.host_ns_per_sim_cycle",
        tr.call_ns as f64 / cycles,
        "ns",
    );

    let timed_ns: f64 = traced.iter().map(|r| r.seconds).sum::<f64>() * 1e9;
    let pairs: f64 = traced.iter().map(|r| r.pairs as f64).sum();
    let self_ns = timed_ns - tr.call_ns as f64 - tr.obs_ns as f64;
    report.set(
        "gme.estimator_self_ms_per_pair",
        self_ns / pairs / 1e6,
        "ms",
    );
    report.set("gme.backend_share", tr.call_ns as f64 / timed_ns, "ratio");
    report.set("obs.events", median(&tr.obs_events), "count");
    report.set("obs.export_ms", median(&tr.obs_export_ms), "ms");
    report.set("obs.attrib_ms", median(&tr.obs_attrib_ms), "ms");
    let traced_rate = rate(traced, |r| r.pairs as f64);
    report.set("trace.overhead", untraced_rate / traced_rate - 1.0, "ratio");
    report.note(format!(
        "traced: {} repetitions; overhead = untraced / traced frame_pairs_per_s - 1",
        traced.len()
    ));
}

/// Core count, CPU model, compiler and target.
fn machine_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "machine: cores={cores} cpu=\"{cpu}\" rustc=\"{}\" target={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_TARGET")
    )
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut report = run(&args, ImageFormat::Cif.dims());
    if let Some(chrome) = report.chrome_trace.take() {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, chrome)) {
            Ok(()) => report.note(format!(
                "host spans of the last traced repetition: {}",
                path.display()
            )),
            Err(e) => report.note(format!("host spans not written: {e}")),
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    print!("{}", report.render(names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_owned(),
            seed: 3,
            seconds: 0.0,
            trace,
        }
    }

    #[test]
    fn argument_parsing_rejects_malformed_input() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let ok = parse("--workload engine_recorded --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            ok,
            Args {
                workload: "engine_recorded".into(),
                seed: 9,
                seconds: 2.5,
                trace: true
            }
        );
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload gme_table3 --seed x",
            "--workload gme_table3 --trace 2",
            "--workload gme_table3 --seconds -1",
            "--workload gme_table3 --seed",
            "--workload gme_table3 --frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    /// Every workload, traced, at a small frame size: correct outputs,
    /// every `BENCHMARK.json` metric present, and per-layer times that
    /// reconcile with the measured time.
    #[test]
    fn every_workload_reports_every_metric_and_reconciles() {
        let dims = Dims::new(64, 48);
        for &name in WORKLOADS {
            let report = run(&args(name, true), dims);
            let render = report.render(PER_LAYER);
            assert!(report.correct(), "{name}:\n{render}");
            for metric in END_TO_END.iter().chain(PER_LAYER) {
                let m = report
                    .metrics
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name}: no {metric}"));
                assert!(m.value.is_finite(), "{name}: {metric} = {}", m.value);
            }
            let get = |m: &str| report.metrics[m].value;
            assert!(
                get("frame_pairs_per_s") > 0.0 && get("sim_cycles_per_s") > 0.0,
                "{name}"
            );
            // Reconciliation: the per-call timers nest inside the measured
            // repetition time (self time = repetition time minus calls
            // minus vip-obs work, never negative), and every workload call
            // was shadowed once through vip-core.
            let share = get("gme.backend_share");
            assert!(share > 0.0 && share <= 1.0, "{name}: backend share {share}");
            assert!(get("gme.estimator_self_ms_per_pair") >= 0.0, "{name}");
            assert_eq!(
                get("engine.calls.intra") + get("engine.calls.inter"),
                get("core.calls"),
                "{name}"
            );
            assert!(get("obs.events") > 0.0, "{name}");
            assert!(
                render
                    .lines()
                    .last()
                    .unwrap()
                    .starts_with("{\"correct\": true"),
                "{name}"
            );
        }
    }

    #[test]
    fn recorded_and_fast_forward_runs_count_identically() {
        let dims = Dims::new(48, 32);
        let a = run(&args("engine_detailed", false), dims);
        let b = run(&args("engine_recorded", true), dims);
        for key in [
            "engine.sim_cycles",
            "engine.pu.iim_stalls",
            "engine.zbt.access_words",
        ] {
            assert_eq!(
                a.metrics[key], b.metrics[key],
                "{key}: recorded and fast-forward differ"
            );
        }
        assert!(a.problems.is_empty() && b.problems.is_empty());
    }
}
