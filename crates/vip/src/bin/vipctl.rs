//! `vipctl` — command-line front end to the AddressEngine reproduction.
//!
//! ```text
//! vipctl info
//! vipctl render <singapore|dome|pisa|movie> [--frames N] [--size WxH] [--out clip.y4m]
//! vipctl gme <sequence> [--frames N] [--size WxH] [--software] [--mosaic out.pgm]
//! vipctl segment --tolerance T [--size WxH] [--out labels.pgm]
//! vipctl trace <intra|inter|gme> [--size WxH] [--frames N] --out trace.json
//! vipctl trace-diff <a.json> <b.json> [--threshold PCT]
//! vipctl stats <intra|inter|gme> [--size WxH] [--frames N] [--format json]
//! vipctl report <intra|inter|gme> [--size WxH] [--frames N] [--format json]
//! vipctl check [--root DIR]
//! ```
//!
//! `trace` writes a Chrome trace-event JSON file loadable in Perfetto
//! (<https://ui.perfetto.dev>); `trace-diff` aligns two exported traces
//! and reports per-track busy-time and event-count deltas. `stats`
//! prints the engine metrics registry; `report` adds the cycle
//! attribution: per-track utilization, process-unit stall causes, ZBT
//! bank duty, the PCI/host/engine split of every call second, and the
//! Amdahl decomposition relating the paper's ×30 bound to the speedup
//! measured on the same calls Table 3 prices.
//!
//! A flag the subcommand does not accept is an error naming the accepted
//! ones; errors print the message and the subcommand's usage line. A
//! failed `check` verdict exits 1 with its report and no usage line.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::process::ExitCode;

use vip::core::addressing::labeling::label_all_segments;
use vip::core::addressing::segment::SegmentOptions;
use vip::core::geometry::Dims;
use vip::core::ops::segment_ops::HomogeneityCriterion;
use vip::core::frame::Frame;
use vip::core::ops::arith::AbsDiff;
use vip::core::ops::filter::SobelGradient;
use vip::core::pixel::Pixel;
use vip::engine::report::keys;
use vip::engine::{EngineConfig, Recording, Registry, ResourceEstimate, Session};
use vip::gme::{EngineBackend, GmeBackend, GmeConfig, SequenceRunner, SoftwareBackend};
use vip::video::io::{write_pgm, Y4mWriter};
use vip::video::TestSequence;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", error_report(&args[0], e.as_ref()));
            ExitCode::FAILURE
        }
    }
}

/// A failed verdict on what a command checked, as opposed to a misuse of
/// the command: it fails the run but earns no usage line.
#[derive(Debug)]
struct Verdict(String);

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for Verdict {}

/// What `main` prints for an error of command `cmd`: the message, then
/// the command's usage line unless the error is a [`Verdict`].
fn error_report(cmd: &str, e: &(dyn Error + 'static)) -> String {
    if e.is::<Verdict>() {
        format!("vipctl: {e}")
    } else {
        format!("vipctl: {e}\n{}", usage_hint(cmd))
    }
}

/// Every subcommand: name, argument synopsis and the flags it accepts.
const COMMANDS: &[(&str, &str, &[&str])] = &[
    ("info", "", &[]),
    (
        "render",
        "<sequence> [--frames N] [--size WxH] [--out clip.y4m]",
        &["frames", "size", "out"],
    ),
    (
        "gme",
        "<sequence> [--frames N] [--size WxH] [--software] [--mosaic out.pgm]",
        &["frames", "size", "software", "mosaic"],
    ),
    (
        "segment",
        "[--tolerance T] [--size WxH] [--out labels.pgm]",
        &["tolerance", "size", "out"],
    ),
    (
        "trace",
        "<scenario> [--size WxH] [--frames N] [--out trace.json]",
        &["size", "frames", "out"],
    ),
    ("trace-diff", "<a.json> <b.json> [--threshold PCT]", &["threshold"]),
    (
        "stats",
        "<scenario> [--size WxH] [--frames N] [--format json]",
        &["size", "frames", "format"],
    ),
    (
        "report",
        "<scenario> [--size WxH] [--frames N] [--format json]",
        &["size", "frames", "format"],
    ),
    ("check", "[--root DIR]", &["root"]),
];

/// One `vipctl <command> <synopsis>` line.
fn command_usage(name: &str, synopsis: &str) -> String {
    format!("vipctl {name} {synopsis}").trim_end().to_string()
}

/// The full usage text, printed when no command is given.
fn usage() -> String {
    let mut text = String::from("usage:\n");
    for (name, synopsis, _) in COMMANDS {
        text += &format!("  {}\n", command_usage(name, synopsis));
    }
    text += "sequences: singapore | dome | pisa | movie\n";
    text += "scenarios: intra (CIF Sobel, detailed) | inter (CIF AbsDiff, detailed) | gme";
    text
}

/// The one-line hint printed after an error: the command's own usage, or
/// the command list for an unknown command.
fn usage_hint(cmd: &str) -> String {
    match COMMANDS.iter().find(|(name, _, _)| *name == cmd) {
        Some((name, synopsis, _)) => format!("usage: {}", command_usage(name, synopsis)),
        None => {
            let names: Vec<&str> = COMMANDS.iter().map(|(name, _, _)| *name).collect();
            format!(
                "commands: {} (run `vipctl` alone for the full usage)",
                names.join(" | ")
            )
        }
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    let flags = parse_flags(cmd, &args[1..])?;
    match cmd.as_str() {
        "info" => info(),
        "render" => render(args.get(1), &flags),
        "gme" => gme(args.get(1), &flags),
        "segment" => segment(&flags),
        "trace" => trace(args.get(1), &flags),
        "trace-diff" => trace_diff(args.get(1), args.get(2), &flags),
        "stats" => stats(args.get(1), &flags),
        "report" => report(args.get(1), &flags),
        "check" => check(&flags),
        other => Err(format!("unknown command `{other}`").into()),
    }
}

/// Collects `--name value` pairs (a flag followed by another flag or by
/// nothing reads as `true`), rejecting an unknown command and any flag
/// `cmd` does not accept.
fn parse_flags(cmd: &str, rest: &[String]) -> Result<HashMap<String, String>, String> {
    let Some((_, _, accepted)) = COMMANDS.iter().find(|(name, _, _)| *name == cmd) else {
        return Err(format!("unknown command `{cmd}`"));
    };
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        if let Some(name) = rest[i].strip_prefix("--") {
            if !accepted.contains(&name) {
                let list: Vec<String> = accepted.iter().map(|f| format!("--{f}")).collect();
                let list = if list.is_empty() {
                    "none".to_string()
                } else {
                    list.join(", ")
                };
                return Err(format!(
                    "unknown flag --{name} for `{cmd}` (accepted: {list})"
                ));
            }
            let value = rest
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| "true".to_string());
            if value != "true" {
                i += 1;
            }
            flags.insert(name.to_string(), value);
        }
        i += 1;
    }
    Ok(flags)
}

fn sequence_by_name(name: Option<&String>) -> Result<TestSequence, Box<dyn Error>> {
    match name.map(String::as_str) {
        Some("singapore") => Ok(TestSequence::singapore()),
        Some("dome") => Ok(TestSequence::dome()),
        Some("pisa") => Ok(TestSequence::pisa()),
        Some("movie") => Ok(TestSequence::movie()),
        Some(other) if !other.starts_with("--") => Err(format!("unknown sequence `{other}`").into()),
        _ => Err("missing sequence name".into()),
    }
}

fn parse_size(flags: &HashMap<String, String>, default: Dims) -> Result<Dims, Box<dyn Error>> {
    match flags.get("size") {
        None => Ok(default),
        Some(s) => {
            let (w, h) = s
                .split_once(['x', 'X'])
                .ok_or("--size expects WxH, e.g. 176x144")?;
            Ok(Dims::new(w.parse()?, h.parse()?))
        }
    }
}

fn scaled(seq: &TestSequence, flags: &HashMap<String, String>) -> Result<TestSequence, Box<dyn Error>> {
    let dims = parse_size(flags, Dims::new(176, 144))?;
    let frames: usize = flags
        .get("frames")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(12);
    Ok(seq.scaled(dims.width, dims.height, frames))
}

fn info() -> Result<(), Box<dyn Error>> {
    let cfg = EngineConfig::prototype();
    println!("AddressEngine prototype configuration (DATE 2005):");
    println!("  PCI          : {} × {} B = {:.0} MB/s", cfg.pci_clock, cfg.pci_bytes_per_cycle, cfg.pci_bandwidth() / 1e6);
    println!("  engine clock : {}", cfg.engine_clock);
    println!("  ZBT          : {} banks × {} words = {} MB", cfg.zbt_banks, cfg.zbt_bank_words, cfg.zbt_bytes() / (1024 * 1024));
    println!("  strips       : {} lines   IIM/OIM: {}/{} lines", cfg.strip_lines, cfg.iim_lines, cfg.oim_lines);
    println!("  pipeline     : {} stages", cfg.pipeline_stages);
    println!(
        "  segment mode : {}",
        if cfg.segment_capable { "enabled" } else { "v2 outlook only" }
    );
    println!();
    println!("{}", ResourceEstimate::for_config(&cfg));
    Ok(())
}

fn render(name: Option<&String>, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let seq = scaled(&sequence_by_name(name)?, flags)?;
    let default_out = format!("{}.y4m", seq.name());
    let out = flags.get("out").cloned().unwrap_or(default_out);
    if out.ends_with(".pgm") {
        write_pgm(&seq.render_frame(0), &out)?;
        println!("wrote first frame of {} to {out}", seq.name());
    } else {
        let mut w = Y4mWriter::create(&out, seq.dims(), 25)?;
        for f in seq.frames() {
            w.write_frame(&f)?;
        }
        let n = w.frames_written();
        w.into_inner()?;
        println!("wrote {n} frames of {} ({}) to {out}", seq.name(), seq.dims());
    }
    Ok(())
}

fn gme(name: Option<&String>, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let seq = scaled(&sequence_by_name(name)?, flags)?;
    let use_software = flags.contains_key("software");
    let mut runner = SequenceRunner::new(GmeConfig::default());
    if flags.contains_key("mosaic") {
        runner = runner.with_mosaic(seq.dims().width as f64, seq.dims().height as f64 / 2.0);
    }

    let mut backend: Box<dyn GmeBackend> = if use_software {
        Box::new(SoftwareBackend::new())
    } else {
        Box::new(EngineBackend::prototype())
    };
    let report = runner.run(seq.frames(), backend.as_mut())?;

    println!(
        "{}: {} frames ({}), backend {}",
        seq.name(),
        report.frames,
        seq.dims(),
        backend.name()
    );
    println!(
        "  calls        : {} intra + {} inter",
        report.tally.intra, report.tally.inter
    );
    println!("  PM model     : {:.3} s", report.pm_seconds);
    if !use_software {
        println!("  engine model : {:.3} s  (speedup {:.2}x)", report.backend_seconds, report.pm_seconds / report.backend_seconds);
    }
    let mut err = 0.0;
    for rec in &report.records {
        let truth = seq.script().ground_truth(rec.index - 1);
        let (dx, dy) = rec.relative.translation_part();
        err += ((dx - truth.dx).powi(2) + (dy - truth.dy).powi(2)).sqrt();
    }
    println!(
        "  ground truth : {:.3} px mean translation error",
        err / report.records.len().max(1) as f64
    );

    if let (Some(path), Some(mosaic)) = (flags.get("mosaic"), report.mosaic) {
        write_pgm(mosaic.canvas(), path)?;
        println!(
            "  mosaic       : {} canvas, {:.0} % covered → {path}",
            mosaic.canvas().dims(),
            mosaic.coverage() * 100.0
        );
    }
    Ok(())
}

fn segment(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let dims = parse_size(flags, Dims::new(96, 72))?;
    let tolerance: u8 = flags
        .get("tolerance")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(12);
    // Segment the first frame of the pisa stand-in.
    let seq = TestSequence::pisa().scaled(dims.width, dims.height, 1);
    let frame = seq.render_frame(0);
    let labelling = label_all_segments(
        &frame,
        &HomogeneityCriterion::luma(tolerance),
        SegmentOptions::default(),
    )?;
    println!(
        "segmented {} ({}): {} segments, largest {}, mean size {:.1}",
        seq.name(),
        dims,
        labelling.segment_count(),
        labelling.largest_segment(),
        labelling.mean_segment_size()
    );
    if let Some(path) = flags.get("out") {
        // Visualise labels as luma (scaled into 0..255).
        let n = labelling.segment_count().max(1) as u32;
        let vis = vip::core::frame::Frame::from_fn(dims, |p| {
            let label = u32::from(labelling.label_at(p));
            Pixel::from_luma((label * 255 / n) as u8)
        });
        write_pgm(&vis, path)?;
        println!("label map → {path}");
    }
    Ok(())
}

/// Runs an observability scenario on a recorded detailed-fidelity engine
/// backend and returns the finished recording, the engine's metrics
/// registry, the frame dimensions the scenario processed and the
/// Pentium-M seconds the backend priced for the same calls.
fn run_scenario(
    name: Option<&String>,
    flags: &HashMap<String, String>,
) -> Result<(Recording, Registry, Dims, f64), Box<dyn Error>> {
    let session = Session::new();
    // Detailed fidelity so the report's stall buckets and ZBT bank duty
    // reflect simulated cycles, not just the schedule.
    let mut backend = EngineBackend::new(EngineConfig::prototype_detailed())?;
    backend.engine_mut().set_recorder(session.recorder());
    let dims = match name.map(String::as_str) {
        Some(kind @ ("intra" | "inter")) => {
            let dims = parse_size(flags, Dims::new(352, 288))?;
            let frame = Frame::from_fn(dims, |p| {
                Pixel::from_luma(((p.x * 7 + p.y * 13) % 256) as u8)
            });
            if kind == "intra" {
                backend.intra(&frame, &SobelGradient::new())?;
            } else {
                let shifted = Frame::from_fn(dims, |p| {
                    Pixel::from_luma(((p.x * 7 + p.y * 13 + 31) % 256) as u8)
                });
                backend.inter(&frame, &shifted, &AbsDiff::luma())?;
            }
            dims
        }
        Some("gme") => {
            let seq = scaled(&TestSequence::singapore(), flags)?;
            let runner =
                SequenceRunner::new(GmeConfig::default()).with_recorder(session.recorder());
            runner.run(seq.frames(), &mut backend)?;
            seq.dims()
        }
        Some(other) if !other.starts_with("--") => {
            return Err(format!("unknown scenario `{other}` (expected intra | inter | gme)").into())
        }
        _ => return Err("missing scenario (intra | inter | gme)".into()),
    };
    let registry = backend.engine().metrics().clone();
    let pm_seconds = backend.pm_modelled_seconds();
    Ok((session.finish(), registry, dims, pm_seconds))
}

/// Parses the `--format` flag: plain text by default, `json` on request.
fn json_format(flags: &HashMap<String, String>) -> Result<bool, Box<dyn Error>> {
    match flags.get("format").map(String::as_str) {
        None | Some("text") => Ok(false),
        Some("json") => Ok(true),
        Some(other) => Err(format!("unknown --format `{other}` (expected text | json)").into()),
    }
}

/// `vipctl check` — static schedule/hazard verification plus workspace
/// lints, exactly what the standalone `vip-check` binary runs.
fn check(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let root = match flags.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let mut dir = std::env::current_dir()?;
            loop {
                let manifest = dir.join("Cargo.toml");
                if std::fs::read_to_string(&manifest)
                    .is_ok_and(|t| t.contains("[workspace]"))
                {
                    break dir;
                }
                if !dir.pop() {
                    return Err("no workspace Cargo.toml found above the current directory \
                                (pass --root DIR)"
                        .into());
                }
            }
        }
    };
    println!("verifying workspace at {}", root.display());
    let report = vip::check::check_workspace(&root);
    println!("{report}");
    if report.is_clean() {
        Ok(())
    } else {
        Err(Box::new(Verdict(format!(
            "{} invariant violation(s)",
            report.violations.len()
        ))))
    }
}

fn trace(name: Option<&String>, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let (recording, ..) = run_scenario(name, flags)?;
    let out = flags.get("out").cloned().unwrap_or_else(|| "trace.json".to_string());
    std::fs::write(&out, recording.to_chrome_json())?;
    let tracks: Vec<&str> = recording.tracks().iter().map(|t| t.name()).collect();
    println!(
        "wrote {} events on {} tracks ({}) to {out}",
        recording.len(),
        tracks.len(),
        tracks.join(", ")
    );
    println!("open in https://ui.perfetto.dev or chrome://tracing");
    Ok(())
}

fn stats(name: Option<&String>, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let (recording, registry, ..) = run_scenario(name, flags)?;
    if json_format(flags)? {
        let mut w = vip::obs::json::JsonWriter::new();
        w.begin_object();
        w.key("scenario");
        w.string(name.map(String::as_str).unwrap_or_default());
        w.key("metrics");
        registry.write_json(&mut w);
        w.key("trace_events");
        w.u64(recording.len() as u64);
        w.key("trace_tracks");
        w.u64(recording.tracks().len() as u64);
        w.end_object();
        println!("{}", w.finish());
        return Ok(());
    }
    print!("{}", registry.text_table());
    println!();
    println!(
        "trace: {} events across {} tracks (use `vipctl trace` to export)",
        recording.len(),
        recording.tracks().len()
    );
    Ok(())
}

/// Percentage of `part` in `whole`, 0 when the whole is empty.
fn pct(part: f64, whole: f64) -> f64 {
    if whole <= 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// The measured coprocessor-side speedup of a scenario: the Pentium-M
/// seconds its backend priced over the engine seconds the same calls
/// took, 0 when the engine did no work.
fn coprocessor_speedup(software_s: f64, registry: &Registry) -> f64 {
    let engine_s = registry.gauge(keys::BUSY_SECONDS);
    if engine_s > 0.0 {
        software_s / engine_s
    } else {
        0.0
    }
}

/// `vipctl report` — the cycle-attribution view of one scenario: where
/// every engine second and every process-unit cycle went, plus the
/// Amdahl decomposition that connects the measurement to the paper's
/// ×30 bound (§1) and its ≈ ×5 end-to-end observation (§5).
fn report(name: Option<&String>, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let (recording, registry, dims, software_s) = run_scenario(name, flags)?;
    let attrib = vip::obs::Attribution::of(&recording);

    // Process-unit cycle buckets — a mutually exclusive partition.
    let pu_cycles = registry.counter(keys::PU_CYCLES);
    let buckets = [
        ("busy", registry.counter(keys::ATTRIB_PU_BUSY_CYCLES)),
        ("iim_stall", registry.counter(keys::PU_IIM_STALLS)),
        ("oim_stall", registry.counter(keys::PU_OIM_STALLS)),
        ("idle", registry.counter(keys::PU_IDLE_CYCLES)),
    ];

    // ZBT bank duty.
    let banks: Vec<u64> = (0..6)
        .map(|b| registry.counter(vip::engine::report::zbt_bank_key(b)))
        .collect();
    let bank_total: u64 = banks.iter().sum();

    // Call-second split.
    let total_s = registry.gauge(keys::BUSY_SECONDS);
    let split = [
        ("pci_input", registry.gauge(keys::ATTRIB_PCI_INPUT_SECONDS)),
        ("pci_output", registry.gauge(keys::ATTRIB_PCI_OUTPUT_SECONDS)),
        ("host_overhead", registry.gauge(keys::ATTRIB_HOST_OVERHEAD_SECONDS)),
        ("engine_nonpci", registry.gauge(keys::ATTRIB_ENGINE_NONPCI_SECONDS)),
    ];

    // Amdahl decomposition: the workload-level offloadable fraction
    // (§1) against this scenario's measured coprocessor-side speedup.
    let model = vip::profiling::CostModel::pentium_m_xm();
    let mix = vip::profiling::segmentation_workload(Dims::new(352, 288));
    let prof = vip::profiling::profile::profile(&mix, &model);
    let ideal = vip::profiling::amdahl::ideal_speedup(prof.offloadable_fraction);
    let coproc = coprocessor_speedup(software_s, &registry);
    let overall = vip::profiling::amdahl::amdahl(prof.offloadable_fraction, coproc);

    if json_format(flags)? {
        let mut w = vip::obs::json::JsonWriter::new();
        w.begin_object();
        w.key("scenario");
        w.string(name.map(String::as_str).unwrap_or_default());
        w.key("dims");
        w.string(&dims.to_string());
        w.key("attribution");
        attrib.write_json(&mut w);
        w.key("pu_cycles");
        w.begin_object();
        w.key("total");
        w.u64(pu_cycles);
        for (label, cycles) in &buckets {
            w.key(label);
            w.u64(*cycles);
        }
        w.end_object();
        w.key("zbt_bank_words");
        w.begin_array();
        for words in &banks {
            w.u64(*words);
        }
        w.end_array();
        w.key("call_seconds");
        w.begin_object();
        w.key("total");
        w.f64(total_s);
        for (label, seconds) in &split {
            w.key(label);
            w.f64(*seconds);
        }
        w.end_object();
        w.key("amdahl");
        w.begin_object();
        w.key("offloadable_fraction");
        w.f64(prof.offloadable_fraction);
        w.key("ideal_bound");
        w.f64(ideal);
        w.key("coprocessor_speedup");
        w.f64(coproc);
        w.key("overall_speedup");
        w.f64(overall);
        w.end_object();
        w.end_object();
        println!("{}", w.finish());
        return Ok(());
    }

    println!(
        "cycle attribution — {} ({dims})",
        name.map(String::as_str).unwrap_or_default()
    );
    println!();
    println!("track utilization (virtual-clock window)");
    print!("{}", attrib.text_table());
    println!();

    println!("process-unit cycle buckets");
    println!("{:<12} {:>14} {:>8}", "bucket", "cycles", "share");
    for (label, cycles) in &buckets {
        println!(
            "{:<12} {:>14} {:>7.2}%",
            label,
            cycles,
            pct(*cycles as f64, pu_cycles as f64)
        );
    }
    println!("{:<12} {:>14} {:>7.2}%", "total", pu_cycles, 100.0);
    println!(
        "matrix: {} loads, {} shifts",
        registry.counter(keys::PU_MATRIX_LOADS),
        registry.counter(keys::PU_MATRIX_SHIFTS)
    );
    println!();

    println!("ZBT bank duty (words moved, detailed calls)");
    for (bank, words) in banks.iter().enumerate() {
        println!(
            "bank{bank:<8} {:>14} {:>7.2}%",
            words,
            pct(*words as f64, bank_total as f64)
        );
    }
    println!();

    println!("call-second split");
    for (label, seconds) in &split {
        println!(
            "{:<14} {:>12.6} s {:>7.2}%",
            label,
            seconds,
            pct(*seconds, total_s)
        );
    }
    println!("{:<14} {:>12.6} s {:>7.2}%", "total", total_s, 100.0);
    println!();

    println!("Amdahl decomposition (segmentation workload profile, CIF, Pentium-M model)");
    println!("offloadable fraction          : {:.4}", prof.offloadable_fraction);
    println!("ideal coprocessor bound (§1)  : {ideal:.1}x");
    println!("measured coprocessor speedup  : {coproc:.2}x  (modelled software {software_s:.4} s / engine {total_s:.4} s)");
    println!("overall Amdahl speedup (§5)   : {overall:.2}x");
    Ok(())
}

/// `vipctl trace-diff` — aligns two exported Chrome traces by track and
/// reports per-track busy-time and event-count deltas, flagging tracks
/// whose busy time moved beyond the threshold.
fn trace_diff(
    a: Option<&String>,
    b: Option<&String>,
    flags: &HashMap<String, String>,
) -> Result<(), Box<dyn Error>> {
    let (Some(a), Some(b)) = (a, b) else {
        return Err("trace-diff needs two trace files: vipctl trace-diff a.json b.json".into());
    };
    if a.starts_with("--") || b.starts_with("--") {
        return Err("trace-diff needs two trace files before any flags".into());
    }
    let threshold: f64 = flags
        .get("threshold")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(10.0)
        / 100.0;
    let doc_a = std::fs::read_to_string(a).map_err(|e| format!("{a}: {e}"))?;
    let doc_b = std::fs::read_to_string(b).map_err(|e| format!("{b}: {e}"))?;
    let diff = vip::obs::diff_chrome_traces(&doc_a, &doc_b)?;
    println!("trace diff: {a} → {b}");
    print!("{}", diff.text_table(threshold));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn accepted_flag_takes_its_value() {
        let flags = parse_flags("gme", &args(&["dome", "--frames", "5", "--size", "88x72"])).unwrap();
        assert_eq!(flags.get("frames").map(String::as_str), Some("5"));
        assert_eq!(flags.get("size").map(String::as_str), Some("88x72"));
    }

    #[test]
    fn unknown_flag_is_rejected_with_the_accepted_list() {
        let err = parse_flags("gme", &args(&["dome", "--frame", "5"])).unwrap_err();
        assert_eq!(
            err,
            "unknown flag --frame for `gme` (accepted: --frames, --size, --software, --mosaic)"
        );
        let err = parse_flags("info", &args(&["--size", "8x8"])).unwrap_err();
        assert_eq!(err, "unknown flag --size for `info` (accepted: none)");
        let err = parse_flags("gmee", &args(&["dome", "--frames", "5"])).unwrap_err();
        assert_eq!(err, "unknown command `gmee`");
    }

    #[test]
    fn valueless_flag_reads_as_true() {
        let flags = parse_flags("gme", &args(&["dome", "--software", "--frames", "3"])).unwrap();
        assert_eq!(flags.get("software").map(String::as_str), Some("true"));
        assert_eq!(flags.get("frames").map(String::as_str), Some("3"));
        let flags = parse_flags("gme", &args(&["dome", "--software"])).unwrap();
        assert_eq!(flags.get("software").map(String::as_str), Some("true"));
    }

    #[test]
    fn usage_hint_is_one_line() {
        assert_eq!(
            usage_hint("gme"),
            "usage: vipctl gme <sequence> [--frames N] [--size WxH] [--software] [--mosaic out.pgm]"
        );
        assert_eq!(usage_hint("info"), "usage: vipctl info");
        assert!(usage_hint("nope").starts_with("commands: info | render | gme"));
        assert!(!usage_hint("nope").contains('\n'));
        // The full usage lists every command.
        for (name, _, _) in COMMANDS {
            assert!(usage().contains(&format!("vipctl {name}")), "{name}");
        }
    }

    #[test]
    fn only_argument_errors_print_the_usage_line() {
        let verdict = Verdict("2 invariant violation(s)".to_string());
        assert_eq!(
            error_report("check", &verdict),
            "vipctl: 2 invariant violation(s)"
        );
        let err = run(&args(&["check", "--rot", "."])).unwrap_err();
        assert_eq!(
            error_report("check", err.as_ref()),
            "vipctl: unknown flag --rot for `check` (accepted: --root)\n\
             usage: vipctl check [--root DIR]"
        );
    }

    #[test]
    fn report_speedup_matches_table3_on_the_same_run() {
        let flags = parse_flags("report", &args(&["gme", "--size", "88x72", "--frames", "4"]));
        let (_, registry, dims, software_s) =
            run_scenario(Some(&"gme".to_string()), &flags.unwrap()).unwrap();
        assert_eq!(dims, Dims::new(88, 72));

        let seq = TestSequence::singapore().scaled(88, 72, 4);
        let mut backend = EngineBackend::prototype();
        let table3 = SequenceRunner::new(GmeConfig::default())
            .run(seq.frames(), &mut backend)
            .unwrap();
        assert!(table3.backend_seconds > 0.0);
        assert_eq!(software_s, table3.pm_seconds);
        assert_eq!(
            coprocessor_speedup(software_s, &registry),
            table3.pm_seconds / table3.backend_seconds
        );
    }
}
