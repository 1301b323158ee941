//! `ejbench`: the end-to-end benchmark of the served ejoin engine.
//!
//! ```sh
//! cargo run --release --offline --manifest-path ejbench/Cargo.toml -- \
//!     --workload scan_join --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Boots `cej-server` in-process on loopback, drives one workload through
//! one closed-loop thread, checks every response, and prints the metrics
//! `BENCHMARK.json` declares as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  See `README.md` for the workloads and the metric map.

mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cej_exec::ExecPool;
use cej_index::BruteForce;
use cej_vector::Metric;

use crate::inputs::{op_stream, timed_cycles, Op, Size, Tables, Workload};
use crate::serve::{Expect, Outcome, Served};
use crate::stats::{median, windowed_p95};
use crate::trace::Spans;

/// Every end-to-end metric: name, unit, and how to read it off a run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("probe_p50_ms", "ms"),
    ("probe_p95_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p95_ms", "ms"),
    ("frame_p50_ms", "ms"),
    ("frame_p95_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("ok_op_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("recall_at_k", "ratio"),
];

/// Warm-up cycles before the timed phase (not recorded).
const WARM_CYCLES: usize = 2;

/// First probe serial of the timed phase; warm-up serials stay below it.
const TIMED_SERIAL: usize = 1_000_000;

/// The timed phase stops issuing ops after this long, so a run always
/// exits well inside its time limit.
const TIMED_CAP: Duration = Duration::from_secs(120);

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_out";

const USAGE: &str = "usage: ejbench --workload <scan_join|probe_index|live_rw> --seed <n> --seconds <n> --trace <0|1>";

/// Command-line arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What a run prints: comment lines (metadata, and in the traced run the
/// layer map), then the result object.
struct Report {
    lines: Vec<String>,
    result: String,
    correct: bool,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ejbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Pin the worker pool to the machine before anything reads it.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("CEJ_THREADS", nproc.to_string());
    match run(&args, &Size::STANDARD) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.result);
            std::process::exit(if report.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("ejbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One run: set up, warm up, drive the timed op stream, check everything,
/// then either measure the layers (traced) or set up `Workload::setups - 1`
/// more times for `setup_s` (untraced).
fn run(args: &Args, size: &Size) -> Result<Report, String> {
    let workload = args.workload;
    let tables = Tables::generate(args.seed, size);
    let run_checksum = serve::reference_checksum(workload, &tables, size);
    let expect = Expect { size, run_checksum };

    // The first set-up serves the timed phase; the others only time set-up
    // again, after the peak resident set has been read, so the memory churn
    // of repeated set-ups never reaches `peak_rss_mb`.
    let mut wrong = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup = |wrong: &mut Vec<String>| -> Result<Served, String> {
        let (served, seconds) = Served::setup(workload, &tables, size)?;
        if served.first_checksum != run_checksum {
            wrong.push(format!(
                "cold RUN q checksum {:016x}, reference {run_checksum:016x}",
                served.first_checksum
            ));
        }
        setup_s.push(seconds);
        Ok(served)
    };
    let mut served = setup(&mut wrong)?;

    let warm = op_stream(
        workload,
        args.seed,
        size,
        &tables.vocabulary,
        WARM_CYCLES,
        0,
    );
    let warm_out = serve::drive(
        &mut served,
        &warm,
        &expect,
        Instant::now() + TIMED_CAP,
        None,
    );
    let ops = op_stream(
        workload,
        args.seed,
        size,
        &tables.vocabulary,
        timed_cycles(workload, args.seconds),
        TIMED_SERIAL,
    );
    let access = [
        served.explain_access_path(),
        probe_access_path(&served, size, &ops),
    ];

    let mut spans = args.trace.then(Spans::default);
    let out = serve::drive(
        &mut served,
        &ops,
        &expect,
        Instant::now() + TIMED_CAP,
        spans.as_mut(),
    );
    wrong.extend(warm_out.wrong.iter().cloned());
    wrong.extend(out.wrong.iter().cloned());
    wrong.extend(serve::check_no_stray_frames(&mut served));
    let peak_rss = peak_rss_mib()?;
    let recall = recall_at_k(&tables, size, &out.probes);

    let mut lines = Vec::new();
    let metrics = if let Some(spans) = spans.as_mut() {
        let cx = layers::Context {
            size,
            tables: &tables,
            ops: &ops,
            traced: &out,
            expect: &expect,
        };
        let values = layers::measure(&mut served, &cx, spans, &mut wrong);
        let path = format!(
            "{SPAN_DIR}/spans-{}-seed{}.jsonl",
            workload.name(),
            args.seed
        );
        spans
            .write_jsonl(std::path::Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        lines.push(format!("# spans: {} written to {path}", spans.len()));
        layers::LAYERS
            .iter()
            .zip(values)
            .map(|(layer, value)| {
                lines.push(format!(
                    "# layer {} = {value:.4} {} -> {}",
                    layer.name, layer.unit, layer.moves
                ));
                (layer.name, layer.unit, value)
            })
            .collect()
    } else {
        drop(served);
        for _ in 1..workload.setups() {
            drop(setup(&mut wrong)?);
        }
        let attempted = warm_out.attempted + out.attempted;
        let verified = warm_out.verified() + out.verified();
        let p50 = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        let p95 = |v: &[f64]| windowed_p95(v).unwrap_or(f64::NAN);
        let values = [
            p50(&setup_s),
            p50(&out.run_ms),
            p95(&out.run_ms),
            p50(&out.probe_ms),
            p95(&out.probe_ms),
            p50(&out.write_ms),
            p95(&out.write_ms),
            p50(&out.frame_ms),
            p95(&out.frame_ms),
            out.verified() as f64 / out.elapsed_s,
            verified as f64 / attempted.max(1) as f64,
            peak_rss,
            recall,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect::<Vec<_>>()
    };
    lines.insert(
        0,
        meta_line(args, &ops, &out, &setup_s, [&access[0], &access[1]]),
    );
    for why in wrong.iter().take(20) {
        lines.push(format!("# WRONG: {why}"));
    }
    let attempted = warm_out.attempted + out.attempted;
    let failed = warm_out.failed + out.failed + wrong.len() as u64;
    let correct = wrong.is_empty();
    Ok(Report {
        lines,
        result: result_json(correct, attempted, failed.min(attempted), &metrics),
        correct,
    })
}

/// The access path the planner picks for a probe, from an in-process
/// `EXPLAIN` of the probe template's plan (templates plan per request, so
/// `EXPLAIN` over the wire has nothing to show).
fn probe_access_path(served: &Served, size: &Size, ops: &[Op]) -> String {
    let Some(text) = ops.iter().find_map(|op| match op {
        Op::Probe(text) => Some(text.clone()),
        _ => None,
    }) else {
        return "none".to_string();
    };
    let mut session = served.server.session();
    let plan = serve::probe_plan(&mut session, size, &text);
    let explained = session.explain(&plan).map_err(|e| e.to_string());
    session.unregister_table(serve::PROBE_TABLE);
    explained.map_or_else(
        |e| format!("unavailable ({e})"),
        |text| serve::access_path(&text),
    )
}

/// Share of the returned probe rows that belong to the exact top-k: exact
/// answers come from a brute-force scan over freshly computed embeddings
/// of `s`, outside the timed phase.  A returned similarity tied with the
/// exact k-th best counts as a hit (duplicate words tie).
fn recall_at_k(tables: &Tables, size: &Size, probes: &[(String, Vec<f32>)]) -> f64 {
    use cej_embedding::Embedder;
    if probes.is_empty() {
        return f64::NAN;
    }
    let model = serve::model();
    let exact = BruteForce::new(model.embed_batch(&Tables::words(&tables.s)), Metric::Cosine);
    let texts: Vec<String> = probes.iter().map(|(text, _)| text.clone()).collect();
    let queries = model.embed_batch(&texts);
    let mut hits = 0usize;
    for (i, (_, sims)) in probes.iter().enumerate() {
        let query = queries.row(i).expect("one row per probe");
        let top = exact.search(query, size.k, None).expect("s is not empty");
        let kth = top.last().map_or(f32::NEG_INFINITY, |e| e.score);
        hits += sims.iter().filter(|&&sim| sim >= kth - 1e-4).count();
    }
    hits as f64 / (probes.len() * size.k) as f64
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The metadata comment line: seed, op and sample counts, pool, SIMD width,
/// `CEJ_*` environment, `nproc`, and the access paths `EXPLAIN` reports.
fn meta_line(args: &Args, ops: &[Op], out: &Outcome, setup_s: &[f64], access: [&str; 2]) -> String {
    let count = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count();
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CEJ_"))
        .collect();
    env.sort();
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
        .collect();
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    let mut meta = String::new();
    let _ = write!(
        meta,
        "# meta {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{},\"pool_threads\":{},\"pool_workers\":{},\"simd_width\":\"{:?}\",\"env\":{{{}}},\
         \"access_path\":{{\"q\":\"{}\",\"p\":\"{}\"}},\
         \"ops\":{{\"run\":{},\"probe\":{},\"apply\":{}}},\
         \"samples\":{{\"query\":{},\"probe\":{},\"write\":{},\"frame\":{}}},\
         \"timed_s\":{:.3},\"setup_s\":[{}]}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ExecPool::global().threads(),
        ExecPool::metrics().workers,
        cej_vector::dispatched_width(),
        env.join(","),
        escape(access[0]),
        escape(access[1]),
        count(|op| matches!(op, Op::Run)),
        count(|op| matches!(op, Op::Probe(_))),
        2 * count(|op| matches!(op, Op::WritePair(_))),
        out.run_ms.len(),
        out.probe_ms.len(),
        out.write_ms.len(),
        out.frame_ms.len(),
        out.elapsed_s,
        setups.join(","),
    );
    meta
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The result object: `correct`, `attempted`, `failed`, and every metric
/// with its unit.  A metric with no samples prints as `null`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names declared under `key` in `BENCHMARK.json`, in order.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let section = json
            .split(&format!("\"{key}\""))
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .expect("section present");
        section
            .split("\"name\"")
            .skip(1)
            .filter_map(|entry| entry.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<&str> = layers::LAYERS.iter().map(|l| l.name).collect();
        assert_eq!(declared("per_layer"), layers);
        // probe_index runs but is not gated: see README.md
        assert_eq!(declared("workloads"), ["scan_join", "live_rw"]);
    }

    #[test]
    fn arguments_parse() {
        let argv: Vec<String> = "--workload live_rw --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload, Workload::LiveRw);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_args(&["--seed".to_string()]).is_err());
    }

    fn smoke(workload: Workload, trace: bool) {
        let args = Args {
            workload,
            seed: 3,
            seconds: 1,
            trace,
        };
        let report = run(&args, &Size::TINY).expect("the run completes");
        assert!(report.correct, "{}: {:?}", workload.name(), report.lines);
        assert!(
            report.result.starts_with("{\"correct\":true,"),
            "{}",
            report.result
        );
        assert!(report.result.contains("\"failed\":0,"), "{}", report.result);
        let names: Vec<&str> = if trace {
            layers::LAYERS.iter().map(|l| l.name).collect()
        } else {
            END_TO_END.iter().map(|(name, _)| *name).collect()
        };
        for name in names {
            assert!(
                report.result.contains(&format!("\"{name}\":{{\"value\":")),
                "{name} missing"
            );
        }
        assert!(!report.result.contains("null"), "{}", report.result);
        if !trace {
            assert!(
                report.result.contains("\"ok_op_ratio\":{\"value\":1,"),
                "{}",
                report.result
            );
        }
    }

    #[test]
    fn scan_join_smoke() {
        smoke(Workload::ScanJoin, false);
    }

    #[test]
    fn probe_index_smoke() {
        smoke(Workload::ProbeIndex, false);
    }

    #[test]
    fn live_rw_smoke() {
        smoke(Workload::LiveRw, false);
    }

    #[test]
    fn traced_smoke() {
        smoke(Workload::LiveRw, true);
    }
}
