//! Per-layer metrics of the traced run: each times one public call into a
//! crate, made from this file on the server's shared session with the
//! workload's own inputs, as a span.

use std::time::Duration;

use cej_core::join::hash_join::HashSide;
use cej_core::{IndexJoinConfig, TensorJoin, TensorJoinConfig};
use cej_exec::ExecPool;
use cej_index::HnswIndex;
use cej_obs::Trace;
use cej_relational::SimilarityPredicate;
use cej_server::protocol::{render_table, Command};
use cej_storage::{Delta, ScalarValue, Table, TableBuilder};

use crate::inputs::{AppendRow, Op, Size, Tables};
use crate::serve::{self, Expect, Outcome, Served, Verdict};
use crate::stats::median;
use crate::trace::Spans;

/// Repetitions of each timed layer call; the metric is their median.
const REPS: usize = 15;

/// Probe texts timed per probe-path layer call.
const PROBES: usize = 100;

/// Write pairs applied in-process for the write-path layers.
const PAIRS: usize = 10;

/// One per-layer metric as `BENCHMARK.json` declares it, with the
/// end-to-end metric (and workload) it should move.
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `<workload>.<end-to-end metric>` it should move, and where it
    /// should not.
    pub moves: &'static str,
}

/// Every per-layer metric, in output order.
pub const LAYERS: &[Layer] = &[
    Layer {
        name: "vector.tensor_join_ms",
        unit: "ms",
        moves: "scan_join.query_p50_ms, live_rw.write_p50_ms; not probe_index",
    },
    Layer {
        name: "vector.ns_per_fma",
        unit: "ns",
        moves: "scan_join.query_p50_ms, live_rw.write_p50_ms; not probe_index",
    },
    Layer {
        name: "embedding.warm_gather_ms",
        unit: "ms",
        moves: "scan_join.query_p50_ms, live_rw.write_p50_ms",
    },
    Layer {
        name: "embedding.cold_us_per_string",
        unit: "us",
        moves: "probe_index.probe_p50_ms, setup_s",
    },
    Layer {
        name: "embedding.cached_entries",
        unit: "count",
        moves: "peak_rss_mb",
    },
    Layer {
        name: "index.memory_mb",
        unit: "MiB",
        moves: "peak_rss_mb",
    },
    Layer {
        name: "index.build_s",
        unit: "s",
        moves: "probe_index.setup_s",
    },
    Layer {
        name: "index.search_us",
        unit: "us",
        moves: "probe_index.probe_p50_ms, probe_index.query_p50_ms; not scan_join",
    },
    Layer {
        name: "index.visited_per_search",
        unit: "count",
        moves: "probe_index.probe_p50_ms, probe_index.query_p50_ms; not scan_join",
    },
    Layer {
        name: "core.prepare_us",
        unit: "us",
        moves: "probe_index.probe_p50_ms; not query_p50_ms (planned once)",
    },
    Layer {
        name: "core.run_ms",
        unit: "ms",
        moves: "query_p50_ms on every workload",
    },
    Layer {
        name: "core.rows_out",
        unit: "count",
        moves: "query_p50_ms on every workload (output size)",
    },
    Layer {
        name: "core.pairs_compared",
        unit: "count",
        moves: "query_p50_ms on every workload",
    },
    Layer {
        name: "core.hash_build_us",
        unit: "us",
        moves: "scan_join.query_p50_ms (small share), live_rw.write_p50_ms",
    },
    Layer {
        name: "core.hash_probe_us",
        unit: "us",
        moves: "scan_join.query_p50_ms (small share), live_rw.write_p50_ms",
    },
    Layer {
        name: "storage.delta_apply_us",
        unit: "us",
        moves: "live_rw.write_p50_ms, live_rw.frame_p50_ms",
    },
    Layer {
        name: "core.apply_delta_ms",
        unit: "ms",
        moves: "live_rw.write_p50_ms, live_rw.frame_p50_ms",
    },
    Layer {
        name: "core.ivm_propagated_ratio",
        unit: "ratio",
        moves: "live_rw.write_p50_ms, live_rw.frame_p50_ms",
    },
    Layer {
        name: "server.parse_us",
        unit: "us",
        moves: "probe_index.probe_p50_ms, scan_join.query_p50_ms",
    },
    Layer {
        name: "server.render_us_per_row",
        unit: "us",
        moves: "probe_index.probe_p50_ms, scan_join.query_p50_ms",
    },
    Layer {
        name: "server.request_overhead_ms",
        unit: "ms",
        moves: "probe_index.probe_p50_ms, scan_join.query_p50_ms",
    },
    Layer {
        name: "exec.tasks_per_run",
        unit: "count",
        moves: "scan_join.query_p95_ms",
    },
    Layer {
        name: "exec.steals_per_run",
        unit: "count",
        moves: "scan_join.query_p95_ms",
    },
    Layer {
        name: "obs.traced_run_ratio",
        unit: "ratio",
        moves: "query_p50_ms (the server traces every query)",
    },
    Layer {
        name: "attrib.query_unattributed_pct",
        unit: "%",
        moves: "query_p50_ms not explained by parse + core.run + render",
    },
    Layer {
        name: "attrib.probe_unattributed_pct",
        unit: "%",
        moves:
            "probe_p50_ms not explained by parse + prepare + cold embed + search or scan + render",
    },
    Layer {
        name: "attrib.write_unattributed_pct",
        unit: "%",
        moves: "write_p50_ms not explained by parse + core.apply_delta",
    },
    Layer {
        name: "traced.query_p50_ms",
        unit: "ms",
        moves: "query_p50_ms with the benchmark's spans on",
    },
    Layer {
        name: "traced.probe_p50_ms",
        unit: "ms",
        moves: "probe_p50_ms with the benchmark's spans on",
    },
    Layer {
        name: "traced.write_p50_ms",
        unit: "ms",
        moves: "write_p50_ms with the benchmark's spans on",
    },
    Layer {
        name: "traced.frame_p50_ms",
        unit: "ms",
        moves: "frame_p50_ms with the benchmark's spans on",
    },
];

/// `f`'s last result and the median of `REPS` timed calls of it, each a
/// root span named `name`.
fn timed<T>(spans: &mut Spans, name: &'static str, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut last = None;
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (value, ms) = spans.time(name, || std::hint::black_box(f()));
        times.push(ms);
        last = Some(value);
    }
    (
        last.expect("at least one repetition"),
        median(&times).expect("at least one repetition"),
    )
}

fn append_table(rows: &[AppendRow]) -> Table {
    TableBuilder::new()
        .int64("id", rows.iter().map(|r| r.id).collect())
        .utf8("word", rows.iter().map(|r| r.word.clone()).collect())
        .int64("filter", rows.iter().map(|r| r.filter).collect())
        .date("date", rows.iter().map(|r| r.date).collect())
        .build()
        .expect("appended rows match r's schema")
}

fn delete_of(rows: &[AppendRow]) -> Delta {
    Delta::DeleteByKey {
        key_column: "id".to_string(),
        keys: rows.iter().map(|r| ScalarValue::Int64(r.id)).collect(),
    }
}

/// Everything the layer calls need from the run.
pub struct Context<'a> {
    /// Sizes.
    pub size: &'a Size,
    /// The generated tables.
    pub tables: &'a Tables,
    /// The timed op stream.
    pub ops: &'a [Op],
    /// The traced timed phase.
    pub traced: &'a Outcome,
    /// Response checks (for the frames in-process writes produce).
    pub expect: &'a Expect<'a>,
}

/// Measures every per-layer metric; values in `LAYERS` order.  Wrong
/// results seen on the way are appended to `wrong`.
pub fn measure(
    served: &mut Served,
    cx: &Context<'_>,
    spans: &mut Spans,
    wrong: &mut Vec<String>,
) -> Vec<f64> {
    let size = cx.size;
    let session = served.server.session();
    let model = session.shared_model("ft").expect("ft is registered");
    let cache = session
        .embedding_caches()
        .cache("ft", &session.model_registry())
        .expect("ft is registered");
    let s_words = Tables::words(&cx.tables.s);
    let r_keep: Vec<usize> = cx
        .tables
        .r
        .column_by_name("filter")
        .and_then(|c| c.as_int64().map(<[i64]>::to_vec))
        .expect("r has an int64 filter column")
        .iter()
        .enumerate()
        .filter(|(_, &f)| f < size.filter_below)
        .map(|(i, _)| i)
        .collect();
    let r_filtered = cx.tables.r.take(&r_keep).expect("indices are in range");
    let r_words = Tables::words(&r_filtered);
    let texts: Vec<String> = cx
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Probe(text) => Some(text.clone()),
            _ => None,
        })
        .take(PROBES)
        .collect();

    // embedding
    let ((right, stats), warm_gather_ms) = timed(spans, "layer.embedding.warm_gather", || {
        cache.embed_batch_counted(&s_words)
    });
    if stats.model_calls != 0 {
        wrong.push(format!(
            "warm gather over s.word made {} model calls",
            stats.model_calls
        ));
    }
    let (left, _) = cache.embed_batch_counted(&r_words);
    let cold_us: Vec<f64> = texts
        .chunks(10)
        .map(|chunk| {
            let chunk = chunk.to_vec();
            let (_, ms) = spans.time("layer.embedding.cold", || model.embed_batch(&chunk));
            ms * 1e3 / chunk.len() as f64
        })
        .collect();
    let cached_entries = session.embedding_caches().cached_entries() as f64;

    // vector
    let join = TensorJoin::new(TensorJoinConfig::default());
    let predicate = SimilarityPredicate::TopK(size.k);
    let (_, tensor_ms) = timed(spans, "layer.vector.tensor_join", || {
        join.join_matrices(&left, &right, predicate)
            .expect("shapes match")
    });
    let fmas = (left.rows() * right.rows() * right.cols()) as f64;

    // index
    let params = IndexJoinConfig::default().params;
    let (index, build_ms) = spans.time("layer.index.build", || {
        HnswIndex::build(right.clone(), params).expect("s is not empty")
    });
    let queries = model.embed_batch(&texts);
    let mut search_us = Vec::new();
    let mut visited = Vec::new();
    for i in 0..queries.rows() {
        let query = queries.row(i).expect("row in range");
        let (result, ms) = spans.time("layer.index.search", || index.search(query, size.k, None));
        search_us.push(ms * 1e3);
        visited.push(result.expect("query has the index dim").stats.nodes_visited as f64);
    }

    // core: planning of the probe plan, per request
    let mut writer = session.clone();
    let mut prepare_us = Vec::new();
    let mut probe_access = String::new();
    for text in &texts {
        let plan = serve::probe_plan(&mut writer, size, text);
        let (prepared, ms) = spans.time("layer.core.prepare", || session.prepare(&plan));
        prepare_us.push(ms * 1e3);
        if let Ok(prepared) = prepared {
            probe_access = serve::access_path(&prepared.explain());
        }
    }
    writer.unregister_table(serve::PROBE_TABLE);

    // core: the prepared statement q, in-process
    let q_plan = serve::spec_of(&serve::q_line(size))
        .to_plan(None)
        .expect("q plan");
    let prepared = session.prepare(&q_plan).expect("q prepares");
    let mut tasks = Vec::new();
    let mut steals = Vec::new();
    let mut run_times = Vec::new();
    let mut report = None;
    for _ in 0..REPS {
        let before = ExecPool::metrics();
        let (result, ms) = spans.time("layer.core.run", || prepared.run());
        let delta = ExecPool::metrics().delta_since(&before);
        run_times.push(ms);
        tasks.push(delta.tasks_executed as f64);
        steals.push(delta.steals as f64);
        report = Some(result.expect("q runs"));
    }
    let report = report.expect("at least one run");
    let run_ms = median(&run_times).expect("REPS > 0");
    if serve::checksum_of(&render_table(&report.table)) != cx.expect.run_checksum {
        wrong.push("in-process run of q differs from the reference".to_string());
    }
    let (_, traced_ms) = timed(spans, "layer.core.run_traced", || {
        let trace = Trace::forced("ejbench");
        let result = prepared.run_traced(&trace);
        trace.finish();
        result
    });
    let rows_out = report.table.num_rows() as f64;

    // core: hash join of r (filtered) with d
    let (side, hash_build_ms) = timed(spans, "layer.core.hash_build", || {
        HashSide::build(cx.tables.d.clone(), "fid").expect("fid is hashable")
    });
    let (_, hash_probe_ms) = timed(spans, "layer.core.hash_probe", || {
        side.probe(&r_filtered, "filter")
            .expect("filter is hashable")
    });

    // server: protocol parse and render
    let lines: Vec<String> = cx.ops.iter().flat_map(Op::requests).collect();
    let parse_us: Vec<f64> = lines
        .iter()
        .map(|line| spans.time("layer.server.parse", || Command::parse(line)).1 * 1e3)
        .collect();
    let (_, render_ms) = timed(spans, "layer.server.render", || render_table(&report.table));

    // storage and IVM: balanced write pairs, in-process, with the
    // subscription of `v` attached; their frames are checked like served ones
    let pairs: Vec<&Vec<AppendRow>> = cx
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::WritePair(rows) => Some(rows),
            _ => None,
        })
        .take(PAIRS)
        .collect();
    let current = session.catalog().table("r").expect("r is registered");
    let mut delta_us = Vec::new();
    let mut apply_ms = Vec::new();
    let (mut propagated, mut updated) = (0usize, 0usize);
    for rows in &pairs {
        let append = Delta::Append(append_table(rows));
        let (after, ms) = spans.time("layer.storage.delta_apply", || append.apply(&current));
        delta_us.push(ms * 1e3);
        let after = after.expect("append matches the schema").table;
        let delete = delete_of(rows);
        let (_, ms) = spans.time("layer.storage.delta_apply", || delete.apply(&after));
        delta_us.push(ms * 1e3);
        for (delta, appended) in [(append, true), (delete, false)] {
            let (report, ms) = spans.time("layer.core.apply_delta", || {
                session.apply_delta("r", &delta)
            });
            apply_ms.push(ms);
            match report {
                Ok(report) => {
                    propagated += report.propagated;
                    updated += report.standing_updated;
                    served.version = Some(report.version);
                    let frame = served.subscriber.wait_delta(Duration::from_secs(5));
                    match serve::check_frame(frame, rows, appended, served, cx.expect) {
                        Verdict::Ok => {}
                        Verdict::Failed => {
                            wrong.push("in-process apply: no DELTA frame".to_string())
                        }
                        Verdict::Wrong(why) => wrong.push(format!("in-process apply: {why}")),
                    }
                }
                Err(e) => wrong.push(format!("in-process apply failed: {e}")),
            }
        }
    }

    // end to end with spans on, and what the layers leave unexplained
    let traced = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let (query_ms, probe_ms) = (traced(&cx.traced.run_ms), traced(&cx.traced.probe_ms));
    let (write_ms, frame_ms) = (traced(&cx.traced.write_ms), traced(&cx.traced.frame_ms));
    let parse_ms = median(&parse_us).unwrap_or(0.0) / 1e3;
    let render_per_row_us = render_ms * 1e3 / rows_out.max(1.0);
    let cold_string_ms = median(&cold_us).unwrap_or(0.0) / 1e3;
    let ns_per_fma = tensor_ms * 1e6 / fmas;
    let search_or_scan_ms = if probe_access == "index-probe" {
        median(&search_us).unwrap_or(0.0) / 1e3
    } else {
        warm_gather_ms + ns_per_fma * (right.rows() * right.cols()) as f64 / 1e6
    };
    let unexplained = |e2e: f64, explained: f64| (e2e - explained) / e2e * 100.0;
    let query_path = parse_ms + run_ms + render_per_row_us * rows_out / 1e3;
    let probe_path = parse_ms
        + median(&prepare_us).unwrap_or(0.0) / 1e3
        + cold_string_ms
        + search_or_scan_ms
        + render_per_row_us * size.k as f64 / 1e3;
    let apply_delta_ms = median(&apply_ms).unwrap_or(f64::NAN);
    let write_path = parse_ms + apply_delta_ms;

    vec![
        tensor_ms,
        ns_per_fma,
        warm_gather_ms,
        median(&cold_us).unwrap_or(f64::NAN),
        cached_entries,
        index.memory_bytes() as f64 / (1024.0 * 1024.0),
        build_ms / 1e3,
        median(&search_us).unwrap_or(f64::NAN),
        median(&visited).unwrap_or(f64::NAN),
        median(&prepare_us).unwrap_or(f64::NAN),
        run_ms,
        rows_out,
        report.join_stats.pairs_compared as f64,
        hash_build_ms * 1e3,
        hash_probe_ms * 1e3,
        median(&delta_us).unwrap_or(f64::NAN),
        apply_delta_ms,
        propagated as f64 / updated.max(1) as f64,
        median(&parse_us).unwrap_or(f64::NAN),
        render_per_row_us,
        query_ms - run_ms,
        median(&tasks).unwrap_or(f64::NAN),
        median(&steals).unwrap_or(f64::NAN),
        traced_ms / run_ms,
        unexplained(query_ms, query_path),
        unexplained(probe_ms, probe_path),
        unexplained(write_ms, write_path),
        query_ms,
        probe_ms,
        write_ms,
        frame_ms,
    ]
}
