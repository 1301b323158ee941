//! The served engine under test: set-up, the closed-loop op generator, and
//! the check of every response.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use cej_core::{ContextJoinSession, IndexJoinConfig, JoinStrategy, NljConfig};
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_relational::LogicalPlan;
use cej_server::protocol::{render_table, Command, StatementSpec};
use cej_server::{Client, DeltaFrame, Response, Server, ServerConfig};
use cej_storage::TableBuilder;

use crate::inputs::{AppendRow, Op, Size, Tables, Workload};
use crate::trace::Spans;

/// How long an `APPLY` may take to deliver its `DELTA` frame before the op
/// counts as timed out.
const FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// Column header of every `PROBE` response.
const PROBE_HEADER: &str = "l_text\tr_id\tr_word\tr_filter\tr_date\tsimilarity";

/// `PREPARE` line of the shared statement `q`.
pub fn q_line(size: &Size) -> String {
    format!(
        "PREPARE q QUERY r JOIN d ON r.filter=d.fid EJOIN s ON word~word MODEL ft TOPK {} \
         WHERE r.filter < {}",
        size.k, size.filter_below
    )
}

/// `PREPARE` line of the probe template `p`.
pub fn probe_line(size: &Size) -> String {
    format!("PREPARE p PROBE s.word MODEL ft TOPK {}", size.k)
}

/// The statement spec of a `PREPARE` line.
pub fn spec_of(line: &str) -> StatementSpec {
    match Command::parse(line) {
        Ok(Command::Prepare { spec, .. }) => *spec,
        other => panic!("`{line}` is not a PREPARE: {other:?}"),
    }
}

/// The one-row table an in-process probe's text is registered as, the way
/// the server registers one per connection.
pub const PROBE_TABLE: &str = "__ejbench_probe";

/// The plan of the probe template `p` for `text`, with `text` registered on
/// `session` as [`PROBE_TABLE`] (which the caller unregisters when done).
pub fn probe_plan(session: &mut ContextJoinSession, size: &Size, text: &str) -> LogicalPlan {
    let table = TableBuilder::new()
        .utf8("text", vec![text.to_string()])
        .build()
        .expect("one-column table");
    session.register_table(PROBE_TABLE, table);
    spec_of(&probe_line(size))
        .to_plan(Some(PROBE_TABLE))
        .expect("the probe template has a valid plan")
}

/// The embedding model every workload serves: FastText-style n-gram
/// hashing, dim 32, no simulated per-call cost, so model time is CPU work.
pub fn model() -> FastTextModel {
    FastTextModel::new(FastTextConfig {
        dim: 32,
        ..FastTextConfig::default()
    })
    .expect("the model configuration is valid")
}

/// A session over the generated tables with the given join strategy.
pub fn session(tables: &Tables, strategy: JoinStrategy) -> ContextJoinSession {
    let mut session = ContextJoinSession::new();
    session.register_table("r", tables.r.clone());
    session.register_table("s", tables.s.clone());
    session.register_table("d", tables.d.clone());
    session.register_model("ft", model());
    session.with_strategy(strategy);
    session
}

/// The join strategy the served session runs under: `probe_index` forces
/// the HNSW index (the cost model never picks it at these sizes); the
/// others leave the choice to the planner.
pub fn served_strategy(workload: Workload) -> JoinStrategy {
    if workload.uses_index() {
        JoinStrategy::Index(IndexJoinConfig::default())
    } else {
        JoinStrategy::Auto
    }
}

/// The checksum `RUN q` must return, computed in-process on a fresh session
/// that shares nothing with the served one.  Exact workloads use the
/// prefetch nested-loop join, a different operator than the tensor scan the
/// server runs; the index workload rebuilds the same deterministic index.
pub fn reference_checksum(workload: Workload, tables: &Tables, size: &Size) -> u64 {
    let strategy = if workload.uses_index() {
        served_strategy(workload)
    } else {
        JoinStrategy::PrefetchNlj(NljConfig::default())
    };
    let session = session(tables, strategy);
    let plan = spec_of(&q_line(size))
        .to_plan(None)
        .expect("q has a valid plan");
    let report = session
        .prepare(&plan)
        .and_then(|prepared| prepared.run())
        .expect("the reference run succeeds");
    checksum_of(&render_table(&report.table))
}

/// The checksum on the `END` line of a rendered `ROWS` payload.
pub fn checksum_of(rendered: &str) -> u64 {
    rendered
        .lines()
        .last()
        .and_then(|end| end.strip_prefix("END "))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .expect("render_table ends with an END checksum line")
}

/// One served engine, ready for the timed phase.
///
/// Field order is drop order: the clients hang up before the server shuts
/// down and joins its connection threads.
pub struct Served {
    /// Connection B: every request.
    pub requester: Client,
    /// Connection A: its own `q`, subscribed; read only for `DELTA` frames.
    pub subscriber: Client,
    /// The subscription id of A's `q`.
    pub subscription: u64,
    /// Checksum of the set-up's cold `RUN q`.
    pub first_checksum: u64,
    /// Version of `r` after the last verified `APPLY`.
    pub version: Option<u64>,
    /// The server.
    pub server: Server,
}

impl Served {
    /// Boots a session and server and makes the workload ready: both
    /// connections open, `q` and `p` prepared, A's `q` subscribed, and one
    /// cold `RUN q` done (first embeddings, and the HNSW build under the
    /// index strategy).  Returns the time this took, from the first call
    /// into the engine.
    pub fn setup(
        workload: Workload,
        tables: &Tables,
        size: &Size,
    ) -> Result<(Served, f64), String> {
        let start = Instant::now();
        let session = session(tables, served_strategy(workload));
        let server = Server::start(session, ServerConfig::default()).map_err(io)?;
        let mut requester = Client::connect(server.local_addr()).map_err(io)?;
        let mut subscriber = Client::connect(server.local_addr()).map_err(io)?;
        for line in [q_line(size), probe_line(size)] {
            expect_ok(&mut requester, &line)?;
        }
        expect_ok(&mut subscriber, &q_line(size))?;
        let subscription = expect_ok(&mut subscriber, "SUBSCRIBE q")?
            .strip_prefix("subscribed ")
            .and_then(|id| id.parse().ok())
            .ok_or("SUBSCRIBE answered without a subscription id")?;
        let first_checksum = match requester.request("RUN q").map_err(io)? {
            Response::Rows { checksum, .. } => checksum,
            other => return Err(format!("cold RUN q answered {other:?}")),
        };
        let elapsed = start.elapsed().as_secs_f64();
        Ok((
            Served {
                requester,
                subscriber,
                subscription,
                first_checksum,
                version: None,
                server,
            },
            elapsed,
        ))
    }

    /// The access path of `q`'s ejoin, from `EXPLAIN q`.
    pub fn explain_access_path(&mut self) -> String {
        match self.requester.request("EXPLAIN q") {
            Ok(Response::Text(lines)) => access_path(&lines.join("\n")),
            other => format!("unavailable ({other:?})"),
        }
    }
}

/// The `[access path: …;` label of a rendered plan.
pub fn access_path(explained: &str) -> String {
    explained
        .split("access path: ")
        .nth(1)
        .and_then(|rest| rest.split(';').next())
        .unwrap_or("none")
        .to_string()
}

fn io(e: std::io::Error) -> String {
    format!("i/o error: {e}")
}

fn expect_ok(client: &mut Client, line: &str) -> Result<String, String> {
    match client.request(line).map_err(io)? {
        Response::Ok(detail) => Ok(detail),
        other => Err(format!("`{line}` answered {other:?}")),
    }
}

/// What the timed phase observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `RUN` latencies, ms.
    pub run_ms: Vec<f64>,
    /// `PROBE` latencies, ms.
    pub probe_ms: Vec<f64>,
    /// `APPLY` round trips, ms.
    pub write_ms: Vec<f64>,
    /// `APPLY` send to `DELTA` arrival, ms.
    pub frame_ms: Vec<f64>,
    /// Requests sent (`RUN`, `PROBE`, `APPLY`).
    pub attempted: u64,
    /// Requests answered `ERR`, timed out, or lost to a broken connection.
    pub failed: u64,
    /// Responses that were wrong, described.  Any entry fails the run.
    pub wrong: Vec<String>,
    /// Every verified probe: its text and the similarities it returned.
    pub probes: Vec<(String, Vec<f32>)>,
    /// Wall time of the op loop, seconds.
    pub elapsed_s: f64,
}

impl Outcome {
    /// Requests that returned a verified answer.
    pub fn verified(&self) -> u64 {
        self.attempted - self.failed - self.wrong.len() as u64
    }
}

/// What a response is checked against.
pub struct Expect<'a> {
    /// Sizes.
    pub size: &'a Size,
    /// The checksum every `RUN q` must return.
    pub run_checksum: u64,
}

/// How one request ended.
pub enum Verdict {
    /// Verified.
    Ok,
    /// Refused, errored, or timed out.
    Failed,
    /// Answered wrongly.
    Wrong(String),
}

/// Drives `ops` through the closed loop: one thread, each request sent only
/// after the previous one is answered (and, for an `APPLY`, its `DELTA`
/// frame received).  Stops early, without counting the rest as attempted,
/// once `deadline` passes.  With `spans`, records one span per request.
pub fn drive(
    served: &mut Served,
    ops: &[Op],
    expect: &Expect<'_>,
    deadline: Instant,
    mut spans: Option<&mut Spans>,
) -> Outcome {
    let mut out = Outcome::default();
    let loop_start = Instant::now();
    for op in ops {
        if Instant::now() >= deadline {
            break;
        }
        match op {
            Op::Run => {
                let span = spans.as_deref_mut().map(|s| s.open("client.run", None));
                let start = Instant::now();
                let response = served.requester.request("RUN q");
                let ms = start.elapsed().as_secs_f64() * 1e3;
                close(&mut spans, span);
                if tally(&mut out, check_run(response, expect)) {
                    out.run_ms.push(ms);
                }
            }
            Op::Probe(text) => {
                let span = spans.as_deref_mut().map(|s| s.open("client.probe", None));
                let start = Instant::now();
                let response = served.requester.request(&format!("PROBE p {text}"));
                let ms = start.elapsed().as_secs_f64() * 1e3;
                close(&mut spans, span);
                let mut sims = Vec::new();
                if tally(
                    &mut out,
                    check_probe(response, text, expect.size.k, &mut sims),
                ) {
                    out.probe_ms.push(ms);
                    out.probes.push((text.clone(), sims));
                }
            }
            Op::WritePair(rows) => {
                for (line, append) in [
                    (crate::inputs::append_line(rows), true),
                    (crate::inputs::delete_line(rows), false),
                ] {
                    let parent = spans.as_deref_mut().map(|s| s.open("op.write", None));
                    let span = spans.as_deref_mut().map(|s| s.open("client.apply", parent));
                    let start = Instant::now();
                    let response = served.requester.request(&line);
                    let write_ms = start.elapsed().as_secs_f64() * 1e3;
                    close(&mut spans, span);
                    let verdict = check_apply(response, rows.len(), append, served);
                    let (verdict, frame_ms) = match verdict {
                        Verdict::Ok => {
                            let span = spans
                                .as_deref_mut()
                                .map(|s| s.open("client.frame_wait", parent));
                            let frame = served.subscriber.wait_delta(FRAME_TIMEOUT);
                            let frame_ms = start.elapsed().as_secs_f64() * 1e3;
                            close(&mut spans, span);
                            (check_frame(frame, rows, append, served, expect), frame_ms)
                        }
                        other => (other, 0.0),
                    };
                    close(&mut spans, parent);
                    if tally(&mut out, verdict) {
                        out.write_ms.push(write_ms);
                        out.frame_ms.push(frame_ms);
                    }
                }
            }
        }
    }
    out.elapsed_s = loop_start.elapsed().as_secs_f64();
    out
}

fn close(spans: &mut Option<&mut Spans>, span: Option<usize>) {
    if let (Some(spans), Some(span)) = (spans.as_deref_mut(), span) {
        spans.close(span);
    }
}

/// Counts one attempted request; true when it was verified.
fn tally(out: &mut Outcome, verdict: Verdict) -> bool {
    out.attempted += 1;
    match verdict {
        Verdict::Ok => true,
        Verdict::Failed => {
            out.failed += 1;
            false
        }
        Verdict::Wrong(why) => {
            out.wrong.push(why);
            false
        }
    }
}

fn check_run(response: std::io::Result<Response>, expect: &Expect<'_>) -> Verdict {
    match response {
        Ok(Response::Rows { checksum, .. }) if checksum == expect.run_checksum => Verdict::Ok,
        Ok(Response::Rows { checksum, .. }) => Verdict::Wrong(format!(
            "RUN q checksum {checksum:016x}, reference {:016x}",
            expect.run_checksum
        )),
        Ok(Response::Err(_)) | Err(_) => Verdict::Failed,
        Ok(other) => Verdict::Wrong(format!("RUN q answered {other:?}")),
    }
}

/// A probe answer is well formed when it has the probe header and exactly
/// `k` rows of distinct `s` rows, each echoing the probe text with a
/// similarity in `[-1, 1]`.
fn check_probe(
    response: std::io::Result<Response>,
    text: &str,
    k: usize,
    sims: &mut Vec<f32>,
) -> Verdict {
    let lines = match response {
        Ok(Response::Rows { lines, .. }) => lines,
        Ok(Response::Err(_)) | Err(_) => return Verdict::Failed,
        Ok(other) => return Verdict::Wrong(format!("PROBE answered {other:?}")),
    };
    if lines.first().map(String::as_str) != Some(PROBE_HEADER) || lines.len() != k + 1 {
        return Verdict::Wrong(format!("PROBE `{text}` returned {} lines", lines.len()));
    }
    let mut ids = HashSet::new();
    for row in &lines[1..] {
        let cells: Vec<&str> = row.split('\t').collect();
        let sim = cells.last().and_then(|c| c.parse::<f32>().ok());
        match sim {
            Some(sim)
                if cells.len() == 6
                    && cells[0] == text
                    && cells[1].parse::<i64>().is_ok()
                    && ids.insert(cells[1])
                    && (-1.0001..=1.0001).contains(&sim) =>
            {
                sims.push(sim)
            }
            _ => return Verdict::Wrong(format!("PROBE `{text}` returned row `{row}`")),
        }
    }
    Verdict::Ok
}

/// An `APPLY` must answer `OK applied r v<n> +<rows> -0` (append) or
/// `… +0 -<rows>` (delete), with `n` one past the previous version.
fn check_apply(
    response: std::io::Result<Response>,
    rows: usize,
    append: bool,
    served: &mut Served,
) -> Verdict {
    let detail = match response {
        Ok(Response::Ok(detail)) => detail,
        Ok(Response::Err(_)) | Err(_) => return Verdict::Failed,
        Ok(other) => return Verdict::Wrong(format!("APPLY answered {other:?}")),
    };
    let fields: Vec<&str> = detail.split_whitespace().collect();
    let (added, removed) = if append { (rows, 0) } else { (0, rows) };
    let version = match fields.as_slice() {
        ["applied", "r", v, plus, minus, ..]
            if *plus == format!("+{added}") && *minus == format!("-{removed}") =>
        {
            v.strip_prefix('v').and_then(|v| v.parse::<u64>().ok())
        }
        _ => None,
    };
    match version {
        Some(v) if served.version.is_none_or(|prev| v == prev + 1) => {
            served.version = Some(v);
            Verdict::Ok
        }
        _ => Verdict::Wrong(format!("APPLY answered `OK {detail}`")),
    }
}

/// Exactly one `DELTA` frame per `APPLY`: for this subscription, at the
/// version the `APPLY` published, adding (or removing) exactly the result
/// rows of the written keys.
pub fn check_frame(
    frame: std::io::Result<Option<DeltaFrame>>,
    rows: &[AppendRow],
    append: bool,
    served: &Served,
    expect: &Expect<'_>,
) -> Verdict {
    let frame = match frame {
        Ok(Some(frame)) => frame,
        Ok(None) | Err(_) => return Verdict::Failed,
    };
    // every written row passes the filter and joins one `d` row, so it
    // adds (or removes) exactly its k nearest `s` rows
    let changed = rows.len() * expect.size.k;
    let (added, removed) = if append { (changed, 0) } else { (0, changed) };
    let sign = if append { '+' } else { '-' };
    let keys: HashSet<String> = rows.iter().map(|r| r.id.to_string()).collect();
    let rows_ok = frame.lines.iter().skip(1).all(|line| {
        line.strip_prefix(sign)
            .and_then(|cells| cells.split('\t').next())
            .is_some_and(|id| keys.contains(id))
    });
    if frame.subscription == served.subscription
        && Some(frame.version) == served.version
        && frame.added == added
        && frame.removed == removed
        && (frame.kind == "delta" || frame.kind == "refresh")
        && frame.lines.len() == 1 + changed
        && rows_ok
    {
        Verdict::Ok
    } else {
        Verdict::Wrong(format!(
            "DELTA sub {} v{} +{} -{} {} after APPLY v{:?}, expected +{added} -{removed}",
            frame.subscription,
            frame.version,
            frame.added,
            frame.removed,
            frame.kind,
            served.version
        ))
    }
}

/// After the last op: any further frame is one too many.
pub fn check_no_stray_frames(served: &mut Served) -> Option<String> {
    match served.subscriber.wait_delta(Duration::from_millis(200)) {
        Ok(None) => None,
        Ok(Some(frame)) => Some(format!("stray DELTA frame at v{}", frame.version)),
        Err(e) => Some(format!("subscriber connection failed: {e}")),
    }
}
