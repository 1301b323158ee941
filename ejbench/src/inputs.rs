//! Benchmark inputs: the generated tables and the op stream, both a pure
//! function of (workload, seed, size).

use cej_storage::{Table, TableBuilder};
use cej_workload::{JoinWorkload, RelationSpec};

/// The three workloads.  Each stresses a different set of layers; see
/// `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm `RUN q` through the tensor scan.
    ScanJoin,
    /// Ad-hoc `PROBE`s and `RUN q` through the HNSW index.
    ProbeIndex,
    /// Balanced `APPLY` pairs beside a standing subscription to `q`.
    LiveRw,
}

impl Workload {
    /// Every workload `--workload` accepts.  `BENCHMARK.json` gates
    /// `scan_join` and `live_rw` only; `README.md` says why.
    pub const ALL: [Workload; 3] = [Workload::ScanJoin, Workload::ProbeIndex, Workload::LiveRw];

    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanJoin => "scan_join",
            Workload::ProbeIndex => "probe_index",
            Workload::LiveRw => "live_rw",
        }
    }

    /// Whether the served session forces the HNSW index-probe join.
    pub fn uses_index(self) -> bool {
        self == Workload::ProbeIndex
    }

    /// Set-ups per untraced run; `setup_s` is their median.  The index
    /// build makes a `probe_index` set-up long and steady, so it needs
    /// fewer.
    pub fn setups(self) -> usize {
        if self.uses_index() {
            3
        } else {
            5
        }
    }

    /// One cycle of the closed loop.  Every cycle ends with `r` at its
    /// generated contents, and every `Run` follows a completed write pair
    /// or another read, so `RUN q` always sees the reference table.
    fn cycle(self) -> &'static [Step] {
        use Step::{Probe, Run, WritePair};
        match self {
            Workload::ScanJoin => &[Run, Probe, Run, Probe, Run, WritePair],
            Workload::ProbeIndex => &[Probe, Probe, Probe, Probe, Probe, WritePair, Run],
            Workload::LiveRw => &[WritePair, Run, Probe],
        }
    }

    /// Cycles per second of `--seconds`: sized so that on a 2-vCPU host
    /// the timed phase lasts about `--seconds` and, at 10 seconds, every
    /// op type has at least 200 samples.
    fn cycles_per_second(self) -> f64 {
        match self {
            Workload::ScanJoin => 10.0,
            Workload::ProbeIndex => 20.0,
            Workload::LiveRw => 20.0,
        }
    }
}

/// Table and statement sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Rows of the outer table `r`.
    pub r_rows: usize,
    /// Rows of the inner table `s`.
    pub s_rows: usize,
    /// Word clusters of the shared vocabulary (`clusters * variants`
    /// distinct strings).
    pub clusters: usize,
    /// Variants per cluster.
    pub variants: usize,
    /// Rows of the dimension table `d` (keys `0..d_rows`).
    pub d_rows: usize,
    /// `TOPK k` of the ejoin.
    pub k: usize,
    /// `WHERE r.filter < filter_below` (filters are uniform in `0..100`).
    pub filter_below: i64,
    /// Rows per `APPLY` batch.
    pub write_rows: usize,
}

impl Size {
    /// The size every measured run uses.
    pub const STANDARD: Size = Size {
        r_rows: 1_000,
        s_rows: 8_000,
        clusters: 512,
        variants: 8,
        d_rows: 100,
        k: 4,
        filter_below: 25,
        write_rows: 8,
    };

    /// A tiny size for the self-tests.
    #[cfg(test)]
    pub const TINY: Size = Size {
        r_rows: 60,
        s_rows: 200,
        clusters: 16,
        variants: 4,
        d_rows: 100,
        k: 2,
        filter_below: 50,
        write_rows: 3,
    };
}

/// The generated tables.
#[derive(Debug, Clone)]
pub struct Tables {
    /// Outer table (`id`, `word`, `filter`, `date`).
    pub r: Table,
    /// Inner table, same schema.
    pub s: Table,
    /// Dimension table (`fid`, `label`).
    pub d: Table,
    /// The distinct strings of the shared vocabulary, in generation order.
    pub vocabulary: Vec<String>,
}

impl Tables {
    /// Generates the three tables for `seed`.
    pub fn generate(seed: u64, size: &Size) -> Tables {
        let spec = |rows| RelationSpec {
            rows,
            clusters: size.clusters,
            variants_per_cluster: size.variants,
        };
        let workload = JoinWorkload::generate(spec(size.r_rows), spec(size.s_rows), seed);
        let d = TableBuilder::new()
            .int64("fid", (0..size.d_rows as i64).collect())
            .utf8("label", (0..size.d_rows).map(|i| format!("d{i}")).collect())
            .build()
            .expect("dimension table construction cannot fail");
        let vocabulary = workload
            .clusters
            .iter()
            .flat_map(|c| c.variants.iter().cloned())
            .collect();
        Tables {
            r: exact_filter(&workload.outer, seed),
            s: workload.inner,
            d,
            vocabulary,
        }
    }

    /// The values of the `word` column of `s` or `r`.
    pub fn words(table: &Table) -> Vec<String> {
        table
            .column_by_name("word")
            .and_then(|c| c.as_utf8().map(<[String]>::to_vec))
            .expect("generated tables have a utf8 `word` column")
    }
}

/// `table` with its `filter` column replaced by a seeded shuffle of
/// `i % 100`: `filter < x` then keeps exactly `x`% of every 100 rows, so
/// the work `q` does is the same for every seed.
fn exact_filter(table: &Table, seed: u64) -> Table {
    let rows = table.num_rows();
    let mut filter: Vec<i64> = (0..rows).map(|i| (i % 100) as i64).collect();
    let mut rng = SplitMix::new(seed, 0);
    for i in (1..rows).rev() {
        filter.swap(i, rng.below(i + 1));
    }
    let column = |name| {
        table
            .column_by_name(name)
            .expect("generated tables have every column")
    };
    TableBuilder::new()
        .int64("id", column("id").as_int64().expect("int64 id").to_vec())
        .utf8(
            "word",
            column("word").as_utf8().expect("utf8 word").to_vec(),
        )
        .int64("filter", filter)
        .date(
            "date",
            column("date").as_date().expect("date column").to_vec(),
        )
        .build()
        .expect("same schema as the generated table")
}

/// The kinds of step a cycle is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Run,
    Probe,
    WritePair,
}

/// One row appended by a write pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendRow {
    /// Key (above every generated id, so a delete by key removes exactly
    /// the appended rows).
    pub id: i64,
    /// A vocabulary word, so the append never calls the model.
    pub word: String,
    /// Below `filter_below`, so every appended row reaches the result of
    /// `q` and every `APPLY` changes it.
    pub filter: i64,
    /// Days since the epoch.
    pub date: i32,
}

/// One op of the closed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `RUN q`.
    Run,
    /// `PROBE p <text>` with text no earlier op or table used.
    Probe(String),
    /// `APPLY r APPEND rows`, then `APPLY r DELETE id` of the same keys.
    WritePair(Vec<AppendRow>),
}

impl Op {
    /// Request lines the op sends.
    pub fn requests(&self) -> Vec<String> {
        match self {
            Op::Run => vec!["RUN q".to_string()],
            Op::Probe(text) => vec![format!("PROBE p {text}")],
            Op::WritePair(rows) => vec![append_line(rows), delete_line(rows)],
        }
    }
}

/// `APPLY r APPEND` of `rows`.
pub fn append_line(rows: &[AppendRow]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|r| format!("{}|{}|{}|{}", r.id, r.word, r.filter, r.date))
        .collect();
    format!("APPLY r APPEND {}", cells.join(";"))
}

/// `APPLY r DELETE id` of the keys of `rows`.
pub fn delete_line(rows: &[AppendRow]) -> String {
    let keys: Vec<String> = rows.iter().map(|r| r.id.to_string()).collect();
    format!("APPLY r DELETE id {}", keys.join(";"))
}

/// SplitMix64: a small, seedable generator whose stream is fixed by this
/// file, so op streams cannot change when a dependency's RNG does.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated from other uses of the seed
    /// by `stream`.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// First key of appended rows: above every generated id.
pub const APPEND_KEY_BASE: i64 = 1_000_000_000;

/// A probe text: a vocabulary word with one letter changed, suffixed with
/// `-<serial>`.  No generated string contains `-`, and serials are unique,
/// so every probe text is new to the embedding cache.
fn probe_text(rng: &mut SplitMix, vocabulary: &[String], serial: usize) -> String {
    let mut chars: Vec<char> = vocabulary[rng.below(vocabulary.len())].chars().collect();
    let pos = rng.below(chars.len());
    chars[pos] = (b'a' + rng.below(26) as u8) as char;
    let word: String = chars.into_iter().collect();
    format!("{word}-{serial}")
}

/// The op stream of one run: `cycles` cycles of the workload's pattern,
/// with probe texts and appended rows drawn from `seed`.  `first_serial`
/// offsets probe serials, so warm-up ops and timed ops never share a text.
pub fn op_stream(
    workload: Workload,
    seed: u64,
    size: &Size,
    vocabulary: &[String],
    cycles: usize,
    first_serial: usize,
) -> Vec<Op> {
    let mut rng = SplitMix::new(seed, 1 + workload as u64);
    let mut ops = Vec::new();
    let mut serial = first_serial;
    let mut next_key = APPEND_KEY_BASE + (first_serial as i64) * size.write_rows as i64;
    for _ in 0..cycles {
        for step in workload.cycle() {
            let op = match step {
                Step::Run => Op::Run,
                Step::Probe => {
                    serial += 1;
                    Op::Probe(probe_text(&mut rng, vocabulary, serial))
                }
                Step::WritePair => Op::WritePair(
                    (0..size.write_rows)
                        .map(|_| {
                            next_key += 1;
                            AppendRow {
                                id: next_key,
                                word: vocabulary[rng.below(vocabulary.len())].clone(),
                                filter: rng.below(size.filter_below as usize) as i64,
                                date: 19_358 + rng.below(365) as i32,
                            }
                        })
                        .collect(),
                ),
            };
            ops.push(op);
        }
    }
    ops
}

/// Timed cycles for a run of `seconds`.
pub fn timed_cycles(workload: Workload, seconds: u64) -> usize {
    ((workload.cycles_per_second() * seconds as f64).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vec<String> {
        Tables::generate(5, &Size::TINY).vocabulary
    }

    #[test]
    fn op_stream_is_a_function_of_workload_and_seed() {
        let v = vocab();
        for w in Workload::ALL {
            let a = op_stream(w, 11, &Size::TINY, &v, 20, 0);
            let b = op_stream(w, 11, &Size::TINY, &v, 20, 0);
            assert_eq!(a, b, "{} must repeat for a seed", w.name());
            let c = op_stream(w, 12, &Size::TINY, &v, 20, 0);
            assert_ne!(a, c, "{} must change with the seed", w.name());
        }
    }

    #[test]
    fn tables_are_a_function_of_the_seed() {
        let a = Tables::generate(3, &Size::TINY);
        let b = Tables::generate(3, &Size::TINY);
        assert_eq!((&a.r, &a.s, &a.d), (&b.r, &b.s, &b.d));
        assert_ne!(Tables::generate(4, &Size::TINY).s, b.s);
    }

    #[test]
    fn filter_keeps_the_same_share_for_every_seed() {
        let size = Size::STANDARD;
        for seed in 1..4 {
            let r = Tables::generate(seed, &size).r;
            let filter = r
                .column_by_name("filter")
                .unwrap()
                .as_int64()
                .unwrap()
                .to_vec();
            let kept = filter.iter().filter(|&&f| f < size.filter_below).count();
            assert_eq!(kept, size.r_rows * size.filter_below as usize / 100);
        }
    }

    #[test]
    fn probe_texts_are_novel() {
        let tables = Tables::generate(9, &Size::TINY);
        let mut seen: std::collections::HashSet<String> = Tables::words(&tables.s)
            .into_iter()
            .chain(Tables::words(&tables.r))
            .collect();
        let warm = op_stream(
            Workload::ProbeIndex,
            9,
            &Size::TINY,
            &tables.vocabulary,
            5,
            0,
        );
        let timed = op_stream(
            Workload::ProbeIndex,
            9,
            &Size::TINY,
            &tables.vocabulary,
            50,
            1_000_000,
        );
        for op in warm.iter().chain(&timed) {
            if let Op::Probe(text) = op {
                assert!(seen.insert(text.clone()), "probe text `{text}` repeats");
            }
        }
    }

    #[test]
    fn every_write_pair_restores_r() {
        let size = Size::TINY;
        let v = vocab();
        for w in Workload::ALL {
            let ops = op_stream(w, 2, &size, &v, 30, 0);
            let mut keys = std::collections::HashSet::new();
            for op in &ops {
                if let Op::WritePair(rows) = op {
                    assert_eq!(rows.len(), size.write_rows);
                    for row in rows {
                        assert!(
                            row.id >= APPEND_KEY_BASE,
                            "appended keys never collide with r"
                        );
                        assert!(keys.insert(row.id), "appended keys are unique");
                        assert!((0..size.filter_below).contains(&row.filter));
                    }
                    let lines = op.requests();
                    let appended = lines[0].matches(';').count() + 1;
                    let deleted = lines[1].matches(';').count() + 1;
                    assert_eq!(appended, deleted, "deletes remove what appends added");
                }
            }
        }
    }

    #[test]
    fn every_run_sees_the_reference_table() {
        // A run is never issued between the two halves of a write pair:
        // pairs are single ops, so this holds by construction; check that
        // live_rw issues a run right after each pair.
        let ops = op_stream(Workload::LiveRw, 1, &Size::TINY, &vocab(), 10, 0);
        for pair in ops.windows(2) {
            if matches!(pair[0], Op::WritePair(_)) {
                assert_eq!(pair[1], Op::Run);
            }
        }
    }

    #[test]
    fn every_op_type_reaches_200_samples_at_10_seconds() {
        for w in Workload::ALL {
            let ops = op_stream(w, 1, &Size::TINY, &vocab(), timed_cycles(w, 10), 0);
            let runs = ops.iter().filter(|o| matches!(o, Op::Run)).count();
            let probes = ops.iter().filter(|o| matches!(o, Op::Probe(_))).count();
            let writes = 2 * ops.iter().filter(|o| matches!(o, Op::WritePair(_))).count();
            assert!(
                runs >= 200 && probes >= 200 && writes >= 200,
                "{}",
                w.name()
            );
        }
    }
}
