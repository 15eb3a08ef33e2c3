//! Schema-versioned checkpoint/resume for simulation runs.
//!
//! A checkpoint captures *everything* the slot loop carries between slots —
//! queues, the job-level tracker, every metric series, the drop counter and
//! the fault-plan spec — as flat JSONL, one self-describing object per
//! line, parseable by `grefar_obs::json` (which is deliberately
//! array-free: vectors are comma-joined strings). Floats are encoded via
//! Rust's shortest-roundtrip `Display`, so a resumed run continues
//! **bit-identically**: the exogenous inputs are regenerated from the seed
//! and the accumulated state parses back to the exact same bits.
//!
//! [`Checkpoint::to_jsonl`] encodes in one pass: every line is written
//! straight into one `String` through `grefar_obs::json`'s writers, the
//! escaper and number writer `Event` serialization uses too.
//! Floats in quoted lists and string fields are `Display` text (`NaN` and
//! `inf` included); the bare numbers of `ckpt.ledger` are JSON numbers, or
//! `null` when not finite. The line names and fields are registered as
//! `Channel::Checkpoint` entries of `grefar_obs::schema::EVENTS`.
//!
//! The per-slot series, nearly all of a long run's checkpoint, only grow
//! at the end, so they are encoded once: a [`SeriesSnapshot`] is the
//! series' text, held as a list of immutable chunks shared through `Arc`.
//! At every cut [`SteppedRun::checkpoint`](crate::SteppedRun::checkpoint)
//! encodes only the values appended since the previous cut into one more
//! exact-size chunk, and the checkpoint clones the chunk list, so a cut
//! formats O(slots since the last cut) numbers and `to_jsonl` copies the
//! rest. The text is the same `write_f64` output a from-scratch encoding
//! writes, so every byte of the file is unchanged. A parsed checkpoint
//! keeps its validated series text, and resume decodes it; the resumed
//! run starts with no chunks and encodes its whole prefix again at its
//! first cut, so a valid but non-canonical spelling in the file (`1.50`)
//! never reaches a later cut.
//!
//! Completed jobs' delays travel as per-delay counts: the
//! `ckpt.tracker_dc` line's `delay_counts` list holds, at index `d`, the
//! number of jobs a data center completed with a delay of `d` slots.
//! Checkpoints written before counts existed carry a `delay_samples` list
//! (one whole-number delay per completed job) instead; the parser still
//! reads it and folds it into counts.
//!
//! A checkpoint file holds exactly one record, and [`Checkpoint::write`]
//! replaces it atomically ([`replace_durably`]: temp file, `fsync`,
//! rename, directory `fsync`), so a crash at any byte leaves the previous
//! complete checkpoint in place. [`Checkpoint::load`] is strict: the final
//! `ckpt.end` line carries the line count, which catches a file damaged
//! outside the program (or one holding more than one record) as a
//! [`SimError::CheckpointFormat`] error instead of a half-read state.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use grefar_obs::json::{self, write_f64, write_u64, JsonValue};

use crate::error::SimError;
use crate::tracker::TrackerSnapshot;

/// The checkpoint format version this build reads and writes.
pub const CHECKPOINT_SCHEMA: u64 = 1;

/// The one-value-per-slot series, by their checkpoint names, in line order.
const SCALAR_SERIES: [&str; 5] = [
    "energy",
    "fairness",
    "arriving_work",
    "queue_total",
    "queue_max",
];

/// The `[index][slot]` series families, in line order after the scalar
/// series. `account_shares` has one row per account, the others one row
/// per data center.
const SERIES_FAMILIES: [&str; 4] = ["account_shares", "work_per_dc", "dc_delay", "prices"];

/// Every per-slot metric series the report accumulates, as the text of its
/// `ckpt.series` lines: the comma-joined `write_f64` values of each
/// series, in line order — energy, fairness, arriving work, queue total,
/// queue max, then every account's shares and every data center's work,
/// running-average delay and price.
///
/// The text is a list of immutable chunks shared through `Arc` (see the
/// [module docs](self)): cloning a snapshot clones the list, not the text.
/// Two snapshots are equal when every series has the same text, however
/// it is chunked.
#[derive(Debug, Clone, Default)]
pub struct SeriesSnapshot {
    accounts: usize,
    dcs: usize,
    /// Values in every series.
    slots: usize,
    chunks: Vec<Arc<Chunk>>,
}

/// The text of the values that one cut appended to every series, back to
/// back: series `k`'s part ends at `ends[k]` and starts where series
/// `k - 1`'s ends. A part starts with a comma unless it holds its series'
/// first value.
#[derive(Debug)]
struct Chunk {
    text: Box<str>,
    ends: Box<[usize]>,
}

impl Chunk {
    /// Series `k`'s part of the text.
    fn part(&self, k: usize) -> &str {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.text[start..self.ends[k]]
    }
}

impl SeriesSnapshot {
    /// No values yet, for a run with `accounts` accounts and `dcs` data
    /// centers.
    pub(crate) fn new(accounts: usize, dcs: usize) -> Self {
        Self {
            accounts,
            dcs,
            ..Self::default()
        }
    }

    /// How many series there are (one `ckpt.series` line each).
    fn count(&self) -> usize {
        SCALAR_SERIES.len() + self.accounts + 3 * self.dcs
    }

    /// The rows of series family `family`.
    fn rows(&self, family: &str) -> usize {
        if family == "account_shares" {
            self.accounts
        } else {
            self.dcs
        }
    }

    /// The checkpoint name and row index of every series, in line order.
    fn names(&self) -> impl Iterator<Item = (&'static str, Option<usize>)> + '_ {
        let scalars = SCALAR_SERIES.iter().map(|&name| (name, None));
        let rows = SERIES_FAMILIES
            .iter()
            .flat_map(move |&name| (0..self.rows(name)).map(move |i| (name, Some(i))));
        scalars.chain(rows)
    }

    /// The line-order position of family `family`'s first row and its row
    /// count, if it is a family.
    fn family(&self, family: &str) -> Option<(usize, usize)> {
        let mut first = SCALAR_SERIES.len();
        for name in SERIES_FAMILIES {
            if name == family {
                return Some((first, self.rows(name)));
            }
            first += self.rows(name);
        }
        None
    }

    /// Series `k`'s text, chunk by chunk.
    fn parts(&self, k: usize) -> impl Iterator<Item = &str> + '_ {
        self.chunks.iter().map(move |chunk| chunk.part(k))
    }

    /// Bytes of series text, over every series.
    fn text_len(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.text.len()).sum()
    }

    /// Encodes the values that `series` (every series, in line order, each
    /// holding `slots` values) gained since the last call into one new
    /// chunk. Values already encoded are not read again.
    pub(crate) fn extend<'a>(&mut self, slots: usize, series: impl Iterator<Item = &'a [f64]>) {
        let from = self.slots;
        if slots <= from {
            return;
        }
        let mut text = String::new();
        let mut ends = Vec::with_capacity(self.count());
        for values in series {
            debug_assert_eq!(values.len(), slots, "every series holds one value per slot");
            for (t, &v) in values.iter().enumerate().skip(from) {
                if t > 0 {
                    text.push(',');
                }
                write_f64(&mut text, v);
            }
            ends.push(text.len());
        }
        debug_assert_eq!(ends.len(), self.count(), "one part per series");
        self.chunks.push(Arc::new(Chunk {
            // An exact-size copy: the chunk lives as long as the run.
            text: text.as_str().into(),
            ends: ends.into_boxed_slice(),
        }));
        self.slots = slots;
    }

    /// The snapshot of `slots` values per series whose text, in line
    /// order, is `texts` (validated by the caller), as one chunk.
    fn from_texts(accounts: usize, dcs: usize, slots: usize, texts: &[&str]) -> Self {
        let mut ends = Vec::with_capacity(texts.len());
        let mut len = 0;
        for text in texts {
            len += text.len();
            ends.push(len);
        }
        Self {
            accounts,
            dcs,
            slots,
            chunks: vec![Arc::new(Chunk {
                text: texts.concat().into_boxed_str(),
                ends: ends.into_boxed_slice(),
            })],
        }
    }

    /// Every series' values, in line order. Decoding cannot fail: every
    /// token is `write_f64` text ([`extend`]) or was checked to be a float
    /// by [`Checkpoint::parse`].
    ///
    /// [`extend`]: Self::extend
    pub(crate) fn decode(&self) -> Vec<Vec<f64>> {
        (0..self.count())
            .map(|k| {
                self.parts(k)
                    .flat_map(|part| part.split(','))
                    .filter(|token| !token.is_empty())
                    .map(|token| token.parse().expect("series text holds floats"))
                    .collect()
            })
            .collect()
    }

    /// Why these cannot be the series of a run cut after `slots` slots
    /// with `dcs` data centers and `accounts` accounts, if they cannot:
    /// `account_shares` needs one row per account, every other family one
    /// row per data center, and every series `slots` values.
    pub(crate) fn shape_error(&self, slots: usize, dcs: usize, accounts: usize) -> Option<String> {
        if self.accounts != accounts {
            return Some(format!(
                "account_shares has {} rows, not {accounts}",
                self.accounts
            ));
        }
        if self.dcs != dcs {
            return Some(format!("work_per_dc has {} rows, not {dcs}", self.dcs));
        }
        (self.slots != slots)
            .then(|| format!("energy holds {} values for {slots} slots", self.slots))
    }
}

impl PartialEq for SeriesSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.accounts == other.accounts
            && self.dcs == other.dcs
            && self.slots == other.slots
            && (0..self.count()).all(|k| {
                let theirs = other.parts(k).flat_map(str::bytes);
                self.parts(k).flat_map(str::bytes).eq(theirs)
            })
    }
}

/// Cumulative job-conservation ledger counters
/// ([`JobLedger`](grefar_core::JobLedger)) at the cut, so a resumed run
/// continues the identical `soak.ledger` series and the conservation
/// oracle keeps holding across kill/resume.
///
/// Absent from pre-ledger checkpoints; the parser then re-anchors the
/// identity at the cut (`offered = admitted = Σ Θ`, everything else
/// zero), so old checkpoints keep loading and the schema stays at 1.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerSnapshot {
    /// Jobs offered (pre-admission-control) so far.
    pub offered: f64,
    /// Jobs admitted into the queues so far.
    pub admitted: f64,
    /// Jobs dropped by admission control so far.
    pub dropped: f64,
    /// Effective service `Σ min(h_ij, q_ij)` so far.
    pub served: f64,
    /// Phantom work minted by over-routing so far.
    pub route_excess: f64,
}

/// A complete mid-run snapshot: the next slot to execute plus all
/// accumulated state. Produced by
/// [`SteppedRun::checkpoint`](crate::SteppedRun::checkpoint) (written on a
/// [`RunPolicy`](crate::RunPolicy) cadence by
/// [`SteppedRun::complete`](crate::SteppedRun::complete)), consumed by
/// [`SteppedRun::resume`](crate::SteppedRun::resume).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The first slot that has *not* been executed.
    pub slot: u64,
    /// The full horizon of the run being checkpointed.
    pub horizon: u64,
    /// The scheduler's self-reported name (sanity-checked on resume).
    pub scheduler: String,
    /// The fault-plan spec in force (empty string when none).
    pub faults: String,
    /// The feed-profile spec in force (empty string when none).
    pub feeds: String,
    /// Jobs dropped by admission control so far.
    pub dropped: u64,
    /// Central queue lengths `Q_j`.
    pub queues_central: Vec<f64>,
    /// Local queue lengths `q_{i,j}` as `[dc][job]` rows.
    pub queues_local: Vec<Vec<f64>>,
    /// The job-level tracker state.
    pub tracker: TrackerSnapshot,
    /// All metric series.
    pub series: SeriesSnapshot,
    /// Cumulative job-conservation ledger counters.
    pub ledger: LedgerSnapshot,
}

impl Checkpoint {
    /// Serializes to the JSONL checkpoint format, in one pass into one
    /// buffer (see the [module docs](self)). The series lines copy their
    /// encoded text, and the buffer reserves exactly what they need before
    /// the first of them is written.
    pub fn to_jsonl(&self) -> String {
        let series = &self.series;
        let mut w = LineWriter::with_capacity(0);

        w.begin("ckpt.header");
        w.u64("v", CHECKPOINT_SCHEMA);
        w.u64("slot", self.slot);
        w.u64("horizon", self.horizon);
        w.str("scheduler", &self.scheduler);
        w.str("faults", &self.faults);
        w.str("feeds", &self.feeds);
        w.u64("dropped", self.dropped);
        w.u64("data_centers", self.queues_local.len() as u64);
        w.u64("job_classes", self.queues_central.len() as u64);
        w.u64("accounts", series.accounts as u64);
        w.u64("completed_total", self.tracker.completed_total);
        w.display("sojourn_sum", self.tracker.sojourn_sum);
        w.end();

        w.begin("ckpt.ledger");
        w.number("offered", self.ledger.offered);
        w.number("admitted", self.ledger.admitted);
        w.number("dropped", self.ledger.dropped);
        w.number("served", self.ledger.served);
        w.number("route_excess", self.ledger.route_excess);
        w.end();

        w.begin("ckpt.queues");
        w.list("central", self.queues_central.iter().copied(), write_f64);
        w.end();
        for (i, row) in self.queues_local.iter().enumerate() {
            w.begin("ckpt.local_queues");
            w.u64("dc", i as u64);
            w.list("values", row.iter().copied(), write_f64);
            w.end();
        }
        for (j, arrivals) in self.tracker.central.iter().enumerate() {
            w.begin("ckpt.central_jobs");
            w.u64("job", j as u64);
            w.list("arrivals", arrivals.iter().copied(), write_u64);
            w.end();
        }
        for (i, row) in self.tracker.local.iter().enumerate() {
            for (j, jobs) in row.iter().enumerate() {
                w.begin("ckpt.local_jobs");
                w.u64("dc", i as u64);
                w.u64("job", j as u64);
                w.list("arrivals", jobs.iter().map(|&(a, _, _)| a), write_u64);
                w.list("serviceable", jobs.iter().map(|&(_, s, _)| s), write_u64);
                w.list("remaining", jobs.iter().map(|&(_, _, r)| r), write_f64);
                w.end();
            }
        }
        let tracker_dcs = self
            .tracker
            .completed_per_dc
            .iter()
            .zip(&self.tracker.dc_delay_sum)
            .zip(&self.tracker.dc_delay_counts);
        for (i, ((&completed, &delay_sum), counts)) in tracker_dcs.enumerate() {
            w.begin("ckpt.tracker_dc");
            w.u64("dc", i as u64);
            w.u64("completed", completed);
            w.display("delay_sum", delay_sum);
            w.list("delay_counts", counts.iter().copied(), write_u64);
            w.end();
        }
        // What is left is the series text plus the lines around it:
        // measure the lines on a scratch writer, then reserve exactly.
        let lines = w.lines + series.count() as u64 + 1;
        let mut frame = LineWriter::with_capacity(0);
        for (name, index) in series.names() {
            frame.series(name, index, std::iter::empty());
        }
        frame.begin("ckpt.end");
        frame.u64("lines", lines);
        frame.end();
        w.out.reserve_exact(frame.out.len() + series.text_len());

        for (k, (name, index)) in series.names().enumerate() {
            w.series(name, index, series.parts(k));
        }
        w.begin("ckpt.end");
        w.u64("lines", lines);
        w.end();
        w.out
    }

    /// Replaces the checkpoint at `path` with this one, atomically and
    /// durably ([`replace_durably`]). The file only ever holds one
    /// complete record: a crash mid-write leaves the previous checkpoint in
    /// place, and once `write` returns the new one survives power loss.
    ///
    /// # Errors
    /// [`SimError::CheckpointIo`] when the temp file cannot be written,
    /// synced or renamed, or the parent directory cannot be synced.
    pub fn write(&self, path: &Path) -> Result<(), SimError> {
        replace_durably(path, self.to_jsonl().as_bytes()).map_err(|source| SimError::CheckpointIo {
            path: path.to_path_buf(),
            source,
        })
    }

    /// Reads a checkpoint file written by [`write`](Self::write).
    ///
    /// # Errors
    /// [`SimError::CheckpointIo`] when the file cannot be read,
    /// [`SimError::CheckpointSchema`] on a version mismatch, and
    /// [`SimError::CheckpointFormat`] (with the offending line number) on
    /// malformed or truncated content.
    pub fn load(path: &Path) -> Result<Self, SimError> {
        let text = std::fs::read_to_string(path).map_err(|source| SimError::CheckpointIo {
            path: path.to_path_buf(),
            source,
        })?;
        Self::parse(&text)
    }

    /// Parses checkpoint JSONL text. See [`load`](Self::load) for errors.
    ///
    /// # Errors
    /// As for [`load`](Self::load), minus the I/O case.
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let parsed: Vec<BTreeMap<String, JsonValue>> = lines
            .iter()
            .enumerate()
            .map(|(idx, line)| {
                json::parse_object(line).map_err(|message| SimError::CheckpointFormat {
                    line: idx + 1,
                    message,
                })
            })
            .collect::<Result<_, _>>()?;

        let header = parsed.first().ok_or(SimError::CheckpointFormat {
            line: 1,
            message: "empty checkpoint".to_string(),
        })?;
        if event_name(header) != Some("ckpt.header") {
            return Err(bad(1, "first line is not ckpt.header"));
        }
        let version = get_u64(header, "v", 1)?;
        if version != CHECKPOINT_SCHEMA {
            return Err(SimError::CheckpointSchema {
                found: version,
                expected: CHECKPOINT_SCHEMA,
            });
        }
        let last_line = parsed.len();
        let end = parsed.last().ok_or_else(|| bad(1, "empty checkpoint"))?;
        if event_name(end) != Some("ckpt.end") {
            return Err(bad(last_line, "checkpoint is truncated (no ckpt.end)"));
        }
        let declared = get_u64(end, "lines", last_line)?;
        if declared != parsed.len() as u64 {
            return Err(bad(
                last_line,
                &format!("expected {declared} lines, found {}", parsed.len()),
            ));
        }

        let n = get_u64(header, "data_centers", 1)? as usize;
        let j_count = get_u64(header, "job_classes", 1)? as usize;
        let accounts = get_u64(header, "accounts", 1)? as usize;
        let slot = get_u64(header, "slot", 1)?;
        // Every executed slot adds a value to each per-slot series, so a
        // checkpoint has more bytes than slots. Checked up front because
        // the legacy delay fold allocates up to `slot` counts per row.
        if slot > text.len() as u64 {
            return Err(bad(
                1,
                &format!(
                    "slot {slot} exceeds the {} bytes of the checkpoint",
                    text.len()
                ),
            ));
        }
        let mut out = Checkpoint {
            slot,
            horizon: get_u64(header, "horizon", 1)?,
            scheduler: get_str(header, "scheduler", 1)?.to_string(),
            faults: get_str(header, "faults", 1)?.to_string(),
            // Absent in pre-feed-layer checkpoints; a missing field means
            // the run had no feed profile, so the schema stays at 1.
            feeds: get_str(header, "feeds", 1).unwrap_or("").to_string(),
            dropped: get_u64(header, "dropped", 1)?,
            queues_central: Vec::new(),
            queues_local: vec![Vec::new(); n],
            tracker: TrackerSnapshot {
                central: vec![Vec::new(); j_count],
                local: vec![vec![Vec::new(); j_count]; n],
                completed_per_dc: vec![0; n],
                dc_delay_sum: vec![0.0; n],
                dc_delay_counts: vec![Vec::new(); n],
                completed_total: get_u64(header, "completed_total", 1)?,
                sojourn_sum: parse_f64(get_str(header, "sojourn_sum", 1)?, 1)?,
            },
            series: SeriesSnapshot::new(accounts, n),
            ledger: LedgerSnapshot::default(),
        };
        // Each series' validated text and value count, in line order.
        let mut series: Vec<(&str, usize)> = vec![("", 0); out.series.count()];

        let mut saw_ledger = false;
        for (idx, obj) in parsed.iter().enumerate().skip(1).take(parsed.len() - 2) {
            let lineno = idx + 1;
            // The header and footer are consumed by the framing loop above.
            match event_name(obj) {
                Some("ckpt.ledger") => {
                    out.ledger = LedgerSnapshot {
                        offered: get_f64(obj, "offered", lineno)?,
                        admitted: get_f64(obj, "admitted", lineno)?,
                        dropped: get_f64(obj, "dropped", lineno)?,
                        served: get_f64(obj, "served", lineno)?,
                        route_excess: get_f64(obj, "route_excess", lineno)?,
                    };
                    saw_ledger = true;
                }
                Some("ckpt.queues") => {
                    out.queues_central = split_f64(get_str(obj, "central", lineno)?, lineno)?;
                }
                Some("ckpt.local_queues") => {
                    let i = index_in(obj, "dc", n, lineno)?;
                    out.queues_local[i] = split_f64(get_str(obj, "values", lineno)?, lineno)?;
                }
                Some("ckpt.central_jobs") => {
                    let j = index_in(obj, "job", j_count, lineno)?;
                    out.tracker.central[j] = split_u64(get_str(obj, "arrivals", lineno)?, lineno)?;
                }
                Some("ckpt.local_jobs") => {
                    let i = index_in(obj, "dc", n, lineno)?;
                    let j = index_in(obj, "job", j_count, lineno)?;
                    let arrivals = split_u64(get_str(obj, "arrivals", lineno)?, lineno)?;
                    let serviceable = split_u64(get_str(obj, "serviceable", lineno)?, lineno)?;
                    let remaining = split_f64(get_str(obj, "remaining", lineno)?, lineno)?;
                    if arrivals.len() != serviceable.len() || arrivals.len() != remaining.len() {
                        return Err(bad(lineno, "ragged local job lists"));
                    }
                    out.tracker.local[i][j] = arrivals
                        .into_iter()
                        .zip(serviceable)
                        .zip(remaining)
                        .map(|((a, s), r)| (a, s, r))
                        .collect();
                }
                Some("ckpt.tracker_dc") => {
                    let i = index_in(obj, "dc", n, lineno)?;
                    let completed = get_u64(obj, "completed", lineno)?;
                    let legacy = obj.get("delay_samples").and_then(JsonValue::as_str);
                    let counts = match (obj.get("delay_counts"), legacy) {
                        (None, Some(samples)) => fold_delay_samples(samples, slot, lineno)?,
                        _ => split_u64(get_str(obj, "delay_counts", lineno)?, lineno)?,
                    };
                    if counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c)) != Some(completed)
                    {
                        return Err(bad(
                            lineno,
                            &format!("delay counts do not sum to the {completed} jobs completed"),
                        ));
                    }
                    out.tracker.completed_per_dc[i] = completed;
                    out.tracker.dc_delay_sum[i] =
                        parse_f64(get_str(obj, "delay_sum", lineno)?, lineno)?;
                    out.tracker.dc_delay_counts[i] = counts;
                }
                Some("ckpt.series") => {
                    let text = get_str(obj, "values", lineno)?;
                    let values = split_f64(text, lineno)?.len();
                    let name = get_str(obj, "name", lineno)?;
                    let k = match SCALAR_SERIES.iter().position(|&scalar| scalar == name) {
                        Some(k) => k,
                        None => {
                            let (first, rows) = out
                                .series
                                .family(name)
                                .ok_or_else(|| bad(lineno, &format!("unknown series {name:?}")))?;
                            first + index_in(obj, "index", rows, lineno)?
                        }
                    };
                    series[k] = (text, values);
                }
                Some(other) => return Err(bad(lineno, &format!("unknown line kind {other:?}"))),
                None => return Err(bad(lineno, "line has no event field")),
            }
        }

        if !saw_ledger {
            // Pre-ledger checkpoints carry no counters; re-anchor the
            // conservation identity at the cut so resumed runs keep
            // balancing from here on.
            let total = out.queues_central.iter().sum::<f64>()
                + out.queues_local.iter().flatten().sum::<f64>();
            out.ledger = LedgerSnapshot {
                offered: total,
                admitted: total,
                ..LedgerSnapshot::default()
            };
        }

        if out.queues_central.len() != j_count
            || out.queues_local.iter().any(|row| row.len() != j_count)
        {
            return Err(bad(1, "checkpoint shapes disagree with its header"));
        }
        let short = out
            .series
            .names()
            .zip(&series)
            .find(|(_, &(_, values))| values as u64 != slot);
        if let Some(((name, _), (_, values))) = short {
            return Err(bad(
                1,
                &format!(
                    "checkpoint shapes disagree with its header: \
                     {name} holds {values} values for {slot} slots"
                ),
            ));
        }
        let texts: Vec<&str> = series.iter().map(|&(text, _)| text).collect();
        out.series = SeriesSnapshot::from_texts(accounts, n, slot as usize, &texts);
        Ok(out)
    }
}

/// Replaces the file at `path` with `bytes`, atomically and durably: write
/// them to `<path>.tmp`, `fsync` it, rename it over `path`, then `fsync`
/// the parent directory. A crash at any byte leaves either the
/// complete old file or the complete new one. Without the data sync a
/// rename can land before the bytes do (a valid name over empty content),
/// and without the directory sync the rename itself may not be on disk.
///
/// # Errors
/// Any I/O error writing, syncing or renaming the temp file, or syncing
/// the parent directory.
pub fn replace_durably(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = temp_path(path);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// The file [`replace_durably`] stages `path` in: the full file name plus
/// `.tmp`. Distinct targets get distinct temp files (`run.1` and `run.2`
/// do not share a `run.tmp`), and no target is its own temp file.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

fn bad(line: usize, message: &str) -> SimError {
    SimError::CheckpointFormat {
        line,
        message: message.to_string(),
    }
}

fn event_name(obj: &BTreeMap<String, JsonValue>) -> Option<&str> {
    obj.get("event").and_then(JsonValue::as_str)
}

fn get_str<'a>(
    obj: &'a BTreeMap<String, JsonValue>,
    key: &str,
    line: usize,
) -> Result<&'a str, SimError> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad(line, &format!("missing string field {key:?}")))
}

fn get_f64(obj: &BTreeMap<String, JsonValue>, key: &str, line: usize) -> Result<f64, SimError> {
    obj.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| bad(line, &format!("missing numeric field {key:?}")))
}

fn get_u64(obj: &BTreeMap<String, JsonValue>, key: &str, line: usize) -> Result<u64, SimError> {
    let v = obj
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| bad(line, &format!("missing numeric field {key:?}")))?;
    if v < 0.0 || v.fract() > 0.0 {
        return Err(bad(line, &format!("field {key:?} is not a whole number")));
    }
    Ok(v as u64)
}

fn index_in(
    obj: &BTreeMap<String, JsonValue>,
    key: &str,
    len: usize,
    line: usize,
) -> Result<usize, SimError> {
    let v = get_u64(obj, key, line)? as usize;
    if v >= len {
        return Err(bad(
            line,
            &format!("{key} index {v} out of range (< {len})"),
        ));
    }
    Ok(v)
}

/// Writes checkpoint lines into one buffer: `{"event":…,"key":value,…}`
/// plus a newline per line, byte for byte what `Event::to_json` would
/// give, without building an `Event` or any per-value `String`.
struct LineWriter {
    out: String,
    /// Lines finished so far.
    lines: u64,
}

impl LineWriter {
    fn with_capacity(bytes: usize) -> Self {
        Self {
            out: String::with_capacity(bytes),
            lines: 0,
        }
    }

    fn begin(&mut self, event: &str) {
        self.out.push_str("{\"event\":");
        json::write_string(&mut self.out, event);
    }

    fn key(&mut self, key: &str) {
        self.out.push(',');
        json::write_string(&mut self.out, key);
        self.out.push(':');
    }

    fn u64(&mut self, key: &str, v: u64) {
        self.key(key);
        json::write_u64(&mut self.out, v);
    }

    fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        json::write_string(&mut self.out, v);
    }

    /// A bare JSON number (`null` when not finite).
    fn number(&mut self, key: &str, v: f64) {
        self.key(key);
        json::write_number(&mut self.out, v);
    }

    /// A float as a string field: `Display` text, which keeps `NaN` and
    /// `inf` and parses back to the same bits.
    fn display(&mut self, key: &str, v: f64) {
        self.key(key);
        self.out.push('"');
        json::write_f64(&mut self.out, v);
        self.out.push('"');
    }

    /// A quoted, comma-joined list. Number text never needs escaping.
    fn list<T>(&mut self, key: &str, values: impl Iterator<Item = T>, write: fn(&mut String, T)) {
        self.key(key);
        self.out.push('"');
        for (k, v) in values.enumerate() {
            if k > 0 {
                self.out.push(',');
            }
            write(&mut self.out, v);
        }
        self.out.push('"');
    }

    /// One whole `ckpt.series` line whose values list is `text`, already
    /// encoded, in parts.
    fn series<'a>(
        &mut self,
        name: &str,
        index: Option<usize>,
        text: impl Iterator<Item = &'a str>,
    ) {
        self.begin("ckpt.series");
        self.str("name", name);
        if let Some(index) = index {
            self.u64("index", index as u64);
        }
        self.key("values");
        self.out.push('"');
        text.for_each(|part| self.out.push_str(part));
        self.out.push('"');
        self.end();
    }

    fn end(&mut self) {
        self.out.push_str("}\n");
        self.lines += 1;
    }
}

fn parse_f64(text: &str, line: usize) -> Result<f64, SimError> {
    text.parse::<f64>()
        .map_err(|_| bad(line, &format!("bad float {text:?}")))
}

fn split_f64(text: &str, line: usize) -> Result<Vec<f64>, SimError> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|tok| {
            tok.parse::<f64>()
                .map_err(|_| bad(line, &format!("bad float {tok:?}")))
        })
        .collect()
}

/// Folds a legacy `delay_samples` list — one delay per completed job,
/// written by `f64` `Display`, which prints a whole number without a
/// fraction — into per-delay counts. A delay is shorter than the `slot`
/// slots run so far, which also bounds the row this allocates.
fn fold_delay_samples(text: &str, slot: u64, line: usize) -> Result<Vec<u64>, SimError> {
    let mut counts: Vec<u64> = Vec::new();
    for delay in split_u64(text, line)? {
        if delay >= slot {
            return Err(bad(
                line,
                &format!("delay {delay} is not shorter than the {slot} slots run"),
            ));
        }
        let delay = delay as usize;
        if counts.len() <= delay {
            counts.resize(delay + 1, 0);
        }
        counts[delay] += 1;
    }
    Ok(counts)
}

fn split_u64(text: &str, line: usize) -> Result<Vec<u64>, SimError> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|tok| {
            tok.parse::<u64>()
                .map_err(|_| bad(line, &format!("bad integer {tok:?}")))
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The reference the chunked encoding must match: `ckpt.series` lines
    /// for `series` (name, row index, values), every value encoded from
    /// scratch through `write_f64`, as `to_jsonl` did at every cut before
    /// the series text was kept between cuts.
    pub(crate) fn from_scratch(series: &[(&str, Option<usize>, &[f64])]) -> String {
        let mut w = LineWriter::with_capacity(0);
        for &(name, index, values) in series {
            w.begin("ckpt.series");
            w.str("name", name);
            if let Some(index) = index {
                w.u64("index", index as u64);
            }
            w.list("values", values.iter().copied(), write_f64);
            w.end();
        }
        w.out
    }

    /// The `ckpt.series` lines of an encoded checkpoint, and its last line
    /// (`ckpt.end`), after checking that the series lines come last but
    /// for it.
    pub(crate) fn series_lines(text: &str) -> (String, &str) {
        let lines: Vec<&str> = text.lines().collect();
        let first = lines
            .iter()
            .position(|l| l.contains("\"event\":\"ckpt.series\""))
            .expect("a checkpoint has series lines");
        let (end, series) = lines[first..].split_last().expect("and an end line");
        assert!(series
            .iter()
            .all(|l| l.contains("\"event\":\"ckpt.series\"")));
        assert!(end.starts_with("{\"event\":\"ckpt.end\""), "{end}");
        (series.iter().map(|l| format!("{l}\n")).collect(), end)
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            slot: 3,
            horizon: 10,
            scheduler: "GreFar(V=7.5, beta=0)".to_string(),
            faults: "outage:dc=0,start=2,end=4".to_string(),
            feeds: "drop:feed=price,p=0.25,start=0,end=10".to_string(),
            dropped: 1,
            queues_central: vec![2.0, 0.5],
            queues_local: vec![vec![1.0, 0.0], vec![0.25, 3.0]],
            tracker: TrackerSnapshot {
                central: vec![vec![1, 2], vec![]],
                local: vec![
                    vec![vec![(0, 1, 1.0), (0, 2, 0.125)], vec![]],
                    vec![vec![], vec![(1, 2, 0.7)]],
                ],
                completed_per_dc: vec![4, 0],
                dc_delay_sum: vec![6.0, 0.0],
                // Delays of 1, 1, 2 and 2 slots.
                dc_delay_counts: vec![vec![0, 2, 2], vec![]],
                completed_total: 4,
                sojourn_sum: 9.25,
            },
            series: encoded(1, 2, &sample_series()),
            ledger: LedgerSnapshot {
                offered: 8.0,
                admitted: 7.0,
                dropped: 1.0,
                served: 0.125,
                route_excess: 0.30000000000000004,
            },
        }
    }

    /// `sample()`'s series in line order: energy, fairness, arriving work,
    /// queue total, queue max, one account's shares, then two data
    /// centers' work, delay and prices.
    fn sample_series() -> Vec<Vec<f64>> {
        vec![
            vec![0.1, 0.2, 0.30000000000000004],
            vec![0.0, 0.0, 0.0],
            vec![2.0, 2.0, 2.0],
            vec![2.0, 4.0, 6.875],
            vec![2.0, 3.0, 3.0],
            vec![1.0, 1.0, 1.0],
            vec![0.5, 0.5, 0.5],
            vec![0.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.375],
            vec![0.0, 0.0, 0.0],
            vec![0.3, 0.3, 0.3],
            vec![0.9, 0.9, 0.9],
        ]
    }

    /// `series` (in line order) encoded by one cut.
    fn encoded(accounts: usize, dcs: usize, series: &[Vec<f64>]) -> SeriesSnapshot {
        let mut snapshot = SeriesSnapshot::new(accounts, dcs);
        let slots = series.first().map_or(0, Vec::len);
        snapshot.extend(slots, series.iter().map(Vec::as_slice));
        snapshot
    }

    /// `sample()`'s encoding with `from`, which occurs once, replaced.
    fn edited(from: &str, to: &str) -> String {
        let text = sample().to_jsonl();
        assert_eq!(text.matches(from).count(), 1, "{from}");
        text.replace(from, to)
    }

    /// The line and message of the format error `text` must raise.
    fn format_error(text: &str) -> (usize, String) {
        match Checkpoint::parse(text) {
            Err(SimError::CheckpointFormat { line, message }) => (line, message),
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    /// Data center 0's delays in `sample()`'s `ckpt.tracker_dc` line.
    const DC0_COUNTS: &str = "\"delay_counts\":\"0,2,2\"";

    /// The line number of data center 0's `ckpt.tracker_dc` line.
    fn dc0_line() -> usize {
        let text = sample().to_jsonl();
        1 + text
            .lines()
            .position(|l| l.contains(DC0_COUNTS))
            .expect("sample has a tracker line")
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        let ck = sample();
        let text = ck.to_jsonl();
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn write_load_roundtrip_and_atomicity() {
        let dir = std::env::temp_dir().join(format!("grefar-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt.jsonl");
        let ck = sample();
        ck.write(&path).unwrap();
        assert!(!temp_path(&path).exists(), "temp file left behind");
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temp_paths_are_distinct_and_never_the_target() {
        let targets = [
            "run.1",
            "run.2",
            "run",
            "run.tmp",
            "x.tmp",
            "dir/run.ckpt.jsonl",
            "dir/run.ckpt.jsonl.journal",
            "/abs/run.ckpt",
        ]
        .map(PathBuf::from);
        for target in &targets {
            assert_ne!(&temp_path(target), target, "{target:?}");
        }
        let temps: std::collections::BTreeSet<PathBuf> =
            targets.iter().map(|target| temp_path(target)).collect();
        assert_eq!(temps.len(), targets.len(), "{temps:?}");
    }

    #[test]
    fn pre_feed_layer_checkpoints_parse_with_empty_feeds() {
        // Checkpoints written before the feed layer existed have no
        // `feeds` header field; they must load with an empty profile.
        let text = sample()
            .to_jsonl()
            .replace(",\"feeds\":\"drop:feed=price,p=0.25,start=0,end=10\"", "");
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back.feeds, "");
    }

    #[test]
    fn pre_ledger_checkpoints_reanchor_the_conservation_identity() {
        // Checkpoints written before the conservation ledger existed have
        // no `ckpt.ledger` line; they must load with the identity
        // re-anchored at the cut: offered = admitted = Σ Θ.
        let ck = sample();
        let full = ck.to_jsonl();
        let lines: Vec<&str> = full
            .lines()
            .filter(|l| !l.contains("ckpt.ledger"))
            .collect();
        assert_eq!(lines.len() + 1, full.lines().count());
        let mut text = lines.join("\n").replace(
            &format!("\"lines\":{}", full.lines().count()),
            &format!("\"lines\":{}", lines.len()),
        );
        text.push('\n');
        let back = Checkpoint::parse(&text).unwrap();
        let total = 2.0 + 0.5 + 1.0 + 0.25 + 3.0;
        assert_eq!(
            back.ledger,
            LedgerSnapshot {
                offered: total,
                admitted: total,
                ..LedgerSnapshot::default()
            }
        );
    }

    #[test]
    fn every_line_conforms_to_the_schema_registry() {
        use grefar_obs::schema::{self, Channel, FieldKind};
        use std::collections::BTreeSet;

        let text = sample().to_jsonl();
        let mut seen = BTreeSet::new();
        for (idx, line) in text.lines().enumerate() {
            let obj = json::parse_object(line).unwrap_or_else(|e| panic!("line {}: {e}", idx + 1));
            let name = event_name(&obj).expect("every line names its event");
            let entry = schema::lookup(name)
                .filter(|entry| entry.channel == Channel::Checkpoint)
                .unwrap_or_else(|| panic!("{name} is not a registered checkpoint line"));
            for field in entry.required {
                assert!(obj.contains_key(field.name), "{name} lacks {}", field.name);
            }
            for (key, value) in obj.iter().filter(|(key, _)| *key != "event") {
                let field = entry
                    .required
                    .iter()
                    .chain(entry.optional)
                    .find(|field| field.name == key)
                    .unwrap_or_else(|| panic!("{name} sets undeclared field {key}"));
                let typed = if field.kind == FieldKind::Str {
                    value.as_str().is_some()
                } else {
                    value.as_f64().is_some()
                };
                assert!(typed, "{name}.{key} is {value:?}, not {:?}", field.kind);
            }
            seen.insert(name.to_string());
        }
        let registered: BTreeSet<String> = schema::names(Channel::Checkpoint)
            .map(str::to_string)
            .collect();
        assert_eq!(seen, registered, "the sample must hold every line kind");
    }

    #[test]
    fn legacy_delay_samples_fold_into_counts() {
        // Display wrote one whole-number delay per completed job, in
        // completion order.
        let text = edited(DC0_COUNTS, "\"delay_samples\":\"2,1,2,1\"");
        assert_eq!(Checkpoint::parse(&text).unwrap(), sample());
        let text = edited("\"delay_counts\":\"\"", "\"delay_samples\":\"\"");
        assert_eq!(Checkpoint::parse(&text).unwrap(), sample());
    }

    #[test]
    fn legacy_delay_samples_must_be_whole_delays_shorter_than_the_run() {
        // A delay is shorter than the 3 slots the sample has run.
        for token in ["1.5", "-1", "3"] {
            let text = edited(DC0_COUNTS, &format!("\"delay_samples\":\"2,1,{token},1\""));
            let (line, message) = format_error(&text);
            assert_eq!(line, dc0_line(), "{token}");
            assert!(message.contains(token), "{message}");
        }
        // A header cannot claim more slots than its text could hold, so
        // the fold's allocation stays bounded by the input.
        let text = edited("\"slot\":3,", "\"slot\":1000000000000,");
        let (line, message) = format_error(&text);
        assert_eq!(line, 1);
        assert!(message.contains("1000000000000"), "{message}");
    }

    #[test]
    fn tracker_line_without_delays_is_rejected() {
        let (line, message) = format_error(&edited(&format!(",{DC0_COUNTS}"), ""));
        assert_eq!(line, dc0_line());
        assert!(message.contains("delay_counts"), "{message}");
    }

    #[test]
    fn delay_counts_must_sum_to_the_completions() {
        for counts in ["0,2,1", "0,2,2,1", "18446744073709551615,5"] {
            let text = edited(DC0_COUNTS, &format!("\"delay_counts\":\"{counts}\""));
            let (line, message) = format_error(&text);
            assert_eq!(line, dc0_line(), "{counts}");
            assert!(message.contains("sum"), "{message}");
        }
    }

    #[test]
    fn every_series_must_hold_one_value_per_slot() {
        for (name, values, short) in [
            ("queue_max", "\"2,3,3\"", "\"2,3\""),
            ("arriving_work", "\"2,2,2\"", "\"2,2,2,2\""),
            ("prices", "\"0.3,0.3,0.3\"", "\"0.3,0.3\""),
            ("dc_delay", "\"0,1,1.375\"", "\"0,1\""),
            ("account_shares", "\"1,1,1\"", "\"\""),
        ] {
            let (line, message) = format_error(&edited(values, short));
            assert_eq!(line, 1, "{name}");
            assert!(message.contains(name), "{message}");
        }
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let text = sample().to_jsonl();
        let cut: String = text
            .lines()
            .take(text.lines().count() - 2)
            .collect::<Vec<_>>()
            .join("\n");
        let err = Checkpoint::parse(&cut).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn two_appended_records_are_refused() {
        // A file holding two whole records, as older daemon builds appended
        // them, is neither record: the trailer's line count rejects it.
        let mut second = sample();
        second.dropped = 2;
        let first = sample().to_jsonl();
        let text = format!("{first}{}", second.to_jsonl());
        let (line, message) = format_error(&text);
        let records = first.lines().count();
        assert_eq!(line, 2 * records);
        assert!(
            message.contains(&format!("expected {records} lines, found {}", 2 * records)),
            "{message}"
        );
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let text = sample().to_jsonl().replace("\"v\":1", "\"v\":99");
        match Checkpoint::parse(&text) {
            Err(SimError::CheckpointSchema {
                found: 99,
                expected,
            }) => {
                assert_eq!(expected, CHECKPOINT_SCHEMA);
            }
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn garbage_values_carry_line_numbers() {
        let text = sample()
            .to_jsonl()
            .replace("\"central\":\"2,0.5\"", "\"central\":\"2,oops\"");
        match Checkpoint::parse(&text) {
            Err(SimError::CheckpointFormat { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("oops"), "{message}");
            }
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn float_encoding_roundtrips_extremes() {
        let values = [
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            1.0 / 3.0,
            12345.678901234567,
            0.0,
        ];
        let mut w = LineWriter::with_capacity(0);
        w.list("values", values.iter().copied(), write_f64);
        let text = w.out.trim_start_matches(",\"values\":").trim_matches('"');
        let back = split_f64(text, 1).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The values the chunked encoding is checked on: both zeros,
    /// infinities, NaN, the extremes of the float range, and whole numbers
    /// on both sides of `write_f64`'s 2^53 fast-path bound. `2^53 + 1`
    /// rounds to 2^53 as an `f64`, which is still the number it spells.
    #[allow(clippy::unreadable_literal)]
    const EDGE_VALUES: [f64; 16] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1e-300,
        -1e-300,
        5e-324,
        f64::MAX,
        9007199254740991.0,
        9007199254740993.0,
        9007199254740994.0,
        -9007199254740994.0,
        0.30000000000000004,
        1.5,
        -7.0,
    ];

    #[test]
    fn chunked_series_match_a_from_scratch_encoding_at_every_cut() {
        // `sample()`'s shape (12 series), 90 slots of edge values mixed
        // across series, cut at irregular gaps that include every slot.
        let slots = 90;
        let series: Vec<Vec<f64>> = (0..12)
            .map(|k| {
                (0..slots)
                    .map(|t| EDGE_VALUES[(7 * t + 3 * k + t * t / 5) % EDGE_VALUES.len()])
                    .collect()
            })
            .collect();
        let names: Vec<(&str, Option<usize>)> = SeriesSnapshot::new(1, 2).names().collect();
        let mut memo = SeriesSnapshot::new(1, 2);
        let mut held: Vec<(Checkpoint, String)> = Vec::new();
        let gaps = [1, 1, 1, 2, 1, 3, 5, 1, 8, 1, 1, 13, 2, 24, 7];
        let mut cut = 0;
        for gap in gaps.iter().cycle() {
            cut = (cut + gap).min(slots);
            memo.extend(cut, series.iter().map(|values| &values[..cut]));
            let ck = Checkpoint {
                slot: cut as u64,
                horizon: slots as u64,
                series: memo.clone(),
                ..sample()
            };
            let text = ck.to_jsonl();
            let prefixes: Vec<(&str, Option<usize>, &[f64])> = names
                .iter()
                .zip(&series)
                .map(|(&(name, index), values)| (name, index, &values[..cut]))
                .collect();
            let (lines, end) = series_lines(&text);
            assert_eq!(lines, from_scratch(&prefixes), "cut at slot {cut}");
            assert_eq!(
                end,
                format!(
                    "{{\"event\":\"ckpt.end\",\"lines\":{}}}",
                    text.lines().count()
                )
            );

            // The parsed text is one chunk, equal to the many-chunk
            // snapshot, and decodes to the values, bit for bit.
            let back = Checkpoint::parse(&text).unwrap();
            assert_eq!(back, ck, "cut at slot {cut}");
            let decoded = back.series.decode();
            for (got, want) in decoded
                .iter()
                .flatten()
                .zip(prefixes.iter().flat_map(|p| p.2))
            {
                assert!(got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()));
            }
            assert_eq!(decoded.iter().map(Vec::len).sum::<usize>(), 12 * cut);

            // Checkpoints taken at earlier cuts still encode as they did.
            for (earlier, its_text) in &held {
                assert_eq!(
                    &earlier.to_jsonl(),
                    its_text,
                    "held cut at {}",
                    earlier.slot
                );
            }
            held.push((ck, text));
            if cut == slots {
                break;
            }
        }
        assert!(held.len() > 20, "{} cuts", held.len());
    }
}
