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
//! straight into one pre-sized `String` through `grefar_obs::json`'s
//! writers, the escaper and number writer `Event` serialization uses too.
//! Floats in quoted lists and string fields are `Display` text (`NaN` and
//! `inf` included); the bare numbers of `ckpt.ledger` are JSON numbers, or
//! `null` when not finite. The line names and fields are registered as
//! `Channel::Checkpoint` entries of `grefar_obs::schema::EVENTS`.
//!
//! Completed jobs' delays travel as per-delay counts: the
//! `ckpt.tracker_dc` line's `delay_counts` list holds, at index `d`, the
//! number of jobs a data center completed with a delay of `d` slots.
//! Checkpoints written before counts existed carry a `delay_samples` list
//! (one whole-number delay per completed job) instead; the parser still
//! reads it and folds it into counts.
//!
//! Files are written atomically (temp file + rename), and the final
//! `ckpt.end` line carries the line count, so a crash mid-write leaves
//! either the previous complete checkpoint or a detectably-truncated file —
//! never a silently half-updated one.

use std::collections::BTreeMap;
use std::path::Path;

use grefar_obs::json::{self, write_f64, write_u64, JsonValue};

use crate::error::SimError;
use crate::tracker::TrackerSnapshot;

/// The checkpoint format version this build reads and writes.
pub const CHECKPOINT_SCHEMA: u64 = 1;

/// Every per-slot metric series the report accumulates, by raw per-slot
/// values (running averages are rebuilt by replaying
/// [`RunningSeries::push`](crate::RunningSeries)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSnapshot {
    /// Energy cost per slot.
    pub energy: Vec<f64>,
    /// Fairness score per slot.
    pub fairness: Vec<f64>,
    /// Per-account resource shares, `[account][slot]`.
    pub account_shares: Vec<Vec<f64>>,
    /// Per-DC scheduled work, `[dc][slot]`.
    pub work_per_dc: Vec<Vec<f64>>,
    /// Per-DC running-average delay curve, `[dc][slot]`.
    pub dc_delay: Vec<Vec<f64>>,
    /// Per-DC price series, `[dc][slot]`.
    pub prices: Vec<Vec<f64>>,
    /// Arriving work per slot.
    pub arriving_work: Vec<f64>,
    /// Total queue length per slot.
    pub queue_total: Vec<f64>,
    /// Max single queue length per slot.
    pub queue_max: Vec<f64>,
}

impl SeriesSnapshot {
    /// The one-value-per-slot series, by their checkpoint names.
    fn scalar(&self) -> [(&'static str, &Vec<f64>); 5] {
        [
            ("energy", &self.energy),
            ("fairness", &self.fairness),
            ("arriving_work", &self.arriving_work),
            ("queue_total", &self.queue_total),
            ("queue_max", &self.queue_max),
        ]
    }

    /// The `[index][slot]` families, by their checkpoint names.
    fn indexed(&self) -> [(&'static str, &Vec<Vec<f64>>); 4] {
        [
            ("account_shares", &self.account_shares),
            ("work_per_dc", &self.work_per_dc),
            ("dc_delay", &self.dc_delay),
            ("prices", &self.prices),
        ]
    }

    /// Why these cannot be the series of a run cut after `slots` slots
    /// with `dcs` data centers and `accounts` accounts, if they cannot:
    /// `account_shares` needs one row per account, every other family one
    /// row per data center, and every series `slots` values.
    pub(crate) fn shape_error(&self, slots: usize, dcs: usize, accounts: usize) -> Option<String> {
        for (name, rows) in self.indexed() {
            let want = if name == "account_shares" {
                accounts
            } else {
                dcs
            };
            if rows.len() != want {
                return Some(format!("{name} has {} rows, not {want}", rows.len()));
            }
        }
        let rows = self
            .indexed()
            .into_iter()
            .flat_map(|(name, rows)| rows.iter().map(move |row| (name, row)));
        self.scalar()
            .into_iter()
            .chain(rows)
            .find(|(_, values)| values.len() != slots)
            .map(|(name, values)| format!("{name} holds {} values for {slots} slots", values.len()))
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

/// The result of a tolerant checkpoint load: the recovered record plus
/// how much trailing damage (if any) was skipped to reach it. Produced by
/// [`Checkpoint::load_latest`] / [`Checkpoint::recover`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecovery {
    /// The last complete, valid checkpoint record.
    pub checkpoint: Checkpoint,
    /// Physical lines retained, up to and including the record's
    /// `ckpt.end`.
    pub kept_lines: u64,
    /// Bytes discarded after the recovered record (0 for a clean file).
    pub dropped_bytes: u64,
}

impl CheckpointRecovery {
    /// Whether trailing damage was skipped (callers emit a
    /// `checkpoint.truncated` telemetry event when so).
    pub fn was_truncated(&self) -> bool {
        self.dropped_bytes > 0
    }
}

/// Whether a physical line is a well-formed JSON object whose `event`
/// field equals `name` (consistent with the strict parser's framing).
fn is_event_line(line: &str, name: &str) -> bool {
    !line.trim().is_empty()
        && json::parse_object(line).ok().as_ref().and_then(event_name) == Some(name)
}

impl Checkpoint {
    /// Serializes to the JSONL checkpoint format, in one pass into one
    /// pre-sized buffer (see the [module docs](self)).
    pub fn to_jsonl(&self) -> String {
        let series = &self.series;
        // The per-slot series are the bulk of a checkpoint.
        let series_values: usize = series.scalar().iter().map(|(_, v)| v.len()).sum::<usize>()
            + series
                .indexed()
                .iter()
                .flat_map(|(_, rows)| rows.iter())
                .map(Vec::len)
                .sum::<usize>();
        let mut w = LineWriter::with_capacity(BYTES_PER_VALUE * series_values + 4096);

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
        w.u64("accounts", series.account_shares.len() as u64);
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
        for (name, values) in series.scalar() {
            w.begin("ckpt.series");
            w.str("name", name);
            w.list("values", values.iter().copied(), write_f64);
            w.end();
        }
        for (name, family) in series.indexed() {
            for (index, values) in family.iter().enumerate() {
                w.begin("ckpt.series");
                w.str("name", name);
                w.u64("index", index as u64);
                w.list("values", values.iter().copied(), write_f64);
                w.end();
            }
        }
        let lines = w.lines + 1;
        w.begin("ckpt.end");
        w.u64("lines", lines);
        w.end();
        w.out
    }

    /// Writes the checkpoint atomically *and durably*: serialize to
    /// `<path>.tmp`, `fsync` the temp file, rename over `path`, then
    /// `fsync` the parent directory. An interrupted write never corrupts an
    /// existing checkpoint, and once `write` returns the new checkpoint
    /// survives power loss — without the data sync a rename can land before
    /// the bytes do (leaving a valid name over empty content), and without
    /// the directory sync the rename itself may not be on disk.
    ///
    /// # Errors
    /// [`SimError::CheckpointIo`] when the temp file cannot be written,
    /// synced or renamed, or the parent directory cannot be synced.
    pub fn write(&self, path: &Path) -> Result<(), SimError> {
        use std::io::Write as _;
        let tmp = path.with_extension("tmp");
        let io_err = |source| SimError::CheckpointIo {
            path: path.to_path_buf(),
            source,
        };
        let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(self.to_jsonl().as_bytes()).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(io_err)?;
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::File::open(parent)
                .and_then(|dir| dir.sync_all())
                .map_err(io_err)?;
        }
        Ok(())
    }

    /// Appends this checkpoint as one more record to a checkpoint
    /// *journal* and syncs it to disk. Unlike [`write`](Self::write) the
    /// journal keeps every prior record, so a crash mid-append damages at
    /// most the trailing record — [`load_latest`](Self::load_latest)
    /// recovers to the last complete one. This is how `grefar-served`
    /// persists state: append-only, recoverable, no rename window.
    ///
    /// # Errors
    /// [`SimError::CheckpointIo`] when the journal cannot be opened,
    /// written or synced.
    pub fn append(&self, path: &Path) -> Result<(), SimError> {
        use std::io::Write as _;
        let io_err = |source| SimError::CheckpointIo {
            path: path.to_path_buf(),
            source,
        };
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        file.write_all(self.to_jsonl().as_bytes()).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        Ok(())
    }

    /// Reads the last complete checkpoint record from a file, tolerating
    /// a truncated or corrupt trailing record (crash mid-append).
    ///
    /// Works on both a single [`write`](Self::write)-style checkpoint and
    /// an [`append`](Self::append)-style journal: the text is scanned for
    /// complete `ckpt.header … ckpt.end` blocks and the latest block that
    /// parses cleanly wins. Everything after it — a half-written line, a
    /// corrupt record, a block whose `ckpt.end` never made it to disk —
    /// is reported via [`CheckpointRecovery::dropped_bytes`] so the
    /// caller can emit a `checkpoint.truncated` telemetry event instead
    /// of dying on a hard parse error.
    ///
    /// # Errors
    /// [`SimError::CheckpointIo`] when the file cannot be read, and
    /// [`SimError::CheckpointFormat`]/[`SimError::CheckpointSchema`] when
    /// *no* complete record can be recovered (the strict error from the
    /// most recent candidate block is surfaced).
    pub fn load_latest(path: &Path) -> Result<CheckpointRecovery, SimError> {
        let text = std::fs::read_to_string(path).map_err(|source| SimError::CheckpointIo {
            path: path.to_path_buf(),
            source,
        })?;
        Self::recover(&text)
    }

    /// Parses the last complete record out of (possibly damaged)
    /// checkpoint/journal text. See [`load_latest`](Self::load_latest).
    ///
    /// # Errors
    /// As for [`load_latest`](Self::load_latest), minus the I/O case.
    pub fn recover(text: &str) -> Result<CheckpointRecovery, SimError> {
        // Physical lines with their byte extents (offset of the line start
        // and of the character past its newline), so dropped trailing
        // bytes can be counted exactly — including a final unterminated
        // fragment.
        let mut lines: Vec<(&str, usize, usize)> = Vec::new();
        let mut offset = 0;
        for raw in text.split_inclusive('\n') {
            lines.push((
                raw.trim_end_matches(['\n', '\r']),
                offset,
                offset + raw.len(),
            ));
            offset += raw.len();
        }
        let header_starts: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, (line, _, _))| is_event_line(line, "ckpt.header"))
            .map(|(idx, _)| idx)
            .collect();
        if header_starts.is_empty() {
            // No recognizable record at all: surface the strict parser's
            // precise diagnostic (it cannot succeed without a header).
            return Err(Self::parse(text)
                .err()
                .unwrap_or_else(|| bad(1, "empty checkpoint")));
        }
        let mut last_err = None;
        for &start in header_starts.iter().rev() {
            // A record ends at the first ckpt.end after its header; a
            // missing one means the record never finished landing.
            let Some(end) = lines[start..]
                .iter()
                .position(|(line, _, _)| is_event_line(line, "ckpt.end"))
                .map(|rel| start + rel)
            else {
                last_err = last_err.or(Some(bad(
                    lines.len(),
                    "checkpoint is truncated (no ckpt.end)",
                )));
                continue;
            };
            let block: String = lines[start..=end]
                .iter()
                .map(|(line, _, _)| *line)
                .collect::<Vec<_>>()
                .join("\n");
            match Self::parse(&block) {
                Ok(checkpoint) => {
                    return Ok(CheckpointRecovery {
                        checkpoint,
                        kept_lines: (end + 1) as u64,
                        dropped_bytes: (text.len() - lines[end].2) as u64,
                    });
                }
                Err(err) => last_err = last_err.or(Some(err)),
            }
        }
        Err(last_err.unwrap_or_else(|| bad(1, "empty checkpoint")))
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
            series: SeriesSnapshot {
                account_shares: vec![Vec::new(); accounts],
                work_per_dc: vec![Vec::new(); n],
                dc_delay: vec![Vec::new(); n],
                prices: vec![Vec::new(); n],
                ..SeriesSnapshot::default()
            },
            ledger: LedgerSnapshot::default(),
        };

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
                    let values = split_f64(get_str(obj, "values", lineno)?, lineno)?;
                    let name = get_str(obj, "name", lineno)?;
                    match name {
                        "energy" => out.series.energy = values,
                        "fairness" => out.series.fairness = values,
                        "arriving_work" => out.series.arriving_work = values,
                        "queue_total" => out.series.queue_total = values,
                        "queue_max" => out.series.queue_max = values,
                        "account_shares" => {
                            let k = index_in(obj, "index", accounts, lineno)?;
                            out.series.account_shares[k] = values;
                        }
                        "work_per_dc" => {
                            let i = index_in(obj, "index", n, lineno)?;
                            out.series.work_per_dc[i] = values;
                        }
                        "dc_delay" => {
                            let i = index_in(obj, "index", n, lineno)?;
                            out.series.dc_delay[i] = values;
                        }
                        "prices" => {
                            let i = index_in(obj, "index", n, lineno)?;
                            out.series.prices[i] = values;
                        }
                        other => return Err(bad(lineno, &format!("unknown series {other:?}"))),
                    }
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
        if let Some(problem) = out.series.shape_error(slot as usize, n, accounts) {
            return Err(bad(
                1,
                &format!("checkpoint shapes disagree with its header: {problem}"),
            ));
        }
        Ok(out)
    }
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

/// The encoded size of one per-slot series value and its comma, rounded
/// up (a 4 000-slot paper-scenario cut averages 12.9 bytes per value), for
/// pre-sizing [`Checkpoint::to_jsonl`]'s buffer.
const BYTES_PER_VALUE: usize = 16;

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
mod tests {
    use super::*;

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
            series: SeriesSnapshot {
                energy: vec![0.1, 0.2, 0.30000000000000004],
                fairness: vec![0.0, 0.0, 0.0],
                account_shares: vec![vec![1.0, 1.0, 1.0]],
                work_per_dc: vec![vec![0.5, 0.5, 0.5], vec![0.0, 0.0, 0.0]],
                dc_delay: vec![vec![0.0, 1.0, 1.375], vec![0.0, 0.0, 0.0]],
                prices: vec![vec![0.3, 0.3, 0.3], vec![0.9, 0.9, 0.9]],
                arriving_work: vec![2.0, 2.0, 2.0],
                queue_total: vec![2.0, 4.0, 6.875],
                queue_max: vec![2.0, 3.0, 3.0],
            },
            ledger: LedgerSnapshot {
                offered: 8.0,
                admitted: 7.0,
                dropped: 1.0,
                served: 0.125,
                route_excess: 0.30000000000000004,
            },
        }
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
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file left behind"
        );
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).ok();
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
    fn recovery_tolerates_truncation_at_every_offset_of_the_final_record() {
        let ck1 = sample();
        let mut ck2 = sample();
        ck2.dropped = 2;
        ck2.queues_central = vec![1.5, 0.25];
        let block1 = ck1.to_jsonl();
        let text = format!("{}{}", block1, ck2.to_jsonl());

        // A clean journal recovers its newest record with nothing dropped.
        let clean = Checkpoint::recover(&text).unwrap();
        assert_eq!(clean.checkpoint, ck2);
        assert!(!clean.was_truncated());
        assert_eq!(clean.kept_lines as usize, text.lines().count());

        // Byte-level truncation at every offset inside the final record:
        // the loader falls back to the last complete record and counts
        // the damage. (At text.len() - 1 only the trailing newline is
        // missing, so the final record is still whole.)
        for cut in block1.len()..text.len() {
            let damaged = &text[..cut];
            let recovered =
                Checkpoint::recover(damaged).unwrap_or_else(|err| panic!("cut at {cut}: {err}"));
            if cut < text.len() - 1 {
                assert_eq!(recovered.checkpoint, ck1, "cut at {cut}");
                assert_eq!(recovered.dropped_bytes as usize, cut - block1.len());
                assert_eq!(recovered.was_truncated(), cut > block1.len());
                assert_eq!(recovered.kept_lines as usize, block1.lines().count());
            } else {
                assert_eq!(recovered.checkpoint, ck2, "cut at {cut}");
                assert!(!recovered.was_truncated());
            }
        }

        // Corrupt trailing garbage (not just truncation) is skipped too.
        let noisy = format!("{text}{{\"event\":\"ckpt.head");
        let recovered = Checkpoint::recover(&noisy).unwrap();
        assert_eq!(recovered.checkpoint, ck2);
        assert!(recovered.was_truncated());
        assert_eq!(recovered.dropped_bytes as usize, noisy.len() - text.len());

        // With no complete record at all, the strict diagnostic surfaces.
        let err = Checkpoint::recover(&block1[..block1.len() / 2]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        assert!(Checkpoint::recover("").is_err());
    }

    #[test]
    fn append_grows_a_recoverable_journal() {
        let dir = std::env::temp_dir().join(format!("grefar-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("served.ckpt.jsonl");
        let ck1 = sample();
        let mut ck2 = sample();
        ck2.dropped = 7;
        ck1.write(&path).unwrap();
        ck2.append(&path).unwrap();
        let recovered = Checkpoint::load_latest(&path).unwrap();
        assert_eq!(recovered.checkpoint, ck2);
        assert!(!recovered.was_truncated());
        // The journal still holds both records.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{}{}", ck1.to_jsonl(), ck2.to_jsonl()));
        std::fs::remove_dir_all(&dir).ok();
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
        let values = vec![
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
}
