//! The admission journal: the daemon's write-ahead log of accepted
//! submissions.
//!
//! Checkpoints capture the *engine* state (queues, trackers, RNG-free
//! frozen inputs are rebuilt from the seed), but live submissions mutate
//! the arrival rows on top of the frozen base. The journal records every
//! accepted submission — `fsync`'d *before* the client sees its
//! acknowledgement — so a restarted daemon replays them onto the same base
//! and continues bit-identically: same inputs ⇒ same decisions ⇒ same
//! telemetry.
//!
//! Format: one flat JSON object per line, `{"seq":N,"t":T,"job":J,
//! "count":C}`, contiguous `seq`. A `kill -9` can truncate the final
//! line mid-write; [`load`] tolerates exactly that (the dangling suffix
//! is reported, earlier corruption is an error) — a submission whose
//! journal line did not survive was never acknowledged, so dropping it
//! keeps the daemon and its clients consistent.
//!
//! Growth is bounded: each checkpoint cut [`Journal::rotate`]s the file
//! down to the entries a resume still needs (slots at or past the cut,
//! plus the newest entry as the `seq` watermark), preserving original
//! sequence numbers — so a rotated journal starts at a nonzero base and
//! [`load`] only requires contiguity, not a zero origin.

use grefar_obs::json::{parse_object, JsonValue};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One accepted submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalEntry {
    /// Acceptance sequence number (strictly increasing; starts at 0 for
    /// a fresh daemon, survives rotation via the kept suffix).
    pub seq: u64,
    /// The slot the submission was admitted into.
    pub t: u64,
    /// Job class index.
    pub job: usize,
    /// Number of jobs.
    pub count: f64,
}

impl JournalEntry {
    fn to_line(self) -> String {
        format!(
            "{{\"seq\":{},\"t\":{},\"job\":{},\"count\":{}}}",
            self.seq, self.t, self.job, self.count
        )
    }
}

/// The result of loading a journal: the surviving entries, plus the size
/// of a truncated trailing fragment (0 when the file ended cleanly).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecovery {
    /// All fully-written entries, in acceptance order.
    pub entries: Vec<JournalEntry>,
    /// Bytes of a dangling, never-acknowledged trailing fragment.
    pub dropped_bytes: u64,
}

/// An append-only journal writer. Every [`append`](Journal::append) is
/// durable (`fsync`) before it returns — the acknowledgement barrier.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if absent) the journal for appending.
    ///
    /// # Errors
    /// Any I/O error opening the file.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably appends one entry: write, then `fsync`. Only after this
    /// returns may the submission be acknowledged.
    ///
    /// # Errors
    /// Any I/O error; the caller must then reject the submission.
    pub fn append(&mut self, entry: JournalEntry) -> std::io::Result<()> {
        let mut line = entry.to_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }

    /// Atomically rewrites the journal to hold only `keep` (entries a
    /// resume still needs), bounding growth at checkpoint boundaries.
    /// The replacement goes through the checkpoint writer's routine
    /// ([`grefar_sim::replace_durably`]), then the append handle is
    /// reopened on the new file. A crash at any byte leaves either the
    /// complete old journal or the complete new one — [`load`] accepts
    /// both because `keep` preserves original `seq` numbers (contiguous
    /// from a now-nonzero base).
    ///
    /// # Errors
    /// Any I/O error. Callers treat this as fatal (the state keeper
    /// panics, the supervisor restarts it): the on-disk journal is valid
    /// at every byte of the sequence, but the append handle may no longer
    /// match the live file, so continuing could silently drop the
    /// durability barrier.
    pub fn rotate(&mut self, keep: &[JournalEntry]) -> std::io::Result<()> {
        let mut text = String::new();
        for entry in keep {
            text.push_str(&entry.to_line());
            text.push('\n');
        }
        grefar_sim::replace_durably(&self.path, text.as_bytes())?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }
}

/// Loads a journal, tolerating a truncated final line (see module docs).
/// A missing file is an empty journal.
///
/// # Errors
/// I/O errors, corruption anywhere except the trailing fragment, or a
/// non-monotonic `seq` sequence.
pub fn load(path: &Path) -> Result<JournalRecovery, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(JournalRecovery {
                entries: Vec::new(),
                dropped_bytes: 0,
            })
        }
        Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
    };
    let mut entries: Vec<JournalEntry> = Vec::new();
    let mut consumed = 0usize;
    for chunk in text.split_inclusive('\n') {
        let complete = chunk.ends_with('\n');
        let line = chunk.trim_end_matches('\n');
        if line.trim().is_empty() {
            consumed += chunk.len();
            continue;
        }
        match parse_entry(line) {
            Ok(entry) => {
                // Contiguous from the first entry's seq. The base is 0
                // for a virgin journal and the original (nonzero) seq of
                // the oldest kept entry after a rotation.
                if let Some(prev) = entries.last() {
                    let expected: u64 = prev.seq + 1;
                    if entry.seq != expected {
                        return Err(format!(
                            "journal {}: seq {} where {expected} was expected",
                            path.display(),
                            entry.seq
                        ));
                    }
                }
                if !complete {
                    // A well-formed final line that merely lost its
                    // newline: the write made it to disk, keep it.
                    entries.push(entry);
                    consumed += chunk.len();
                    break;
                }
                entries.push(entry);
                consumed += chunk.len();
            }
            Err(e) => {
                if complete && text[consumed + chunk.len()..].trim().is_empty() {
                    // Corrupt *last* record (e.g. torn write padded by the
                    // filesystem): drop it like a truncated one.
                    break;
                }
                if complete {
                    return Err(format!(
                        "journal {}: corrupt entry {:?}: {e}",
                        path.display(),
                        line
                    ));
                }
                break; // truncated trailing fragment
            }
        }
    }
    Ok(JournalRecovery {
        dropped_bytes: (text.len() - consumed) as u64,
        entries,
    })
}

fn parse_entry(line: &str) -> Result<JournalEntry, String> {
    let object = parse_object(line)?;
    let field = |key: &str| -> Result<f64, String> {
        object
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing numeric field {key:?}"))
    };
    let seq = field("seq")?;
    let t = field("t")?;
    let job = field("job")?;
    let count = field("count")?;
    // verify: allow(float-eq): fract() != 0 is the exact JSON-integer test
    if seq < 0.0 || seq.fract() != 0.0 || t < 0.0 || t.fract() != 0.0 {
        return Err("seq/t must be non-negative integers".to_string());
    }
    // verify: allow(float-eq): fract() != 0 is the exact JSON-integer test
    if job < 0.0 || job.fract() != 0.0 {
        return Err("job must be a non-negative integer".to_string());
    }
    // Whole jobs only, mirroring the wire protocol: the job tracker follows
    // discrete jobs through the fluid queues, and a fractional replay would
    // desynchronize the two.
    // verify: allow(float-eq): fract() == 0 is the exact integrality test
    if !(count.is_finite() && count > 0.0 && count.fract() == 0.0) {
        return Err("count must be a positive whole number of jobs".to_string());
    }
    Ok(JournalEntry {
        seq: seq as u64,
        t: t as u64,
        job: job as usize,
        count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, t: u64, job: usize, count: f64) -> JournalEntry {
        JournalEntry { seq, t, job, count }
    }

    #[test]
    fn append_then_load_roundtrips() {
        let dir = std::env::temp_dir().join(format!("grefar-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.journal");
        let _ = std::fs::remove_file(&path);
        let written = vec![
            entry(0, 3, 1, 2.0),
            entry(1, 3, 0, 4.0),
            entry(2, 5, 2, 3.0),
        ];
        {
            let mut journal = Journal::open(&path).unwrap();
            for e in &written {
                journal.append(*e).unwrap();
            }
        }
        let recovered = load(&path).unwrap();
        assert_eq!(recovered.entries, written);
        assert_eq!(recovered.dropped_bytes, 0);
        // Re-open and extend: still append-only.
        Journal::open(&path)
            .unwrap()
            .append(entry(3, 6, 0, 1.0))
            .unwrap();
        assert_eq!(load(&path).unwrap().entries.len(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_is_empty() {
        let recovery = load(Path::new("/nonexistent/grefar.journal")).unwrap();
        assert!(recovery.entries.is_empty());
        assert_eq!(recovery.dropped_bytes, 0);
    }

    #[test]
    fn truncated_tail_is_dropped_at_every_offset() {
        let full = format!(
            "{}\n{}\n",
            entry(0, 1, 0, 2.0).to_line(),
            entry(1, 2, 1, 3.0).to_line()
        );
        let first_len = entry(0, 1, 0, 2.0).to_line().len() + 1;
        let dir = std::env::temp_dir().join(format!("grefar-journal-cut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.journal");
        for cut in first_len..full.len() {
            std::fs::write(&path, &full.as_bytes()[..cut]).unwrap();
            let recovered = load(&path).unwrap();
            if cut == full.len() - 1 {
                // Only the final newline is missing: the entry survived.
                assert_eq!(recovered.entries.len(), 2, "cut={cut}");
                assert_eq!(recovered.dropped_bytes, 0, "cut={cut}");
            } else {
                assert_eq!(recovered.entries.len(), 1, "cut={cut}");
                assert_eq!(
                    recovered.dropped_bytes as usize,
                    cut - first_len,
                    "cut={cut}"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rotation_keeps_a_suffix_with_original_seqs_and_stays_appendable() {
        let dir = std::env::temp_dir().join(format!("grefar-journal-rot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rotate.journal");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::open(&path).unwrap();
        let written = vec![
            entry(0, 1, 0, 1.0),
            entry(1, 2, 1, 2.0),
            entry(2, 5, 0, 3.0),
            entry(3, 6, 1, 4.0),
        ];
        for e in &written {
            journal.append(*e).unwrap();
        }
        // Checkpoint at slot 5: entries for slots >= 5 survive.
        journal.rotate(&written[2..]).unwrap();
        let recovered = load(&path).unwrap();
        assert_eq!(recovered.entries, written[2..]);
        assert_eq!(recovered.dropped_bytes, 0);
        // The reopened handle appends to the rotated file, not a stale fd.
        journal.append(entry(4, 7, 0, 1.0)).unwrap();
        assert_eq!(load(&path).unwrap().entries.len(), 3);
        // Rotating to a single watermark entry still loads.
        journal.rotate(&[entry(4, 7, 0, 1.0)]).unwrap();
        let recovered = load(&path).unwrap();
        assert_eq!(recovered.entries, vec![entry(4, 7, 0, 1.0)]);
        // A gap after the base is still corruption.
        journal.append(entry(9, 8, 0, 1.0)).unwrap();
        assert!(load(&path).unwrap_err().contains("seq"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_rotation_leaves_a_loadable_journal_at_every_byte() {
        // A crash can strike anywhere inside rotate(): while the `.tmp`
        // temp file is being written (the journal itself is untouched),
        // or after the rename (the journal is the complete new file).
        // Model both at byte granularity.
        let dir = std::env::temp_dir().join(format!("grefar-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        let old = vec![
            entry(0, 1, 0, 1.0),
            entry(1, 4, 1, 2.0),
            entry(2, 6, 0, 3.0),
        ];
        let keep = &old[1..];
        let old_text: String = old.iter().map(|e| format!("{}\n", e.to_line())).collect();
        let new_text: String = keep.iter().map(|e| format!("{}\n", e.to_line())).collect();

        // Phase 1: temp-file write torn at every prefix. The journal file
        // itself must load untouched.
        let tmp = dir.join("torn.journal.tmp");
        for cut in 0..=new_text.len() {
            std::fs::write(&path, &old_text).unwrap();
            std::fs::write(&tmp, &new_text.as_bytes()[..cut]).unwrap();
            let recovered = load(&path).unwrap();
            assert_eq!(recovered.entries, old, "tmp cut at {cut}");
        }
        let _ = std::fs::remove_file(&tmp);

        // Phase 2: rename landed; the new journal is complete and starts
        // at a nonzero seq base. A torn *append* after the rotation is
        // still tolerated like any torn tail.
        std::fs::write(&path, &new_text).unwrap();
        let recovered = load(&path).unwrap();
        assert_eq!(recovered.entries, keep);
        let next = entry(3, 7, 1, 1.0).to_line();
        for cut in 1..next.len() {
            std::fs::write(&path, format!("{new_text}{}", &next[..cut])).unwrap();
            let recovered = load(&path).unwrap();
            assert_eq!(recovered.entries, keep, "append cut at {cut}");
            assert_eq!(recovered.dropped_bytes as usize, cut, "append cut at {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let dir = std::env::temp_dir().join(format!("grefar-journal-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.journal");
        std::fs::write(
            &path,
            format!("garbage\n{}\n", entry(0, 1, 0, 1.0).to_line()),
        )
        .unwrap();
        assert!(load(&path).unwrap_err().contains("corrupt"));
        // Non-monotonic sequence numbers are corruption too.
        std::fs::write(
            &path,
            format!(
                "{}\n{}\n",
                entry(0, 1, 0, 1.0).to_line(),
                entry(5, 2, 0, 1.0).to_line()
            ),
        )
        .unwrap();
        assert!(load(&path).unwrap_err().contains("seq"));
        std::fs::remove_file(&path).unwrap();
    }
}
