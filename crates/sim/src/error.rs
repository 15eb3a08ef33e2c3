//! Typed errors for the simulation run path.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Why a simulation run (or checkpoint operation) could not proceed.
///
/// The run loop itself is infallible — every slot produces a decision via
/// the scheduler's fallback chain — so these errors only arise at the
/// edges: constructing a run from mismatched parts, applying a fault plan,
/// and reading/writing checkpoints.
#[derive(Debug)]
pub enum SimError {
    /// [`SteppedRun::complete`](crate::SteppedRun::complete) stopped at
    /// `slot` after writing a checkpoint, at the policy's
    /// [kill slot](crate::RunPolicy::with_kill_at) or on its
    /// [kill predicate](crate::RunPolicy::with_kill_when) — the
    /// crash-injection half of the crash-recovery test.
    Killed {
        /// The first slot that was *not* executed.
        slot: u64,
        /// Where the checkpoint was written.
        checkpoint: PathBuf,
    },
    /// Inputs, configuration, fault plan or checkpoint disagree about the
    /// system's shape.
    Mismatch(String),
    /// A checkpoint file could not be read or written.
    CheckpointIo {
        /// The checkpoint path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A checkpoint file exists but does not parse as a checkpoint.
    CheckpointFormat {
        /// 1-based line number within the checkpoint file.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The checkpoint was written by an incompatible format version.
    CheckpointSchema {
        /// Version found in the file.
        found: u64,
        /// Version this build reads and writes.
        expected: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Killed { slot, checkpoint } => write!(
                f,
                "run killed before slot {slot}; checkpoint written to {}",
                checkpoint.display()
            ),
            SimError::Mismatch(message) => write!(f, "{message}"),
            SimError::CheckpointIo { path, source } => {
                write!(f, "checkpoint {}: {source}", path.display())
            }
            SimError::CheckpointFormat { line, message } => {
                write!(f, "checkpoint line {line}: {message}")
            }
            SimError::CheckpointSchema { found, expected } => write!(
                f,
                "checkpoint schema v{found} is not the supported v{expected}"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::CheckpointIo { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::Killed {
            slot: 250,
            checkpoint: PathBuf::from("/tmp/ck.jsonl"),
        };
        assert!(e.to_string().contains("slot 250"));
        let e = SimError::CheckpointSchema {
            found: 9,
            expected: 1,
        };
        assert!(e.to_string().contains("v9"));
        let e = SimError::CheckpointFormat {
            line: 3,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error;
        let e = SimError::CheckpointIo {
            path: PathBuf::from("x"),
            source: io::Error::other("disk gone"),
        };
        assert!(e.source().is_some());
        assert!(SimError::Mismatch("m".into()).source().is_none());
    }
}
