//! Line-delimited JSON export of the event stream.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::Event;
use crate::observer::Observer;

/// Streams each recorded [`Event`] as one JSON object per line.
///
/// Every line carries a leading `"schema":N` field (the current
/// [`SCHEMA_VERSION`](crate::SCHEMA_VERSION)), so offline consumers such as
/// `grefar-report` can reject streams written by an incompatible future
/// format. Self-describing lines (rather than a single header) survive
/// concatenation, truncation and grep.
///
/// Counters / gauges / histogram samples are aggregation concerns and are
/// not written; pair with a [`MemoryObserver`](crate::MemoryObserver) via
/// [`Tee`](crate::Tee) when both views are wanted.
///
/// I/O errors are counted (see [`io_errors`](JsonlSink::io_errors)) rather
/// than panicking mid-simulation.
pub struct JsonlSink<W: Write> {
    writer: W,
    /// The line being written, reused across events.
    line: String,
    io_errors: usize,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL file at `path`, buffered.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }

    /// Opens a JSONL file at `path` for appending (creating it when
    /// absent), buffered. Used by checkpoint/resume to continue a partial
    /// telemetry stream rather than truncate it.
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::options().create(true).append(true).open(path)?;
        Ok(JsonlSink::new(BufWriter::new(file)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            line: String::new(),
            io_errors: 0,
        }
    }

    /// Number of writes that failed.
    pub fn io_errors(&self) -> usize {
        self.io_errors
    }

    /// Flushes buffered output.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: Write> Observer for JsonlSink<W> {
    fn record_event(&mut self, event: Event) {
        self.line.clear();
        event.write_json(&mut self.line, Some(crate::SCHEMA_VERSION));
        self.line.push('\n');
        if self.writer.write_all(self.line.as_bytes()).is_err() {
            self.io_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_object_per_line() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record_event(Event::new("slot").field("t", 0_u64));
        sink.record_event(Event::new("slot").field("t", 1_u64));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"schema":1,"event":"slot","t":0}"#,
                r#"{"schema":1,"event":"slot","t":1}"#
            ]
        );
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn append_continues_an_existing_stream() {
        let dir = std::env::temp_dir().join(format!("grefar-jsonl-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let mut first = JsonlSink::create(&path).unwrap();
        first.record_event(Event::new("slot").field("t", 0_u64));
        first.flush().unwrap();
        drop(first);
        let mut second = JsonlSink::append(&path).unwrap();
        second.record_event(Event::new("slot").field("t", 1_u64));
        second.flush().unwrap();
        drop(second);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"t\":1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_errors_are_counted_not_fatal() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("broken pipe"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Broken);
        sink.record_event(Event::new("slot"));
        assert_eq!(sink.io_errors(), 1);
    }
}
