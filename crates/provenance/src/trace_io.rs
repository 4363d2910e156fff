//! Plain-text trace format for task execution records.
//!
//! The format is a simple tab-separated file with a header line, one record
//! per line. It is intentionally trivial — the paper's provenance data is a
//! table of task metrics — and avoids pulling a serialisation format crate
//! into the workspace. Round-tripping is covered by unit and property tests.
//!
//! The three name columns (workflow, task type, machine) are free text that a
//! serving deployment takes from its tenants, so the characters the format
//! gives meaning to are backslash-escaped in them: `\\`, `\t`, `\n`, `\r`.
//! Names without those characters are written byte for byte.

use crate::record::{MachineId, TaskOutcome, TaskRecord, TaskTypeId};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Column header written to and expected from trace files.
const HEADER: &str = "workflow\ttask_type\tmachine\tsequence\tinput_bytes\tpeak_memory_bytes\tallocated_memory_bytes\truntime_seconds\tconcurrent_tasks\tqueue_delay_seconds\toutcome";

/// Header of the pre-scheduler trace format (no queue-delay column). Traces
/// written before the event-driven scheduler existed are still readable;
/// their records get a queue delay of zero.
const LEGACY_HEADER: &str = "workflow\ttask_type\tmachine\tsequence\tinput_bytes\tpeak_memory_bytes\tallocated_memory_bytes\truntime_seconds\tconcurrent_tasks\toutcome";

/// Errors produced while reading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line (wrong column count, unparsable number, unknown
    /// outcome, missing header).
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Appends a name column followed by its tab, escaping the separators (and
/// the escape character itself) so the line still splits into its columns.
fn push_name_column(out: &mut String, name: &str) {
    for c in name.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('\t');
}

/// Undoes [`push_name_column`]'s escaping.
fn parse_name_column(field: &str, line_no: usize) -> Result<String, TraceError> {
    let mut name = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            name.push(c);
            continue;
        }
        name.push(match chars.next() {
            Some('\\') => '\\',
            Some('t') => '\t',
            Some('n') => '\n',
            Some('r') => '\r',
            _ => {
                return Err(TraceError::Parse {
                    line: line_no,
                    message: format!("unknown escape in name {field:?}"),
                })
            }
        });
    }
    Ok(name)
}

/// Formats one record as a trace line (no trailing newline). The single
/// source of truth for the line format, shared by the batch serialiser and
/// the streaming [`TraceWriter`].
fn format_record_line(out: &mut String, r: &TaskRecord) {
    let outcome = match r.outcome {
        TaskOutcome::Succeeded => "ok",
        TaskOutcome::FailedOutOfMemory => "oom",
    };
    push_name_column(out, &r.workflow);
    push_name_column(out, r.task_type.as_str());
    push_name_column(out, r.machine.as_str());
    // Writing to a String cannot fail.
    let _ = write!(
        out,
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        r.sequence,
        r.input_bytes,
        r.peak_memory_bytes,
        r.allocated_memory_bytes,
        r.runtime_seconds,
        r.concurrent_tasks,
        r.queue_delay_seconds,
        outcome
    );
}

/// Parses one trace line into a record. Returns `Ok(None)` for blank lines.
/// Shared by the batch parser and the streaming [`TraceReader`].
fn parse_record_line(
    line: &str,
    line_no: usize,
    legacy: bool,
) -> Result<Option<TaskRecord>, TraceError> {
    if line.trim().is_empty() {
        return Ok(None);
    }
    let columns = if legacy { 10 } else { 11 };
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() != columns {
        return Err(TraceError::Parse {
            line: line_no,
            message: format!("expected {columns} columns, found {}", fields.len()),
        });
    }
    let parse_f64 = |s: &str, name: &str| -> Result<f64, TraceError> {
        s.parse::<f64>().map_err(|e| TraceError::Parse {
            line: line_no,
            message: format!("invalid {name} {s:?}: {e}"),
        })
    };
    let outcome = match fields[columns - 1] {
        "ok" => TaskOutcome::Succeeded,
        "oom" => TaskOutcome::FailedOutOfMemory,
        other => {
            return Err(TraceError::Parse {
                line: line_no,
                message: format!("unknown outcome {other:?}"),
            })
        }
    };
    Ok(Some(TaskRecord {
        workflow: parse_name_column(fields[0], line_no)?,
        task_type: TaskTypeId::new(parse_name_column(fields[1], line_no)?),
        machine: MachineId::new(parse_name_column(fields[2], line_no)?),
        sequence: fields[3].parse().map_err(|e| TraceError::Parse {
            line: line_no,
            message: format!("invalid sequence {:?}: {e}", fields[3]),
        })?,
        input_bytes: parse_f64(fields[4], "input_bytes")?,
        peak_memory_bytes: parse_f64(fields[5], "peak_memory_bytes")?,
        allocated_memory_bytes: parse_f64(fields[6], "allocated_memory_bytes")?,
        runtime_seconds: parse_f64(fields[7], "runtime_seconds")?,
        concurrent_tasks: fields[8].parse().map_err(|e| TraceError::Parse {
            line: line_no,
            message: format!("invalid concurrent_tasks {:?}: {e}", fields[8]),
        })?,
        queue_delay_seconds: if legacy {
            0.0
        } else {
            parse_f64(fields[9], "queue_delay_seconds")?
        },
        outcome,
    }))
}

/// Serialises records into the tab-separated trace format. Generic over
/// owned and `Arc`-shared records, so event-sourced snapshots can serialise
/// their journals without deep-cloning them first.
pub fn to_trace_string<R: std::borrow::Borrow<TaskRecord>>(records: &[R]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push_str(HEADER);
    out.push('\n');
    for r in records {
        format_record_line(&mut out, r.borrow());
        out.push('\n');
    }
    out
}

/// An incremental trace writer: emits the header on construction, then one
/// line per [`TraceWriter::write_record`] call. Byte-identical output to
/// [`to_trace_string`] over the same records, without ever holding more than
/// one line in memory — the `--trace` sink of the streaming replay writes
/// through this.
#[derive(Debug)]
pub struct TraceWriter<W: io::Write> {
    out: W,
    line: String,
    records_written: u64,
}

impl<W: io::Write> TraceWriter<W> {
    /// Wraps a sink and writes the trace header to it.
    pub fn new(mut out: W) -> Result<Self, TraceError> {
        out.write_all(HEADER.as_bytes())?;
        out.write_all(b"\n")?;
        Ok(TraceWriter {
            out,
            line: String::with_capacity(128),
            records_written: 0,
        })
    }

    /// Appends one record as a trace line.
    pub fn write_record(&mut self, record: &TaskRecord) -> Result<(), TraceError> {
        self.line.clear();
        format_record_line(&mut self.line, record);
        self.line.push('\n');
        self.out.write_all(self.line.as_bytes())?;
        self.records_written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Flushes and returns the underlying sink.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Creates a buffered [`TraceWriter`] over a freshly created file.
pub fn trace_writer_to_file(
    path: impl AsRef<Path>,
) -> Result<TraceWriter<io::BufWriter<fs::File>>, TraceError> {
    let file = fs::File::create(path)?;
    TraceWriter::new(io::BufWriter::new(file))
}

/// A streaming trace reader: parses the header (current or legacy) on
/// construction, then yields one record per line without materialising the
/// whole trace. Iterating stops at the first error (the error itself is
/// yielded).
#[derive(Debug)]
pub struct TraceReader<R: io::BufRead> {
    input: R,
    /// Whether the header announced the pre-scheduler 10-column format.
    legacy: bool,
    /// 1-based number of the next line to read.
    next_line_no: usize,
    buf: String,
    done: bool,
}

impl<R: io::BufRead> TraceReader<R> {
    /// Wraps a source and consumes its header line. Empty input yields a
    /// reader with no records, matching [`from_trace_string`].
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let mut first = String::new();
        let n = input.read_line(&mut first)?;
        let (legacy, done) = if n == 0 {
            (false, true)
        } else {
            match first.trim_end_matches(['\n', '\r']).trim() {
                h if h == HEADER => (false, false),
                h if h == LEGACY_HEADER => (true, false),
                other => {
                    return Err(TraceError::Parse {
                        line: 1,
                        message: format!("unexpected header: {other:?}"),
                    })
                }
            }
        };
        Ok(TraceReader {
            input,
            legacy,
            next_line_no: 2,
            buf: String::with_capacity(128),
            done,
        })
    }

    /// True when the header announced the legacy 10-column format (records
    /// parse with a queue delay of zero).
    pub fn is_legacy(&self) -> bool {
        self.legacy
    }
}

impl<R: io::BufRead> Iterator for TraceReader<R> {
    type Item = Result<TaskRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            self.buf.clear();
            match self.input.read_line(&mut self.buf) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(TraceError::Io(e)));
                }
            }
            let line_no = self.next_line_no;
            self.next_line_no += 1;
            let line = self.buf.trim_end_matches(['\n', '\r']);
            match parse_record_line(line, line_no, self.legacy) {
                Ok(Some(record)) => return Some(Ok(record)),
                Ok(None) => continue, // blank line
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

/// Creates a buffered [`TraceReader`] over a trace file.
pub fn trace_reader_from_file(
    path: impl AsRef<Path>,
) -> Result<TraceReader<io::BufReader<fs::File>>, TraceError> {
    let file = fs::File::open(path)?;
    TraceReader::new(io::BufReader::new(file))
}

/// Parses records from the tab-separated trace format.
pub fn from_trace_string(content: &str) -> Result<Vec<TaskRecord>, TraceError> {
    let mut lines = content.lines().enumerate();
    let legacy = match lines.next() {
        Some((_, first)) if first.trim() == HEADER => false,
        Some((_, first)) if first.trim() == LEGACY_HEADER => true,
        Some((_, first)) => {
            return Err(TraceError::Parse {
                line: 1,
                message: format!("unexpected header: {first:?}"),
            })
        }
        None => return Ok(Vec::new()),
    };

    let mut records = Vec::new();
    for (idx, line) in lines {
        if let Some(record) = parse_record_line(line, idx + 1, legacy)? {
            records.push(record);
        }
    }
    Ok(records)
}

/// Writes records to a trace file.
pub fn write_trace<R: std::borrow::Borrow<TaskRecord>>(
    path: &Path,
    records: &[R],
) -> Result<(), TraceError> {
    fs::write(path, to_trace_string(records))?;
    Ok(())
}

/// Reads records from a trace file.
pub fn read_trace(path: &Path) -> Result<Vec<TaskRecord>, TraceError> {
    let content = fs::read_to_string(path)?;
    from_trace_string(&content)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TaskRecord> {
        (0..5)
            .map(|i| TaskRecord {
                workflow: "mag".to_string(),
                task_type: TaskTypeId::new(format!("task-{}", i % 2)),
                machine: MachineId::new("node-1"),
                sequence: i,
                input_bytes: 1e9 * (i + 1) as f64,
                peak_memory_bytes: 2e9 + i as f64,
                allocated_memory_bytes: 4e9,
                runtime_seconds: 120.5 + i as f64,
                concurrent_tasks: i as u32,
                queue_delay_seconds: i as f64 * 1.5,
                outcome: if i % 3 == 0 {
                    TaskOutcome::FailedOutOfMemory
                } else {
                    TaskOutcome::Succeeded
                },
            })
            .collect()
    }

    #[test]
    fn round_trip_through_string() {
        let records = sample_records();
        let text = to_trace_string(&records);
        let parsed = from_trace_string(&text).unwrap();
        assert_eq!(records, parsed);
    }

    /// Names are tenant-supplied free text: the separators and the escape
    /// character survive the codec, and every record still is one line.
    #[test]
    fn names_with_separators_round_trip() {
        let mut records = sample_records();
        records[0].workflow = "wf\twith\ttabs".to_string();
        records[1].task_type = TaskTypeId::new("align\tv2");
        records[2].machine = MachineId::new("node\n1\r");
        records[3].task_type = TaskTypeId::new("C:\\tools\\new\\\\");
        records[4].workflow = "\\t is not a tab".to_string();
        let text = to_trace_string(&records);
        assert_eq!(text.lines().count(), 1 + records.len());
        assert_eq!(from_trace_string(&text).unwrap(), records);
        let streamed: Result<Vec<_>, _> = TraceReader::new(text.as_bytes()).unwrap().collect();
        assert_eq!(streamed.unwrap(), records);

        let unknown = to_trace_string(&sample_records()[..1]).replace("mag", "m\\ag");
        let err = from_trace_string(&unknown).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");
        let dangling = to_trace_string(&sample_records()[..1]).replace("mag", "mag\\");
        assert!(matches!(
            from_trace_string(&dangling),
            Err(TraceError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn round_trip_through_file() {
        let records = sample_records();
        let dir = std::env::temp_dir().join("sizey-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tsv");
        write_trace(&path, &records).unwrap();
        let parsed = read_trace(&path).unwrap();
        assert_eq!(records, parsed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_input_parses_to_empty() {
        assert!(from_trace_string("").unwrap().is_empty());
        let header_only = format!("{HEADER}\n");
        assert!(from_trace_string(&header_only).unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_header() {
        let err = from_trace_string("nope\n1\t2\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_wrong_column_count() {
        let text = format!("{HEADER}\na\tb\tc\n");
        let err = from_trace_string(&text).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_unknown_outcome() {
        let mut records = sample_records();
        records.truncate(1);
        let text = to_trace_string(&records).replace("oom", "exploded");
        let err = from_trace_string(&text).unwrap_err();
        assert!(err.to_string().contains("unknown outcome"));
    }

    #[test]
    fn rejects_unparsable_number() {
        let mut records = sample_records();
        records.truncate(1);
        let text = to_trace_string(&records).replace("4000000000", "not-a-number");
        assert!(from_trace_string(&text).is_err());
    }

    #[test]
    fn legacy_traces_without_queue_delay_still_parse() {
        let text =
            format!("{LEGACY_HEADER}\nmag\tassembly\tnode-1\t7\t1e9\t2e9\t4e9\t120.5\t3\tok\n");
        let records = from_trace_string(&text).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].sequence, 7);
        assert_eq!(records[0].queue_delay_seconds, 0.0);
        assert_eq!(records[0].outcome, TaskOutcome::Succeeded);
    }

    #[test]
    fn streaming_writer_matches_batch_serialiser_byte_for_byte() {
        let records = sample_records();
        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        assert_eq!(writer.records_written(), records.len() as u64);
        let bytes = writer.finish().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), to_trace_string(&records));
    }

    #[test]
    fn streaming_reader_round_trips_incremental_writes() {
        let records = sample_records();
        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert!(!reader.is_legacy());
        let parsed: Vec<TaskRecord> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(parsed, records);
    }

    #[test]
    fn streaming_reader_matches_batch_parser_on_legacy_header() {
        let text =
            format!("{LEGACY_HEADER}\nmag\tassembly\tnode-1\t7\t1e9\t2e9\t4e9\t120.5\t3\tok\n");
        let reader = TraceReader::new(text.as_bytes()).unwrap();
        assert!(reader.is_legacy());
        let streamed: Vec<TaskRecord> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(streamed, from_trace_string(&text).unwrap());
        assert_eq!(streamed[0].queue_delay_seconds, 0.0);
    }

    #[test]
    fn streaming_reader_handles_empty_input_and_bad_header() {
        let empty = TraceReader::new(&b""[..]).unwrap();
        assert_eq!(empty.count(), 0);
        assert!(matches!(
            TraceReader::new(&b"nope\n"[..]),
            Err(TraceError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn streaming_reader_reports_parse_errors_with_line_numbers() {
        let text = format!("{HEADER}\nbad\tline\n");
        let mut reader = TraceReader::new(text.as_bytes()).unwrap();
        match reader.next() {
            Some(Err(TraceError::Parse { line, .. })) => assert_eq!(line, 2),
            other => panic!("expected a parse error, got {other:?}"),
        }
        // The reader fuses after an error.
        assert!(reader.next().is_none());
    }

    #[test]
    fn streaming_file_round_trip() {
        let records = sample_records();
        let dir = std::env::temp_dir().join("sizey-trace-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.tsv");
        let mut writer = trace_writer_to_file(&path).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        // The incrementally written file equals the legacy whole-Vec path...
        assert_eq!(read_trace(&path).unwrap(), records);
        // ...and streams back identically.
        let parsed: Vec<TaskRecord> = trace_reader_from_file(&path)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(parsed, records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn skips_blank_lines() {
        let records = sample_records();
        let mut text = to_trace_string(&records);
        text.push_str("\n\n");
        assert_eq!(from_trace_string(&text).unwrap().len(), records.len());
    }
}
