//! Plain-text trace format for task execution records.
//!
//! The format is a simple tab-separated file with a header line, one record
//! per line. It is intentionally trivial — the paper's provenance data is a
//! table of task metrics — and avoids pulling a serialisation format crate
//! into the workspace. [`to_trace_string`] and [`from_trace_string`] are the
//! one codec: [`write_trace`] and [`read_trace`] wrap them for files, and a
//! predictor checkpoint stores its observation journal in this format.
//! Round-tripping is covered by unit and property tests, including a
//! byte-mutation fuzz of the checkpoint format that carries it.
//!
//! The three name columns (workflow, task type, machine) are free text that a
//! serving deployment takes from its tenants, so the characters the format
//! gives meaning to are backslash-escaped in them: `\\`, `\t`, `\n`, `\r`.
//! Names without those characters are written byte for byte.
#![doc = "lint:hot-path"]

use crate::record::{MachineId, TaskOutcome, TaskRecord, TaskTypeId};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Column header written to and expected from trace files.
const HEADER: &str = "workflow\ttask_type\tmachine\tsequence\tinput_bytes\tpeak_memory_bytes\tallocated_memory_bytes\truntime_seconds\tconcurrent_tasks\tqueue_delay_seconds\toutcome";

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

/// Parses one non-blank trace line into a record.
fn parse_record_line(line: &str, line_no: usize) -> Result<TaskRecord, TraceError> {
    let err = |message: String| TraceError::Parse {
        line: line_no,
        message,
    };
    let fields: Vec<&str> = line.split('\t').collect();
    let &[wf, task_type, machine, seq, input, peak, alloc, runtime, tasks, delay, outcome] =
        fields.as_slice()
    else {
        return Err(err(format!("expected 11 columns, found {}", fields.len())));
    };
    let parse_f64 = |s: &str, name: &str| -> Result<f64, TraceError> {
        s.parse::<f64>()
            .map_err(|e| err(format!("invalid {name} {s:?}: {e}")))
    };
    let outcome = match outcome {
        "ok" => TaskOutcome::Succeeded,
        "oom" => TaskOutcome::FailedOutOfMemory,
        other => return Err(err(format!("unknown outcome {other:?}"))),
    };
    Ok(TaskRecord {
        workflow: parse_name_column(wf, line_no)?.into(),
        task_type: TaskTypeId::new(parse_name_column(task_type, line_no)?),
        machine: MachineId::new(parse_name_column(machine, line_no)?),
        sequence: seq
            .parse()
            .map_err(|e| err(format!("invalid sequence {seq:?}: {e}")))?,
        input_bytes: parse_f64(input, "input_bytes")?,
        peak_memory_bytes: parse_f64(peak, "peak_memory_bytes")?,
        allocated_memory_bytes: parse_f64(alloc, "allocated_memory_bytes")?,
        runtime_seconds: parse_f64(runtime, "runtime_seconds")?,
        concurrent_tasks: tasks
            .parse()
            .map_err(|e| err(format!("invalid concurrent_tasks {tasks:?}: {e}")))?,
        queue_delay_seconds: parse_f64(delay, "queue_delay_seconds")?,
        outcome,
    })
}

/// Serialises records into the tab-separated trace format. Generic over
/// owned and `Arc`-shared records, so event-sourced snapshots can serialise
/// their journals without deep-cloning them first.
pub fn to_trace_string<R: std::borrow::Borrow<TaskRecord>>(records: &[R]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push_str(HEADER);
    out.push('\n');
    for r in records {
        let r: &TaskRecord = r.borrow();
        let outcome = match r.outcome {
            TaskOutcome::Succeeded => "ok",
            TaskOutcome::FailedOutOfMemory => "oom",
        };
        push_name_column(&mut out, &r.workflow);
        push_name_column(&mut out, r.task_type.as_str());
        push_name_column(&mut out, r.machine.as_str());
        // Writing to a String cannot fail.
        let _ = writeln!(
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
    out
}

/// Parses records from the tab-separated trace format. Blank lines are
/// skipped; an error names the 1-based line it found.
pub fn from_trace_string(content: &str) -> Result<Vec<TaskRecord>, TraceError> {
    let mut lines = content.lines().enumerate();
    match lines.next() {
        None => return Ok(Vec::new()),
        Some((_, first)) if first.trim() == HEADER => {}
        Some((_, first)) => {
            return Err(TraceError::Parse {
                line: 1,
                message: format!("unexpected header: {first:?}"),
            })
        }
    }
    lines
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| parse_record_line(line, idx + 1))
        .collect()
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
                workflow: "mag".into(),
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
        records[0].workflow = "wf\twith\ttabs".into();
        records[1].task_type = TaskTypeId::new("align\tv2");
        records[2].machine = MachineId::new("node\n1\r");
        records[3].task_type = TaskTypeId::new("C:\\tools\\new\\\\");
        records[4].workflow = "\\t is not a tab".into();
        let text = to_trace_string(&records);
        assert_eq!(text.lines().count(), 1 + records.len());
        assert_eq!(from_trace_string(&text).unwrap(), records);

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
        // The 10-column header of traces without a queue delay is not read.
        let ten_columns = format!("{}\n", HEADER.replace("\tqueue_delay_seconds", ""));
        assert!(matches!(
            from_trace_string(&ten_columns),
            Err(TraceError::Parse { line: 1, .. })
        ));
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
    fn skips_blank_lines() {
        let records = sample_records();
        let mut text = to_trace_string(&records);
        text.push_str("\n\n");
        assert_eq!(from_trace_string(&text).unwrap().len(), records.len());
    }
}
