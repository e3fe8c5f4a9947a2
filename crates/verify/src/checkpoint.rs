//! JSONL checkpoint/resume for verification runs.
//!
//! A long verification run streams one JSON line per decided job to a
//! checkpoint file — flushed per line, so a crash or kill loses at most
//! the line being written. A later run with `resume` loads the file and
//! skips every `(port, instruction)` pair that was already *decided*
//! (`holds`, `cex`, `unreached`); `unknown` and `panicked` entries are
//! deliberately not treated as decided, so a resumed run re-attempts
//! exactly the jobs that failed to produce an answer.
//!
//! The entry schema (one object per line):
//!
//! ```text
//! {"port": "...", "instr": "...", "verdict": "holds|cex|unreached|unknown|panicked",
//!  ... verdict-specific fields ...}
//! ```
//!
//! Resumed counterexample verdicts carry only the mismatch summary
//! (`finish_cycle`, `mismatched`), not the full witness trace; rerun
//! the instruction without `resume` to regenerate the trace.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use gila_json::Value;

use crate::engine::{CheckResult, InstrVerdict, RefinementCex, VerifyError};

/// A line-buffered, mutex-guarded JSONL checkpoint sink shared by every
/// worker of a run.
pub struct CheckpointWriter {
    file: Mutex<BufWriter<File>>,
}

impl CheckpointWriter {
    /// Creates `path` fresh, truncating any previous checkpoint.
    pub fn create(path: &Path) -> Result<Self, VerifyError> {
        let file = File::create(path).map_err(|e| VerifyError::Checkpoint {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Ok(CheckpointWriter {
            file: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Opens `path` for appending (creating it if missing), so a
    /// resumed run keeps extending the checkpoint it read.
    pub fn append(path: &Path) -> Result<Self, VerifyError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| VerifyError::Checkpoint {
                path: path.display().to_string(),
                reason: e.to_string(),
            })?;
        Ok(CheckpointWriter {
            file: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Appends one verdict line and flushes it. Best-effort: an I/O
    /// failure (disk full, path removed) is swallowed — losing the
    /// checkpoint must not fail the verification run it was protecting.
    pub(crate) fn record(&self, port: &str, verdict: &InstrVerdict) {
        let line = entry_json(port, verdict).to_compact();
        // A worker that panicked while holding the lock poisons it; the
        // data is a fully written or unwritten line either way, so keep
        // using it.
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        let _ = writeln!(file, "{line}");
        let _ = file.flush();
    }
}

/// Serializes one verdict in the checkpoint entry schema (see the
/// module docs). Public so other journals — the serve-layer proof
/// cache — reuse the exact torn-tail-tolerant format, possibly with
/// extra fields appended to the object.
pub fn verdict_to_json(port: &str, v: &InstrVerdict) -> Value {
    entry_json(port, v)
}

/// One parsed journal entry: either a decided verdict or an undecided
/// marker (`unknown`/`panicked`) that must *remove* any earlier
/// decision for the same `(port, instruction)` pair.
#[derive(Debug)]
pub enum JournalEntry {
    /// A decided verdict (`holds`, `cex` summary, `unreached`).
    Decided {
        /// Port the verdict belongs to.
        port: String,
        /// Instruction name.
        instr: String,
        /// The reconstructed verdict (zero effort counters). Boxed:
        /// verdicts dwarf the `Undecided` variant.
        verdict: Box<InstrVerdict>,
    },
    /// An undecided outcome: the job never produced an answer.
    Undecided {
        /// Port the entry belongs to.
        port: String,
        /// Instruction name.
        instr: String,
    },
}

/// Parses one checkpoint entry object back into a [`JournalEntry`].
/// The inverse of [`verdict_to_json`] up to the fields a journal keeps
/// (counterexamples come back as summaries). Unknown extra fields are
/// ignored, so journals may extend the schema.
pub fn parse_journal_entry(entry: &Value) -> Result<JournalEntry, String> {
    let field = |key: &str| {
        entry
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing field {key:?}"))
    };
    let port = field("port")?;
    let instr = field("instr")?;
    let result = match field("verdict")?.as_str() {
        "holds" => CheckResult::Holds,
        "unreached" => CheckResult::FinishNotReached {
            max_cycles: entry
                .get("max_cycles")
                .and_then(Value::as_usize)
                .unwrap_or(0),
        },
        "cex" => CheckResult::CounterExample(Box::new(RefinementCex {
            finish_cycle: entry
                .get("finish_cycle")
                .and_then(Value::as_usize)
                .unwrap_or(0),
            rtl_start_state: Default::default(),
            rtl_inputs: Vec::new(),
            rtl_trace: Vec::new(),
            rtl_finish_state: Default::default(),
            ila_post_state: Default::default(),
            mismatched_states: entry
                .get("mismatched")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
        })),
        "unknown" | "panicked" => return Ok(JournalEntry::Undecided { port, instr }),
        other => return Err(format!("unknown verdict {other:?}")),
    };
    let verdict = InstrVerdict {
        instruction: instr.clone(),
        result,
        time: Duration::ZERO,
        stats: Default::default(),
        cnf_growth: Default::default(),
        effort: Default::default(),
        solves: 0,
        retries: 0,
        worker: None,
        batch_id: None,
        batch_size: 0,
        queue_ns: 0,
        stolen: false,
        inprocess: Default::default(),
    };
    Ok(JournalEntry::Decided {
        port,
        instr,
        verdict: Box::new(verdict),
    })
}

fn entry_json(port: &str, v: &InstrVerdict) -> Value {
    let mut fields = vec![
        ("port".to_string(), Value::String(port.to_string())),
        ("instr".to_string(), Value::String(v.instruction.clone())),
        ("verdict".to_string(), Value::String(v.result.tag().to_string())),
    ];
    match &v.result {
        CheckResult::Holds => {}
        CheckResult::CounterExample(cex) => {
            fields.push((
                "finish_cycle".to_string(),
                Value::Number(cex.finish_cycle as f64),
            ));
            fields.push((
                "mismatched".to_string(),
                Value::Array(
                    cex.mismatched_states
                        .iter()
                        .map(|s| Value::String(s.clone()))
                        .collect(),
                ),
            ));
        }
        CheckResult::FinishNotReached { max_cycles } => {
            fields.push(("max_cycles".to_string(), Value::Number(*max_cycles as f64)));
        }
        CheckResult::Unknown { reason, budget_spent } => {
            fields.push(("reason".to_string(), Value::String(reason.as_str().to_string())));
            fields.push((
                "conflicts_spent".to_string(),
                Value::Number(budget_spent.conflicts as f64),
            ));
        }
        CheckResult::JobPanicked { message } => {
            fields.push(("message".to_string(), Value::String(message.clone())));
        }
    }
    fields.push(("wall_ns".to_string(), Value::Number(v.time.as_nanos() as f64)));
    Value::object(fields)
}

/// Loads a checkpoint into a `(port, instruction) -> verdict` map of
/// *decided* jobs. Later lines win over earlier ones for the same pair
/// (a resumed run re-records what it re-verifies). A torn final line —
/// the signature of a killed writer — is tolerated; malformed content
/// anywhere else is an error.
pub(crate) fn load_resume(
    path: &Path,
) -> Result<HashMap<(String, String), InstrVerdict>, VerifyError> {
    let err = |reason: String| VerifyError::Checkpoint {
        path: path.display().to_string(),
        reason,
    };
    let text = std::fs::read_to_string(path).map_err(|e| err(e.to_string()))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut decided = HashMap::new();
    for (i, line) in lines.iter().enumerate() {
        let last = i + 1 == lines.len();
        let entry = match gila_json::parse(line) {
            Ok(v) => v,
            Err(_) if last => break,
            Err(e) => return Err(err(format!("line {}: {e}", i + 1))),
        };
        match parse_journal_entry(&entry).map_err(|e| err(format!("line {}: {e}", i + 1)))? {
            JournalEntry::Decided {
                port,
                instr,
                verdict,
            } => {
                decided.insert((port, instr), *verdict);
            }
            // Undecided outcomes: keeping any earlier decision is wrong —
            // they never had one — so make sure the job reruns.
            JournalEntry::Undecided { port, instr } => {
                decided.remove(&(port, instr));
            }
        }
    }
    Ok(decided)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(instr: &str, result: CheckResult) -> InstrVerdict {
        InstrVerdict {
            instruction: instr.to_string(),
            result,
            time: Duration::from_millis(1),
            stats: Default::default(),
            cnf_growth: Default::default(),
            effort: Default::default(),
            solves: 2,
            retries: 0,
            worker: None,
            batch_id: None,
            batch_size: 0,
            queue_ns: 0,
            stolen: false,
            inprocess: Default::default(),
        }
    }

    #[test]
    fn roundtrip_skips_undecided_entries() {
        let dir = std::env::temp_dir().join("gila_ckpt_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let w = CheckpointWriter::create(&path).unwrap();
        w.record("p", &verdict("a", CheckResult::Holds));
        w.record(
            "p",
            &verdict(
                "b",
                CheckResult::Unknown {
                    reason: gila_smt::ResourceOut::Conflicts,
                    budget_spent: Default::default(),
                },
            ),
        );
        w.record(
            "p",
            &verdict(
                "c",
                CheckResult::JobPanicked {
                    message: "boom".into(),
                },
            ),
        );
        w.record("p", &verdict("d", CheckResult::FinishNotReached { max_cycles: 3 }));
        drop(w);
        let decided = load_resume(&path).unwrap();
        assert!(decided.contains_key(&("p".into(), "a".into())));
        assert!(!decided.contains_key(&("p".into(), "b".into())), "unknown is not decided");
        assert!(!decided.contains_key(&("p".into(), "c".into())), "panicked is not decided");
        let d = &decided[&("p".into(), "d".into())];
        assert!(matches!(
            d.result,
            CheckResult::FinishNotReached { max_cycles: 3 }
        ));
        assert_eq!(d.instruction, "d");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn later_lines_win_and_undecided_overrides_decided() {
        let dir = std::env::temp_dir().join("gila_ckpt_dedup");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let w = CheckpointWriter::create(&path).unwrap();
        w.record("p", &verdict("a", CheckResult::Holds));
        w.record(
            "p",
            &verdict(
                "a",
                CheckResult::Unknown {
                    reason: gila_smt::ResourceOut::Deadline,
                    budget_spent: Default::default(),
                },
            ),
        );
        drop(w);
        // The later `unknown` wipes the earlier decision: the job reruns.
        let decided = load_resume(&path).unwrap();
        assert!(decided.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let dir = std::env::temp_dir().join("gila_ckpt_torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let w = CheckpointWriter::create(&path).unwrap();
        w.record("p", &verdict("a", CheckResult::Holds));
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"port\":\"p\",\"instr\":\"b\",\"verd").unwrap();
        drop(f);
        let decided = load_resume(&path).unwrap();
        assert_eq!(decided.len(), 1);
        // ... but a malformed line in the middle is a real error.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f).unwrap();
        writeln!(f, "{{\"port\":\"p\",\"instr\":\"c\",\"verdict\":\"holds\"}}").unwrap();
        drop(f);
        assert!(matches!(
            load_resume(&path),
            Err(VerifyError::Checkpoint { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cex_entries_resume_with_mismatch_summary() {
        let dir = std::env::temp_dir().join("gila_ckpt_cex");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let w = CheckpointWriter::create(&path).unwrap();
        let cex = RefinementCex {
            finish_cycle: 2,
            rtl_start_state: Default::default(),
            rtl_inputs: Vec::new(),
            rtl_trace: Vec::new(),
            rtl_finish_state: Default::default(),
            ila_post_state: Default::default(),
            mismatched_states: vec!["cnt".into()],
        };
        w.record("p", &verdict("a", CheckResult::CounterExample(Box::new(cex))));
        drop(w);
        let decided = load_resume(&path).unwrap();
        let CheckResult::CounterExample(back) = &decided[&("p".into(), "a".into())].result
        else {
            panic!("expected cex");
        };
        assert_eq!(back.finish_cycle, 2);
        assert_eq!(back.mismatched_states, vec!["cnt".to_string()]);
        std::fs::remove_file(&path).ok();
    }
}
