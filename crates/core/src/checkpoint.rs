//! Line-oriented checkpoints: every finished grid cell is appended to a
//! journal file, so an interrupted campaign resumes by replaying
//! recorded outcomes instead of recomputing them.
//!
//! The journal is one JSON object per line. The first line is a header
//! carrying the format version and the campaign's configuration
//! fingerprint (everything that determines cell results — thread count
//! deliberately excluded, since it never changes them); each following
//! line is one completed cell, keyed by `(task, defects, rep)`:
//!
//! ```text
//! {"campaign_checkpoint":3,"fingerprint":"v1 seed=0xd7a ..."}
//! {"task":"iris","defects":8,"rep":2,"status":"ok","values":[0.9333333333333333],"sum":"…"}
//! {"task":"iris","defects":8,"rep":4,"status":"ok","retried":true,"values":[0.9],"sum":"…"}
//! {"task":"iris","defects":8,"rep":3,"status":"failed","panic":"...","sum":"…"}
//! {"task":"iris@spatial:mission","defects":1,"rep":0,"status":"ok","values":[0.9,1.0,null],"sum":"…"}
//! ```
//!
//! Every entry ends with `"sum"`, the 64-bit FNV-1a hash (16 hex
//! digits) of the line's bytes before `,"sum":`. A flipped digit or
//! letter would otherwise still parse — as a different accuracy or a
//! different cell — so a line whose sum does not match is corruption.
//!
//! A finished cell carries a list of optional floats: a Figure 10
//! campaign cell is a one-element list (its accuracy), an experiment
//! binary stores a whole result row (a twin race's four accuracies, a
//! mission arm's trace) on one line. `null` marks an absent value;
//! finite values are written with Rust's `{:?}` float formatting — the
//! shortest string that round-trips — and parsed back with
//! `str::parse::<f64>`, so a resumed curve is **byte-identical** to an
//! uninterrupted run. `retried` appears only when the first attempt
//! panicked.
//!
//! Each record goes out as one newline-terminated write, so a killed
//! process can leave at most an unterminated final line. [`Checkpoint::open`]
//! drops that torn tail and truncates it from the file before appending;
//! any other line that does not parse is corruption and is refused. No
//! JSON dependency: the writer emits the fixed shape above and the
//! reader is a small scanner over flat objects.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::campaign::{CampaignError, CellOutcome};

const HEADER_KEY: &str = "campaign_checkpoint";

/// The journal format this build writes and reads.
const VERSION: &str = "3";

/// One journaled cell.
#[derive(Clone, Debug, PartialEq)]
enum Entry {
    Ok {
        values: Vec<Option<f64>>,
        retried: bool,
    },
    Failed {
        panic: String,
    },
}

type Key = (String, usize, usize);

/// An append-only journal of completed cells, keyed by `(task, defect
/// count, repetition)`. Open it with the campaign's
/// [fingerprint](crate::campaign::CampaignConfig::fingerprint); cells
/// already journaled are skipped on the next run and their recorded
/// outcomes replayed verbatim.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    writer: Mutex<File>,
    done: HashMap<Key, Entry>,
}

impl Checkpoint {
    /// Opens (or creates) a journal at `path` for a campaign with the
    /// given configuration fingerprint. A torn final line left by a
    /// killed process is dropped and cut from the file, so the next
    /// record starts on a line of its own.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Checkpoint`] if the file cannot be read,
    /// truncated or created, if its header is missing, carries another
    /// format version or a different fingerprint (the journal belongs
    /// to a different campaign), or if any complete entry line is
    /// malformed.
    pub fn open(path: impl AsRef<Path>, fingerprint: &str) -> Result<Checkpoint, CampaignError> {
        let path = path.as_ref().to_path_buf();
        let fail = |detail: String| CampaignError::Checkpoint {
            path: path.display().to_string(),
            detail,
        };

        let mut done = HashMap::new();
        let exists = path.exists();
        if exists {
            let bytes = std::fs::read(&path).map_err(|e| fail(format!("read failed: {e}")))?;
            // Everything after the last newline is the record a killed
            // process was writing — possibly cut inside a UTF-8 sequence,
            // so it is split off before decoding.
            let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let text = std::str::from_utf8(&bytes[..complete])
                .map_err(|e| fail(format!("journal is not UTF-8: {e}")))?;
            let mut lines = text.lines();
            let header = lines
                .next()
                .ok_or_else(|| fail("journal has no complete header line".into()))?;
            let fields = parse_object(header)
                .ok_or_else(|| fail("first line is not a checkpoint header".into()))?;
            let version = raw_field(&fields, HEADER_KEY)
                .ok_or_else(|| fail("first line is not a checkpoint header".into()))?;
            if version != VERSION {
                return Err(fail(format!(
                    "journal format version {version} is not supported (this build reads \
                     version {VERSION}); delete the journal to start over"
                )));
            }
            let found = str_field(&fields, "fingerprint")
                .ok_or_else(|| fail("header has no fingerprint".into()))?;
            if found != fingerprint {
                return Err(fail(format!(
                    "fingerprint mismatch: journal was written by a different campaign \
                     configuration (journal: {found:?}, current: {fingerprint:?})"
                )));
            }
            for (lineno, line) in lines.enumerate() {
                let (key, entry) = parse_entry(line)
                    .ok_or_else(|| fail(format!("malformed entry at line {}", lineno + 2)))?;
                done.insert(key, entry);
            }
            if complete < bytes.len() {
                OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(complete as u64))
                    .map_err(|e| fail(format!("truncating the torn final line failed: {e}")))?;
            }
        }

        let mut writer = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| fail(format!("open for append failed: {e}")))?;
        if !exists {
            let header = format!(
                "{{\"{HEADER_KEY}\":{VERSION},\"fingerprint\":\"{}\"}}\n",
                escape(fingerprint)
            );
            writer
                .write_all(header.as_bytes())
                .map_err(|e| fail(format!("header write failed: {e}")))?;
        }
        Ok(Checkpoint {
            path,
            writer: Mutex::new(writer),
            done,
        })
    }

    /// Number of cells already journaled.
    pub fn completed(&self) -> usize {
        self.done.len()
    }

    /// The recorded outcome of a campaign cell, if it was already
    /// journaled as one.
    pub fn lookup(&self, task: &str, defects: usize, rep: usize) -> Option<CellOutcome> {
        match self.done.get(&(task.to_string(), defects, rep))? {
            Entry::Ok { values, retried } => match values[..] {
                [Some(accuracy)] => Some(CellOutcome::Completed {
                    accuracy,
                    retried: *retried,
                }),
                _ => None,
            },
            Entry::Failed { panic } => Some(CellOutcome::Failed {
                panic: panic.clone(),
            }),
        }
    }

    /// The recorded values of a finished cell, if it was already
    /// journaled (failed cells have none).
    pub fn values(&self, task: &str, idx: usize, rep: usize) -> Option<&[Option<f64>]> {
        match self.done.get(&(task.to_string(), idx, rep))? {
            Entry::Ok { values, .. } => Some(values),
            Entry::Failed { .. } => None,
        }
    }

    /// Appends one finished campaign cell to the journal (flushed and
    /// synced to the device immediately, so a killed process — or a
    /// power cut — loses at most the cell being written).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Checkpoint`] if the journal can no longer be
    /// written (e.g. disk full). The campaign propagates this instead
    /// of continuing: losing resume state silently would make a later
    /// resume recompute — or worse, half-recompute — the curve.
    pub fn record(
        &self,
        task: &str,
        defects: usize,
        rep: usize,
        outcome: &CellOutcome,
    ) -> Result<(), CampaignError> {
        let entry = match outcome {
            CellOutcome::Completed { accuracy, retried } => Entry::Ok {
                values: vec![Some(*accuracy)],
                retried: *retried,
            },
            CellOutcome::Failed { panic } => Entry::Failed {
                panic: panic.clone(),
            },
        };
        self.append(task, defects, rep, &entry)
    }

    /// Appends one finished cell's values (`None` = absent) — a whole
    /// result row on one line, with the same durability as
    /// [`record`](Checkpoint::record).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Checkpoint`] if a value is not finite or the
    /// journal can no longer be written.
    pub fn record_values(
        &self,
        task: &str,
        idx: usize,
        rep: usize,
        values: &[Option<f64>],
    ) -> Result<(), CampaignError> {
        let entry = Entry::Ok {
            values: values.to_vec(),
            retried: false,
        };
        self.append(task, idx, rep, &entry)
    }

    fn append(
        &self,
        task: &str,
        defects: usize,
        rep: usize,
        entry: &Entry,
    ) -> Result<(), CampaignError> {
        let fail = |detail: String| CampaignError::Checkpoint {
            path: self.path.display().to_string(),
            detail,
        };
        let mut line = format!(
            "{{\"task\":\"{}\",\"defects\":{defects},\"rep\":{rep}",
            escape(task)
        );
        match entry {
            Entry::Ok { values, retried } => {
                line.push_str(",\"status\":\"ok\"");
                if *retried {
                    line.push_str(",\"retried\":true");
                }
                line.push_str(",\"values\":[");
                for (i, value) in values.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    match value {
                        // `{:?}` prints the shortest representation that
                        // parses back to the identical f64 — the
                        // byte-identity of resumed curves rests on this.
                        Some(v) if v.is_finite() => {
                            write!(line, "{v:?}").expect("writing to a String cannot fail")
                        }
                        Some(v) => {
                            return Err(fail(format!("cannot journal non-finite value {v}")))
                        }
                        None => line.push_str("null"),
                    }
                }
                line.push(']');
            }
            Entry::Failed { panic } => {
                write!(
                    line,
                    ",\"status\":\"failed\",\"panic\":\"{}\"",
                    escape(panic)
                )
                .expect("writing to a String cannot fail");
            }
        }
        let sum = fnv1a(line.as_bytes());
        writeln!(line, ",\"sum\":\"{sum:016x}\"}}").expect("writing to a String cannot fail");
        // A thread that panicked mid-`append` poisons the mutex but
        // leaves at most a torn trailing line, which `open` already
        // drops — recover the guard instead of panicking every
        // subsequent writer.
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // One write per record: a kill leaves either the whole line or
        // an unterminated prefix of it, never a line glued to the next.
        w.write_all(line.as_bytes())
            .map_err(|e| fail(format!("append failed: {e}")))?;
        // `sync_data` pushes the bytes to the device, so the journal
        // survives power loss, not just process death.
        w.sync_data().map_err(|e| fail(format!("sync failed: {e}")))
    }

    /// Swaps the journal writer for an arbitrary open file — lets tests
    /// point `record` at a device like `/dev/full` that fails on write.
    #[cfg(test)]
    pub(crate) fn replace_writer_for_tests(&self, file: File) {
        *self.writer.lock().unwrap() = file;
    }
}

/// A field value of a flat journal object.
enum Field {
    /// A quoted string, unescaped.
    Str(String),
    /// A bare token: number, `true`/`false` or `null`.
    Raw(String),
    /// A list of bare tokens.
    List(Vec<String>),
}

/// 64-bit FNV-1a, the journal's per-entry checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn parse_entry(line: &str) -> Option<(Key, Entry)> {
    let (body, tail) = line.rsplit_once(",\"sum\":\"")?;
    let hex = tail.strip_suffix("\"}")?;
    if hex.len() != 16 || u64::from_str_radix(hex, 16).ok()? != fnv1a(body.as_bytes()) {
        return None;
    }
    let fields = parse_object(line)?;
    let task = str_field(&fields, "task")?;
    let defects = raw_field(&fields, "defects")?.parse().ok()?;
    let rep = raw_field(&fields, "rep")?.parse().ok()?;
    let entry = match str_field(&fields, "status")?.as_str() {
        "ok" => {
            let Some(Field::List(tokens)) = field(&fields, "values") else {
                return None;
            };
            let values = tokens
                .iter()
                .map(|t| match t.as_str() {
                    "null" => Some(None),
                    t => t.parse::<f64>().ok().filter(|v| v.is_finite()).map(Some),
                })
                .collect::<Option<Vec<_>>>()?;
            let retried = match raw_field(&fields, "retried") {
                None => false,
                Some(r) => r.parse().ok()?,
            };
            Entry::Ok { values, retried }
        }
        "failed" => Entry::Failed {
            panic: str_field(&fields, "panic")?,
        },
        _ => return None,
    };
    Some(((task, defects, rep), entry))
}

/// Parses one flat JSON object whose values are strings, bare tokens or
/// lists of bare tokens. `None` on anything else, including trailing
/// bytes after the closing brace.
fn parse_object(line: &str) -> Option<Vec<(String, Field)>> {
    let mut rest = line.trim().strip_prefix('{')?;
    let mut fields = Vec::new();
    loop {
        let (key, after) = parse_string(rest.strip_prefix('"')?)?;
        rest = after.strip_prefix(':')?;
        let value = if let Some(r) = rest.strip_prefix('"') {
            let (s, r) = parse_string(r)?;
            rest = r;
            Field::Str(s)
        } else if let Some(r) = rest.strip_prefix('[') {
            let end = r.find(']')?;
            let body = r[..end].trim();
            rest = &r[end + 1..];
            let tokens = if body.is_empty() {
                Vec::new()
            } else {
                body.split(',').map(|t| t.trim().to_string()).collect()
            };
            Field::List(tokens)
        } else {
            let end = rest.find([',', '}'])?;
            let token = rest[..end].trim();
            rest = &rest[end..];
            if token.is_empty() {
                return None;
            }
            Field::Raw(token.to_string())
        };
        fields.push((key, value));
        match rest.strip_prefix(',') {
            Some(r) => rest = r,
            None => return (rest == "}").then_some(fields),
        }
    }
}

/// Unescapes a string body (the opening quote already consumed) and
/// returns it with the input after the closing quote.
fn parse_string(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (&mut chars).take(4).map(|(_, c)| c).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

fn field<'a>(fields: &'a [(String, Field)], key: &str) -> Option<&'a Field> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn raw_field<'a>(fields: &'a [(String, Field)], key: &str) -> Option<&'a str> {
    match field(fields, key)? {
        Field::Raw(token) => Some(token),
        _ => None,
    }
}

fn str_field(fields: &[(String, Field)], key: &str) -> Option<String> {
    match field(fields, key)? {
        Field::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dta_ckpt_{}_{name}.jsonl", std::process::id()))
    }

    #[test]
    fn round_trips_outcomes_exactly() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let ck = Checkpoint::open(&path, "fp-a").unwrap();
            ck.record(
                "iris",
                8,
                2,
                &CellOutcome::Completed {
                    accuracy: 0.933_333_333_333_333_3,
                    retried: false,
                },
            )
            .unwrap();
            ck.record(
                "iris",
                8,
                3,
                &CellOutcome::Failed {
                    panic: "weird \"quoted\"\nmulti-line\tpayload \\ with slash".into(),
                },
            )
            .unwrap();
            ck.record(
                "wine",
                0,
                0,
                &CellOutcome::Completed {
                    accuracy: 1.0,
                    retried: true,
                },
            )
            .unwrap();
        }
        let ck = Checkpoint::open(&path, "fp-a").unwrap();
        assert_eq!(ck.completed(), 3);
        assert_eq!(
            ck.lookup("iris", 8, 2),
            Some(CellOutcome::Completed {
                accuracy: 0.933_333_333_333_333_3,
                retried: false,
            })
        );
        assert_eq!(
            ck.lookup("iris", 8, 3),
            Some(CellOutcome::Failed {
                panic: "weird \"quoted\"\nmulti-line\tpayload \\ with slash".into(),
            })
        );
        assert_eq!(
            ck.lookup("wine", 0, 0),
            Some(CellOutcome::Completed {
                accuracy: 1.0,
                retried: true,
            })
        );
        assert_eq!(ck.lookup("iris", 8, 4), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let path = tmp("fpmismatch");
        let _ = std::fs::remove_file(&path);
        drop(Checkpoint::open(&path, "fp-a").unwrap());
        let err = Checkpoint::open(&path, "fp-b").unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    fn ok(accuracy: f64) -> CellOutcome {
        CellOutcome::Completed {
            accuracy,
            retried: false,
        }
    }

    fn append_raw(path: &Path, text: &str) {
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        write!(f, "{text}").unwrap();
    }

    #[test]
    fn torn_final_line_is_tolerated_and_not_recorded() {
        let path = tmp("torn");
        // Simulate crashes mid-append: a partial trailing line, torn
        // after a field, inside a key and inside a UTF-8 sequence.
        let failed_panic =
            "{\"task\":\"iris\",\"defects\":1,\"rep\":0,\"status\":\"failed\",\"panic\":\"\u{2014}";
        for torn in [
            "{\"task\":\"iris\",\"defects\":12,".as_bytes(),
            "{\"task\":\"iris\",\"defe".as_bytes(),
            // Cut inside the three-byte UTF-8 sequence of an em dash.
            &failed_panic.as_bytes()[..failed_panic.len() - 1],
        ] {
            let _ = std::fs::remove_file(&path);
            Checkpoint::open(&path, "fp")
                .unwrap()
                .record("iris", 3, 0, &ok(0.5))
                .unwrap();
            OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap()
                .write_all(torn)
                .unwrap();
            let ck = Checkpoint::open(&path, "fp").unwrap();
            assert_eq!(ck.completed(), 1, "torn line must be dropped");
            // The next record must land on a line of its own, not glue
            // onto the torn fragment.
            ck.record("wine", 6, 1, &ok(0.75)).unwrap();
            let ck = Checkpoint::open(&path, "fp").unwrap();
            assert_eq!(ck.lookup("wine", 6, 1), Some(ok(0.75)));
            assert_eq!(ck.lookup("iris", 12, 1), None);
            assert_eq!(ck.completed(), 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_middle_line_is_an_error() {
        let path = tmp("middle");
        for bad in [
            "{\"task\":\"iris\",\"defe",
            "garbage}",
            "",
            "{\"task\":\"x\"}",
        ] {
            let _ = std::fs::remove_file(&path);
            Checkpoint::open(&path, "fp")
                .unwrap()
                .record("iris", 3, 0, &ok(0.5))
                .unwrap();
            append_raw(&path, &format!("{bad}\n{{\"task\":\"iris\",\"defe"));
            let err = Checkpoint::open(&path, "fp").unwrap_err();
            assert!(
                err.to_string().contains("malformed entry at line 3"),
                "{bad:?}: {err}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_one_journal_is_refused() {
        let path = tmp("v1");
        std::fs::write(
            &path,
            "{\"campaign_checkpoint\":1,\"fingerprint\":\"fp\"}\n\
             {\"task\":\"iris\",\"defects\":8,\"rep\":2,\"status\":\"ok\",\"retried\":false,\"acc\":0.5}\n",
        )
        .unwrap();
        let err = Checkpoint::open(&path, "fp").unwrap_err();
        assert!(matches!(err, CampaignError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("version 1"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn value_rows_round_trip_with_nulls() {
        let path = tmp("rows");
        let _ = std::fs::remove_file(&path);
        let row = [Some(0.1 + 0.2), None, Some(0.0), Some(3.0), None];
        {
            let ck = Checkpoint::open(&path, "fp").unwrap();
            ck.record_values("iris@spatial:mission", 1, 0, &row)
                .unwrap();
            ck.record_values("empty", 0, 0, &[]).unwrap();
            let err = ck
                .record_values("bad", 0, 0, &[Some(f64::NAN)])
                .unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{err}");
        }
        let ck = Checkpoint::open(&path, "fp").unwrap();
        assert_eq!(ck.values("iris@spatial:mission", 1, 0), Some(&row[..]));
        assert_eq!(ck.values("empty", 0, 0), Some(&[][..]));
        assert_eq!(ck.values("bad", 0, 0), None);
        // A multi-value row is not a campaign cell.
        assert_eq!(ck.lookup("iris@spatial:mission", 1, 0), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn full_disk_surfaces_a_typed_checkpoint_error() {
        // `/dev/full` fails every write with ENOSPC — exactly the
        // journal-on-a-full-disk case. The error must be a typed
        // `CampaignError::Checkpoint`, not a panic.
        let path = tmp("enospc");
        let _ = std::fs::remove_file(&path);
        let ck = Checkpoint::open(&path, "fp").unwrap();
        let full = OpenOptions::new().write(true).open("/dev/full").unwrap();
        ck.replace_writer_for_tests(full);
        let err = ck
            .record(
                "iris",
                0,
                0,
                &CellOutcome::Completed {
                    accuracy: 0.5,
                    retried: false,
                },
            )
            .unwrap_err();
        match &err {
            CampaignError::Checkpoint { detail, .. } => {
                assert!(
                    detail.contains("failed") || detail.contains("sync"),
                    "unexpected detail: {detail}"
                );
            }
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exact_float_round_trip_across_the_journal() {
        // A spread of awkward accuracies must come back bit-identical.
        let path = tmp("floats");
        let _ = std::fs::remove_file(&path);
        let values = [
            0.0,
            1.0,
            1.0 / 3.0,
            2.0 / 3.0,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            0.966_666_666_666_666_7,
        ];
        {
            let ck = Checkpoint::open(&path, "fp").unwrap();
            for (i, &v) in values.iter().enumerate() {
                ck.record(
                    "t",
                    i,
                    0,
                    &CellOutcome::Completed {
                        accuracy: v,
                        retried: false,
                    },
                )
                .unwrap();
            }
        }
        let ck = Checkpoint::open(&path, "fp").unwrap();
        for (i, &v) in values.iter().enumerate() {
            match ck.lookup("t", i, 0).unwrap() {
                CellOutcome::Completed { accuracy, .. } => {
                    assert_eq!(accuracy.to_bits(), v.to_bits(), "value {v} lost bits");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_journals_give_original_entries_or_typed_errors() {
        use rand::{Rng, SeedableRng};

        let path = tmp("fuzz");
        let _ = std::fs::remove_file(&path);
        let fp = "v1 seed=0x5eed tasks=iris,wine";
        {
            let ck = Checkpoint::open(&path, fp).unwrap();
            for i in 0..10usize {
                let task = ["iris", "wine", "glass \u{2014} \"q\""][i % 3];
                match i % 4 {
                    0 => ck.record(task, i, 0, &ok(i as f64 / 7.0)).unwrap(),
                    1 => ck
                        .record(
                            task,
                            i,
                            1,
                            &CellOutcome::Failed {
                                panic: format!("boom {i}\n\u{e9}"),
                            },
                        )
                        .unwrap(),
                    2 => ck
                        .record_values(task, i, 2, &[Some(0.1 * i as f64), None, Some(1.0)])
                        .unwrap(),
                    _ => ck
                        .record(
                            task,
                            i,
                            3,
                            &CellOutcome::Completed {
                                accuracy: 0.5 + i as f64 / 100.0,
                                retried: true,
                            },
                        )
                        .unwrap(),
                }
            }
        }
        let original = std::fs::read(&path).unwrap();
        let reference = Checkpoint::open(&path, fp).unwrap().done;
        assert_eq!(reference.len(), 10);
        let line_spans = |bytes: &[u8]| -> Vec<std::ops::Range<usize>> {
            let mut spans = Vec::new();
            let mut start = 0;
            for (i, &b) in bytes.iter().enumerate() {
                if b == b'\n' {
                    spans.push(start..i + 1);
                    start = i + 1;
                }
            }
            spans
        };

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC0FFEE);
        let mut outcomes = [[0usize; 2]; 6];
        for case in 0..480 {
            let kind = case % 6;
            let mut bytes = original.clone();
            let spans = line_spans(&bytes);
            match kind {
                // A flipped byte.
                0 => {
                    let at = rng.random_range(0..bytes.len());
                    bytes[at] ^= rng.random_range(1..=255u8);
                }
                // Truncation at a random offset.
                1 => bytes.truncate(rng.random_range(0..bytes.len())),
                // A duplicated line, re-inserted anywhere.
                2 => {
                    let line = bytes[spans[rng.random_range(0..spans.len())].clone()].to_vec();
                    let at = spans[rng.random_range(0..spans.len())].start;
                    bytes.splice(at..at, line);
                }
                // Two lines swapped.
                3 => {
                    let i = rng.random_range(0..spans.len());
                    let j = (i + rng.random_range(1..spans.len())) % spans.len();
                    let (lo, hi) = (spans[i.min(j)].clone(), spans[i.max(j)].clone());
                    let mut swapped = bytes[..lo.start].to_vec();
                    swapped.extend_from_slice(&bytes[hi.clone()]);
                    swapped.extend_from_slice(&bytes[lo.end..hi.start]);
                    swapped.extend_from_slice(&bytes[lo.clone()]);
                    swapped.extend_from_slice(&bytes[hi.end..]);
                    bytes = swapped;
                }
                // An edited fingerprint.
                4 => {
                    let start =
                        spans[0].start + original.windows(3).position(|w| w == b"v1 ").unwrap();
                    let at = start + rng.random_range(0..fp.len());
                    bytes[at] = b'a' + rng.random_range(0..26u8);
                    if bytes == original {
                        bytes[at] = b'#';
                    }
                }
                // A byte that is never valid UTF-8.
                _ => {
                    let at = rng.random_range(0..bytes.len());
                    bytes[at] = [0xC0u8, 0xC1, 0xF5, 0xFF][rng.random_range(0..4usize)];
                }
            }
            std::fs::write(&path, &bytes).unwrap();
            let opened = std::panic::catch_unwind(|| Checkpoint::open(&path, fp))
                .unwrap_or_else(|_| panic!("case {case} (kind {kind}) panicked"));
            match opened {
                Ok(ck) => {
                    for (key, entry) in &ck.done {
                        assert_eq!(
                            reference.get(key),
                            Some(entry),
                            "case {case} (kind {kind}): {key:?} is not an original entry"
                        );
                    }
                    outcomes[kind][0] += 1;
                }
                Err(CampaignError::Checkpoint { .. }) => outcomes[kind][1] += 1,
                Err(other) => panic!("case {case} (kind {kind}): untyped error {other:?}"),
            }
        }
        // Every mutation kind is refused at least once, and the
        // harmless ones (torn tails, duplicates) also open.
        assert!(outcomes.iter().all(|o| o[1] > 0), "{outcomes:?}");
        assert!(outcomes[1][0] > 0 && outcomes[2][0] > 0, "{outcomes:?}");
        let _ = std::fs::remove_file(&path);
    }
}
