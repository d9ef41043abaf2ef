//! RFC-4180 CSV reading and writing.
//!
//! Hand-rolled rather than a dependency: the demo only needs a header
//! record, commas and quoting (embedded commas, quotes, newlines), and
//! owning the parser keeps error positions precise. Every reader and
//! writer takes the first record as the header and splits on commas;
//! neither is configurable.
//!
//! Ingest is allocation-free for unquoted input: [`RawRecords`] yields
//! records whose fields borrow the input buffer directly (one byte scan
//! finds the record terminator, fields are comma-split spans), and
//! [`read_str`] feeds those borrowed fields straight into the
//! [`ValuePool`] batch interner — no per-field `String` is ever built.
//! Records containing a quote fall back to an owned state machine whose
//! scratch buffers are reused across records.

use crate::atomic::write_atomic;
use crate::error::TableError;
use crate::pool::{ValueId, ValuePool};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::is_null_field;
use anmat_obs as obs;
use std::path::Path;

/// Read a table from CSV text whose first record is the header.
///
/// Streams records straight from the input buffer into the table: each
/// record's fields are interned as one [`ValuePool`] batch (borrowed
/// slices on the unquoted fast path) and appended via
/// [`Table::push_id_row`], so no intermediate `Vec<Vec<String>>` — and
/// for unquoted input no owned field at all — is materialized. Fields
/// that [`is_null_field`] names become nulls.
pub fn read_str(input: &str) -> Result<Table, TableError> {
    let mut records = RawRecords::new(input);
    let schema = match records.next_record()? {
        Some(header) => Schema::new(header.iter().map(str::to_string).collect::<Vec<_>>())?,
        None => Schema::new(Vec::<String>::new())?,
    };
    let mut table = Table::empty(schema);
    while let Some(rec) = records.next_record()? {
        table.push_id_row(intern_fields(rec.iter()))?;
    }
    Ok(table)
}

/// Intern one record's fields as a single pool batch, mapping null
/// fields ([`is_null_field`]) to [`ValueId::NULL`] without touching the
/// pool.
pub(crate) fn intern_fields<'a>(fields: impl Iterator<Item = &'a str>) -> Vec<ValueId> {
    let fields: Vec<Option<&str>> = fields
        .map(|f| if is_null_field(f) { None } else { Some(f) })
        .collect();
    ValuePool::intern_opt_batch(&fields)
}

/// Read a table from a CSV file (see [`read_str`]).
pub fn read_path(path: impl AsRef<Path>) -> Result<Table, TableError> {
    read_str(&std::fs::read_to_string(path)?)
}

/// Serialize a table's live rows to CSV text, header first.
#[must_use]
pub fn write_str(table: &Table) -> String {
    let mut out = String::new();
    write_record(&mut out, table.schema().names().iter().map(String::as_str));
    // Tombstoned rows are not part of the table's live contents.
    for r in table.iter_live() {
        write_record(
            &mut out,
            (0..table.column_count()).map(|c| table.cell_str(r, c).unwrap_or("")),
        );
    }
    out
}

/// Write a table to a file, replacing it whole ([`write_atomic`]).
pub fn write_path(table: &Table, path: impl AsRef<Path>) -> Result<(), TableError> {
    write_atomic(path, write_str(table))?;
    Ok(())
}

/// Parse CSV text into raw records of owned fields (no header handling,
/// no value conversion). The op-log reader ([`crate::oplog`]) walks the
/// borrowed [`RawRecords`] instead; this owned form is kept only because
/// the benchmark harness (`perfbench/harness/src/measure.rs`) still
/// parses its op-log with it, and the next change to the benchmark
/// (ROADMAP item 5) deletes it, `delimiter` with it.
///
/// # Panics
/// If `delimiter` is not `,`: records are always comma-separated.
pub fn parse_raw_records(input: &str, delimiter: char) -> Result<Vec<Vec<String>>, TableError> {
    assert_eq!(delimiter, ',', "CSV records are comma-separated");
    let mut reader = RawRecords::new(input);
    let mut records = Vec::new();
    while let Some(rec) = reader.next_record()? {
        records.push(rec.iter().map(str::to_string).collect());
    }
    Ok(records)
}

/// Streaming CSV record reader yielding borrowed fields.
///
/// Two paths, chosen per record:
///
/// * **Borrowed fast path** (no `"` before the record terminator): one
///   forward byte scan finds the terminator, fields are recorded as byte
///   spans into the input (a comma never occurs inside a multi-byte
///   UTF-8 sequence, so byte-level splitting is safe), and
///   [`RecordView::field`] returns slices of the original buffer. No
///   allocation beyond the reused span scratch.
/// * **Owned fallback** (a quote anywhere in the line): the full
///   RFC-4180 state machine runs for this record only, accumulating into
///   scratch `String`s whose capacity is retained across records.
///
/// Which path served each record is observable via
/// [`RecordView::is_borrowed`] and the `ingest.borrowed_records` /
/// `ingest.owned_records` counters. Blank lines are skipped and error
/// positions (1-based line numbers) match the batch parser exactly.
#[derive(Debug)]
pub struct RawRecords<'a> {
    input: &'a str,
    pos: usize,
    line: usize,
    /// Scratch: byte spans of the current borrowed record's fields.
    spans: Vec<(usize, usize)>,
    /// Scratch: owned fields of the current fallback record (capacity
    /// reused; only `owned_len` entries are live).
    owned: Vec<String>,
    owned_len: usize,
    /// Scratch: the field the fallback machine is accumulating.
    cur: String,
    borrowed: bool,
}

/// One record yielded by [`RawRecords::next_record`]. Fields borrow
/// either the input buffer (fast path) or the reader's scratch
/// (fallback); both live until the next `next_record` call.
#[derive(Debug)]
pub struct RecordView<'r> {
    text: &'r str,
    spans: &'r [(usize, usize)],
    owned: &'r [String],
    borrowed: bool,
}

impl<'r> RecordView<'r> {
    /// Number of fields in the record.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.borrowed {
            self.spans.len()
        } else {
            self.owned.len()
        }
    }

    /// Is the record empty? (Never true for yielded records — blank
    /// lines are skipped — but part of the container contract.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th field.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    #[must_use]
    pub fn field(&self, i: usize) -> &'r str {
        if self.borrowed {
            let (start, end) = self.spans[i];
            &self.text[start..end]
        } else {
            &self.owned[i]
        }
    }

    /// Iterate the record's fields in order.
    pub fn iter(&self) -> impl Iterator<Item = &'r str> + '_ {
        (0..self.len()).map(move |i| self.field(i))
    }

    /// Did this record take the zero-copy fast path?
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        self.borrowed
    }
}

impl<'a> RawRecords<'a> {
    /// A reader over the comma-separated records of `input`.
    #[must_use]
    pub fn new(input: &'a str) -> RawRecords<'a> {
        RawRecords {
            input,
            pos: 0,
            line: 1,
            spans: Vec::new(),
            owned: Vec::new(),
            owned_len: 0,
            cur: String::new(),
            borrowed: false,
        }
    }

    /// The next record, or `None` at end of input. The returned view
    /// borrows the reader; drop it before calling again.
    pub fn next_record(&mut self) -> Result<Option<RecordView<'_>>, TableError> {
        loop {
            if self.pos >= self.input.len() {
                return Ok(None);
            }
            match self.scan_unquoted_line() {
                Scan::Blank => continue,
                Scan::Record => {
                    obs::counter!("ingest.borrowed_records").incr();
                    self.borrowed = true;
                    return Ok(Some(self.view()));
                }
                Scan::Fallback => {}
            }
            return if self.parse_owned_record()? {
                obs::counter!("ingest.owned_records").incr();
                self.borrowed = false;
                Ok(Some(self.view()))
            } else {
                Ok(None)
            };
        }
    }

    fn view(&self) -> RecordView<'_> {
        RecordView {
            text: self.input,
            spans: &self.spans,
            owned: &self.owned[..self.owned_len],
            borrowed: self.borrowed,
        }
    }

    /// Fast path: scan bytes for the first of `"` / `\r` / `\n`. If no
    /// quote appears before the terminator, split the line on commas
    /// into borrowed spans and consume the terminator.
    fn scan_unquoted_line(&mut self) -> Scan {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let mut end = bytes.len();
        for (i, &b) in bytes[start..].iter().enumerate() {
            match b {
                b'"' => return Scan::Fallback,
                b'\r' | b'\n' => {
                    end = start + i;
                    break;
                }
                _ => {}
            }
        }
        // Consume the terminator: `\n`, `\r`, or a `\r\n` pair.
        if end < bytes.len() {
            self.pos = end + 1;
            if bytes[end] == b'\r' {
                if bytes.get(end + 1) == Some(&b'\n') {
                    self.pos = end + 2;
                    self.line += 1;
                }
            } else {
                self.line += 1;
            }
        } else {
            self.pos = bytes.len();
        }
        if end == start {
            return Scan::Blank;
        }
        self.spans.clear();
        let mut field_start = start;
        for (i, &b) in bytes.iter().enumerate().take(end).skip(start) {
            if b == b',' {
                self.spans.push((field_start, i));
                field_start = i + 1;
            }
        }
        self.spans.push((field_start, end));
        Scan::Record
    }

    /// Fallback: run the full RFC-4180 state machine for one record
    /// (which may span lines via quoted embedded newlines), writing
    /// fields into the reused owned scratch. Returns `false` only when
    /// end of input is reached without producing a record.
    fn parse_owned_record(&mut self) -> Result<bool, TableError> {
        #[derive(PartialEq)]
        enum State {
            FieldStart,
            Unquoted,
            Quoted,
            QuoteInQuoted, // saw a `"` inside a quoted field: escape or end
        }
        let text = self.input;
        self.owned_len = 0;
        self.cur.clear();
        let mut state = State::FieldStart;
        let mut record_started = false;
        let base = self.pos;
        let mut chars = text[base..].char_indices().peekable();
        // Advance `self.pos` past the character(s) consumed so far: the
        // next unconsumed char's offset, or end of input.
        macro_rules! sync_pos {
            () => {
                self.pos = chars.peek().map_or(text.len(), |&(i, _)| base + i)
            };
        }
        while let Some((_, c)) = chars.next() {
            if c == '\n' {
                self.line += 1;
            }
            match state {
                State::FieldStart => match c {
                    '"' => {
                        state = State::Quoted;
                        record_started = true;
                    }
                    '\r' | '\n' => {
                        if c == '\r' {
                            if let Some(&(_, '\n')) = chars.peek() {
                                chars.next();
                                self.line += 1;
                            }
                        }
                        sync_pos!();
                        if record_started {
                            self.commit_field();
                            return Ok(true);
                        }
                        // Blank line: keep scanning within this call.
                    }
                    ',' => {
                        self.commit_field();
                        record_started = true;
                    }
                    c => {
                        self.cur.push(c);
                        state = State::Unquoted;
                        record_started = true;
                    }
                },
                State::Unquoted => match c {
                    '"' => {
                        return Err(TableError::Csv {
                            line: self.line,
                            reason: "quote inside unquoted field".into(),
                        })
                    }
                    '\r' | '\n' => {
                        if c == '\r' {
                            if let Some(&(_, '\n')) = chars.peek() {
                                chars.next();
                                self.line += 1;
                            }
                        }
                        sync_pos!();
                        self.commit_field();
                        return Ok(true);
                    }
                    ',' => {
                        self.commit_field();
                        state = State::FieldStart;
                    }
                    c => self.cur.push(c),
                },
                State::Quoted => match c {
                    '"' => state = State::QuoteInQuoted,
                    c => self.cur.push(c),
                },
                State::QuoteInQuoted => match c {
                    '"' => {
                        self.cur.push('"');
                        state = State::Quoted;
                    }
                    '\r' | '\n' => {
                        if c == '\r' {
                            if let Some(&(_, '\n')) = chars.peek() {
                                chars.next();
                                self.line += 1;
                            }
                        }
                        sync_pos!();
                        self.commit_field();
                        return Ok(true);
                    }
                    ',' => {
                        self.commit_field();
                        state = State::FieldStart;
                    }
                    c => {
                        return Err(TableError::Csv {
                            line: self.line,
                            reason: format!("unexpected `{c}` after closing quote"),
                        })
                    }
                },
            }
        }
        // End of input.
        self.pos = text.len();
        match state {
            State::Quoted => Err(TableError::Csv {
                line: self.line,
                reason: "unterminated quoted field".into(),
            }),
            State::Unquoted | State::QuoteInQuoted => {
                self.commit_field();
                Ok(true)
            }
            State::FieldStart => {
                if record_started {
                    self.commit_field();
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Finish the field being accumulated: swap it into the next owned
    /// slot (retaining both buffers' capacity) and reset the scratch.
    fn commit_field(&mut self) {
        if self.owned_len == self.owned.len() {
            self.owned.push(String::new());
        }
        std::mem::swap(&mut self.owned[self.owned_len], &mut self.cur);
        self.cur.clear();
        self.owned_len += 1;
    }
}

/// Outcome of one fast-path line scan.
enum Scan {
    /// Borrowed spans are ready in scratch.
    Record,
    /// Empty line, consumed; caller should continue.
    Blank,
    /// A quote appeared before the terminator; run the state machine.
    Fallback,
}

fn write_record<'a>(out: &mut String, fields: impl Iterator<Item = &'a str>) {
    let start = out.len();
    let mut count = 0;
    for f in fields {
        if count > 0 {
            out.push(',');
        }
        count += 1;
        if f.contains([',', '"', '\n', '\r']) {
            out.push('"');
            for c in f.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
    // A record that is a single empty field would print as a blank line,
    // which readers (ours included) skip. Quote it to disambiguate.
    if count == 1 && out.len() == start {
        out.push_str("\"\"");
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn simple_read() {
        let t = read_str("zip,city\n90001,Los Angeles\n90002,Los Angeles\n").unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.schema().names(), &["zip", "city"]);
        assert_eq!(t.cell_str(0, 1), Some("Los Angeles"));
    }

    #[test]
    fn quoted_fields() {
        let t = read_str("name,gender\n\"Jones, Stacey R.\",F\n").unwrap();
        assert_eq!(t.cell_str(0, 0), Some("Jones, Stacey R."));
    }

    #[test]
    fn escaped_quotes() {
        let t = read_str("a\n\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.cell_str(0, 0), Some("say \"hi\""));
    }

    #[test]
    fn embedded_newline() {
        let t = read_str("a,b\n\"line1\nline2\",x\n").unwrap();
        assert_eq!(t.cell_str(0, 0), Some("line1\nline2"));
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn crlf_line_endings() {
        let t = read_str("a,b\r\n1,2\r\n3,4\r\n").unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.cell_str(1, 1), Some("4"));
    }

    #[test]
    fn no_trailing_newline() {
        let t = read_str("a,b\n1,2").unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.cell_str(0, 1), Some("2"));
    }

    #[test]
    fn empty_fields_are_null() {
        let t = read_str("a,b,c\n1,,3\n").unwrap();
        assert!(t.cell(0, 1).is_null());
    }

    #[test]
    fn trailing_empty_field() {
        let t = read_str("a,b\n1,\n").unwrap();
        assert_eq!(t.row_count(), 1);
        assert!(t.cell(0, 1).is_null());
    }

    #[test]
    fn arity_mismatch_detected() {
        assert!(matches!(
            read_str("a,b\n1,2,3\n"),
            Err(TableError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(matches!(
            read_str("a\n\"oops\n"),
            Err(TableError::Csv { .. })
        ));
    }

    #[test]
    fn garbage_after_quote_rejected() {
        assert!(matches!(
            read_str("a\n\"x\"y\n"),
            Err(TableError::Csv { .. })
        ));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let schema = Schema::new(["name", "note"]).unwrap();
        let t = Table::from_rows(
            schema,
            [
                vec![Value::text("Jones, Stacey"), Value::text("says \"hi\"")],
                vec![Value::Null, Value::text("line1\nline2")],
            ],
        )
        .unwrap();
        let csv = write_str(&t);
        let t2 = read_str(&csv).unwrap();
        assert_eq!(t2.cell_str(0, 0), Some("Jones, Stacey"));
        assert_eq!(t2.cell_str(0, 1), Some("says \"hi\""));
        assert!(t2.cell(1, 0).is_null());
        assert_eq!(t2.cell_str(1, 1), Some("line1\nline2"));
    }

    #[test]
    fn blank_lines_skipped() {
        let t = read_str("a,b\n1,2\n\n3,4\n").unwrap();
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn file_roundtrip() {
        let schema = Schema::new(["x"]).unwrap();
        let t = Table::from_str_rows(schema, [["1"], ["2"]]).unwrap();
        let path = std::env::temp_dir().join("anmat_csv_test.csv");
        write_path(&t, &path).unwrap();
        let t2 = read_path(&path).unwrap();
        assert_eq!(t, t2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn unquoted_records_are_borrowed() {
        let mut r = RawRecords::new("a,b\n1,2\n\"q\",3\n4,5\n");
        let mut paths = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            paths.push((
                rec.is_borrowed(),
                rec.iter().map(str::to_string).collect::<Vec<_>>(),
            ));
        }
        assert_eq!(
            paths,
            vec![
                (true, vec!["a".to_string(), "b".to_string()]),
                (true, vec!["1".to_string(), "2".to_string()]),
                (false, vec!["q".to_string(), "3".to_string()]),
                (true, vec!["4".to_string(), "5".to_string()]),
            ]
        );
    }

    #[test]
    fn borrowed_fields_alias_the_input() {
        let input = "zip,city\n90001,Los Angeles\n";
        let mut r = RawRecords::new(input);
        r.next_record().unwrap(); // header
        {
            let rec = r.next_record().unwrap().unwrap();
            let city = rec.field(1);
            assert_eq!(city, "Los Angeles");
            // Pointer identity proves zero-copy: the field *is* a slice
            // of the input buffer.
            assert_eq!(city.as_ptr(), input["zip,city\n90001,".len()..].as_ptr());
        }
        assert!(r.next_record().unwrap().is_none());
    }

    /// The original batch state machine, kept verbatim as a test oracle
    /// for the streaming reader.
    mod reference {
        use crate::error::TableError;

        pub fn parse_records(input: &str, delimiter: char) -> Result<Vec<Vec<String>>, TableError> {
            #[derive(PartialEq)]
            enum State {
                FieldStart,
                Unquoted,
                Quoted,
                QuoteInQuoted,
            }
            let mut records = Vec::new();
            let mut record: Vec<String> = Vec::new();
            let mut field = String::new();
            let mut state = State::FieldStart;
            let mut line = 1usize;
            let mut chars = input.chars().peekable();
            let mut record_started = false;

            while let Some(c) = chars.next() {
                if c == '\n' {
                    line += 1;
                }
                match state {
                    State::FieldStart => match c {
                        '"' => {
                            state = State::Quoted;
                            record_started = true;
                        }
                        '\r' => {
                            if chars.peek() == Some(&'\n') {
                                chars.next();
                                line += 1;
                            }
                            end_record(&mut records, &mut record, &mut field, &mut record_started);
                        }
                        '\n' => {
                            end_record(&mut records, &mut record, &mut field, &mut record_started);
                        }
                        c if c == delimiter => {
                            record.push(String::new());
                            record_started = true;
                        }
                        c => {
                            field.push(c);
                            state = State::Unquoted;
                            record_started = true;
                        }
                    },
                    State::Unquoted => match c {
                        '"' => {
                            return Err(TableError::Csv {
                                line,
                                reason: "quote inside unquoted field".into(),
                            })
                        }
                        '\r' => {
                            if chars.peek() == Some(&'\n') {
                                chars.next();
                                line += 1;
                            }
                            record.push(std::mem::take(&mut field));
                            end_record_no_push(&mut records, &mut record, &mut record_started);
                            state = State::FieldStart;
                        }
                        '\n' => {
                            record.push(std::mem::take(&mut field));
                            end_record_no_push(&mut records, &mut record, &mut record_started);
                            state = State::FieldStart;
                        }
                        c if c == delimiter => {
                            record.push(std::mem::take(&mut field));
                            state = State::FieldStart;
                            record_started = true;
                        }
                        c => field.push(c),
                    },
                    State::Quoted => match c {
                        '"' => state = State::QuoteInQuoted,
                        c => field.push(c),
                    },
                    State::QuoteInQuoted => match c {
                        '"' => {
                            field.push('"');
                            state = State::Quoted;
                        }
                        '\r' => {
                            if chars.peek() == Some(&'\n') {
                                chars.next();
                                line += 1;
                            }
                            record.push(std::mem::take(&mut field));
                            end_record_no_push(&mut records, &mut record, &mut record_started);
                            state = State::FieldStart;
                        }
                        '\n' => {
                            record.push(std::mem::take(&mut field));
                            end_record_no_push(&mut records, &mut record, &mut record_started);
                            state = State::FieldStart;
                        }
                        c if c == delimiter => {
                            record.push(std::mem::take(&mut field));
                            state = State::FieldStart;
                            record_started = true;
                        }
                        c => {
                            return Err(TableError::Csv {
                                line,
                                reason: format!("unexpected `{c}` after closing quote"),
                            })
                        }
                    },
                }
            }
            match state {
                State::Quoted => {
                    return Err(TableError::Csv {
                        line,
                        reason: "unterminated quoted field".into(),
                    })
                }
                State::Unquoted | State::QuoteInQuoted => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                State::FieldStart => {
                    if record_started {
                        record.push(String::new());
                        records.push(std::mem::take(&mut record));
                    }
                }
            }
            Ok(records)
        }

        fn end_record(
            records: &mut Vec<Vec<String>>,
            record: &mut Vec<String>,
            field: &mut String,
            record_started: &mut bool,
        ) {
            if *record_started {
                record.push(std::mem::take(field));
                records.push(std::mem::take(record));
                *record_started = false;
            } else if !record.is_empty() {
                records.push(std::mem::take(record));
            }
        }

        fn end_record_no_push(
            records: &mut Vec<Vec<String>>,
            record: &mut Vec<String>,
            record_started: &mut bool,
        ) {
            records.push(std::mem::take(record));
            *record_started = false;
        }
    }

    /// Differential corpus: every tricky shape the old parser defined
    /// semantics for — the streaming reader must agree record for
    /// record (and error for error, at the same line).
    #[test]
    fn streaming_reader_matches_reference_parser() {
        let corpus = [
            "",
            "\n",
            "\r\n\r\n",
            "a,b\n1,2\n",
            "a,b\n1,2",
            "a,b\r\n1,2\r",
            "a,b\r1,2",
            ",\n",
            "a,\n,b\n",
            "\"\"\n",
            "\"\",x\n",
            "a,b\n\n\n3,4\n",
            "\"Jones, Stacey R.\",F\n",
            "\"say \"\"hi\"\"\"\n",
            "\"line1\nline2\",x\nplain,y\n",
            "\"q\"\r\nnext\r\n",
            "mixed,\"quoted\",tail\n",
            "Édouard,Manet\n中,文\n",
            "a\n\"oops\n",
            "a\n\"x\"y\n",
            "ab\"cd\n",
            "one\n\"two\"z\nthree\n",
            "trail,\n",
            "\r",
            "a,b\r",
        ];
        for input in corpus {
            let expected = reference::parse_records(input, ',');
            let got = parse_raw_records(input, ',');
            match (expected, got) {
                (Ok(e), Ok(g)) => assert_eq!(g, e, "input {input:?}"),
                (Err(e), Err(g)) => {
                    assert_eq!(format!("{g:?}"), format!("{e:?}"), "input {input:?}");
                }
                (e, g) => panic!("input {input:?}: reference {e:?} vs streaming {g:?}"),
            }
        }
    }
}
