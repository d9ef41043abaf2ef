//! The op-log reader, `oplog::parse`, against the owned path it
//! replaced: `csv::parse_raw_records` for the records, `Value::from_field`
//! for each cell, and `Op::from(RowOp)` to intern them. On well-formed
//! logs the two give the same ops, row ids and pool ids; on any text the
//! reader returns `Ok` or `Err` without panicking, and `Ok` exactly when
//! the owned path does. Each error kind has a unit test of its own.
//!
//! Both paths intern into the process-global pool, which gives one
//! string one id however often it is interned, so their ids compare
//! equal. Nothing here reclaims pool strings.

use anmat_table::{csv, oplog, Op, RowId, RowOp, TableError, Value, ValueId, ValuePool};
use proptest::prelude::*;

/// The owned path: every record parsed into `String`s first, every cell
/// converted to a `Value`, and the ops interned afterwards.
fn owned_parse(text: &str) -> Result<Vec<Op>, TableError> {
    let records = csv::parse_raw_records(text, ',')?;
    let mut ops = Vec::with_capacity(records.len());
    for (i, record) in records.iter().enumerate() {
        let bad = |reason: String| TableError::OpLog {
            record: i + 1,
            reason,
        };
        let row_id = |field: &String| {
            field
                .parse::<RowId>()
                .map_err(|_| bad(format!("bad row id `{field}`")))
        };
        let cells = |fields: &[String]| fields.iter().map(|f| Value::from_field(f)).collect();
        let (code, rest) = record.split_first().expect("records are never empty");
        let op = match (code.as_str(), rest) {
            ("+", rest) => RowOp::Insert(cells(rest)),
            ("-", [id]) => RowOp::Delete(row_id(id)?),
            ("-", _) => return Err(bad("`-` wants exactly one row id".into())),
            ("~", [id, rest @ ..]) => RowOp::Update(row_id(id)?, cells(rest)),
            ("~", []) => return Err(bad("`~` wants a row id and cells".into())),
            (code, _) => return Err(bad(format!("unknown op `{code}` (want `+`, `-` or `~`)"))),
        };
        ops.push(Op::from(op));
    }
    Ok(ops)
}

/// A cell's text and whether to quote it even when it needs no quotes:
/// plain, empty, null tokens, multibyte, and text that must be quoted
/// (a comma, a quote, LF, CR).
fn cell() -> impl Strategy<Value = (String, bool)> {
    let text = prop_oneof![
        (0u32..100_000).prop_map(|n| format!("{n:05}")),
        Just(String::new()),
        Just("NULL".to_string()),
        Just("\\N".to_string()),
        Just("Los Angeles".to_string()),
        Just("Søreide, Åsa".to_string()),
        Just("中文".to_string()),
        Just("say \"hi\"".to_string()),
        Just("two\nlines".to_string()),
        Just("bare\rcr".to_string()),
    ];
    (text, any::<bool>())
}

/// A row id as written in a log, leading zeros included.
fn row_id() -> impl Strategy<Value = (String, bool)> {
    (0usize..2_000, 0usize..3, any::<bool>())
        .prop_map(|(id, zeros, quote)| (format!("{}{id}", "0".repeat(zeros)), quote))
}

/// One well-formed record: its op code, then its fields.
fn record() -> impl Strategy<Value = Vec<(String, bool)>> {
    let code = |c: &str| (c.to_string(), false);
    prop_oneof![
        prop::collection::vec(cell(), 0..4).prop_map(move |cells| {
            let mut fields = vec![code("+")];
            fields.extend(cells);
            fields
        }),
        row_id().prop_map(move |id| vec![code("-"), id]),
        (row_id(), prop::collection::vec(cell(), 0..4)).prop_map(move |(id, cells)| {
            let mut fields = vec![code("~"), id];
            fields.extend(cells);
            fields
        }),
    ]
}

/// Render `fields` as one CSV record (no terminator).
fn render(out: &mut String, fields: &[(String, bool)]) {
    for (i, (text, quote)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if *quote || text.contains([',', '"', '\n', '\r']) {
            out.push('"');
            out.push_str(&text.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(text);
        }
    }
}

/// A well-formed log and its record count: records end in LF, CRLF or a
/// bare CR, some are preceded by a blank line, and the last one may have
/// no terminator.
fn log() -> impl Strategy<Value = (String, usize)> {
    (
        prop::collection::vec((record(), 0usize..3, any::<bool>()), 0..16),
        any::<bool>(),
    )
        .prop_map(|(records, trailing)| {
            let mut out = String::new();
            for (fields, ending, blank) in &records {
                let ending = ["\n", "\r\n", "\r"][*ending];
                if *blank {
                    out.push_str(ending);
                }
                render(&mut out, fields);
                out.push_str(ending);
            }
            if !trailing {
                while out.ends_with(['\n', '\r']) {
                    out.pop();
                }
            }
            (out, records.len())
        })
}

/// Text biased towards op-log syntax: op codes, digits, separators,
/// quotes and line ends, mixed with any other character.
fn noise() -> impl Strategy<Value = String> {
    let syntax = prop::char::ranges(
        vec![
            '+'..='+',
            '-'..='-',
            '~'..='~',
            ','..=',',
            '"'..='"',
            '\n'..='\n',
            '\r'..='\r',
            '0'..='9',
        ]
        .into(),
    );
    prop::collection::vec(prop_oneof![syntax, any::<char>()], 0..48)
        .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    /// Well-formed logs: the reader yields exactly the owned path's ops —
    /// same variants, row ids and `ValueId`s — one per record.
    #[test]
    fn reader_matches_the_owned_path((text, records) in log()) {
        let ops = oplog::parse(&text).map_err(|e| e.to_string());
        let owned = owned_parse(&text).map_err(|e| e.to_string());
        prop_assert_eq!(ops.as_ref().map(Vec::len), Ok(records), "log {:?}", text);
        prop_assert_eq!(ops, owned, "log {:?}", text);
    }

    /// Any text: the reader returns `Ok` or `Err`, never panics, and
    /// accepts exactly the logs the owned path accepts, with the same ops.
    #[test]
    fn arbitrary_text_never_panics(text in noise()) {
        let ops = oplog::parse(&text);
        let owned = owned_parse(&text);
        prop_assert_eq!(ops.is_ok(), owned.is_ok(), "text {:?}", text);
        if let (Ok(ops), Ok(owned)) = (ops, owned) {
            prop_assert_eq!(ops, owned, "text {:?}", text);
        }
    }
}

/// The error `oplog::parse` reports for `text`, as the CLI prints it.
fn error(text: &str) -> String {
    oplog::parse(text)
        .expect_err("malformed log must be rejected")
        .to_string()
}

#[test]
fn unknown_op_codes_are_rejected() {
    for (text, want) in [
        (
            "?,1\n",
            "op-log record 1: unknown op `?` (want `+`, `-` or `~`)",
        ),
        (
            ",1\n",
            "op-log record 1: unknown op `` (want `+`, `-` or `~`)",
        ),
        (
            "+,a,b\n\n\"++\",1\n",
            "op-log record 2: unknown op `++` (want `+`, `-` or `~`)",
        ),
    ] {
        assert_eq!(error(text), want, "log {text:?}");
    }
}

#[test]
fn bad_row_ids_are_rejected() {
    for (text, id) in [
        ("-,notanumber\n", "notanumber"),
        ("-,99999999999999999999\n", "99999999999999999999"),
        ("-,-1\n", "-1"),
        ("-, 1\n", " 1"),
        ("~,x,a,b\n", "x"),
        ("~,\n", ""),
    ] {
        assert_eq!(
            error(text),
            format!("op-log record 1: bad row id `{id}`"),
            "log {text:?}"
        );
    }
}

#[test]
fn misshapen_records_are_rejected() {
    for (text, want) in [
        ("-\n", "op-log record 1: `-` wants exactly one row id"),
        ("-,1,2\n", "op-log record 1: `-` wants exactly one row id"),
        ("~\n", "op-log record 1: `~` wants a row id and cells"),
    ] {
        assert_eq!(error(text), want, "log {text:?}");
    }
}

#[test]
fn csv_errors_keep_their_line() {
    for (text, line, reason) in [
        ("+,\"x\n", 2, "unterminated quoted field"),
        ("+,a\"b,c\n", 1, "quote inside unquoted field"),
        ("+,a\n+,\"x\"y,c\n", 2, "unexpected `y` after closing quote"),
    ] {
        match oplog::parse(text) {
            Err(TableError::Csv { line: l, reason: r }) => {
                assert_eq!((l, r.as_str()), (line, reason), "log {text:?}");
            }
            other => panic!("log {text:?}: want a CSV error, got {other:?}"),
        }
    }
}

/// Records are counted, not lines: blank lines are skipped and a quoted
/// newline stays inside its record.
#[test]
fn errors_name_the_record_not_the_line() {
    assert_eq!(
        error("+,\"a\nb\",c\n?\n"),
        "op-log record 2: unknown op `?` (want `+`, `-` or `~`)"
    );
    assert_eq!(
        error("\n\n+,\"a\r\nb\",c\r\n?,z\n"),
        "op-log record 2: unknown op `?` (want `+`, `-` or `~`)"
    );
}

/// The reader stops at the first malformed record in file order, so an
/// op error before a CSV error wins.
#[test]
fn first_error_in_file_order_wins() {
    assert_eq!(
        error("?,1\n+,\"x\n"),
        "op-log record 1: unknown op `?` (want `+`, `-` or `~`)"
    );
    assert_eq!(
        error("+,a\"b\n?,1\n"),
        "CSV error at line 1: quote inside unquoted field"
    );
}

/// Arity is the applying table's check, not the reader's: a bare `+` or
/// `~,row` reads as an op with no cells. Null tokens and empty fields
/// read as `ValueId::NULL`.
#[test]
fn cells_are_read_as_written() {
    let ops = oplog::parse("+\n~,3\n+,NULL,,\\N,x\n~,0,\"\",Åsa\n").unwrap();
    let x = ValuePool::intern("x");
    let asa = ValuePool::intern("Åsa");
    assert_eq!(
        ops,
        vec![
            Op::Insert(vec![]),
            Op::Update(3, vec![]),
            Op::Insert(vec![ValueId::NULL, ValueId::NULL, ValueId::NULL, x]),
            Op::Update(0, vec![ValueId::NULL, asa]),
        ]
    );
}
