//! The op-log format `anmat stream --ops` reads: one [`Op`] per CSV
//! record (RFC-4180 quoting, so cells may hold commas, quotes and
//! newlines; there is no comment syntax).
//!
//! ```text
//! +,cell,…        insert a row
//! -,rowid         delete the row in that slot
//! ~,rowid,cell,…  update the row in place (slot id preserved)
//! ```
//!
//! [`parse`] walks borrowed [`RawRecords`] and interns each record's
//! cells straight from the input buffer, one [`ValuePool`] batch per
//! record, with [`is_null_field`] naming the null cells — the ids
//! `Value::from_field` would give — so no `String` or `Value` is built
//! per cell.
//!
//! [`is_null_field`]: crate::value::is_null_field
//! [`ValuePool`]: crate::pool::ValuePool

use crate::csv::{intern_fields, RawRecords};
use crate::error::TableError;
use crate::table::{Op, RowId};

/// Parse a whole op-log into [`Op`]s, in file order.
///
/// Only the log's own syntax is checked here. Arity and row liveness
/// depend on the table the ops are applied to, so its
/// [`Table::apply`](crate::Table::apply) (or the stream engine's batch
/// validation) checks them.
///
/// # Errors
/// The first malformed record in file order: a CSV syntax error
/// ([`TableError::Csv`], with its 1-based line), or an unknown op code,
/// a row id that is not a non-negative integer, or a record of the
/// wrong shape for its op ([`TableError::OpLog`], with its 1-based
/// record number; blank lines are not records).
pub fn parse(text: &str) -> Result<Vec<Op>, TableError> {
    let mut records = RawRecords::new(text);
    let mut ops = Vec::new();
    let mut record = 0;
    while let Some(rec) = records.next_record()? {
        record += 1;
        let bad = |reason: String| TableError::OpLog { record, reason };
        let row_id = |field: &str| {
            field
                .parse::<RowId>()
                .map_err(|_| bad(format!("bad row id `{field}`")))
        };
        let cells = |skip: usize| intern_fields(rec.iter().skip(skip));
        ops.push(match (rec.field(0), rec.len()) {
            ("+", _) => Op::Insert(cells(1)),
            ("-", 2) => Op::Delete(row_id(rec.field(1))?),
            ("-", _) => return Err(bad("`-` wants exactly one row id".into())),
            ("~", 1) => return Err(bad("`~` wants a row id and cells".into())),
            ("~", _) => Op::Update(row_id(rec.field(1))?, cells(2)),
            (code, _) => return Err(bad(format!("unknown op `{code}` (want `+`, `-` or `~`)"))),
        });
    }
    Ok(ops)
}
