//! One interning pass per column: every row's rendering, the distinct
//! renderings and the rows holding each, counted once and read by
//! everything detection derives from a column's text — attribute selection
//! ([`crate::heuristics`]), the measure's columns ([`crate::measure`]) and
//! the sorted-neighbourhood key ([`crate::blocking`]).

use hummer_engine::{Table, Value};
use hummer_textsim::interned::Strings;
use std::cell::OnceCell;
use std::fmt::Write as _;

/// The rendering id of a `NULL` cell in [`ColumnRenderings::of_row`].
pub(crate) const NULL: u32 = u32::MAX;

/// The rendering of non-null `v` — `Value`'s `Display` form: text as it
/// sits in the table, any other value written into `buf`.
pub(crate) fn render<'a>(v: &'a Value, buf: &'a mut String) -> &'a str {
    debug_assert!(!v.is_null());
    match v {
        Value::Text(s) => s,
        other => {
            buf.clear();
            write!(buf, "{other}").expect("writing to a String cannot fail");
            buf
        }
    }
}

/// Append `s.to_lowercase()` to `out`, without a `String` of its own.
pub(crate) fn push_lowercase(s: &str, out: &mut String) {
    if s.is_ascii() {
        let start = out.len();
        out.push_str(s);
        out[start..].make_ascii_lowercase();
    } else if s.contains('Σ') {
        // The one mapping that depends on its neighbours (a final sigma).
        out.push_str(&s.to_lowercase());
    } else {
        out.extend(s.chars().flat_map(char::to_lowercase));
    }
}

/// One column's cells interned by rendering.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnRenderings {
    /// The distinct renderings of the non-null cells, numbered in the
    /// order rows first hold them.
    pub(crate) strings: Strings,
    /// Per row: its rendering, or [`NULL`].
    pub(crate) of_row: Vec<u32>,
    /// Per rendering: the rows holding it.
    pub(crate) rows: Vec<usize>,
    /// Rows with a non-null cell.
    pub(crate) non_null: usize,
}

impl ColumnRenderings {
    /// Intern every cell of column `column` of `table`: one hash per cell,
    /// no allocation per cell.
    fn of(table: &Table, column: usize) -> Self {
        let mut pass = ColumnRenderings {
            of_row: Vec::with_capacity(table.len()),
            ..Default::default()
        };
        let mut buf = String::new();
        for v in table.column_values(column) {
            if v.is_null() {
                pass.of_row.push(NULL);
                continue;
            }
            let (r, new) = pass.strings.intern(render(v, &mut buf));
            if new {
                pass.rows.push(0);
            }
            pass.rows[r as usize] += 1;
            pass.non_null += 1;
            pass.of_row.push(r);
        }
        pass
    }

    /// Number of distinct renderings.
    pub(crate) fn len(&self) -> usize {
        self.strings.len()
    }
}

/// A table's columns, each interned by [`ColumnRenderings`] the first time
/// it is read, so a column is rendered and hashed once however many of
/// selection, measure and blocking key read it.
pub(crate) struct Renderings<'t> {
    table: &'t Table,
    columns: Vec<OnceCell<ColumnRenderings>>,
}

impl<'t> Renderings<'t> {
    /// No column interned yet.
    pub(crate) fn new(table: &'t Table) -> Self {
        Renderings {
            table,
            columns: (0..table.schema().len()).map(|_| OnceCell::new()).collect(),
        }
    }

    /// The table the columns are read from.
    pub(crate) fn table(&self) -> &'t Table {
        self.table
    }

    /// Column `column`, interned on first use.
    pub(crate) fn column(&self, column: usize) -> &ColumnRenderings {
        self.columns[column].get_or_init(|| ColumnRenderings::of(self.table, column))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_lowercase_equals_to_lowercase() {
        let texts = [
            "",
            "ABC def",
            "ΑΣ",
            "ΌΣΟΣ ΣΑΣ Σ",
            "İstanbul",
            "Straße ẞ",
            "a\u{301}Σ\u{301}",
            "😀 ǅ ǈ",
            "\u{1}\u{1f}X",
        ];
        for text in texts {
            let mut out = String::from("keep:");
            push_lowercase(text, &mut out);
            assert_eq!(out, format!("keep:{}", text.to_lowercase()), "{text:?}");
        }
    }
}
