//! One interning pass per column: every row's rendering, the distinct
//! renderings and the rows holding each, counted once and read by
//! everything detection derives from a column's text — attribute selection
//! ([`crate::heuristics`]), the measure's columns ([`crate::measure`]) and
//! the sorted-neighbourhood key ([`crate::blocking`]).
//!
//! A [`crate::DetectionIndex`] keeps the passes it read ([`Passes`]) and
//! moves each across a delta once: a touched cell is rendered and interned
//! there and nowhere else, and the readers move their own counts from the
//! [`PassDelta`] it reports.

use crate::incremental::RowChanges;
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
#[derive(Debug, Default)]
pub(crate) struct ColumnRenderings {
    /// The distinct renderings of the non-null cells, numbered in the
    /// order rows first hold them. A delta numbers the renderings it
    /// brings and removes none, so equal ids mean equal renderings.
    pub(crate) strings: Strings,
    /// Per row: its rendering, or [`NULL`].
    pub(crate) of_row: Vec<u32>,
    /// Per rendering: the rows holding it (a rendering at zero stays
    /// numbered).
    pub(crate) rows: Vec<usize>,
    /// Renderings held by at least one row.
    pub(crate) distinct: usize,
    /// Rows with a non-null cell.
    pub(crate) non_null: usize,
}

/// What one delta did to one column's pass, at the level of renderings:
/// everything the readers of a kept pass need to move their own counts
/// without rendering a cell again.
#[derive(Debug)]
pub(crate) struct PassDelta {
    /// `(old row, new row)` of each surviving row whose cell in the column
    /// changed bit-wise.
    pub(crate) updated: Vec<(usize, usize)>,
    /// Each cell that left — deleted rows', then the old side of
    /// `updated` — as `(old row, rendering)`, [`NULL`] for a null cell.
    pub(crate) left: Vec<(usize, u32)>,
    /// Each cell that arrived — the new side of `updated`, then inserted
    /// rows' — as `(new row, rendering)`.
    pub(crate) arrived: Vec<(usize, u32)>,
    /// Renderings numbered before the delta: ids from here on are new.
    pub(crate) first_new: usize,
    /// Non-null rows before the delta (the pass holds the count after).
    pub(crate) non_null_before: usize,
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
            let r = pass.add(v, &mut buf);
            pass.of_row.push(r);
        }
        pass
    }

    /// Count a row holding `v` under its rendering, numbered if new;
    /// returns the rendering, or [`NULL`].
    fn add(&mut self, v: &Value, buf: &mut String) -> u32 {
        if v.is_null() {
            return NULL;
        }
        let (r, new) = self.strings.intern(render(v, buf));
        if new {
            self.rows.push(0);
        }
        let rows = &mut self.rows[r as usize];
        self.distinct += usize::from(*rows == 0);
        *rows += 1;
        self.non_null += 1;
        r
    }

    /// Take a row holding rendering `r` (or [`NULL`]) out of the counts.
    fn remove(&mut self, r: u32) {
        if r == NULL {
            return;
        }
        let rows = &mut self.rows[r as usize];
        *rows -= 1;
        self.distinct -= usize::from(*rows == 0);
        self.non_null -= 1;
    }

    /// Move the pass of column `column` from `old` to `new` across
    /// `changes`: every cell that left is taken out under the rendering it
    /// held, the rows move to the new row space, and every cell that
    /// arrived is rendered and interned — once, for every reader.
    fn apply_delta(
        &mut self,
        column: usize,
        old: &Table,
        new: &Table,
        changes: &RowChanges<'_>,
    ) -> PassDelta {
        let first_new = self.len();
        let non_null_before = self.non_null;
        let updated: Vec<(usize, usize)> = changes
            .updated
            .iter()
            .copied()
            .filter(|&(o, n)| !old.cell(o, column).identical(new.cell(n, column)))
            .collect();
        let leaving = changes.deleted.iter().copied();
        let left: Vec<(usize, u32)> = leaving
            .chain(updated.iter().map(|&(o, _)| o))
            .map(|o| (o, self.of_row[o]))
            .collect();
        for &(_, r) in &left {
            self.remove(r);
        }
        changes.remap(&mut self.of_row);
        let mut buf = String::new();
        let arriving = updated.iter().map(|&(_, n)| n);
        let arrived = arriving
            .chain(changes.inserted.iter().copied())
            .map(|n| {
                let r = self.add(new.cell(n, column), &mut buf);
                self.of_row[n] = r;
                (n, r)
            })
            .collect();
        PassDelta {
            updated,
            left,
            arrived,
            first_new,
            non_null_before,
        }
    }

    /// Number of numbered renderings, those at zero rows included.
    pub(crate) fn len(&self) -> usize {
        self.strings.len()
    }

    /// Row `row`'s rendering, `None` for a null cell.
    pub(crate) fn rendering(&self, row: usize) -> Option<&str> {
        match self.of_row[row] {
            NULL => None,
            r => Some(self.strings.get(r)),
        }
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

    /// The passes of every column read so far and of `also`, moved out to
    /// be kept.
    pub(crate) fn keep(self, also: &[usize]) -> Passes {
        for &column in also {
            self.column(column);
        }
        Passes(self.columns.into_iter().map(OnceCell::into_inner).collect())
    }
}

/// The interning passes a [`crate::DetectionIndex`] keeps — one per column
/// that selection, the measure or the blocking key reads, none for the
/// others — each moved across every delta.
#[derive(Debug)]
pub(crate) struct Passes(Vec<Option<ColumnRenderings>>);

impl Passes {
    /// Column `column`'s pass; the column must be kept.
    pub(crate) fn column(&self, column: usize) -> &ColumnRenderings {
        self.0[column].as_ref().expect("a kept column")
    }

    /// The kept columns with their passes.
    pub(crate) fn kept(&self) -> impl Iterator<Item = (usize, &ColumnRenderings)> {
        (self.0.iter().enumerate()).filter_map(|(c, pass)| Some((c, pass.as_ref()?)))
    }

    /// Move every kept pass from `old` to `new` across `changes`; per
    /// column, what the delta did to its pass.
    pub(crate) fn apply_delta(
        &mut self,
        old: &Table,
        new: &Table,
        changes: &RowChanges<'_>,
    ) -> Vec<Option<PassDelta>> {
        (self.0.iter_mut().enumerate())
            .map(|(c, pass)| Some(pass.as_mut()?.apply_delta(c, old, new, changes)))
            .collect()
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
