//! The two tables of a match, tokenized once.
//!
//! DUMAS reads the same text twice: sniffing weighs a tuple as one document,
//! the field comparison weighs every cell as one. A tuple's document is its
//! non-`NULL` cells joined by spaces, so its tokens are its cells' tokens in
//! column order — one pass over the cells serves both.

use hummer_engine::{Table, Value};
use hummer_textsim::interned::{Interner, Vocabulary};
use std::fmt::Write as _;

/// Which table of the pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Left,
    Right,
}

/// Where one table's cells sit in [`TokenizedPair`]'s cell numbering.
#[derive(Debug, Clone, Copy)]
struct Shape {
    rows: usize,
    cols: usize,
    first_cell: usize,
}

/// Every cell of both tables as token ids ([`Interner`] ids: id order is
/// token order).
#[derive(Debug)]
pub(crate) struct TokenizedPair {
    pub vocabulary: Vocabulary,
    /// The tokens of all cells back to back: left table first, row-major.
    ids: Vec<u32>,
    /// Cell `c` occupies `ids[cell_starts[c]..cell_starts[c + 1]]`.
    cell_starts: Vec<usize>,
    /// `NULL` cells (no tokens, like an empty text, but not a document of
    /// the field corpus).
    null: Vec<bool>,
    left: Shape,
    right: Shape,
}

impl TokenizedPair {
    pub fn new(left: &Table, right: &Table) -> Self {
        let mut interner = Interner::new();
        let mut ids = Vec::new();
        let mut cell_starts = vec![0];
        let mut null = Vec::new();
        let mut rendered = String::new();
        let mut tokenize = |table: &Table| {
            let shape = Shape {
                rows: table.len(),
                cols: table.schema().len(),
                first_cell: null.len(),
            };
            for value in table.rows().iter().flat_map(|row| row.values()) {
                match value {
                    Value::Null => {}
                    Value::Text(text) => interner.tokenize_into(text, &mut ids),
                    other => {
                        rendered.clear();
                        write!(rendered, "{other}").expect("writing to a String cannot fail");
                        interner.tokenize_into(&rendered, &mut ids);
                    }
                }
                null.push(value.is_null());
                cell_starts.push(ids.len());
            }
            shape
        };
        let (left, right) = (tokenize(left), tokenize(right));
        let vocabulary = interner.finish(&mut ids);
        TokenizedPair {
            vocabulary,
            ids,
            cell_starts,
            null,
            left,
            right,
        }
    }

    fn shape(&self, side: Side) -> Shape {
        match side {
            Side::Left => self.left,
            Side::Right => self.right,
        }
    }

    fn cells(&self, first: usize, end: usize) -> &[u32] {
        &self.ids[self.cell_starts[first]..self.cell_starts[end]]
    }

    pub fn rows(&self, side: Side) -> usize {
        self.shape(side).rows
    }

    pub fn cols(&self, side: Side) -> usize {
        self.shape(side).cols
    }

    /// The tokens of one tuple rendered as one document.
    pub fn row(&self, side: Side, row: usize) -> &[u32] {
        let Shape {
            cols, first_cell, ..
        } = self.shape(side);
        let first = first_cell + row * cols;
        self.cells(first, first + cols)
    }

    /// The tokens of one cell (none for `NULL`).
    pub fn cell(&self, side: Side, row: usize, col: usize) -> &[u32] {
        let Shape {
            cols, first_cell, ..
        } = self.shape(side);
        let cell = first_cell + row * cols + col;
        self.cells(cell, cell + 1)
    }

    /// The tokens of every non-`NULL` cell of both tables.
    pub fn non_null_cells(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.null.len())
            .filter(|&cell| !self.null[cell])
            .map(|cell| self.cells(cell, cell + 1))
    }
}
