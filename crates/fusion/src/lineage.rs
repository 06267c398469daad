//! Per-cell lineage of a fused table.
//!
//! The demo color-codes each value of the result "to represent their
//! individual lineage (one color per source relation, mixed colors for
//! merged values)" (paper §3). This module records, for every output cell,
//! which input tuples and which sources contributed, and whether a real
//! conflict was resolved to produce it.
//!
//! ## Storage
//!
//! A fused table has tens of thousands of cells and almost every one cites
//! one row of one source, so the lineage is stored flat: one arena of
//! contributing row indices with an end offset per cell, a fixed-width bit
//! set of source ids per cell (ids index the lineage's source list, a
//! handful of aliases), and one conflict flag per cell. Nothing is skipped —
//! [`Lineage::cell`] materialises any cell as an owned [`CellLineage`], the
//! form other crates exchange and compare.

/// Lineage of a single output cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellLineage {
    /// Input-table row indices that contributed the value.
    pub row_indices: Vec<usize>,
    /// Distinct source aliases of those rows (sorted).
    pub sources: Vec<String>,
    /// True when more than one distinct non-null value was present — i.e.
    /// a data conflict was resolved here.
    pub had_conflict: bool,
}

impl CellLineage {
    /// The cell's "color": a single source alias when one source supplied
    /// the value, a `+`-joined combination for merged values, `∅` for
    /// sourceless cells (all-null clusters or synthesized values with no
    /// provenance).
    pub fn color(&self) -> String {
        match self.sources.len() {
            0 => "∅".to_string(),
            1 => self.sources[0].clone(),
            _ => self.sources.join("+"),
        }
    }

    /// True when the value came from exactly one source.
    pub fn is_pure(&self) -> bool {
        self.sources.len() == 1
    }
}

/// Source id of a row without a `sourceID` (no bit is set for it).
pub(crate) const NO_SOURCE: u32 = u32::MAX;

/// `u64` words needed for one bit per source.
fn words_for(sources: usize) -> usize {
    sources.div_ceil(64).max(1)
}

/// The flat cell store: cell `i` cites `rows[row_ends[i-1]..row_ends[i]]`,
/// its sources are the bits of `source_bits[i*words..(i+1)*words]`.
#[derive(Debug, Clone)]
pub(crate) struct Cells {
    words: usize,
    row_ends: Vec<u32>,
    rows: Vec<u32>,
    source_bits: Vec<u64>,
    conflicts: Vec<bool>,
}

/// A row index as the arena stores it.
fn arena_row(row: usize) -> u32 {
    u32::try_from(row).expect("fusion inputs stay below 2^32 rows")
}

impl Cells {
    /// Room for `cells` cells over `sources` distinct sources.
    pub(crate) fn with_capacity(sources: usize, cells: usize) -> Cells {
        let words = words_for(sources);
        Cells {
            words,
            row_ends: Vec::with_capacity(cells),
            rows: Vec::with_capacity(cells),
            source_bits: Vec::with_capacity(cells * words),
            conflicts: Vec::with_capacity(cells),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.row_ends.len()
    }

    /// Append one cell citing input rows `rows` and source ids `sources`
    /// ([`NO_SOURCE`] entries and repeats are fine).
    pub(crate) fn push(
        &mut self,
        had_conflict: bool,
        rows: impl Iterator<Item = u32>,
        sources: impl Iterator<Item = u32>,
    ) {
        self.rows.extend(rows);
        self.row_ends.push(arena_row(self.rows.len()));
        let bits = self.source_bits.len();
        self.source_bits.resize(bits + self.words, 0);
        for source in sources.filter(|&id| id != NO_SOURCE) {
            self.source_bits[bits + (source / 64) as usize] |= 1 << (source % 64);
        }
        self.conflicts.push(had_conflict);
    }

    /// Append every cell of `other` (same source list).
    pub(crate) fn append(&mut self, other: Cells) {
        assert_eq!(self.words, other.words, "cell stores over one source list");
        if self.row_ends.is_empty() {
            *self = other;
            return;
        }
        let shift = arena_row(self.rows.len());
        self.row_ends
            .extend(other.row_ends.iter().map(|end| end + shift));
        self.rows.extend(other.rows);
        self.source_bits.extend(other.source_bits);
        self.conflicts.extend(other.conflicts);
    }

    fn rows_of(&self, cell: usize) -> &[u32] {
        let start = cell.checked_sub(1).map_or(0, |prev| self.row_ends[prev]);
        &self.rows[start as usize..self.row_ends[cell] as usize]
    }

    /// Ids of the sources cell `cell` cites, ascending.
    fn sources_of(&self, cell: usize) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.source_bits[cell * self.words..(cell + 1) * self.words])
    }

    pub(crate) fn had_conflict(&self, cell: usize) -> bool {
        self.conflicts[cell]
    }

    /// Re-stride the bit sets for a longer source list.
    #[cfg(test)]
    fn widen(&mut self, words: usize) {
        let mut wider = vec![0u64; self.len() * words];
        for (cell, bits) in self.source_bits.chunks_exact(self.words).enumerate() {
            wider[cell * words..cell * words + self.words].copy_from_slice(bits);
        }
        self.source_bits = wider;
        self.words = words;
    }
}

/// Positions of the set bits of a little-endian word sequence, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        // Each step clears the lowest set bit of a non-zero word.
        let non_zero = |rest: u64| (rest != 0).then_some(rest);
        std::iter::successors(non_zero(word), move |rest| non_zero(rest & (rest - 1)))
            .map(move |rest| w as u32 * 64 + rest.trailing_zeros())
    })
}

/// Lineage for a whole fused table (row-major, parallel to the table).
#[derive(Debug, Clone)]
pub struct Lineage {
    columns: Vec<String>,
    /// Source aliases; a cell's source bits index this list.
    sources: Vec<String>,
    rows: usize,
    cells: Cells,
}

impl Lineage {
    /// Empty lineage storage for the given output columns, filled by
    /// [`Lineage::push_row`] (the tests build lineage row by row).
    #[cfg(test)]
    pub(crate) fn new(columns: Vec<String>) -> Self {
        Lineage::from_cells(columns, Vec::new(), Cells::with_capacity(0, 0), 0)
    }

    /// Lineage over an already filled cell store: `cells` holds `rows` rows
    /// of `columns.len()` cells whose source ids index `sources`.
    pub(crate) fn from_cells(
        columns: Vec<String>,
        sources: Vec<String>,
        cells: Cells,
        rows: usize,
    ) -> Self {
        assert_eq!(cells.words, words_for(sources.len()), "source list width");
        assert_eq!(cells.len(), rows * columns.len(), "lineage arity mismatch");
        Lineage {
            columns,
            sources,
            rows,
            cells,
        }
    }

    /// Append one output row's lineage (must match the column count).
    #[cfg(test)]
    pub(crate) fn push_row(&mut self, row: Vec<CellLineage>) {
        assert_eq!(row.len(), self.columns.len(), "lineage arity mismatch");
        for cell in &row {
            // Listing a new source may widen the store: before the push.
            let ids: Vec<u32> = cell.sources.iter().map(|s| self.source_id(s)).collect();
            let rows = cell.row_indices.iter().map(|&r| arena_row(r));
            self.cells.push(cell.had_conflict, rows, ids.into_iter());
        }
        self.rows += 1;
    }

    /// The id of source `alias`, listing it (and widening every cell's bit
    /// set when the list outgrows it) on first sight.
    #[cfg(test)]
    fn source_id(&mut self, alias: &str) -> u32 {
        if let Some(id) = self.sources.iter().position(|s| s == alias) {
            return id as u32;
        }
        self.sources.push(alias.to_string());
        if words_for(self.sources.len()) > self.cells.words {
            self.cells.widen(words_for(self.sources.len()));
        }
        (self.sources.len() - 1) as u32
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows are recorded.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Lineage of cell (`row`, `col`).
    pub fn cell(&self, row: usize, col: usize) -> CellLineage {
        assert!(row < self.rows && col < self.columns.len(), "no such cell");
        let cell = row * self.columns.len() + col;
        let rows = self.cells.rows_of(cell);
        CellLineage {
            row_indices: rows.iter().map(|&r| r as usize).collect(),
            sources: self.aliases(self.cells.sources_of(cell)),
            had_conflict: self.cells.had_conflict(cell),
        }
    }

    /// The aliases behind source ids, sorted.
    fn aliases(&self, ids: impl Iterator<Item = u32>) -> Vec<String> {
        let mut names: Vec<String> = ids.map(|id| self.sources[id as usize].clone()).collect();
        names.sort();
        names
    }

    /// Total number of resolved conflicts across the table.
    pub fn conflict_count(&self) -> usize {
        self.cells.conflicts.iter().filter(|&&c| c).count()
    }

    /// Number of resolved conflicts in one column (by index).
    pub fn conflicts_in_column(&self, col: usize) -> usize {
        assert!(col < self.columns.len(), "no such column");
        let column = self.cells.conflicts.iter().skip(col);
        column.step_by(self.columns.len()).filter(|&&c| c).count()
    }

    /// All distinct sources appearing anywhere in the lineage (sorted).
    pub fn all_sources(&self) -> Vec<String> {
        let mut seen = vec![0u64; self.cells.words];
        for bits in self.cells.source_bits.chunks_exact(self.cells.words) {
            for (acc, word) in seen.iter_mut().zip(bits) {
                *acc |= word;
            }
        }
        self.aliases(set_bits(&seen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(sources: &[&str], conflict: bool) -> CellLineage {
        CellLineage {
            row_indices: (0..sources.len()).collect(),
            sources: sources.iter().map(|s| s.to_string()).collect(),
            had_conflict: conflict,
        }
    }

    #[test]
    fn color_coding() {
        assert_eq!(cell(&[], false).color(), "∅");
        assert_eq!(cell(&["A"], false).color(), "A");
        assert_eq!(cell(&["A", "B"], true).color(), "A+B");
        assert!(cell(&["A"], false).is_pure());
        assert!(!cell(&["A", "B"], false).is_pure());
    }

    #[test]
    fn conflict_counting() {
        let mut l = Lineage::new(vec!["x".into(), "y".into()]);
        l.push_row(vec![cell(&["A"], false), cell(&["A", "B"], true)]);
        l.push_row(vec![cell(&["B"], true), cell(&["B"], false)]);
        assert_eq!(l.conflict_count(), 2);
        assert_eq!(l.conflicts_in_column(0), 1);
        assert_eq!(l.conflicts_in_column(1), 1);
        assert_eq!(l.all_sources(), vec!["A".to_string(), "B".to_string()]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    #[should_panic(expected = "lineage arity mismatch")]
    fn arity_checked() {
        let mut l = Lineage::new(vec!["x".into()]);
        l.push_row(vec![]);
    }

    #[test]
    fn pushed_rows_read_back_equal() {
        // Rows and sources of different lengths, sources out of order of
        // first sight, a sourceless cell.
        let rows = vec![
            vec![
                CellLineage {
                    row_indices: vec![4, 9, 2],
                    sources: vec!["B".into()],
                    had_conflict: true,
                },
                cell(&[], false),
            ],
            vec![
                cell(&["A", "B"], false),
                CellLineage {
                    row_indices: vec![],
                    sources: vec!["A".into(), "C".into()],
                    had_conflict: false,
                },
            ],
        ];
        let mut l = Lineage::new(vec!["x".into(), "y".into()]);
        for row in &rows {
            l.push_row(row.clone());
        }
        for (r, row) in rows.iter().enumerate() {
            for (c, expected) in row.iter().enumerate() {
                assert_eq!(&l.cell(r, c), expected, "cell ({r}, {c})");
            }
        }
        assert_eq!(l.all_sources(), vec!["A", "B", "C"]);
    }

    #[test]
    fn bit_sets_widen_past_64_sources() {
        let mut l = Lineage::new(vec!["x".into()]);
        let names: Vec<String> = (0..130).map(|i| format!("s{i:03}")).collect();
        for (i, name) in names.iter().enumerate() {
            l.push_row(vec![CellLineage {
                row_indices: vec![i],
                sources: vec![names[0].clone(), name.clone()],
                had_conflict: false,
            }]);
        }
        for (i, name) in names.iter().enumerate().skip(1) {
            assert_eq!(l.cell(i, 0).sources, vec![names[0].clone(), name.clone()]);
        }
        assert_eq!(l.cell(0, 0).sources, vec![names[0].clone()]);
        assert_eq!(l.all_sources(), names);
    }
}
