//! # edp-bench — the paper-reproduction driver, `edp_top` and `pcap_gen`
//!
//! [`exp`] holds one module per table, figure and §5 experiment of the
//! paper (see DESIGN.md §4 for the index) and the one table naming
//! them. Each experiment returns a [`Report`]: its lines, tables (cells
//! that keep their numbers) and notes as data, which the `edp_exp`
//! binary renders and tests read. This library also holds [`top`].
//!
//! ```sh
//! cargo run --release -p edp-bench --bin edp_exp -- all       # docs/experiment_output.txt
//! cargo run --release -p edp-bench --bin edp_exp -- exp_ndp   # one report
//! ```
//!
//! Performance is not measured here: the repo's one benchmark is the
//! standalone package under `benchmark/` (`bash benchmark/run.sh`, with
//! `--smoke`, `--workload W` and `compare A B`; see its README).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

/// A table row: each expression converted with `Cell::from`.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => { [$($crate::Cell::from($cell)),*] };
}

pub mod exp;
pub mod top;

use std::fmt;

/// What one experiment found, in print order. `Display` renders it as
/// `edp_exp` prints it.
#[derive(Debug, Default)]
pub struct Report {
    /// The blocks, in print order.
    pub blocks: Vec<Block>,
}

/// One piece of a [`Report`].
#[derive(Debug)]
pub enum Block {
    /// A line of text.
    Line(String),
    /// An empty line.
    Blank,
    /// A titled table.
    Table(Table),
    /// The footnote stating the reproduction target.
    Note(String),
}

/// A titled table of right-aligned columns.
#[derive(Debug)]
pub struct Table {
    /// The title, shown as `=== title ===`.
    pub title: String,
    /// `(name, width)` of each column: the one place a width is written.
    pub columns: Vec<(&'static str, usize)>,
    /// The rows, one cell per column.
    pub rows: Vec<Vec<Cell>>,
}

/// One table cell: text, or a number with the decimals and the unit it
/// is shown with (`"%"`, `"x"`, `" us"`, `" ms"`, `"ms"` or `""`).
#[derive(Debug)]
pub enum Cell {
    /// Text, shown as is.
    Text(String),
    /// A number, its decimals and its unit.
    Num(f64, usize, &'static str),
}

impl Report {
    /// Appends a line of text.
    pub fn line(&mut self, text: impl Into<String>) {
        self.blocks.push(Block::Line(text.into()));
    }

    /// Appends an empty line.
    pub fn blank(&mut self) {
        self.blocks.push(Block::Blank);
    }

    /// Appends a table with no rows yet and returns it, for its rows.
    pub fn table(&mut self, title: &str, columns: &[(&'static str, usize)]) -> &mut Table {
        self.blocks.push(Block::Table(Table {
            title: title.into(),
            columns: columns.to_vec(),
            rows: Vec::new(),
        }));
        match self.blocks.last_mut() {
            Some(Block::Table(table)) => table,
            _ => unreachable!("a table was just pushed"),
        }
    }

    /// Ends the report with its footnote.
    pub fn note(mut self, text: &str) -> Report {
        self.blocks.push(Block::Note(text.into()));
        self
    }
}

impl Table {
    /// Appends a row of one cell per column.
    pub fn row<const N: usize>(&mut self, cells: [Cell; N]) {
        assert_eq!(N, self.columns.len(), "{}: one cell per column", self.title);
        self.rows.push(cells.into());
    }
}

/// A number cell with 2 decimals.
pub fn f2(x: f64) -> Cell {
    Cell::Num(x, 2, "")
}

/// A rate in bit/s, as a cell in Mb/s with one decimal.
pub fn mbps(x: f64) -> Cell {
    Cell::Num(x / 1e6, 1, "")
}

impl From<&str> for Cell {
    fn from(text: &str) -> Cell {
        Cell::Text(text.into())
    }
}

impl From<String> for Cell {
    fn from(text: String) -> Cell {
        Cell::Text(text)
    }
}

macro_rules! integer_cells {
    ($($t:ty)*) => {$(
        impl From<$t> for Cell {
            fn from(n: $t) -> Cell {
                Cell::Num(n as f64, 0, "")
            }
        }
    )*};
}
integer_cells!(u16 u32 u64 usize);

impl fmt::Display for Cell {
    /// Pads to the formatter's width, so `{cell:>8}` right-aligns it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(text) => f.pad(text),
            Cell::Num(x, decimals, unit) => f.pad(&format!("{x:.decimals$}{unit}")),
        }
    }
}

/// A cell equals the text it shows.
impl PartialEq<&str> for Cell {
    fn eq(&self, shown: &&str) -> bool {
        self.to_string().as_str() == *shown
    }
}

impl fmt::Display for Report {
    /// A table is its title, a rule, the header (each name followed by a
    /// space), a rule, then its rows, cells separated by one space.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for block in &self.blocks {
            match block {
                Block::Line(text) => writeln!(f, "{text}")?,
                Block::Blank => writeln!(f)?,
                Block::Note(text) => writeln!(f, "\n  note: {text}")?,
                Block::Table(Table {
                    title,
                    columns,
                    rows,
                }) => {
                    let rule = "-".repeat(columns.iter().map(|(_, w)| w + 1).sum());
                    writeln!(f, "\n=== {title} ===\n{rule}")?;
                    for (name, w) in columns {
                        write!(f, "{name:>w$} ")?;
                    }
                    writeln!(f, "\n{rule}")?;
                    for row in rows {
                        let cells = row
                            .iter()
                            .zip(columns)
                            .map(|(c, (_, w))| format!("{c:>w$}"));
                        writeln!(f, "{}", cells.collect::<Vec<_>>().join(" "))?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(mbps(12_340_000.0), "12.3");
    }
}
