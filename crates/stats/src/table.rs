//! Minimal tabular output: console-aligned text and CSV.
//!
//! The reproduction harness (`stt-bench`'s `repro` binary) prints each of
//! the paper's tables and figure series as rows. This module keeps that
//! formatting in one place and testable.

use std::fmt::{self, Write as _};
use std::io;

/// A simple rectangular table: a header plus string rows.
///
/// # Examples
///
/// ```
/// use stt_stats::Table;
///
/// let mut table = Table::new(["beta", "SM0 (mV)", "SM1 (mV)"]);
/// table.push_row(["2.13", "9.31", "9.31"]);
/// let text = table.to_string();
/// assert!(text.contains("beta"));
/// assert!(text.contains("2.13"));
/// assert_eq!(table.to_csv(), "beta,SM0 (mV),SM1 (mV)\n2.13,9.31,9.31\n");
///
/// // Or name each value's column beside it; the first row sets the header.
/// let mut named = Table::default();
/// named.push_named_row([("beta", "2.13"), ("SM0 (mV)", "9.31"), ("SM1 (mV)", "9.31")]);
/// assert_eq!(named, table);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if no columns are given.
    #[must_use]
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "a table needs at least one column");
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Appends a row given as `(column, value)` pairs. On a table with no
    /// columns yet ([`Table::default`]) the row's names become the header;
    /// after that every row must name the header's columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if a column name differs from the header's, if the row's
    /// width differs from the header's, or if the row sets an empty header.
    pub fn push_named_row<I, N, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = (N, S)>,
        N: AsRef<str>,
        S: Into<String>,
    {
        let sets_header = self.header.is_empty();
        let mut values = Vec::with_capacity(self.header.len());
        for (index, (name, value)) in row.into_iter().enumerate() {
            let name = name.as_ref();
            if sets_header {
                self.header.push(name.to_owned());
            } else {
                assert_eq!(
                    self.header.get(index).map(String::as_str),
                    Some(name),
                    "row column {index} must match the header"
                );
            }
            values.push(value.into());
        }
        assert!(!self.header.is_empty(), "a table needs at least one column");
        self.push_row(values);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column headers.
    #[must_use]
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as RFC-4180-style CSV (quoting fields that contain
    /// commas, quotes or newlines).
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn field(out: &mut String, value: &str) {
            if value.contains([',', '"', '\n']) {
                out.push('"');
                out.push_str(&value.replace('"', "\"\""));
                out.push('"');
            } else {
                out.push_str(value);
            }
        }
        let mut out = String::new();
        for (index, column) in self.header.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            field(&mut out, column);
        }
        out.push('\n');
        for row in &self.rows {
            for (index, value) in row.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                field(&mut out, value);
            }
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to a writer.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer. Note that a `&mut W` can be
    /// passed for any `W: Write`.
    pub fn write_csv<W: io::Write>(&self, mut writer: W) -> io::Result<()> {
        writer.write_all(self.to_csv().as_bytes())
    }
}

impl fmt::Display for Table {
    /// Console rendering with aligned columns.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (column, value) in row.iter().enumerate() {
                widths[column] = widths[column].max(value.chars().count());
            }
        }
        let mut line = String::new();
        let render = |line: &mut String, cells: &[String]| {
            line.clear();
            for (column, value) in cells.iter().enumerate() {
                if column > 0 {
                    line.push_str("  ");
                }
                let pad = widths[column] - value.chars().count();
                line.push_str(value);
                for _ in 0..pad {
                    line.push(' ');
                }
            }
        };
        render(&mut line, &self.header);
        writeln!(f, "{}", line.trim_end())?;
        let rule_width = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let mut rule = String::new();
        for _ in 0..rule_width {
            rule.write_char('-')?;
        }
        writeln!(f, "{rule}")?;
        for row in &self.rows {
            render(&mut line, row);
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_console_rendering() {
        let mut table = Table::new(["name", "value"]);
        table.push_row(["beta", "2.13"]);
        table.push_row(["sense margin", "9.3 mV"]);
        let text = table.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "value" column starts at the same offset everywhere.
        let offset = lines[0].find("value").expect("header column");
        assert_eq!(&lines[2][offset..offset + 4], "2.13");
    }

    #[test]
    fn csv_quotes_special_fields() {
        let mut table = Table::new(["a", "b"]);
        table.push_row(["plain", "has,comma"]);
        table.push_row(["has\"quote", "multi\nline"]);
        let csv = table.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
        assert!(csv.contains("\"multi\nline\""));
    }

    #[test]
    fn write_csv_to_a_buffer() {
        let mut table = Table::new(["only"]);
        table.push_row(["row"]);
        let mut buffer = Vec::new();
        table.write_csv(&mut buffer).expect("in-memory write");
        assert_eq!(String::from_utf8(buffer).expect("utf8"), "only\nrow\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut table = Table::new(["a", "b"]);
        table.push_row(["just one"]);
    }

    #[test]
    fn named_rows_set_and_then_match_the_header() {
        let mut table = Table::default();
        table.push_named_row([("a", "1"), ("b", "2")]);
        table.push_named_row([("a", String::from("3")), ("b", String::from("4"))]);
        assert_eq!(table.to_csv(), "a,b\n1,2\n3,4\n");
    }

    #[test]
    #[should_panic(expected = "row column 1 must match the header")]
    fn rejects_a_named_row_with_other_columns() {
        let mut table = Table::default();
        table.push_named_row([("a", "1"), ("b", "2")]);
        table.push_named_row([("a", "3"), ("c", "4")]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_a_named_row_missing_a_column() {
        let mut table = Table::default();
        table.push_named_row([("a", "1"), ("b", "2")]);
        table.push_named_row([("a", "3")]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn rejects_empty_header() {
        let _ = Table::new(Vec::<String>::new());
    }
}
