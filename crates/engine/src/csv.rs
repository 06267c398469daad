//! CSV reading and writing (RFC-4180-style quoting).
//!
//! The metadata repository registers flat files as sources; this module is
//! the engine's ingestion path for them. Types are inferred per cell with
//! [`Value::infer`] and then unified per column.

use crate::error::EngineError;
use crate::row::Row;
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use std::path::Path;

/// Parse one CSV record from `input` starting at `pos`, honoring quoted
/// fields (doubled quotes escape). Returns the fields and the next offset,
/// or `None` at end of input.
fn parse_record(input: &str, pos: usize) -> Option<(Vec<String>, usize)> {
    if pos >= input.len() {
        return None;
    }
    let bytes = input.as_bytes();
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut i = pos;
    let mut in_quotes = false;
    loop {
        if i >= bytes.len() {
            fields.push(std::mem::take(&mut field));
            return Some((fields, i));
        }
        let c = bytes[i];
        if in_quotes {
            match c {
                b'"' => {
                    if bytes.get(i + 1) == Some(&b'"') {
                        field.push('"');
                        i += 2;
                    } else {
                        in_quotes = false;
                        i += 1;
                    }
                }
                _ => {
                    // Multi-byte UTF-8 safe: copy the whole char.
                    let ch_len = utf8_len(c);
                    field.push_str(&input[i..i + ch_len]);
                    i += ch_len;
                }
            }
        } else {
            match c {
                b'"' if field.is_empty() => {
                    in_quotes = true;
                    i += 1;
                }
                b',' => {
                    fields.push(std::mem::take(&mut field));
                    i += 1;
                }
                b'\r' => {
                    if bytes.get(i + 1) == Some(&b'\n') {
                        i += 1;
                    }
                    fields.push(std::mem::take(&mut field));
                    return Some((fields, i + 1));
                }
                b'\n' => {
                    fields.push(std::mem::take(&mut field));
                    return Some((fields, i + 1));
                }
                _ => {
                    let ch_len = utf8_len(c);
                    field.push_str(&input[i..i + ch_len]);
                    i += ch_len;
                }
            }
        }
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >> 5 == 0b110 => 2,
        b if b >> 4 == 0b1110 => 3,
        _ => 4,
    }
}

/// Parse CSV text (first record = header) into a table named `name`.
pub fn read_csv_str(name: &str, content: &str) -> Result<Table> {
    let (header, mut pos) =
        parse_record(content, 0).ok_or_else(|| EngineError::Parse("empty CSV input".into()))?;
    let mut table = Table::from_rows(name, &header, Vec::new())?;
    let ncols = header.len();
    let mut line = 1usize;
    while let Some((fields, next)) = parse_record(content, pos) {
        pos = next;
        line += 1;
        // Skip completely blank trailing lines.
        if fields.len() == 1 && fields[0].is_empty() {
            continue;
        }
        if fields.len() != ncols {
            return Err(EngineError::Parse(format!(
                "CSV record {line} has {} fields, header has {ncols}",
                fields.len()
            )));
        }
        let row: Row = fields.iter().map(|f| Value::infer(f)).collect();
        table.push(row)?;
    }
    table.infer_types();
    Ok(table)
}

/// Read a CSV file into a table named `name`.
pub fn read_csv_file(name: &str, path: impl AsRef<Path>) -> Result<Table> {
    read_csv_str(name, &std::fs::read_to_string(path)?)
}

/// Quote a field if it contains separators, quotes, or newlines.
fn quote_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serialize a table as CSV text (header + rows; `NULL` as empty field).
pub fn write_csv_str(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<String> = table
        .schema()
        .names()
        .iter()
        .map(|n| quote_field(n))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in table.rows() {
        let fields: Vec<String> = row
            .values()
            .iter()
            .map(|v| quote_field(&v.to_string()))
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    #[test]
    fn basic_round_trip() {
        let csv = "name,age\nAlice,22\nBob,24\n";
        let t = read_csv_str("T", csv).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.schema().names(), vec!["name", "age"]);
        assert_eq!(t.cell(0, 1), &Value::Int(22));
        assert_eq!(write_csv_str(&t), csv);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let csv = "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n";
        let t = read_csv_str("T", csv).unwrap();
        assert_eq!(t.cell(0, 0), &Value::text("x,y"));
        assert_eq!(t.cell(0, 1), &Value::text("say \"hi\""));
        // Round-trips
        let again = read_csv_str("T", &write_csv_str(&t)).unwrap();
        assert_eq!(again.rows(), t.rows());
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let csv = "a\n\"line1\nline2\"\n";
        let t = read_csv_str("T", csv).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.cell(0, 0), &Value::text("line1\nline2"));
    }

    #[test]
    fn crlf_line_endings() {
        let csv = "a,b\r\n1,2\r\n";
        let t = read_csv_str("T", csv).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.cell(0, 1), &Value::Int(2));
    }

    #[test]
    fn empty_fields_become_null() {
        let csv = "a,b\n1,\n,2\n";
        let t = read_csv_str("T", csv).unwrap();
        assert!(t.cell(0, 1).is_null());
        assert!(t.cell(1, 0).is_null());
    }

    #[test]
    fn type_inference_per_column() {
        let csv = "i,f,d,s\n1,1.5,2005-01-01,abc\n2,2.5,2006-02-02,def\n";
        let t = read_csv_str("T", csv).unwrap();
        let types: Vec<ColumnType> = t.schema().columns().iter().map(|c| c.ctype).collect();
        assert_eq!(
            types,
            vec![
                ColumnType::Int,
                ColumnType::Float,
                ColumnType::Date,
                ColumnType::Text
            ]
        );
    }

    #[test]
    fn ragged_record_errors() {
        let csv = "a,b\n1\n";
        assert!(read_csv_str("T", csv).is_err());
    }

    #[test]
    fn empty_input_errors() {
        assert!(read_csv_str("T", "").is_err());
    }

    #[test]
    fn trailing_blank_lines_ignored() {
        let csv = "a\n1\n\n\n";
        let t = read_csv_str("T", csv).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("hummer_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let t = crate::table! {
            "T" => ["x", "y"];
            [1, "a"],
            [(), "b,c"],
        };
        std::fs::write(&path, write_csv_str(&t)).unwrap();
        let back = read_csv_file("T", &path).unwrap();
        assert_eq!(back.rows(), t.rows());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unicode_content() {
        let csv = "name\nKrämer\n北京\n";
        let t = read_csv_str("T", csv).unwrap();
        assert_eq!(t.cell(0, 0), &Value::text("Krämer"));
        assert_eq!(t.cell(1, 0), &Value::text("北京"));
    }
}
