//! The dynamically typed cell value used throughout HumMer.
//!
//! HumMer operates on data pulled ad hoc from heterogeneous sources, so a
//! cell is a tagged union rather than a statically typed column vector.
//! `NULL` is a first-class citizen: the whole point of data fusion is coping
//! with missing and conflicting values, and the conflict-resolution semantics
//! of the paper distinguish *missing* (no influence on similarity, skipped by
//! `COALESCE`) from *contradicting* data.

use crate::error::EngineError;
use std::cmp::Ordering;
use std::fmt;

/// A calendar date (proleptic Gregorian), the only temporal type HumMer
/// needs: the `MOST RECENT` resolution function evaluates recency through a
/// date-typed attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Year, e.g. 2005.
    pub year: i32,
    /// Month, 1–12.
    pub month: u8,
    /// Day of month, 1–31.
    pub day: u8,
}

impl Date {
    /// Create a date, validating month and day ranges (month lengths are
    /// checked including leap years).
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self, EngineError> {
        if !(1..=12).contains(&month) {
            return Err(EngineError::Parse(format!("month {month} out of range")));
        }
        let max_day = Self::days_in_month(year, month);
        if day == 0 || day > max_day {
            return Err(EngineError::Parse(format!(
                "day {day} out of range for {year}-{month:02}"
            )));
        }
        Ok(Date { year, month, day })
    }

    fn days_in_month(year: i32, month: u8) -> u8 {
        match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 if Self::is_leap(year) => 29,
            2 => 28,
            _ => 0,
        }
    }

    fn is_leap(year: i32) -> bool {
        (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
    }

    /// Parse an ISO `YYYY-MM-DD` string.
    pub fn parse(s: &str) -> Result<Self, EngineError> {
        let mut parts = s.splitn(3, '-');
        let bad = || EngineError::Parse(format!("invalid date `{s}`, expected YYYY-MM-DD"));
        let year: i32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let month: u8 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let day: u8 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        Date::new(year, month, day)
    }

    /// Days since 0000-03-01 (an arbitrary internal epoch); used for
    /// numeric distance between dates.
    pub fn ordinal(&self) -> i64 {
        // Standard civil-from-days inverse (Howard Hinnant's algorithm).
        let y = if self.month <= 2 {
            self.year - 1
        } else {
            self.year
        } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let mp = (self.month as i64 + 9) % 12;
        let doy = (153 * mp + 2) / 5 + self.day as i64 - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A single cell value.
///
/// The comparison semantics follow SQL where it matters for fusion:
/// [`Value::sql_eq`] treats `NULL` as incomparable, while [`Value::cmp_total`]
/// imposes the total order needed for sorting and grouping
/// (`NULL` sorts last; numeric types compare numerically across `Int`/`Float`).
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// SQL NULL — a missing value.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// Convenience constructor from `&str`.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// True iff the value is `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Strict equality: same variant, same content (floats by bits).
    /// Unlike `==` (where `Int(2) == Float(2.0)`), identical values render,
    /// parse, tokenize and key identically — what incremental maintenance
    /// needs to know a cell did not change.
    #[inline]
    pub fn identical(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Text(x), Value::Text(y)) => x == y,
            (Value::Date(x), Value::Date(y)) => x == y,
            _ => false,
        }
    }

    /// The [`crate::schema::ColumnType`] this value inhabits, or `None` for `NULL`.
    pub fn column_type(&self) -> Option<crate::schema::ColumnType> {
        use crate::schema::ColumnType::*;
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(Bool),
            Value::Int(_) => Some(Int),
            Value::Float(_) => Some(Float),
            Value::Text(_) => Some(Text),
            Value::Date(_) => Some(Date),
        }
    }

    /// Numeric view of the value: `Int` and `Float` yield their magnitude,
    /// `Bool` maps to 0/1, `Date` to its ordinal day number, text parses if
    /// it looks numeric. Used by numeric distance in duplicate detection and
    /// by `SUM`/`AVG`-style resolution.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Date(d) => Some(d.ordinal() as f64),
            Value::Text(s) => s.trim().parse::<f64>().ok(),
            Value::Null => None,
        }
    }

    /// Text view of the value (`NULL` yields `None`).
    ///
    /// This is the canonical string rendering used when tuples are treated
    /// as documents for TF-IDF comparison (DUMAS) — it must be stable.
    pub fn as_text(&self) -> Option<String> {
        match self {
            Value::Null => None,
            other => Some(other.to_string()),
        }
    }

    /// SQL three-valued equality: `NULL` compared with anything is `None`.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_total(other) == Ordering::Equal)
    }

    /// Total order over all values, for sorting/grouping:
    /// `Bool < numbers < Text < Date`, `NULL` greater than everything
    /// (i.e. NULLs sort last in ascending order). `Int` and `Float`
    /// compare numerically with each other.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Greater,
            (_, Null) => Ordering::Less,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            // Cross-type: order by type rank so sorting heterogeneous
            // columns (possible after outer union) is still deterministic.
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Text(_) => 2,
            Value::Date(_) => 3,
            Value::Null => 4,
        }
    }

    /// Strict equality used for grouping keys and duplicates of *values*
    /// (not of real-world objects): `NULL` equals `NULL` here, and
    /// `Int(2) == Float(2.0)`.
    pub fn group_eq(&self, other: &Value) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }

    /// Parse a raw string (e.g. a CSV cell) into the "most specific" value:
    /// empty → `NULL`, then `Int`, `Float`, `Bool`, `Date`, else `Text`.
    pub fn infer(raw: &str) -> Value {
        let t = raw.trim();
        if t.is_empty() {
            return Value::Null;
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
        match t.to_ascii_lowercase().as_str() {
            "true" => return Value::Bool(true),
            "false" => return Value::Bool(false),
            _ => {}
        }
        if t.len() == 10 && t.as_bytes()[4] == b'-' && t.as_bytes()[7] == b'-' {
            if let Ok(d) = Date::parse(t) {
                return Value::Date(d);
            }
        }
        Value::Text(raw.to_string())
    }
}

/// `Display` writes the canonical external form; `NULL` renders as the empty
/// string so CSV round-trips losslessly.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.group_eq(other)
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_total(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float must hash alike when numerically equal because
            // group_eq treats them as equal.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_parse_and_display_round_trip() {
        let d = Date::parse("2005-08-30").unwrap();
        assert_eq!(d.to_string(), "2005-08-30");
        assert_eq!(d, Date::new(2005, 8, 30).unwrap());
    }

    #[test]
    fn date_rejects_bad_days() {
        assert!(Date::new(2005, 2, 29).is_err()); // not a leap year
        assert!(Date::new(2004, 2, 29).is_ok()); // leap year
        assert!(Date::new(2005, 4, 31).is_err());
        assert!(Date::new(2005, 13, 1).is_err());
        assert!(Date::new(2005, 0, 1).is_err());
        assert!(Date::new(2005, 1, 0).is_err());
    }

    #[test]
    fn date_ordinal_is_monotone() {
        let a = Date::parse("2004-12-31").unwrap();
        let b = Date::parse("2005-01-01").unwrap();
        assert_eq!(b.ordinal() - a.ordinal(), 1);
        let c = Date::parse("2005-12-31").unwrap();
        assert_eq!(c.ordinal() - b.ordinal(), 364);
    }

    #[test]
    fn null_sorts_last() {
        let mut vs = vec![Value::Null, Value::Int(3), Value::Int(1)];
        vs.sort();
        assert_eq!(vs, vec![Value::Int(1), Value::Int(3), Value::Null]);
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2).cmp_total(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).cmp_total(&Value::Float(2.5)), Ordering::Less);
        assert!(Value::Int(2).group_eq(&Value::Float(2.0)));
    }

    #[test]
    fn int_float_hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(2));
        assert!(set.contains(&Value::Float(2.0)));
    }

    #[test]
    fn sql_eq_null_semantics() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn group_eq_null_equals_null() {
        assert!(Value::Null.group_eq(&Value::Null));
    }

    #[test]
    fn infer_types() {
        assert_eq!(Value::infer(""), Value::Null);
        assert_eq!(Value::infer("  "), Value::Null);
        assert_eq!(Value::infer("42"), Value::Int(42));
        assert_eq!(Value::infer("-3"), Value::Int(-3));
        assert_eq!(Value::infer("3.25"), Value::Float(3.25));
        assert_eq!(Value::infer("true"), Value::Bool(true));
        assert_eq!(
            Value::infer("2005-08-30"),
            Value::Date(Date::new(2005, 8, 30).unwrap())
        );
        assert_eq!(Value::infer("abc"), Value::text("abc"));
        // ambiguous date-ish text stays text
        assert_eq!(Value::infer("2005-13-45"), Value::text("2005-13-45"));
    }

    #[test]
    fn as_f64_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::text("2.5").as_f64(), Some(2.5));
        assert_eq!(Value::text("abc").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::text("hi").to_string(), "hi");
    }

    #[test]
    fn from_option() {
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
    }
}
