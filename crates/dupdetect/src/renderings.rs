//! The distinct renderings of a column, counted without rendering every
//! cell into a `String` of its own.

use hummer_engine::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Distinct renderings (`Value`'s `Display` form) of the non-null values
/// handed to [`Renderings::intern`], numbered in first-seen order.
///
/// Text is looked up as it sits in the table and other values through one
/// reused buffer, so a cell allocates only the first time a non-text
/// rendering is seen, and text never.
pub(crate) struct Renderings<'t> {
    ids: HashMap<Cow<'t, str>, u32>,
    buf: String,
}

impl<'t> Renderings<'t> {
    /// Room for `capacity` distinct renderings before the map grows.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Renderings {
            ids: HashMap::with_capacity(capacity),
            buf: String::new(),
        }
    }

    /// The id of `v`'s rendering — and the rendering itself the first time
    /// it is seen. `v` must not be `NULL`.
    pub(crate) fn intern(&mut self, v: &'t Value) -> (u32, Option<&str>) {
        debug_assert!(!v.is_null());
        let rendering: &str = match v {
            Value::Text(s) => s,
            other => {
                self.buf.clear();
                write!(self.buf, "{other}").expect("writing to a String cannot fail");
                &self.buf
            }
        };
        if let Some(&id) = self.ids.get(rendering) {
            return (id, None);
        }
        let id = u32::try_from(self.ids.len()).expect("fewer than 2^32 distinct renderings");
        let key = match v {
            Value::Text(s) => Cow::Borrowed(s.as_str()),
            _ => Cow::Owned(rendering.to_owned()),
        };
        self.ids.insert(key, id);
        (id, Some(rendering))
    }

    /// Number of distinct renderings seen.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}
