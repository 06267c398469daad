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
/// rendering is seen, and text never. A `Renderings<'static>` owns its
/// keys ([`Renderings::into_owned`], [`Renderings::intern_owned`]) and can
/// outlive the table it was counted from.
#[derive(Debug, Default)]
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

    /// The id of `v`'s rendering, if it has been seen. `v` must not be
    /// `NULL`. A non-text rendering is left in the buffer.
    pub(crate) fn get(&mut self, v: &Value) -> Option<u32> {
        debug_assert!(!v.is_null());
        let rendering: &str = match v {
            Value::Text(s) => s,
            other => {
                self.buf.clear();
                write!(self.buf, "{other}").expect("writing to a String cannot fail");
                &self.buf
            }
        };
        self.ids.get(rendering).copied()
    }

    /// The id of `v`'s rendering — and the rendering itself the first time
    /// it is seen. `v` must not be `NULL`.
    pub(crate) fn intern<'a>(&'a mut self, v: &'t Value) -> (u32, Option<&'a str>) {
        if let Some(id) = self.get(v) {
            return (id, None);
        }
        let key = match v {
            Value::Text(s) => Cow::Borrowed(s.as_str()),
            _ => Cow::Owned(self.buf.clone()),
        };
        self.insert(v, key)
    }

    /// [`Renderings::intern`] keeping a copy of a new rendering, so `v`
    /// need not outlive the map.
    pub(crate) fn intern_owned<'a>(&'a mut self, v: &'a Value) -> (u32, Option<&'a str>) {
        if let Some(id) = self.get(v) {
            return (id, None);
        }
        let key = match v {
            Value::Text(s) => s.clone(),
            _ => self.buf.clone(),
        };
        self.insert(v, Cow::Owned(key))
    }

    /// Number a new rendering; `get` has just rendered `v`.
    fn insert<'a>(&'a mut self, v: &'a Value, key: Cow<'t, str>) -> (u32, Option<&'a str>) {
        let id = u32::try_from(self.ids.len()).expect("fewer than 2^32 distinct renderings");
        self.ids.insert(key, id);
        let rendering = match v {
            Value::Text(s) => s.as_str(),
            _ => self.buf.as_str(),
        };
        (id, Some(rendering))
    }

    /// Number of distinct renderings seen.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The same map with every key owned.
    pub(crate) fn into_owned(self) -> Renderings<'static> {
        Renderings {
            ids: self
                .ids
                .into_iter()
                .map(|(k, id)| (Cow::Owned(k.into_owned()), id))
                .collect(),
            buf: self.buf,
        }
    }
}
