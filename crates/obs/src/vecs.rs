//! Labeled metric families: histogram vectors.

use crate::hist::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// A family of [`Histogram`]s keyed by label values. Lookups take a read
/// lock on the label map and return a shared handle; recording through
/// the handle is lock-free. Keep the handle when recording repeatedly.
#[derive(Debug, Default)]
pub struct HistogramVec {
    inner: RwLock<BTreeMap<Vec<String>, Arc<Histogram>>>,
}

impl HistogramVec {
    /// An empty family.
    pub fn new() -> Self {
        HistogramVec::default()
    }

    /// The histogram for the given label values, created on first use.
    pub fn with(&self, labels: &[&str]) -> Arc<Histogram> {
        let key: Vec<String> = labels.iter().map(|s| s.to_string()).collect();
        {
            let map = self.inner.read().expect("obs histogram vec poisoned");
            if let Some(h) = map.get(&key) {
                return Arc::clone(h);
            }
        }
        let mut map = self.inner.write().expect("obs histogram vec poisoned");
        Arc::clone(map.entry(key).or_default())
    }

    /// Snapshot every labeled histogram, sorted by label values.
    pub fn snapshot(&self) -> Vec<(Vec<String>, HistogramSnapshot)> {
        let map = self.inner.read().expect("obs histogram vec poisoned");
        map.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_vec_shares_handles() {
        let v = HistogramVec::new();
        let h1 = v.with(&["detect", "row", "1"]);
        let h2 = v.with(&["detect", "row", "1"]);
        h1.record(10);
        h2.record(20);
        let snap = v.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1.count(), 2);
    }
}
