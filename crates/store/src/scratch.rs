//! Unique scratch directories under the system temp dir.
//!
//! The store's own tests, the durability suites at the workspace root
//! (`tests/durability_properties.rs`, `tests/group_commit_properties.rs`)
//! and the server's durable-service tests all need throwaway data
//! directories; this is the one implementation they share. Collision-free across concurrent test processes (PID) and within
//! a process (atomic counter). Callers remove the directory when done.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static NEXT: AtomicUsize = AtomicUsize::new(0);

/// Create and return a fresh scratch directory tagged `tag`.
pub fn dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hummer_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_unique_and_exist() {
        let a = dir("scratch_test");
        let b = dir("scratch_test");
        assert_ne!(a, b);
        assert!(a.is_dir() && b.is_dir());
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }
}
