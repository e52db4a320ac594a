//! Shared helpers for the integration tests.
//!
//! Include with `mod common;` from a test file. Tests in one binary run
//! concurrently, so every scratch directory must be private to the test
//! that made it: a per-process name alone lets one test's cleanup delete
//! a sibling's files mid-write.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty directory under the system temp dir, removed with its
/// contents on drop. The name is `uc-<tag>-<pid>-<n>`, where `n` counts
/// calls in this process, so two calls never share a directory — not
/// even with the same tag from concurrent tests.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("uc-{tag}-{}-{n}", std::process::id()));
        // A leftover from a crashed run with a recycled pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir { path }
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
