//! `warn_once` — deduplicated diagnostics that tests can capture.
//!
//! Unlike spans and counters this facility is active in **both** build
//! modes and regardless of [`set_enabled`](crate::set_enabled): a
//! degraded-configuration warning (e.g. "requested ISA tier unavailable")
//! must never be silently lost.
//! Each key prints to stderr at most once per process; every emission is
//! also appended to an in-memory log that [`warnings`] exposes so tests
//! can assert on diagnostics instead of scraping stderr.

use std::collections::HashSet;
use std::sync::{LazyLock, Mutex};

struct WarnState {
    seen: HashSet<String>,
    log: Vec<(String, String)>,
}

static WARNS: LazyLock<Mutex<WarnState>> = LazyLock::new(|| {
    Mutex::new(WarnState {
        seen: HashSet::new(),
        log: Vec::new(),
    })
});

/// Prints `msg` to stderr and records it, unless `key` has already warned.
/// Returns true when the warning was emitted (first time for this key).
pub fn warn_once(key: &str, msg: &str) -> bool {
    let mut state = WARNS.lock().expect("warning log poisoned");
    if !state.seen.insert(key.to_string()) {
        return false;
    }
    state.log.push((key.to_string(), msg.to_string()));
    eprintln!("{msg}");
    true
}

/// All warnings emitted so far, as `(key, message)` pairs.
pub fn warnings() -> Vec<(String, String)> {
    WARNS.lock().expect("warning log poisoned").log.clone()
}

/// Clears the deduplication set and log (test isolation only).
pub fn reset_warnings() {
    let mut state = WARNS.lock().expect("warning log poisoned");
    state.seen.clear();
    state.log.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedupes_by_key_and_records() {
        reset_warnings();
        assert!(warn_once("test.key", "first message"));
        assert!(!warn_once("test.key", "second message (suppressed)"));
        assert!(warn_once("test.other", "other key"));
        let log = warnings();
        let for_key: Vec<_> = log.iter().filter(|(k, _)| k == "test.key").collect();
        assert_eq!(for_key.len(), 1);
        assert_eq!(for_key[0].1, "first message");
        assert_eq!(log.len(), 2);
    }
}
