//! Where a benchmark record was measured: the host's hardware thread
//! count and the commit of the checkout it ran in. Every `BENCH_*.json`
//! artifact carries both, so a number can be traced to its code and
//! read against the parallelism it had.

use std::fs;

/// Hardware threads the host exposes (1 when unknown): the ceiling on
/// any parallel speedup a record reports.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the working directory's git checkout (its `HEAD`),
/// read from `.git` directly; `unknown` outside one. A record made from
/// uncommitted changes names the commit they sit on.
pub fn commit() -> String {
    let read = |p: &str| fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if !reference.starts_with("refs/") || reference.contains("..") {
        return "unknown".into();
    }
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference).map(|h| h.trim().to_string()).filter(|h| !h.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_is_always_reported() {
        assert!(hardware_threads() >= 1);
        let commit = commit();
        assert!(commit == "unknown" || commit.chars().all(|c| c.is_ascii_hexdigit()), "{commit}");
    }
}
