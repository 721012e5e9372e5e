//! Lock-across-I/O lint (the PR 4 invariant).
//!
//! The server's rule: service locks (store, queue) are never held
//! across durable disk writes, so reads proceed during large persists
//! and fsyncs. This check flags any `Mutex`/`RwLock` guard that is
//! still live when a durable-write call executes.
//!
//! It is a filter over the shared [`crate::model`]: every
//! [`EventKind::Io`] event with a live guard is a finding, one per
//! guard. Guards, their liveness (`drop(name)`, block close) and the
//! durable-write inventory ([`crate::model::IO_METHODS`]) are the
//! model's, so this check sees the same guards `lock-order` does —
//! including `let Ok(mut g) = m.lock() else { … };` — and does not
//! count a statement-scoped temporary (`m.lock().unwrap().len()`) as
//! one.
//!
//! The journal holds its *own* dedicated mutex across appends by
//! design — that lock exists precisely to serialize disk writes and is
//! never taken by the read path. Those sites carry
//! `// lint: allow(lock-across-io): …` pragmas naming that rationale.

use std::path::Path;

use crate::model::{self, EventKind};
use crate::{collect_rs_files, rel_path, Check, Finding, SourceFile};

pub fn check_source(sf: &SourceFile, out: &mut Vec<Finding>) {
    for e in model::build(sf).events {
        let EventKind::Io { method, guards } = e.kind else { continue };
        for (binding, bound_at) in guards {
            sf.push(
                out,
                Check::LockAcrossIo,
                e.line,
                format!(
                    "durable write `{method}()` while lock guard `{binding}` (bound at line {bound_at}) is live; \
                     release the lock before disk I/O or justify with `// lint: allow(lock-across-io): <why>`"
                ),
            );
        }
    }
}

pub fn run(root: &Path, out: &mut Vec<Finding>) -> std::io::Result<()> {
    let dir = root.join("crates/server/src");
    for path in collect_rs_files(&dir) {
        let src = std::fs::read_to_string(&path)?;
        let sf = SourceFile::from_source(&rel_path(root, &path), &src);
        check_source(&sf, out);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let sf = SourceFile::from_source("t.rs", src);
        let mut out = Vec::new();
        check_source(&sf, &mut out);
        out
    }

    #[test]
    fn flags_guard_live_across_sync() {
        let out = findings(
            "fn f(&self) {\n  let mut s = self.inner.lock().unwrap();\n  s.file.sync_all().unwrap();\n}",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`sync_all()`"));
        assert!(out[0].message.contains("`s`"));
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn scoped_guard_released_before_io_is_clean() {
        let out = findings(
            "fn f(&self) {\n  { let mut s = self.inner.lock().unwrap(); s.touch(); }\n  self.file.sync_all().unwrap();\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn explicit_drop_kills_guard() {
        let out = findings(
            "fn f(&self) {\n  let s = self.inner.lock().unwrap();\n  drop(s);\n  self.file.sync_data().unwrap();\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn io_read_with_args_is_not_a_guard() {
        let out = findings(
            "fn f(&self) {\n  let n = stream.read(&mut buf).unwrap();\n  self.file.sync_all().unwrap();\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn open_options_append_flag_is_not_io() {
        let out = findings(
            "fn f(&self) {\n  let g = self.m.lock().unwrap();\n  let f = OpenOptions::new().append(true).open(p);\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn rwlock_write_guard_tracked() {
        let out = findings(
            "fn f(&self) {\n  let w = self.map.write();\n  self.journal.rewrite(&w).unwrap();\n}",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`rewrite()`"));
    }

    #[test]
    fn pragma_suppresses_on_call_line() {
        let out = findings(
            "fn f(&self) {\n  let j = self.journal.lock().unwrap();\n  // lint: allow(lock-across-io): dedicated journal lock, never on the read path\n  j.file.sync_data().unwrap();\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
