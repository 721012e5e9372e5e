// Fixture: the lock is a statement-scoped temporary, released at the
// `;` — nothing is held at the sync, so nothing may be flagged.

impl Journal {
    fn flush(&self) -> usize {
        let n = self.m.lock().unwrap().len();
        self.file.sync_all().unwrap();
        n
    }
}
