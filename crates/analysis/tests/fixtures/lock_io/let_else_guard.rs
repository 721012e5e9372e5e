// Fixture: a let-else guard live across a durable write — flagged.

impl Journal {
    fn reset(&self) {
        let Ok(mut g) = self.m.lock() else { return };
        g.pending += 1;
        self.file.sync_data().unwrap();
    }
}
