// Fixture: the sanctioned shapes — nothing may be flagged.

struct Analysis {
    candidate_tf: HashMap<PointKey, usize>,
    order: Vec<PointKey>,
}

impl Analysis {
    fn lookups_are_fine(&self, k: PointKey) -> bool {
        self.candidate_tf.contains_key(&k)
    }

    fn sorted_iteration_with_pragma(&self) -> Vec<PointKey> {
        // lint: allow(determinism): collected then sorted before any consumer sees the order
        let mut v: Vec<PointKey> = self.candidate_tf.keys().copied().collect();
        v.sort_unstable();
        v
    }

    fn fixed_hasher_lookups_are_fine(cells: &GridMap<CellId, usize>, c: CellId) -> usize {
        cells.get(&c).copied().unwrap_or(0)
    }

    fn vec_iteration(&self) -> usize {
        let mut n = 0;
        for _k in &self.order {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_iterate_freely() {
        let m = HashMap::new();
        for k in m.keys() {
            let _ = k;
        }
        let _t = Instant::now();
    }
}
