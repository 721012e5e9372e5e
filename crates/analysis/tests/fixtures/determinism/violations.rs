// Fixture: nondeterminism on result-affecting paths — all six sites
// must be flagged.

struct Analysis {
    candidate_tf: HashMap<PointKey, usize>,
}

impl Analysis {
    fn candidate_points(&self) -> Vec<PointKey> {
        self.candidate_tf.keys().copied().collect()
    }

    fn walk(&self) {
        for (k, v) in &self.candidate_tf {
            emit(k, v);
        }
    }
}

fn drains_untyped_map() {
    let mut pf = HashMap::new();
    pf.insert(1, 2);
    for (k, v) in pf.drain() {
        emit(k, v);
    }
}

fn stamps_results() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}

struct Grid {
    nodes: GridMap<CellId, usize>,
}

impl Grid {
    fn occupied(&self) -> Vec<CellId> {
        self.nodes.keys().copied().collect()
    }
}

fn walks_a_custom_hasher_map() {
    let by_cell = FastMap::with_hasher(BuildHasherDefault::<GridHasher>::default());
    for (k, v) in &by_cell {
        emit(k, v);
    }
}
