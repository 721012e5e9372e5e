//! Trajectory and dataset editors: apply the edit operations of §IV-A
//! with exact utility-loss accounting.
//!
//! * [`TrajectoryEditor`] drives **intra-trajectory modification**
//!   (Definition 9): inserting/deleting occurrences of a point within a
//!   single trajectory, choosing the ∆f nearest segments (Definition 10)
//!   by a direct scan of that trajectory's own segments.
//! * [`DatasetEditor`] drives **inter-trajectory modification**
//!   (Definition 7): raising/lowering a point's TF by inserting it into /
//!   deleting it from the ∆l trajectories with the least utility loss
//!   (Definition 8), searched through a dataset-wide segment index kept
//!   incrementally up to date.

use crate::indexkind::{AnyIndex, IndexKind};
use std::collections::{BinaryHeap, HashMap, HashSet};
use trajdp_index::{SearchStats, SegmentEntry, TotalF64};
use trajdp_model::{Point, PointKey, Rect, Trajectory};

/// Editor for one trajectory. A trajectory has a few hundred segments
/// at most, so every search scans them directly: an index would cost
/// more to build and keep up to date than the scans it saves.
#[derive(Debug, Clone)]
pub struct TrajectoryEditor {
    traj: Trajectory,
    /// Accumulated utility loss of all edits.
    pub loss: f64,
    /// Accumulated search work counters (segments scanned).
    pub stats: SearchStats,
    /// Number of point insertions performed.
    pub insertions: usize,
    /// Number of point deletions performed.
    pub deletions: usize,
}

impl TrajectoryEditor {
    /// Builds an editor for `traj`.
    pub fn new(traj: Trajectory) -> Self {
        Self { traj, loss: 0.0, stats: SearchStats::default(), insertions: 0, deletions: 0 }
    }

    /// Read access to the trajectory being edited.
    pub fn trajectory(&self) -> &Trajectory {
        &self.traj
    }

    /// Finishes editing, returning the modified trajectory.
    pub fn into_trajectory(self) -> Trajectory {
        self.traj
    }

    /// Inserts `delta` occurrences of `q` at the ∆f nearest segments
    /// (Definition 10): the `delta` smallest `(distance, position)`
    /// pairs, so equal-distance ties go to the earliest segment. When
    /// the trajectory has fewer segments than `delta`, the remainder is
    /// appended. Returns the utility loss incurred.
    pub fn insert_occurrences(&mut self, q: Point, delta: usize) -> f64 {
        if delta == 0 {
            return 0.0;
        }
        self.stats.segments_checked += self.traj.num_segments();
        let mut positions: Vec<usize> =
            nearest_segments(&self.traj, &q, delta).into_iter().map(|(_, pos)| pos).collect();
        // Insert from the highest position down so earlier positions
        // stay valid.
        positions.sort_unstable_by(|a, b| b.cmp(a));
        let mut incurred = 0.0;
        for &pos in &positions {
            incurred += self.traj.insert_into_segment(q, pos);
        }
        for _ in positions.len()..delta {
            incurred += self.traj.push_point(q);
        }
        self.insertions += delta;
        self.loss += incurred;
        incurred
    }

    /// Deletes `delta` occurrences of `q`, each time removing the
    /// occurrence with the smallest reconnection loss (the K-nearest
    /// deletion of Definition 10). Deletes all occurrences when fewer
    /// than `delta` exist. Returns the utility loss incurred.
    pub fn delete_occurrences(&mut self, q: PointKey, delta: usize) -> f64 {
        let mut incurred = 0.0;
        for _ in 0..delta {
            let occ = self.traj.occurrences(q);
            let Some(&best) = occ.iter().min_by(|&&a, &&b| {
                self.traj.deletion_loss(a).total_cmp(&self.traj.deletion_loss(b))
            }) else {
                break;
            };
            incurred += self.traj.delete_at(best);
            self.deletions += 1;
        }
        self.loss += incurred;
        incurred
    }
}

/// The `k` smallest `(distance to q, position)` pairs over the segments
/// of `traj`, in no particular order; fewer when it has fewer segments.
fn nearest_segments(traj: &Trajectory, q: &Point, k: usize) -> Vec<(TotalF64, usize)> {
    let mut scored: Vec<(TotalF64, usize)> =
        traj.segments().map(|(i, s)| (TotalF64(s.dist_to_point(q)), i)).collect();
    if k < scored.len() {
        scored.select_nth_unstable(k);
        scored.truncate(k);
    }
    scored
}

/// Hands out the next dense id of a [`DatasetEditor`], recording slot
/// `t` as its owner.
fn owned_id_counter(owner: &mut Vec<usize>, t: usize) -> impl FnMut() -> u64 + '_ {
    move || {
        owner.push(t);
        (owner.len() - 1) as u64
    }
}

/// Inserts `q` into segment `pos` of `traj` and replaces that segment's
/// index entry with entries for its two halves, named by `fresh_id`.
/// `seg_ids[i]` is the index id of segment `i`, before and after.
/// Returns the insertion loss.
fn split_segment(
    traj: &mut Trajectory,
    seg_ids: &mut Vec<u64>,
    index: &mut AnyIndex,
    q: Point,
    pos: usize,
    mut fresh_id: impl FnMut() -> u64,
) -> f64 {
    index.remove(seg_ids[pos]);
    let loss = traj.insert_into_segment(q, pos);
    let (left, right) = (fresh_id(), fresh_id());
    index.insert(SegmentEntry::new(left, traj.segment(pos)));
    index.insert(SegmentEntry::new(right, traj.segment(pos + 1)));
    seg_ids.splice(pos..=pos, [left, right]);
    loss
}

/// Deletes sample `idx` of `traj`, replacing the index entries of the
/// (up to two) segments touching it with the merged segment, named by
/// `fresh_id` — an endpoint sample just loses its one segment.
/// `seg_ids[i]` is the index id of segment `i`, before and after.
/// Returns the deletion loss.
fn delete_sample(
    traj: &mut Trajectory,
    seg_ids: &mut Vec<u64>,
    index: &mut AnyIndex,
    idx: usize,
    fresh_id: impl FnOnce() -> u64,
) -> f64 {
    let len = traj.len();
    debug_assert!(idx < len);
    if idx > 0 {
        index.remove(seg_ids[idx - 1]);
    }
    if idx + 1 < len {
        index.remove(seg_ids[idx]);
    }
    let loss = traj.delete_at(idx);
    if idx > 0 && idx + 1 < len {
        let merged = fresh_id();
        index.insert(SegmentEntry::new(merged, traj.segment(idx - 1)));
        seg_ids.splice(idx - 1..=idx, [merged]);
    } else if idx == 0 {
        if !seg_ids.is_empty() {
            seg_ids.remove(0);
        }
    } else {
        seg_ids.pop();
    }
    loss
}

/// Asserts that `seg_ids[i]` is indexed with the geometry of segment
/// `i` of `traj`.
fn check_indexed_geometry(index: &AnyIndex, traj: &Trajectory, seg_ids: &[u64]) {
    for (i, &id) in seg_ids.iter().enumerate() {
        let entry = index.get(id).unwrap_or_else(|| panic!("segment {i}: id {id} not indexed"));
        assert_eq!(entry.seg, traj.segment(i), "segment {i}: indexed geometry is stale");
    }
}

/// Offers `entry` to a max-heap keeping the `delta` smallest
/// `(loss, slot)` pairs — the fixed tie rule of the inter-trajectory
/// selection: on equal loss the smallest slot wins.
fn push_bounded(best: &mut BinaryHeap<(TotalF64, usize)>, delta: usize, entry: (TotalF64, usize)) {
    if best.len() < delta {
        best.push(entry);
    } else if let Some(top) = best.peek() {
        if entry < *top {
            best.pop();
            best.push(entry);
        }
    }
}

/// Editor for a whole dataset, with a single index over every segment.
#[derive(Debug)]
pub struct DatasetEditor {
    trajs: Vec<Trajectory>,
    /// `seg_ids[t][i]` is the index id of segment `i` of slot `t`.
    seg_ids: Vec<Vec<u64>>,
    index: AnyIndex,
    /// `owner[id]` is the slot whose segment was indexed under `id`.
    /// Ids are handed out densely (`id == owner.len()` at allocation)
    /// and never reused, so the vector doubles as the id allocator and
    /// the kNN filter reads it without hashing. Entries of removed ids
    /// go stale but are never looked up: the index no longer holds them.
    owner: Vec<usize>,
    /// Inverted occurrence map: point → trajectory slots containing it.
    containing: HashMap<PointKey, HashSet<usize>>,
    /// Cached per-trajectory bounding boxes for branch-and-bound
    /// candidate pruning (the paper's §V-C future-work optimization).
    bboxes: Vec<Rect>,
    /// Whether `increase_tf` uses trajectory-bbox branch-and-bound
    /// instead of the segment index.
    pub use_bbox_pruning: bool,
    domain: Rect,
    kind: IndexKind,
    /// Accumulated utility loss of all edits.
    pub loss: f64,
    /// Accumulated search work counters.
    pub stats: SearchStats,
    /// Number of point insertions performed.
    pub insertions: usize,
    /// Number of point deletions performed.
    pub deletions: usize,
}

impl DatasetEditor {
    /// Builds an editor (and a dataset-wide index) for the trajectories.
    pub fn new(trajs: Vec<Trajectory>, kind: IndexKind, domain: Rect) -> Self {
        let mut index = AnyIndex::new(kind, domain);
        let mut seg_ids = Vec::with_capacity(trajs.len());
        let mut owner = Vec::new();
        let mut containing: HashMap<PointKey, HashSet<usize>> = HashMap::new();
        for (t, traj) in trajs.iter().enumerate() {
            let mut ids = Vec::with_capacity(traj.num_segments());
            for (_, seg) in traj.segments() {
                let id = owned_id_counter(&mut owner, t)();
                index.insert(SegmentEntry::new(id, seg));
                ids.push(id);
            }
            seg_ids.push(ids);
            for s in &traj.samples {
                containing.entry(s.loc.key()).or_default().insert(t);
            }
        }
        let bboxes = trajs.iter().map(Trajectory::bbox).collect();
        Self {
            trajs,
            seg_ids,
            index,
            owner,
            containing,
            bboxes,
            use_bbox_pruning: false,
            domain,
            kind,
            loss: 0.0,
            stats: SearchStats::default(),
            insertions: 0,
            deletions: 0,
        }
    }

    /// Finishes editing, returning the modified trajectories.
    pub fn into_trajectories(self) -> Vec<Trajectory> {
        self.trajs
    }

    /// Read access to the trajectories being edited.
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajs
    }

    /// Trajectory slots currently containing point `q`.
    pub fn trajectories_containing(&self, q: PointKey) -> Vec<usize> {
        self.containing
            .get(&q)
            .map(|s| {
                let mut v: Vec<usize> = s.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .unwrap_or_default()
    }

    fn accumulate(&mut self, s: SearchStats) {
        self.stats.cells_visited += s.cells_visited;
        self.stats.segments_checked += s.segments_checked;
    }

    /// TF-increasing task (Definition 8): inserts `q` once into each of
    /// the `delta` nearest trajectories that do not already pass through
    /// `q`. Returns the number of trajectories actually modified (may be
    /// fewer when the dataset runs out of eligible trajectories).
    ///
    /// Both search paths select by the same rule: among the non-empty
    /// trajectories not holding `q`, the ∆l smallest `(insertion loss,
    /// slot)` pairs, where the loss is the distance from `q` to the
    /// nearest segment, or to the only sample of a single-sample
    /// trajectory (which takes `q` appended). Empty trajectories have no
    /// location to rank by: they only take what the non-empty ones
    /// cannot, in slot order, so the TF can still reach `|D|`.
    pub fn increase_tf(&mut self, q: Point, delta: usize) -> usize {
        if delta == 0 {
            return 0;
        }
        let mut chosen = if self.use_bbox_pruning {
            self.select_by_bbox(q, delta)
        } else {
            self.select_by_index(q, delta)
        };
        let short = delta - chosen.len();
        chosen.extend((0..self.trajs.len()).filter(|&t| self.trajs[t].is_empty()).take(short));
        let inserted = chosen.len();
        for t in chosen {
            self.insert_point_into(t, q);
        }
        inserted
    }

    /// The non-empty part of the [`Self::increase_tf`] selection, by a
    /// grow-k nearest-segment search over the dataset-wide index, in
    /// ascending `(loss, slot)` order.
    fn select_by_index(&mut self, q: Point, delta: usize) -> Vec<usize> {
        let mut holds_q = vec![false; self.trajs.len()];
        if let Some(slots) = self.containing.get(&q.key()) {
            for &t in slots {
                holds_q[t] = true;
            }
        }
        // Single-sample trajectories have no segment in the index, so
        // they are scored directly, next to the kNN hits.
        let singles: Vec<(f64, usize)> = (0..self.trajs.len())
            .filter(|&t| self.trajs[t].len() == 1 && !holds_q[t])
            .map(|t| (self.trajs[t].samples[0].loc.dist(&q), t))
            .collect();
        // Grow-k nearest-segment search: score each owning trajectory by
        // its nearest reported segment, then pick the ∆l best in
        // ascending `(distance, slot)` order — on equal distance the
        // smallest slot wins, the same tie rule as the bbox path.
        let mut k = delta.saturating_mul(4).max(8);
        loop {
            let (owner, holds_q) = (&self.owner, &holds_q);
            let filter = |id: u64| !holds_q[owner[id as usize]];
            let (neighbors, stats) = self.index.knn_with_stats(&q, k, Some(&filter));
            self.accumulate(stats);
            let exhausted = neighbors.len() < k;
            // Unreported segments all lie at or beyond the search
            // frontier (the k-th reported distance).
            let frontier = neighbors.last().map_or(f64::INFINITY, |n| n.dist);
            // Neighbors arrive sorted by distance, so a trajectory's
            // first hit is its nearest reported segment.
            let mut scored = singles.clone();
            let mut is_scored = vec![false; self.trajs.len()];
            for n in &neighbors {
                let t = self.owner[n.id as usize];
                if !std::mem::replace(&mut is_scored[t], true) {
                    scored.push((n.dist, t));
                }
            }
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            scored.truncate(delta);
            // The selection is final only once the ∆l-th distance lies
            // strictly inside the frontier: at the frontier itself, a
            // hidden equal-distance trajectory with a smaller slot could
            // still displace the ∆l-th pick (the k cutoff truncates ties
            // in index-visit order, not slot order), so keep growing.
            let settled =
                scored.len() == delta && scored.last().is_some_and(|&(d, _)| d < frontier);
            if settled || exhausted {
                return scored.into_iter().map(|(_, t)| t).collect();
            }
            k *= 2;
        }
    }

    /// The non-empty part of the [`Self::increase_tf`] selection, by
    /// trajectory-level branch-and-bound — the optimization §V-C leaves
    /// as future work: candidates are visited in ascending bounding-box
    /// `MINdist` order and the scan stops once the next lower bound
    /// exceeds the ∆l-th best exact insertion loss.
    /// Produces exactly the same selection as the index-based search:
    /// the ∆l smallest `(insertion loss, slot)` pairs over non-empty
    /// trajectories, a single-sample one scored by the distance to its
    /// sample, so equal-loss ties always go to the smallest slot.
    fn select_by_bbox(&mut self, q: Point, delta: usize) -> Vec<usize> {
        let qk = q.key();
        let containing = self.containing.get(&qk);
        // Eligible trajectories in ascending lower-bound order.
        let mut candidates: Vec<(f64, usize)> = self
            .bboxes
            .iter()
            .enumerate()
            .filter(|&(t, _)| {
                !containing.is_some_and(|s| s.contains(&t)) && !self.trajs[t].is_empty()
            })
            .map(|(t, b)| (b.min_dist(&q), t))
            .collect();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut best: BinaryHeap<(TotalF64, usize)> = BinaryHeap::with_capacity(delta + 1);
        for (lower, t) in candidates {
            // A strictly larger lower bound cannot beat the ∆l-th best
            // loss, not even on a tie (exact >= lower > best). Lower
            // bounds ascend, so stop outright.
            if best.len() == delta && lower > best.peek().expect("non-empty").0 .0 {
                break;
            }
            let traj = &self.trajs[t];
            let exact = if traj.num_segments() == 0 {
                // Single-sample trajectory: appending costs the distance
                // from its only sample.
                traj.samples.last().map_or(f64::INFINITY, |s| s.loc.dist(&q))
            } else {
                traj.segments().map(|(_, s)| s.dist_to_point(&q)).fold(f64::INFINITY, f64::min)
            };
            self.stats.segments_checked += traj.num_segments().max(1);
            push_bounded(&mut best, delta, (TotalF64(exact), t));
        }
        best.into_sorted_vec().into_iter().map(|(_, t)| t).collect()
    }

    /// Inserts `q` into trajectory slot `t` at its best segment.
    fn insert_point_into(&mut self, t: usize, q: Point) {
        let mut fresh_id = owned_id_counter(&mut self.owner, t);
        let traj = &mut self.trajs[t];
        if traj.len() < 2 {
            self.loss += traj.push_point(q);
            if traj.len() == 2 {
                let id = fresh_id();
                self.index.insert(SegmentEntry::new(id, traj.segment(0)));
                self.seg_ids[t].push(id);
            }
        } else {
            // Scan the trajectory for the minimum-loss segment (the
            // index already narrowed the trajectory choice).
            let pos = (0..traj.num_segments())
                .min_by(|&a, &b| {
                    traj.segment(a).dist_to_point(&q).total_cmp(&traj.segment(b).dist_to_point(&q))
                })
                .expect("non-empty segment list");
            self.loss +=
                split_segment(traj, &mut self.seg_ids[t], &mut self.index, q, pos, fresh_id);
        }
        self.insertions += 1;
        self.containing.entry(q.key()).or_default().insert(t);
        self.bboxes[t].expand(&q);
    }

    /// TF-decreasing task (Definition 8): completely deletes `q` from the
    /// `delta` trajectories (among those containing it) with the least
    /// complete-deletion loss. Returns the number of trajectories
    /// actually modified.
    pub fn decrease_tf(&mut self, q: PointKey, delta: usize) -> usize {
        let victims = self.decrease_victims(q, delta);
        for &t in &victims {
            self.delete_point_from(t, q);
        }
        victims.len()
    }

    /// The ∆l victims a [`Self::decrease_tf`] of `q` deletes from: the
    /// trajectories containing `q` with the smallest `(complete-deletion
    /// loss, slot)` pairs, in ascending order — equal-loss ties go to
    /// the smallest slot.
    fn decrease_victims(&self, q: PointKey, delta: usize) -> Vec<usize> {
        if delta == 0 {
            return Vec::new();
        }
        // Complete-deletion loss per candidate: Σ_s L[OP_d(q, s)].
        let mut best: BinaryHeap<(TotalF64, usize)> = BinaryHeap::with_capacity(delta + 1);
        for t in self.trajectories_containing(q) {
            let traj = &self.trajs[t];
            let total: f64 = traj.occurrences(q).into_iter().map(|i| traj.deletion_loss(i)).sum();
            push_bounded(&mut best, delta, (TotalF64(total), t));
        }
        best.into_sorted_vec().into_iter().map(|(_, t)| t).collect()
    }

    /// Removes every occurrence of `q` from slot `t`, one at a time in
    /// the order of [`Trajectory::delete_all`] (first remaining
    /// occurrence first) and with its loss summation, so the edit and
    /// its loss are bit-identical to that call. Each deletion touches
    /// only the index entries of the segments around the deleted
    /// sample, so the index work follows the occurrences of `q`, not
    /// the length of the trajectory.
    fn delete_point_from(&mut self, t: usize, q: PointKey) {
        let mut fresh_id = owned_id_counter(&mut self.owner, t);
        let traj = &mut self.trajs[t];
        let mut total = 0.0;
        let mut from = 0;
        while let Some(offset) = traj.samples[from..].iter().position(|s| s.loc.key() == q) {
            from += offset;
            total +=
                delete_sample(traj, &mut self.seg_ids[t], &mut self.index, from, &mut fresh_id);
            self.deletions += 1;
        }
        self.loss += total;
        if let Some(s) = self.containing.get_mut(&q) {
            s.remove(&t);
            if s.is_empty() {
                self.containing.remove(&q);
            }
        }
        // Deletion may shrink the extent; recompute the cached box.
        self.bboxes[t] = self.trajs[t].bbox();
    }

    /// Current TF of `q` as tracked by the editor.
    pub fn tf(&self, q: PointKey) -> usize {
        self.containing.get(&q).map_or(0, HashSet::len)
    }

    /// The domain the editor indexes over.
    pub fn domain(&self) -> Rect {
        self.domain
    }

    /// The index kind the editor was built with.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Internal invariant check used by tests: every segment of every
    /// slot has exactly one index entry, holding its geometry and owned
    /// by its slot, and the occurrence map lists no stale slot.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut total = 0;
        for (t, ids) in self.seg_ids.iter().enumerate() {
            assert_eq!(ids.len(), self.trajs[t].num_segments(), "slot {t} seg count");
            for &id in ids {
                assert_eq!(self.owner[id as usize], t, "owner mismatch for id {id}");
            }
            check_indexed_geometry(&self.index, &self.trajs[t], ids);
            total += ids.len();
        }
        assert_eq!(self.index.len(), total, "index size mismatch");
        // lint: allow(determinism): assertion-only walk; every entry is checked and no output depends on visit order
        for (k, set) in &self.containing {
            for &t in set {
                assert!(self.trajs[t].passes_through(*k), "stale containing entry");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajdp_model::{Sample, Segment};

    fn traj(id: u64, pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(
            id,
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y))| Sample::new(Point::new(x, y), i as i64 * 10))
                .collect(),
        )
    }

    fn domain() -> Rect {
        Rect::new(-100.0, -100.0, 1100.0, 1100.0)
    }

    // ---------- TrajectoryEditor ----------

    #[test]
    fn insert_picks_nearest_segment() {
        let t = traj(0, &[(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)]);
        let mut ed = TrajectoryEditor::new(t);
        let q = Point::new(50.0, 5.0); // 5 m from the first segment
        let loss = ed.insert_occurrences(q, 1);
        assert_eq!(loss, 5.0);
        let out = ed.into_trajectory();
        assert_eq!(out.len(), 4);
        assert_eq!(out.samples[1].loc, q);
    }

    #[test]
    fn multi_insert_uses_distinct_segments() {
        let t = traj(0, &[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (300.0, 0.0)]);
        let mut ed = TrajectoryEditor::new(t);
        let q = Point::new(150.0, 10.0);
        ed.insert_occurrences(q, 2);
        let out = ed.into_trajectory();
        assert_eq!(out.len(), 6);
        assert_eq!(out.count_point(q.key()), 2);
        assert_eq!(ed_count(&out, q), 2);
    }

    fn ed_count(t: &Trajectory, q: Point) -> usize {
        t.count_point(q.key())
    }

    #[test]
    fn insert_more_than_segments_appends_remainder() {
        let t = traj(0, &[(0.0, 0.0), (10.0, 0.0)]); // one segment
        let mut ed = TrajectoryEditor::new(t);
        let q = Point::new(5.0, 1.0);
        ed.insert_occurrences(q, 3);
        let out = ed.into_trajectory();
        assert_eq!(out.count_point(q.key()), 3);
        assert!(out.samples.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn insert_into_degenerate_trajectory() {
        let t = traj(0, &[(1.0, 1.0)]);
        let mut ed = TrajectoryEditor::new(t);
        ed.insert_occurrences(Point::new(2.0, 2.0), 2);
        assert_eq!(ed.trajectory().len(), 3);
    }

    #[test]
    fn delete_prefers_cheapest_occurrence() {
        // q at index 1 lies ON the line (0 reconnection loss); q at index
        // 3 is a 50 m detour.
        let t = traj(0, &[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0), (150.0, 50.0), (200.0, 0.0)]);
        let q1 = Point::new(50.0, 0.0);
        let mut ed = TrajectoryEditor::new(t);
        let loss = ed.delete_occurrences(q1.key(), 1);
        assert_eq!(loss, 0.0);
        assert_eq!(ed.trajectory().len(), 4);
    }

    #[test]
    fn delete_more_than_present_deletes_all() {
        let q = Point::new(5.0, 5.0);
        let t = traj(0, &[(0.0, 0.0), (5.0, 5.0), (10.0, 0.0), (5.0, 5.0), (20.0, 0.0)]);
        let mut ed = TrajectoryEditor::new(t);
        ed.delete_occurrences(q.key(), 10);
        assert_eq!(ed.trajectory().count_point(q.key()), 0);
        assert_eq!(ed.deletions, 2);
    }

    #[test]
    fn delete_endpoint_occurrence() {
        let q = Point::new(0.0, 0.0);
        let t = traj(0, &[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]);
        let mut ed = TrajectoryEditor::new(t);
        let loss = ed.delete_occurrences(q.key(), 1);
        assert_eq!(loss, 0.0); // endpoints reconnect for free
        assert_eq!(ed.trajectory().len(), 2);
    }

    #[test]
    fn editor_losses_accumulate() {
        let t = traj(0, &[(0.0, 0.0), (100.0, 0.0)]);
        let mut ed = TrajectoryEditor::new(t);
        ed.insert_occurrences(Point::new(50.0, 10.0), 1);
        ed.insert_occurrences(Point::new(25.0, 20.0), 1);
        assert!(ed.loss >= 10.0);
        assert_eq!(ed.insertions, 2);
    }

    #[test]
    fn equal_distance_ties_go_to_the_earliest_segment() {
        // Back and forth over one street: all three segments lie 10 m
        // from q, so only the position can decide.
        let t = traj(0, &[(0.0, 0.0), (100.0, 0.0), (0.0, 0.0), (100.0, 0.0)]);
        let q = Point::new(50.0, 10.0);
        let mut ed = TrajectoryEditor::new(t);
        assert_eq!(ed.insert_occurrences(q, 2), 20.0);
        assert_eq!(ed.stats.segments_checked, 3);
        assert_eq!(ed.stats.cells_visited, 0);
        let out = ed.into_trajectory();
        assert_eq!(out.samples[1].loc, q);
        assert_eq!(out.samples[3].loc, q);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn scan_distances_match_the_hierarchical_grid() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(15);
        // Points on a coarse lattice, so trajectories revisit points and
        // repeat whole segments, and many distances tie.
        let lattice = |rng: &mut StdRng| {
            (f64::from(rng.gen_range(0..8u32)) * 125.0, f64::from(rng.gen_range(0..8u32)) * 125.0)
        };
        let mut checked = 0;
        for id in 0..40 {
            let len = rng.gen_range(0..30usize);
            let pts: Vec<(f64, f64)> = (0..len).map(|_| lattice(&mut rng)).collect();
            let mut ed = TrajectoryEditor::new(traj(id, &pts));
            for _ in 0..6 {
                let (x, y) = if rng.gen_range(0..2u32) == 0 {
                    lattice(&mut rng)
                } else {
                    (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0))
                };
                let q = Point::new(x, y);
                let delta = rng.gen_range(1..=ed.trajectory().num_segments() + 2);
                let mut index = AnyIndex::new(IndexKind::default(), domain());
                for (i, seg) in ed.trajectory().segments() {
                    index.insert(SegmentEntry::new(i as u64, seg));
                }
                let (hits, _) = index.knn_with_stats(&q, delta, None);
                let mut want: Vec<u64> = hits.iter().map(|n| n.dist.to_bits()).collect();
                let mut got: Vec<u64> = nearest_segments(ed.trajectory(), &q, delta)
                    .into_iter()
                    .map(|(d, _)| d.0.to_bits())
                    .collect();
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "trajectory {id}, q = {q:?}, delta = {delta}");
                ed.insert_occurrences(q, delta);
                checked += 1;
            }
        }
        assert_eq!(checked, 240);
    }

    // ---------- DatasetEditor ----------

    fn make_dataset_editor() -> DatasetEditor {
        let trajs = vec![
            traj(0, &[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]),
            traj(1, &[(0.0, 500.0), (100.0, 500.0), (200.0, 500.0)]),
            traj(2, &[(0.0, 1000.0), (100.0, 1000.0), (200.0, 1000.0)]),
        ];
        DatasetEditor::new(trajs, IndexKind::default(), domain())
    }

    #[test]
    fn increase_tf_picks_nearest_trajectories() {
        let mut ed = make_dataset_editor();
        let q = Point::new(150.0, 40.0); // closest to trajectory 0, then 1
        let n = ed.increase_tf(q, 2);
        assert_eq!(n, 2);
        ed.check_invariants();
        assert_eq!(ed.tf(q.key()), 2);
        let trajs = ed.into_trajectories();
        assert!(trajs[0].passes_through(q.key()));
        assert!(trajs[1].passes_through(q.key()));
        assert!(!trajs[2].passes_through(q.key()));
    }

    #[test]
    fn increase_tf_skips_trajectories_already_containing() {
        let mut ed = make_dataset_editor();
        let q = Point::new(100.0, 0.0); // already in trajectory 0
        assert_eq!(ed.tf(q.key()), 1);
        let n = ed.increase_tf(q, 1);
        assert_eq!(n, 1);
        ed.check_invariants();
        assert_eq!(ed.tf(q.key()), 2);
        // Trajectory 1 (nearest without q) must be the one modified.
        assert!(ed.trajectories()[1].passes_through(q.key()));
    }

    #[test]
    fn increase_tf_saturates_at_dataset_size() {
        let mut ed = make_dataset_editor();
        let q = Point::new(50.0, 250.0);
        let n = ed.increase_tf(q, 10);
        assert_eq!(n, 3, "cannot insert into more trajectories than exist");
        ed.check_invariants();
        assert_eq!(ed.tf(q.key()), 3);
    }

    #[test]
    fn increase_tf_runs_in_near_linear_time_when_delta_nears_the_dataset() {
        // A tiny ε_G drives ∆l toward |D|, so the search reports k = 4∆l
        // neighbours: an 8× larger dataset must take about 8× as long,
        // where a per-neighbour scan of the trajectories scored so far
        // would take about 64×. Best of five keeps scheduler noise out
        // of the ratio.
        let best = |n: usize| {
            (0..5)
                .map(|_| {
                    let trajs = (0..n)
                        .map(|i| {
                            let (x, y) = ((i * 7919 % 1000) as f64, (i * 104_729 % 997) as f64);
                            let zigzag: Vec<(f64, f64)> =
                                (0..5).map(|j| (x + j as f64, y + (j % 2) as f64)).collect();
                            traj(i as u64, &zigzag)
                        })
                        .collect();
                    let mut ed = DatasetEditor::new(trajs, IndexKind::default(), domain());
                    let started = std::time::Instant::now();
                    assert_eq!(ed.increase_tf(Point::new(500.5, 500.5), n), n);
                    started.elapsed()
                })
                .min()
                .unwrap()
        };
        let small = best(3_000);
        let large = best(24_000);
        let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
        assert!(ratio < 24.0, "an 8x larger dataset took {ratio:.1}x as long");
    }

    #[test]
    fn decrease_tf_removes_all_occurrences_from_victims() {
        let trajs = vec![
            traj(0, &[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0), (50.0, 0.0)]),
            traj(1, &[(0.0, 500.0), (50.0, 0.0), (100.0, 500.0)]),
            traj(2, &[(0.0, 1000.0), (200.0, 1000.0)]),
        ];
        let mut ed = DatasetEditor::new(trajs, IndexKind::default(), domain());
        let q = Point::new(50.0, 0.0).key();
        assert_eq!(ed.tf(q), 2);
        let n = ed.decrease_tf(q, 1);
        assert_eq!(n, 1);
        ed.check_invariants();
        assert_eq!(ed.tf(q), 1);
        // The victim should be trajectory 0: its occurrences lie on the
        // straight line (zero reconnection loss) while trajectory 1's
        // occurrence is a 500 m detour.
        assert_eq!(ed.trajectories()[0].count_point(q), 0);
        assert!(ed.trajectories()[1].passes_through(q));
    }

    #[test]
    fn decrease_tf_saturates() {
        let mut ed = make_dataset_editor();
        let q = Point::new(100.0, 0.0).key();
        let n = ed.decrease_tf(q, 5);
        assert_eq!(n, 1);
        ed.check_invariants();
        assert_eq!(ed.tf(q), 0);
        assert_eq!(ed.decrease_tf(q, 1), 0);
    }

    #[test]
    fn roundtrip_increase_then_decrease() {
        let mut ed = make_dataset_editor();
        let q = Point::new(300.0, 300.0);
        ed.increase_tf(q, 2);
        assert_eq!(ed.tf(q.key()), 2);
        ed.decrease_tf(q.key(), 2);
        assert_eq!(ed.tf(q.key()), 0);
        ed.check_invariants();
        for t in ed.trajectories() {
            assert!(!t.passes_through(q.key()));
        }
    }

    #[test]
    fn dataset_editor_tracks_loss_and_counts() {
        let mut ed = make_dataset_editor();
        let q = Point::new(150.0, 40.0);
        ed.increase_tf(q, 1);
        assert!(ed.loss > 0.0);
        assert_eq!(ed.insertions, 1);
        ed.decrease_tf(q.key(), 1);
        assert_eq!(ed.deletions, 1);
    }

    #[test]
    fn works_with_all_index_kinds() {
        use trajdp_index::Strategy;
        for kind in [
            IndexKind::Linear,
            IndexKind::Uniform(32),
            IndexKind::Hier(64, Strategy::TopDown),
            IndexKind::Hier(64, Strategy::BottomUp),
            IndexKind::Hier(64, Strategy::BottomUpDown),
        ] {
            let trajs = vec![
                traj(0, &[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]),
                traj(1, &[(0.0, 500.0), (100.0, 500.0)]),
            ];
            let mut ed = DatasetEditor::new(trajs, kind, domain());
            let q = Point::new(150.0, 40.0);
            assert_eq!(ed.increase_tf(q, 1), 1, "{kind:?}");
            ed.check_invariants();
            assert!(
                ed.trajectories()[0].passes_through(q.key()),
                "{kind:?} chose wrong trajectory"
            );
        }
    }

    fn _segment_helper_compiles(s: Segment) -> f64 {
        s.len()
    }

    // ---------- bbox-pruned inter-trajectory modification ----------

    #[test]
    fn bbox_pruning_selects_same_trajectories() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let trajs: Vec<Trajectory> = (0..25)
            .map(|id| {
                let cx: f64 = rng.gen_range(0.0..900.0);
                let cy: f64 = rng.gen_range(0.0..900.0);
                let pts: Vec<(f64, f64)> = (0..8)
                    .map(|_| (cx + rng.gen_range(0.0..120.0), cy + rng.gen_range(0.0..120.0)))
                    .collect();
                traj(id, &pts)
            })
            .collect();
        for delta in [1usize, 3, 7] {
            let q = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let mut plain = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            let mut pruned = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            pruned.use_bbox_pruning = true;
            assert_eq!(plain.increase_tf(q, delta), pruned.increase_tf(q, delta));
            pruned.check_invariants();
            let a: Vec<bool> =
                plain.trajectories().iter().map(|t| t.passes_through(q.key())).collect();
            let b: Vec<bool> =
                pruned.trajectories().iter().map(|t| t.passes_through(q.key())).collect();
            assert_eq!(a, b, "delta={delta}: pruned selection differs");
            assert!((plain.loss - pruned.loss).abs() < 1e-9, "loss differs at delta={delta}");
        }
    }

    #[test]
    fn bbox_pruning_checks_fewer_segments() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let trajs: Vec<Trajectory> = (0..60)
            .map(|id| {
                let cx: f64 = rng.gen_range(0.0..900.0);
                let cy: f64 = rng.gen_range(0.0..900.0);
                let pts: Vec<(f64, f64)> = (0..20)
                    .map(|_| (cx + rng.gen_range(0.0..60.0), cy + rng.gen_range(0.0..60.0)))
                    .collect();
                traj(id, &pts)
            })
            .collect();
        let total_segments: usize = trajs.iter().map(Trajectory::num_segments).sum();
        let mut pruned = DatasetEditor::new(trajs, IndexKind::default(), domain());
        pruned.use_bbox_pruning = true;
        pruned.increase_tf(Point::new(10.0, 10.0), 2);
        assert!(
            pruned.stats.segments_checked < total_segments / 2,
            "pruning should skip most trajectories: checked {} of {}",
            pruned.stats.segments_checked,
            total_segments
        );
    }

    // ---------- tie-breaking and parallel scans ----------

    /// 18 single-segment trajectories in two distance bands, arranged so
    /// the *closer* band occupies the *higher* slots: slots 0–8 lie 20 m
    /// from the query, slots 9–17 lie 5 m away. Every within-band
    /// comparison is an equal-loss tie.
    fn tie_heavy_trajs() -> Vec<Trajectory> {
        (0..18)
            .map(|slot| {
                let y = if slot < 9 { 20.0 } else { 5.0 };
                traj(slot, &[(0.0, y), (100.0, y)])
            })
            .collect()
    }

    #[test]
    fn bbox_vs_index_parity_on_tie_heavy_dataset() {
        let trajs = tie_heavy_trajs();
        let q = Point::new(50.0, 0.0);
        for delta in [1usize, 3, 9, 12, 17] {
            let mut plain = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            let mut pruned = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            pruned.use_bbox_pruning = true;
            assert_eq!(plain.increase_tf(q, delta), pruned.increase_tf(q, delta));
            let a: Vec<bool> =
                plain.trajectories().iter().map(|t| t.passes_through(q.key())).collect();
            let b: Vec<bool> =
                pruned.trajectories().iter().map(|t| t.passes_through(q.key())).collect();
            assert_eq!(a, b, "delta={delta}: selections diverge on ties");
            assert!((plain.loss - pruned.loss).abs() < 1e-9, "delta={delta}");
        }
    }

    #[test]
    fn knn_path_scores_single_sample_trajectories() {
        // Slot 1 is one sample 1 m from q; slot 0's segment lies 100 m
        // away. Appending to slot 1 is the cheaper insertion on both
        // paths (the kNN path used to reach single-sample slots only
        // through a slot-order fallback).
        let trajs = vec![traj(0, &[(0.0, 100.0), (200.0, 100.0)]), traj(1, &[(50.0, 1.0)])];
        let q = Point::new(50.0, 0.0);
        for bbox in [false, true] {
            let mut ed = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            ed.use_bbox_pruning = bbox;
            assert_eq!(ed.increase_tf(q, 1), 1);
            ed.check_invariants();
            assert!(ed.trajectories()[1].passes_through(q.key()), "bbox={bbox}");
            assert_eq!(ed.loss, 1.0, "bbox={bbox}");
        }
    }

    #[test]
    fn bbox_vs_index_parity_with_single_sample_and_empty_slots() {
        // Segments, single samples (two at the same distance as a
        // segment, to tie across kinds) and empty slots interleaved.
        let trajs = vec![
            traj(0, &[(0.0, 20.0), (100.0, 20.0)]),
            traj(1, &[(50.0, 20.0)]),
            traj(2, &[]),
            traj(3, &[(50.0, 5.0)]),
            traj(4, &[(0.0, 5.0), (100.0, 5.0), (100.0, 300.0)]),
            traj(5, &[]),
            traj(6, &[(400.0, 400.0)]),
            traj(7, &[(0.0, -60.0), (100.0, -60.0)]),
            traj(8, &[(50.0, 0.0)]), // already holds q
        ];
        let q = Point::new(50.0, 0.0);
        let ranked = 6; // every slot but the two empty ones and slot 8
        for delta in 1..=trajs.len() {
            let mut plain = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            let mut pruned = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            pruned.use_bbox_pruning = true;
            let n = plain.increase_tf(q, delta);
            assert_eq!(n, delta.min(ranked + 2), "delta={delta}");
            assert_eq!(pruned.increase_tf(q, delta), n, "delta={delta}");
            plain.check_invariants();
            pruned.check_invariants();
            assert_eq!(plain.trajectories(), pruned.trajectories(), "delta={delta}");
            assert_eq!(plain.loss, pruned.loss, "delta={delta}");
            // Empty slots take only what the ranked ones cannot, in
            // slot order.
            let filled = [2, 5].map(|t| !plain.trajectories()[t].is_empty());
            assert_eq!(filled, [delta > ranked, delta > ranked + 1], "delta={delta}");
        }
        // delta = 2: slot 3 (5 m, single sample) and slot 4 (5 m,
        // segment) tie; the tie goes by slot, ahead of slots 0 and 1.
        let mut ed = DatasetEditor::new(trajs, IndexKind::default(), domain());
        ed.increase_tf(q, 2);
        let chosen: Vec<usize> =
            (0..9).filter(|&t| ed.trajectories()[t].passes_through(q.key())).collect();
        assert_eq!(chosen, vec![3, 4, 8]);
    }

    /// kNN distances over a grid of queries, for comparing two indexes.
    fn knn_profile(ed: &DatasetEditor) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        for x in (-50..=1050).step_by(100) {
            for y in (-50..=1050).step_by(100) {
                let p = Point::new(f64::from(x), f64::from(y));
                let (hits, _) = ed.index.knn_with_stats(&p, 6, None);
                out.push(hits.iter().map(|n| n.dist).collect());
            }
        }
        out
    }

    #[test]
    fn incremental_decrease_matches_a_rebuilt_index() {
        use trajdp_index::Strategy;
        let q = (50.0, 50.0);
        let trajs = vec![
            // Adjacent duplicates in the interior.
            traj(0, &[(0.0, 0.0), q, q, (100.0, 0.0), (200.0, 10.0)]),
            // q first and last.
            traj(1, &[q, (300.0, 300.0), (400.0, 300.0), q]),
            // Shrinks to one sample.
            traj(2, &[q, (600.0, 600.0), q, q]),
            // Shrinks to nothing.
            traj(3, &[q, q]),
            // q in the middle of a long detour.
            traj(4, &[(900.0, 900.0), (800.0, 900.0), q, (700.0, 900.0), q, (600.0, 900.0)]),
            // Never holds q.
            traj(5, &[(10.0, 500.0), (500.0, 10.0)]),
        ];
        let qk = Point::new(q.0, q.1).key();
        for kind in [
            IndexKind::Linear,
            IndexKind::Uniform(32),
            IndexKind::Hier(64, Strategy::TopDown),
            IndexKind::default(),
        ] {
            let mut ed = DatasetEditor::new(trajs.clone(), kind, domain());
            let mut expected: Vec<Trajectory> = trajs.clone();
            let mut expected_loss = 0.0;
            while ed.tf(qk) > 0 {
                let victim = ed.decrease_victims(qk, 1)[0];
                expected_loss += expected[victim].delete_all(qk);
                assert_eq!(ed.decrease_tf(qk, 1), 1);
                ed.check_invariants();
                assert_eq!(ed.trajectories(), &expected[..], "{kind:?}");
                assert_eq!(ed.loss, expected_loss, "{kind:?}");
                let rebuilt = DatasetEditor::new(expected.clone(), kind, domain());
                assert_eq!(knn_profile(&ed), knn_profile(&rebuilt), "{kind:?}");
            }
            assert_eq!(ed.trajectories()[2].len(), 1, "{kind:?}");
            assert!(ed.trajectories()[3].is_empty(), "{kind:?}");
            assert_eq!(ed.deletions, 11, "{kind:?}");
        }
    }

    #[test]
    fn equal_loss_ties_go_to_smallest_slot_on_both_paths() {
        // With delta = 3 the nearer band (slots 9–17) ties nine ways;
        // the fixed rule must pick its three smallest slots.
        let q = Point::new(50.0, 0.0);
        for bbox in [false, true] {
            let mut ed = DatasetEditor::new(tie_heavy_trajs(), IndexKind::default(), domain());
            ed.use_bbox_pruning = bbox;
            assert_eq!(ed.increase_tf(q, 3), 3);
            let chosen: Vec<usize> =
                (0..18).filter(|&t| ed.trajectories()[t].passes_through(q.key())).collect();
            assert_eq!(chosen, vec![9, 10, 11], "bbox={bbox}");
        }
    }

    #[test]
    fn knn_tie_straddle_at_k_cutoff_still_picks_smallest_slots() {
        // 30 identical trajectories: every eligible segment ties, and
        // the initial k = 8 cutoff hides most of them behind the search
        // frontier. The kNN path must keep growing k instead of letting
        // index-visit order decide the tie, staying in lockstep with
        // the bbox path.
        let trajs: Vec<Trajectory> =
            (0..30).map(|id| traj(id, &[(0.0, 10.0), (100.0, 10.0)])).collect();
        let q = Point::new(50.0, 0.0);
        for bbox in [false, true] {
            let mut ed = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain());
            ed.use_bbox_pruning = bbox;
            assert_eq!(ed.increase_tf(q, 2), 2);
            let chosen: Vec<usize> =
                (0..30).filter(|&t| ed.trajectories()[t].passes_through(q.key())).collect();
            assert_eq!(chosen, vec![0, 1], "bbox={bbox}");
        }
    }

    #[test]
    fn decrease_tf_breaks_ties_by_smallest_slot() {
        // q sits on the straight line of every trajectory, so all four
        // complete-deletion losses are exactly zero.
        let pts: &[(f64, f64)] = &[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)];
        let trajs: Vec<Trajectory> = (0..4).map(|id| traj(id, pts)).collect();
        let q = Point::new(50.0, 0.0).key();
        let mut ed = DatasetEditor::new(trajs, IndexKind::default(), domain());
        assert_eq!(ed.decrease_tf(q, 2), 2);
        ed.check_invariants();
        assert_eq!(ed.trajectories()[0].count_point(q), 0);
        assert_eq!(ed.trajectories()[1].count_point(q), 0);
        assert!(ed.trajectories()[2].passes_through(q));
        assert!(ed.trajectories()[3].passes_through(q));
    }

    /// Seeded cluster dataset: ten samples around a random centre per trajectory.
    fn clustered_trajs(n: usize, seed: u64) -> Vec<Trajectory> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|id| {
                let cx: f64 = rng.gen_range(0.0..900.0);
                let cy: f64 = rng.gen_range(0.0..900.0);
                let pts: Vec<(f64, f64)> = (0..10)
                    .map(|_| (cx + rng.gen_range(0.0..100.0), cy + rng.gen_range(0.0..100.0)))
                    .collect();
                traj(id as u64, &pts)
            })
            .collect()
    }

    #[test]
    fn decrease_victims_is_a_pure_scan() {
        let q = Point::new(500.0, 500.0);
        let trajs: Vec<Trajectory> = clustered_trajs(10, 5)
            .into_iter()
            .map(|mut t| {
                t.push_point(q);
                t
            })
            .collect();
        let ed = DatasetEditor::new(trajs, IndexKind::default(), domain());
        let before: Vec<Trajectory> = ed.trajectories().to_vec();
        let victims = ed.decrease_victims(q.key(), 3);
        assert_eq!(victims.len(), 3);
        assert_eq!(ed.trajectories(), &before[..], "scan must not modify the dataset");
        assert_eq!(victims, ed.decrease_victims(q.key(), 3), "the scan must be repeatable");
    }

    #[test]
    fn bbox_stays_consistent_after_edits() {
        let mut ed = make_dataset_editor();
        let q = Point::new(5000.0, 5000.0); // outside current boxes (clamped into domain use)
        let q = Point::new(q.x.min(1000.0), q.y.min(1000.0));
        ed.use_bbox_pruning = true;
        ed.increase_tf(q, 2);
        ed.check_invariants();
        // After inserting q the cached boxes must cover it.
        for (t, traj) in ed.trajectories().iter().enumerate() {
            if traj.passes_through(q.key()) {
                assert!(ed.bboxes[t].contains(&q));
            }
        }
        ed.decrease_tf(q.key(), 2);
        for (t, traj) in ed.trajectories().iter().enumerate() {
            assert_eq!(ed.bboxes[t], traj.bbox(), "bbox stale after deletion in slot {t}");
        }
    }
}
