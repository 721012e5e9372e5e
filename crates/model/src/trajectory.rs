//! Trajectories: chronologically ordered sequences of timestamped samples.
//!
//! Definition 4 of the paper: `τ = {p₁, …, p_|τ|}`, one trajectory per
//! moving object covering its entire history. This module also implements
//! the two primitive edit operations the modification phase relies on —
//! point insertion into a segment and point deletion — together with their
//! utility-loss accounting (Definitions 5 and 6).

use crate::geometry::{Point, PointKey, Rect, Segment};

/// Identifier of a trajectory (and of the moving object that produced it).
pub type TrajId = u64;

/// A timestamped GPS sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Snapped spatial location.
    pub loc: Point,
    /// Seconds since the epoch of the dataset.
    pub t: i64,
}

impl Sample {
    /// Creates a sample.
    #[inline]
    pub const fn new(loc: Point, t: i64) -> Self {
        Self { loc, t }
    }
}

/// A single object's full movement history.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Identifier of the owning object.
    pub id: TrajId,
    /// Chronologically ordered samples.
    pub samples: Vec<Sample>,
}

impl Trajectory {
    /// Creates a trajectory from pre-ordered samples.
    pub fn new(id: TrajId, samples: Vec<Sample>) -> Self {
        debug_assert!(
            samples.windows(2).all(|w| w[0].t <= w[1].t),
            "samples must be chronologically ordered"
        );
        Self { id, samples }
    }

    /// Number of samples, `|τ|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trajectory has no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterator over the spatial locations.
    pub fn points(&self) -> impl Iterator<Item = &Point> + '_ {
        self.samples.iter().map(|s| &s.loc)
    }

    /// The consecutive-pair segment starting at sample `i`
    /// (`⟨samples[i], samples[i+1]⟩`).
    #[inline]
    pub fn segment(&self, i: usize) -> Segment {
        Segment::new(self.samples[i].loc, self.samples[i + 1].loc)
    }

    /// Number of consecutive-pair segments (`len − 1`, or 0).
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.samples.len().saturating_sub(1)
    }

    /// Iterator over all consecutive-pair segments with their start index.
    pub fn segments(&self) -> impl Iterator<Item = (usize, Segment)> + '_ {
        self.samples.windows(2).enumerate().map(|(i, w)| (i, Segment::new(w[0].loc, w[1].loc)))
    }

    /// Axis-aligned bounding box of all samples.
    pub fn bbox(&self) -> Rect {
        let mut r = Rect::empty();
        for s in &self.samples {
            r.expand(&s.loc);
        }
        r
    }

    /// Approximate diameter via the bounding-box diagonal: an upper bound
    /// that is exact when extreme points sit on opposite corners. O(n).
    pub fn diameter_approx(&self) -> f64 {
        let b = self.bbox();
        if b.is_empty() {
            return 0.0;
        }
        let w = b.width();
        let h = b.height();
        (w * w + h * h).sqrt()
    }

    /// The trip of the trajectory: its first and last sampled locations.
    pub fn trip(&self) -> Option<(Point, Point)> {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => Some((a.loc, b.loc)),
            _ => None,
        }
    }

    /// Total path length in metres.
    pub fn path_len(&self) -> f64 {
        self.samples.windows(2).map(|w| w[0].loc.dist(&w[1].loc)).sum()
    }

    /// Number of occurrences of the exact location `q` (the point-counting
    /// query `φ(q, τ)` whose sensitivity is 1).
    pub fn count_point(&self, q: PointKey) -> usize {
        self.samples.iter().filter(|s| s.loc.key() == q).count()
    }

    /// Whether the trajectory passes through the exact location `q`.
    pub fn passes_through(&self, q: PointKey) -> bool {
        self.samples.iter().any(|s| s.loc.key() == q)
    }

    /// Inserts location `q` into segment `seg_idx` (between samples
    /// `seg_idx` and `seg_idx + 1`), the `OPᵢ` operation of Definition 5.
    ///
    /// The new sample's timestamp is interpolated from the segment's
    /// endpoints at the projection parameter of `q`, keeping the
    /// chronological order invariant. Returns the utility loss
    /// `dist(q, s)`.
    pub fn insert_into_segment(&mut self, q: Point, seg_idx: usize) -> f64 {
        assert!(seg_idx + 1 < self.samples.len(), "segment index out of range");
        let s = self.segment(seg_idx);
        let loss = s.dist_to_point(&q);
        let t0 = self.samples[seg_idx].t;
        let t1 = self.samples[seg_idx + 1].t;
        let frac = s.closest_t(&q);
        let t = t0 + ((t1 - t0) as f64 * frac).round() as i64;
        self.samples.insert(seg_idx + 1, Sample::new(q, t));
        loss
    }

    /// Appends location `q` at the end of the trajectory (used when a
    /// trajectory has fewer than two samples and no segment exists).
    /// Returns the utility loss, the distance from `q` to the previous
    /// last sample (0 for an empty trajectory).
    pub fn push_point(&mut self, q: Point) -> f64 {
        let (loss, t) = match self.samples.last() {
            Some(last) => (last.loc.dist(&q), last.t + 1),
            None => (0.0, 0),
        };
        self.samples.push(Sample::new(q, t));
        loss
    }

    /// Deletes the sample at `idx`, the `OP_d` operation of Definition 6.
    ///
    /// Returns the utility loss: the distance from the removed location to
    /// the segment reconnecting its neighbours (0 when the sample is an
    /// endpoint of the trajectory, since no reconnection error arises).
    pub fn delete_at(&mut self, idx: usize) -> f64 {
        assert!(idx < self.samples.len(), "sample index out of range");
        let loss = self.deletion_loss(idx);
        self.samples.remove(idx);
        loss
    }

    /// The utility loss [`Trajectory::delete_at`] would incur, without
    /// performing the deletion.
    pub fn deletion_loss(&self, idx: usize) -> f64 {
        if idx == 0 || idx + 1 >= self.samples.len() {
            return 0.0;
        }
        let q = self.samples[idx].loc;
        let s = Segment::new(self.samples[idx - 1].loc, self.samples[idx + 1].loc);
        s.dist_to_point(&q)
    }

    /// Removes every occurrence of location `q`, accumulating losses
    /// (the "forced disappearance" case `L[OP_d(q, τ)] = Σ_s L[OP_d(q,s)]`).
    ///
    /// Occurrences are removed one at a time so that each reconnection loss
    /// is computed against the then-current neighbours.
    pub fn delete_all(&mut self, q: PointKey) -> f64 {
        let mut total = 0.0;
        loop {
            let Some(idx) = self.samples.iter().position(|s| s.loc.key() == q) else {
                return total;
            };
            total += self.delete_at(idx);
        }
    }

    /// Indices of samples whose location equals `q`.
    pub fn occurrences(&self, q: PointKey) -> Vec<usize> {
        self.samples
            .iter()
            .enumerate()
            .filter_map(|(i, s)| (s.loc.key() == q).then_some(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(points: &[(f64, f64)]) -> Trajectory {
        let samples = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Sample::new(Point::new(x, y), i as i64 * 60))
            .collect();
        Trajectory::new(7, samples)
    }

    #[test]
    fn basic_accessors() {
        let t = traj(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.num_segments(), 2);
        assert_eq!(t.segments().count(), 2);
        assert_eq!(t.path_len(), 2.0);
        let (s, e) = t.trip().unwrap();
        assert_eq!(s, Point::new(0.0, 0.0));
        assert_eq!(e, Point::new(2.0, 0.0));
    }

    #[test]
    fn empty_trajectory() {
        let t = Trajectory::new(0, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.num_segments(), 0);
        assert!(t.trip().is_none());
        assert_eq!(t.diameter_approx(), 0.0);
    }

    #[test]
    fn diameter_exact_and_approx() {
        let t = traj(&[(0.0, 0.0), (3.0, 4.0), (1.0, 1.0)]);
        // bbox is [0,3]×[0,4]; its diagonal equals the exact diameter
        // (the (0,0)–(3,4) pair), 5.
        assert_eq!(t.diameter_approx(), 5.0);
    }

    #[test]
    fn count_and_passes_through() {
        let t = traj(&[(0.0, 0.0), (5.0, 5.0), (0.0, 0.0)]);
        let k = Point::new(0.0, 0.0).key();
        assert_eq!(t.count_point(k), 2);
        assert!(t.passes_through(k));
        assert!(!t.passes_through(Point::new(9.0, 9.0).key()));
        assert_eq!(t.occurrences(k), vec![0, 2]);
    }

    #[test]
    fn insert_interpolates_time_and_returns_distance() {
        let mut t = traj(&[(0.0, 0.0), (10.0, 0.0)]);
        let loss = t.insert_into_segment(Point::new(5.0, 3.0), 0);
        assert_eq!(loss, 3.0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.samples[1].loc, Point::new(5.0, 3.0));
        // Midpoint projection → timestamp halfway between 0 and 60.
        assert_eq!(t.samples[1].t, 30);
        assert!(t.samples.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn delete_interior_reconnection_loss() {
        let mut t = traj(&[(0.0, 0.0), (5.0, 4.0), (10.0, 0.0)]);
        assert_eq!(t.deletion_loss(1), 4.0);
        let loss = t.delete_at(1);
        assert_eq!(loss, 4.0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn delete_endpoint_is_free() {
        let mut t = traj(&[(0.0, 0.0), (5.0, 4.0), (10.0, 0.0)]);
        assert_eq!(t.delete_at(0), 0.0);
        assert_eq!(t.delete_at(t.len() - 1), 0.0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_all_removes_every_occurrence() {
        let mut t = traj(&[(0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (2.0, 2.0), (0.0, 0.0)]);
        let k = Point::new(0.0, 0.0).key();
        t.delete_all(k);
        assert_eq!(t.count_point(k), 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn push_point_on_empty_and_nonempty() {
        let mut t = Trajectory::new(1, vec![]);
        assert_eq!(t.push_point(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(t.push_point(Point::new(4.0, 5.0)), 5.0);
        assert_eq!(t.len(), 2);
        assert!(t.samples[0].t < t.samples[1].t);
    }

    #[test]
    #[should_panic(expected = "segment index out of range")]
    fn insert_out_of_range_panics() {
        let mut t = traj(&[(0.0, 0.0), (1.0, 0.0)]);
        t.insert_into_segment(Point::new(0.5, 0.5), 1);
    }

    #[test]
    fn bbox_covers_all_points() {
        let t = traj(&[(0.0, 0.0), (5.0, -4.0), (-2.0, 3.0)]);
        let b = t.bbox();
        for p in t.points() {
            assert!(b.contains(p));
        }
    }
}
