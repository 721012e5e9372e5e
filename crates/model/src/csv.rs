//! Plain-text (CSV) interchange for trajectory datasets.
//!
//! The format is one sample per line — `traj_id,x,y,t` — with a header
//! line, matching the flat layouts used by public trajectory corpora
//! (T-Drive itself ships as per-taxi CSV files). Samples of a
//! trajectory must be contiguous and chronologically ordered; the
//! domain is recomputed from the data on load. Coordinates must be
//! finite: `NaN` and infinities are rejected as a bad `x` or `y`.
//!
//! # Location caches
//!
//! Point and trajectory frequencies are counted on exact locations, so
//! a dataset repeats a small set of them many times over. Converting a
//! coordinate between text and `f64` is most of the codec's work, so
//! each call keeps a direct-mapped location cache of at most 4096
//! slots, sized down for small inputs:
//!
//! - [`to_csv`] keys a slot by a sample's [`PointKey`] and remembers
//!   where that location's `x,y` text was first written; a hit copies
//!   those bytes, so the output is byte-identical to formatting anew.
//! - [`from_csv`] keys a slot by a line's exact `x,y` text (between its
//!   first and last comma) and stores the finite [`Point`] a fully
//!   validated line parsed from it; a hit skips the two `f64` parses.
//!   The id is read before the lookup and `t` after it, and a miss
//!   parses `x` and `y` as an uncached parser would, so every error
//!   text and line number is the same with or without the cache.
//!
//! A slot holds one key, and a colliding key overwrites it. A lookup
//! never probes, so the worst case per sample is one miss: a hash and
//! a slot write on top of what an uncached codec does. No input,
//! crafted to collide or not, makes either function worse than
//! linear, and neither table grows past its bound.

use crate::dataset::Dataset;
use crate::error::ModelError;
use crate::geometry::{Point, PointKey};
use crate::trajectory::{Sample, TrajId, Trajectory};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::ops::Range;

/// Header line written by [`to_csv`] and required by [`from_csv`].
pub const CSV_HEADER: &str = "traj_id,x,y,t";

/// Serializes a dataset to CSV text.
pub fn to_csv(ds: &Dataset) -> String {
    let mut out = String::with_capacity(16 + ds.total_points() * 32);
    out.push_str(CSV_HEADER);
    out.push('\n');
    // Where each location's `x,y` text was first written.
    let mut written: LocationCache<PointKey, Range<usize>> = LocationCache::new(ds.total_points());
    for t in &ds.trajectories {
        // Where this trajectory's `id,` prefix was first written.
        let mut id: Option<Range<usize>> = None;
        for s in &t.samples {
            match &id {
                Some(id) => out.extend_from_within(id.clone()),
                None => {
                    let start = out.len();
                    write!(out, "{},", t.id).expect("writing to a String cannot fail");
                    id = Some(start..out.len());
                }
            }
            let key = s.loc.key();
            let hash = point_hash(key);
            match written.get(hash, &key) {
                Some(xy) => out.extend_from_within(xy),
                None => {
                    // `{}` on f64 prints the shortest representation
                    // that round-trips, so parsing recovers
                    // bit-identical points.
                    let start = out.len();
                    write!(out, "{},{}", s.loc.x, s.loc.y)
                        .expect("writing to a String cannot fail");
                    written.set(hash, key, start..out.len());
                }
            }
            writeln!(out, ",{}", s.t).expect("writing to a String cannot fail");
        }
    }
    out
}

/// Parses a dataset from CSV text produced by [`to_csv`] (or any file in
/// the same layout). Empty trajectories are not representable in CSV
/// and therefore do not round-trip.
pub fn from_csv(text: &str) -> Result<Dataset, ModelError> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h.trim() == CSV_HEADER => {}
        Some(h) => return Err(ModelError::Invalid { reason: format!("unexpected header: {h:?}") }),
        None => return Err(ModelError::Truncated { context: "csv header" }),
    }
    let mut trajectories: Vec<Trajectory> = Vec::new();
    // Ids of the finished blocks: a new block with one of these ids is
    // a trajectory split in two.
    let mut finished: HashSet<TrajId> = HashSet::new();
    let mut current: Option<(TrajId, Vec<Sample>)> = None;
    // The point each `x,y` text parsed to, for lines that passed every
    // check. A sample line and its newline take at least 8 bytes.
    let mut parsed: LocationCache<&str, Point> = LocationCache::new(text.len() / 8);
    for (lineno, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parse_err = |what: &str| ModelError::Invalid {
            reason: format!("line {}: bad {what}: {line:?}", lineno + 2),
        };
        let (id_text, rest) = line.split_once(',').unwrap_or((line, ""));
        let id: TrajId = id_text.trim().parse().map_err(|_| parse_err("traj_id"))?;
        // The text between the first and the last comma keys the cache;
        // on a four-field line it is exactly the line's `x,y`.
        let (xy, t_text) = match rest.bytes().rposition(|b| b == b',') {
            Some(c) => (&rest[..c], &rest[c + 1..]),
            None => return Err(parse_err(misshapen(rest))),
        };
        let hash = text_hash(xy);
        let loc = match parsed.get(hash, &xy) {
            // This `x,y` text passed every check on an earlier line, and
            // a stored key holds one comma: this line has four fields.
            Some(loc) => loc,
            None => {
                let Some((x, y)) = xy.split_once(',').filter(|(_, y)| !y.contains(',')) else {
                    return Err(parse_err(misshapen(rest)));
                };
                let x = coordinate(x).ok_or_else(|| parse_err("x"))?;
                let y = coordinate(y).ok_or_else(|| parse_err("y"))?;
                Point::new(x, y)
            }
        };
        let t: i64 = t_text.trim().parse().map_err(|_| parse_err("t"))?;
        parsed.set(hash, xy, loc);
        let sample = Sample::new(loc, t);
        match &mut current {
            Some((cur_id, samples)) if *cur_id == id => {
                if samples.last().is_some_and(|prev| prev.t > t) {
                    return Err(ModelError::Invalid {
                        reason: format!("trajectory {id} has unordered timestamps"),
                    });
                }
                samples.push(sample);
            }
            _ => {
                if let Some((done_id, samples)) = current.take() {
                    if finished.contains(&id) {
                        return Err(ModelError::Invalid {
                            reason: format!("trajectory {id} appears in two separate blocks"),
                        });
                    }
                    finished.insert(done_id);
                    trajectories.push(Trajectory::new(done_id, samples));
                }
                current = Some((id, vec![sample]));
            }
        }
    }
    if let Some((id, samples)) = current {
        trajectories.push(Trajectory::new(id, samples));
    }
    Ok(Dataset::from_trajectories(trajectories))
}

/// A finite coordinate, or `None`.
fn coordinate(field: &str) -> Option<f64> {
    field.trim().parse().ok().filter(|c: &f64| c.is_finite())
}

/// The first bad field of a line whose fields after `traj_id` are
/// `rest`, when it does not hold exactly four fields.
fn misshapen(rest: &str) -> &'static str {
    let mut fields = rest.split(',');
    if fields.next().and_then(coordinate).is_none() {
        "x"
    } else if fields.next().and_then(coordinate).is_none() {
        "y"
    } else if fields.next().and_then(|t| t.trim().parse::<i64>().ok()).is_none() {
        "t"
    } else {
        "field count"
    }
}

/// Slot bound of each location cache.
const MAX_SLOTS: usize = 4096;

/// Odd multiplier of the add-then-multiply word mixing (the index's
/// `GridHasher` uses the same scheme and constant).
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

fn mix(h: u64, word: u64) -> u64 {
    h.wrapping_add(word).wrapping_mul(MULTIPLIER)
}

/// Hash of a location's bit pattern.
fn point_hash(key: PointKey) -> u64 {
    let p = key.to_point();
    mix(mix(0, p.x.to_bits()), p.y.to_bits())
}

/// Hash of an `x,y` text, eight bytes at a time; the last word
/// overlaps the one before it when the length is not a multiple of 8.
fn text_hash(text: &str) -> u64 {
    let bytes = text.as_bytes();
    let word =
        |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an eight-byte range"));
    if bytes.len() < 8 {
        return bytes.iter().fold(0, |h, &b| mix(h, u64::from(b)));
    }
    let mut h = 0;
    let mut at = 0;
    while at + 8 < bytes.len() {
        h = mix(h, word(at));
        at += 8;
    }
    mix(h, word(bytes.len() - 8))
}

/// A direct-mapped cache: each slot holds at most one key with its
/// hash and value, and setting a slot overwrites whatever key it held.
/// A lookup compares the stored hash first, so a miss seldom reads the
/// stored key.
struct LocationCache<K, V> {
    bits: u32,
    slots: Vec<Option<(u64, K, V)>>,
}

impl<K: PartialEq, V: Clone> LocationCache<K, V> {
    /// A table of 16 to [`MAX_SLOTS`] slots (a power of two) for about
    /// `items` keys.
    fn new(items: usize) -> Self {
        let bits = items.clamp(16, MAX_SLOTS).next_power_of_two().trailing_zeros();
        Self { bits, slots: (0..1usize << bits).map(|_| None).collect() }
    }

    /// The slot of `hash`: its top bits, since the top bits of a
    /// product depend on every operand bit.
    fn slot(&self, hash: u64) -> usize {
        (hash >> (64 - self.bits)) as usize
    }

    fn get(&self, hash: u64, key: &K) -> Option<V> {
        match &self.slots[self.slot(hash)] {
            Some((h, k, v)) if *h == hash && k == key => Some(v.clone()),
            _ => None,
        }
    }

    fn set(&mut self, hash: u64, key: K, value: V) {
        let slot = self.slot(hash);
        self.slots[slot] = Some((hash, key, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;

    fn sample_dataset() -> Dataset {
        Dataset::new(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![
                Trajectory::new(
                    3,
                    vec![
                        Sample::new(Point::new(1.5, 2.5), 10),
                        Sample::new(Point::new(3.25, 4.75), 70),
                    ],
                ),
                Trajectory::new(12, vec![Sample::new(Point::new(-0.5, 99.0), -5)]),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_samples() {
        let ds = sample_dataset();
        let parsed = from_csv(&to_csv(&ds)).unwrap();
        assert_eq!(parsed.trajectories, ds.trajectories);
    }

    #[test]
    fn roundtrip_preserves_float_precision() {
        let ds = Dataset::from_trajectories(vec![Trajectory::new(
            0,
            vec![Sample::new(Point::new(1.0 / 3.0, std::f64::consts::PI), 0)],
        )]);
        let parsed = from_csv(&to_csv(&ds)).unwrap();
        assert_eq!(
            parsed.trajectories[0].samples[0].loc.key(),
            ds.trajectories[0].samples[0].loc.key(),
            "shortest-roundtrip float printing must preserve bits"
        );
    }

    #[test]
    fn rejects_missing_or_wrong_header() {
        assert!(matches!(from_csv(""), Err(ModelError::Truncated { .. })));
        assert!(matches!(from_csv("a,b,c\n"), Err(ModelError::Invalid { .. })));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "traj_id,x,y,t\n1,2.0,3.0\n",     // missing field
            "traj_id,x,y,t\n1,2.0,3.0,4,5\n", // extra field
            "traj_id,x,y,t\nxx,2.0,3.0,4\n",  // bad id
            "traj_id,x,y,t\n1,aa,3.0,4\n",    // bad x
            "traj_id,x,y,t\n1,2.0,3.0,zz\n",  // bad t
        ] {
            assert!(matches!(from_csv(bad), Err(ModelError::Invalid { .. })), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_unordered_timestamps() {
        let text = "traj_id,x,y,t\n1,0.0,0.0,100\n1,1.0,1.0,50\n";
        assert!(matches!(from_csv(text), Err(ModelError::Invalid { .. })));
    }

    #[test]
    fn rejects_split_trajectory_blocks() {
        let text = "traj_id,x,y,t\n1,0.0,0.0,0\n2,1.0,1.0,0\n1,2.0,2.0,5\n";
        let err = from_csv(text).unwrap_err();
        assert!(matches!(err, ModelError::Invalid { .. }));
        // A repeat of any earlier block, not only the one just closed.
        let text = "traj_id,x,y,t\n7,0,0,0\n8,0,0,0\n9,0,0,0\n8,0,0,1\n";
        match from_csv(text) {
            Err(ModelError::Invalid { reason }) => {
                assert_eq!(reason, "trajectory 8 appears in two separate blocks");
            }
            other => panic!("expected a split-block error, got {other:?}"),
        }
    }

    #[test]
    fn many_blocks_parse_in_near_linear_time() {
        // n single-sample trajectories: 8× as many blocks must take
        // about 8× as long, where comparing each block start with every
        // finished block would take about 64×. Best of five keeps
        // scheduler noise out of the ratio.
        let best = |n: usize| {
            let mut text = String::from("traj_id,x,y,t\n");
            for id in 0..n {
                writeln!(text, "{id},{}.5,2.25,{id}", id % 1000).unwrap();
            }
            assert_eq!(from_csv(&text).unwrap().len(), n);
            (0..5)
                .map(|_| {
                    let started = std::time::Instant::now();
                    from_csv(&text).unwrap();
                    started.elapsed()
                })
                .min()
                .unwrap()
        };
        let short = best(5_000);
        let long = best(40_000);
        let ratio = long.as_secs_f64() / short.as_secs_f64().max(1e-9);
        assert!(ratio < 24.0, "8x as many blocks took {ratio:.1}x as long to parse");
    }

    /// The uncached renderer: one `writeln!` per sample.
    fn plain_csv(ds: &Dataset) -> String {
        let mut out = format!("{CSV_HEADER}\n");
        for t in &ds.trajectories {
            for s in &t.samples {
                writeln!(out, "{},{},{},{}", t.id, s.loc.x, s.loc.y, s.t).unwrap();
            }
        }
        out
    }

    /// The uncached parser for well-formed text: `(id, location key, t)`
    /// per line.
    fn plain_parse(text: &str) -> Vec<(TrajId, PointKey, i64)> {
        text.lines()
            .skip(1)
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split(',').map(str::trim).collect();
                let loc = Point::new(f[1].parse().unwrap(), f[2].parse().unwrap());
                (f[0].parse().unwrap(), loc.key(), f[3].parse().unwrap())
            })
            .collect()
    }

    fn flatten(ds: &Dataset) -> Vec<(TrajId, PointKey, i64)> {
        ds.trajectories
            .iter()
            .flat_map(|t| t.samples.iter().map(move |s| (t.id, s.loc.key(), s.t)))
            .collect()
    }

    /// Trajectories of up to 50 samples over `points`, in order.
    fn dataset_of(points: &[Point]) -> Dataset {
        Dataset::from_trajectories(
            points
                .chunks(50)
                .enumerate()
                .map(|(id, chunk)| {
                    let samples =
                        chunk.iter().enumerate().map(|(i, &p)| Sample::new(p, i as i64 * 30));
                    Trajectory::new(id as TrajId, samples.collect())
                })
                .collect(),
        )
    }

    fn invalid_reason(text: &str) -> String {
        match from_csv(text) {
            Err(ModelError::Invalid { reason }) => reason,
            other => panic!("expected an invalid-record error for {text:?}, got {other:?}"),
        }
    }

    #[test]
    fn render_matches_plain_formatting() {
        let special = [
            Point::new(-0.0, 0.0),
            Point::new(0.0, -0.0),
            Point::new(5e-324, -5e-324),
            Point::new(1e300, -1e300),
            Point::new(f64::MAX, f64::MIN),
            Point::new(-12.75, -0.001),
            Point::new(1.0 / 3.0, std::f64::consts::PI),
        ];
        // Repeated locations: each special point again and again, across
        // trajectories, so later samples are copies.
        let repeated: Vec<Point> = (0..400).map(|i| special[i * 5 % special.len()]).collect();
        // More distinct locations than slots, each seen twice at a
        // distance, so the second visit may find its slot overwritten.
        let many: Vec<Point> =
            (0..2 * 6000).map(|i| Point::new((i % 6000) as f64 * 0.25, -1.5)).collect();
        for points in [&special[..], &repeated, &many] {
            let ds = dataset_of(points);
            assert_eq!(to_csv(&ds), plain_csv(&ds));
        }
        // Negative and large ids and timestamps.
        let ds = Dataset::from_trajectories(vec![
            Trajectory::new(u64::MAX, vec![Sample::new(Point::new(1.5, 2.5), i64::MIN)]),
            Trajectory::new(0, vec![Sample::new(Point::new(1.5, 2.5), -7)]),
        ]);
        assert_eq!(to_csv(&ds), plain_csv(&ds));
    }

    #[test]
    fn render_matches_plain_formatting_when_two_locations_share_a_slot() {
        // Ten samples take the smallest table; among 17 locations two
        // share one of its 16 slots.
        let table: LocationCache<PointKey, Range<usize>> = LocationCache::new(10);
        let slot = |p: Point| table.slot(point_hash(p.key()));
        let candidates: Vec<Point> = (0..17).map(|i| Point::new(i as f64, 1.0)).collect();
        let (a, b) = candidates
            .iter()
            .enumerate()
            .find_map(|(i, &a)| {
                candidates[i + 1..].iter().find(|&&b| slot(b) == slot(a)).map(|&b| (a, b))
            })
            .expect("pigeonhole");
        let ds = dataset_of(&[a, b, a, b, b, a, a, b, a, b]);
        assert_eq!(to_csv(&ds), plain_csv(&ds));
    }

    #[test]
    fn parse_matches_plain_parse_on_spellings_of_one_value() {
        let spellings = ["1.5", "1.50", " 1.5 ", "+1.5", "15e-1"];
        let mut text = format!("{CSV_HEADER}\n");
        for round in 0..3 {
            for (i, x) in spellings.iter().enumerate() {
                let y = spellings[(i + round) % spellings.len()];
                writeln!(text, "7,{x},{y},{}", round * 10 + i).unwrap();
            }
        }
        let ds = from_csv(&text).unwrap();
        assert_eq!(flatten(&ds), plain_parse(&text));
        assert!(ds.trajectories[0]
            .samples
            .iter()
            .all(|s| s.loc.key() == Point::new(1.5, 1.5).key()));
    }

    #[test]
    fn parse_matches_plain_parse_when_two_texts_share_a_slot() {
        // A short text takes the smallest table; among 17 texts two
        // share one of its 16 slots.
        let table: LocationCache<&str, Point> = LocationCache::new(10);
        let texts: Vec<String> = (0..17).map(|i| format!("{i}.5,2")).collect();
        let slot = |t: &str| table.slot(text_hash(t));
        let (a, b) = texts
            .iter()
            .enumerate()
            .find_map(|(i, a)| {
                texts[i + 1..].iter().find(|b| slot(b) == slot(a)).map(|b| (a.clone(), b.clone()))
            })
            .expect("pigeonhole");
        let mut text = format!("{CSV_HEADER}\n");
        for (t, xy) in [&a, &b, &a, &b, &b, &a].iter().enumerate() {
            writeln!(text, "1,{xy},{t}").unwrap();
        }
        assert_eq!(flatten(&from_csv(&text).unwrap()), plain_parse(&text));
    }

    #[test]
    fn cached_location_keeps_the_uncached_errors() {
        // Line 2 puts `1.5,2.5` in the cache; line 3 repeats it.
        let head = format!("{CSV_HEADER}\n1,1.5,2.5,0\n");
        for (line, what) in [
            ("1,1.5,2.5,zz", "t"),
            ("1,1.5,2.5,", "t"),
            ("1,1.5,2.5,4,5", "field count"),
            ("1,1.5,2.5,zz,5", "t"),
            ("zz,1.5,2.5,4", "traj_id"),
            (",1.5,2.5,4", "traj_id"),
            ("1,1.5,2.5", "t"),
            ("1,1.5", "y"),
            ("1", "x"),
            ("1,aa,2.5,4,5", "x"),
        ] {
            assert_eq!(
                invalid_reason(&format!("{head}{line}\n")),
                format!("line 3: bad {what}: {line:?}"),
            );
        }
    }

    #[test]
    fn rejects_non_finite_coordinates() {
        for bad in ["NaN", "nan", "inf", "-inf", "+inf", "infinity", "-Infinity"] {
            for (line, what) in [(format!("1,{bad},2.5,0"), "x"), (format!("1,2.5,{bad},0"), "y")] {
                let text = format!("{CSV_HEADER}\n{line}\n");
                assert_eq!(invalid_reason(&text), format!("line 2: bad {what}: {line:?}"));
            }
        }
    }

    /// Asserts that rendering and parsing 8x as many samples takes less
    /// than 24x as long (best of five each), as a linear cost would.
    fn assert_near_linear(label: &str, points: impl Fn(usize) -> Vec<Point>) {
        let best = |f: &dyn Fn()| {
            (0..5)
                .map(|_| {
                    let started = std::time::Instant::now();
                    f();
                    started.elapsed()
                })
                .min()
                .unwrap()
                .as_secs_f64()
                .max(1e-9)
        };
        let time = |n: usize| {
            let ds = dataset_of(&points(n));
            let text = to_csv(&ds);
            assert_eq!(from_csv(&text).unwrap().total_points(), n);
            (best(&|| drop(to_csv(&ds))), best(&|| drop(from_csv(&text))))
        };
        let (render_short, parse_short) = time(5_000);
        let (render_long, parse_long) = time(40_000);
        let render = render_long / render_short;
        let parse = parse_long / parse_short;
        assert!(render < 24.0, "{label}: 8x the samples took {render:.1}x as long to render");
        assert!(parse < 24.0, "{label}: 8x the samples took {parse:.1}x as long to parse");
    }

    #[test]
    fn all_distinct_locations_cost_linear_time() {
        assert_near_linear("distinct", |n| {
            (0..n).map(|i| Point::new(i as f64 * 0.37 + 0.5, (i as f64).sqrt())).collect()
        });
    }

    /// Inverse of [`MULTIPLIER`] modulo 2^64 (Newton's iteration).
    fn multiplier_inverse() -> u64 {
        let mut inv = MULTIPLIER;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(MULTIPLIER.wrapping_mul(inv)));
        }
        assert_eq!(inv.wrapping_mul(MULTIPLIER), 1);
        inv
    }

    /// `n` distinct locations whose [`point_hash`] has its top 12 bits
    /// clear, so all land in slot 0 of every table: for each `x`, `y`
    /// is solved from a target hash (`(x·M + y)·M`), keeping only
    /// moderate `y` values so the rendered text stays short.
    fn points_in_one_render_slot(n: usize) -> Vec<Point> {
        let inv = multiplier_inverse();
        let mut points = Vec::with_capacity(n);
        let mut target = 0x2545_f491_4f6c_dd1du64;
        for i in 0..n {
            let x = 1000.0 + i as f64;
            loop {
                target = target.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let hash = target >> 12;
                let y_bits =
                    hash.wrapping_mul(inv).wrapping_sub(x.to_bits().wrapping_mul(MULTIPLIER));
                let y = f64::from_bits(y_bits);
                if (1e-6..1e6).contains(&y.abs()) {
                    points.push(Point::new(x, y));
                    break;
                }
            }
        }
        assert!(points.iter().all(|p| point_hash(p.key()) >> 52 == 0));
        points
    }

    /// `n` locations whose rendered `x,y` text (16 bytes: a 7-digit `x`,
    /// a comma, an 8-digit `y`) has its [`text_hash`] top 12 bits clear.
    /// The hash of two words is `w0·M² + w1·M`, so for each `x` word the
    /// `y` words that qualify lie in one interval of `w1·M`: sort those
    /// products once and read each interval off.
    fn points_in_one_parse_slot(n: usize) -> Vec<Point> {
        let word = |s: &str| u64::from_le_bytes(s.as_bytes().try_into().unwrap());
        let mut ys: Vec<(u64, u32)> =
            (20_000_000..20_100_000u32).map(|y| (mix(0, word(&y.to_string())), y)).collect();
        ys.sort_unstable();
        let mut points = Vec::with_capacity(n);
        for x in 1_000_000u32.. {
            // Wanted: (a + b) mod 2^64 < 2^52 with a = w0·M², b = w1·M.
            let low = mix(mix(0, word(&format!("{x},"))), 0).wrapping_neg();
            let high = low.wrapping_add(1 << 52);
            let from = ys.partition_point(|&(b, _)| b < low);
            let matches: Vec<u32> = if low < high {
                ys[from..].iter().take_while(|&&(b, _)| b < high).map(|&(_, y)| y).collect()
            } else {
                let wrapped = ys.iter().take_while(|&&(b, _)| b < high);
                ys[from..].iter().chain(wrapped).map(|&(_, y)| y).collect()
            };
            for y in matches {
                points.push(Point::new(f64::from(x), f64::from(y)));
                if points.len() == n {
                    assert!(points
                        .iter()
                        .all(|p| text_hash(&format!("{},{}", p.x, p.y)) >> 52 == 0));
                    return points;
                }
            }
        }
        unreachable!("the x range is unbounded")
    }

    #[test]
    fn locations_sharing_one_slot_cost_linear_time() {
        assert_near_linear("one render slot", points_in_one_render_slot);
        assert_near_linear("one parse slot", points_in_one_parse_slot);
    }

    #[test]
    fn tolerates_blank_lines_and_whitespace() {
        let text = "traj_id,x,y,t\n\n 1 , 0.0 , 0.0 , 0 \n\n1,1.0,1.0,5\n";
        let ds = from_csv(text).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.trajectories[0].len(), 2);
    }
}
