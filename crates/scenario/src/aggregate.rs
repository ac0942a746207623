//! Streaming campaign aggregation: constant-memory digests of
//! Monte-Carlo-scale scenario sets.
//!
//! A 10 k-member seed×corner×voltage campaign cannot materialize ten
//! thousand [`crate::MemberResult`]s just to report five distributions.
//! This module gives the executor an online alternative: as each
//! aggregate-mode member's loop finishes, its scalar metrics
//! ([`MemberMetrics`]) fold into one [`CampaignDigest`] of mergeable
//! streaming accumulators ([`ScalarAgg`]: count / Welford mean + M2 /
//! min / max / fixed-bucket histogram / deterministic quantile
//! sketch). Memory is bounded by the accumulator sizes — independent
//! of member count.
//!
//! # Determinism contract
//!
//! f64 addition is not associative, so a digest is only reproducible
//! if the fold order is pinned. The executor therefore never folds in
//! completion order: every aggregate member gets a **rank** (its
//! position among the set's aggregate members, in expansion order),
//! and [`DigestBuilder`] holds early arrivals in a reorder buffer so
//! observations always fold in rank order. The result is bit-identical
//! at any worker count and any completion order — the same contract
//! the pool's pre-assigned result slots give materialized members,
//! and the property the proptests in `tests/aggregate.rs` pin.
//!
//! [`ScalarAgg::merge`] (Chan's parallel-variance formula) is
//! deterministic *given its operand order* and exactly preserves
//! counts, extrema, histograms and sketch weights, but is **not**
//! bit-equal to the sequential fold of the same observations — that is
//! why the executor folds sequentially and merge is reserved for
//! combining already-folded digests (e.g. sharded campaigns), always
//! in ascending shard order.

use razorbus_core::{bucket_of, N_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-level capacity of the quantile sketch: a level that reaches `K`
/// values compacts (sorts, keeps alternating survivors at doubled
/// weight) into the next level.
const SKETCH_LEVEL_CAPACITY: usize = 64;

/// The scalar metrics one member contributes to a campaign digest —
/// extracted from its closed-loop product and dropped into the
/// accumulators so the product itself can be freed.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberMetrics {
    /// Energy gain over the fixed-nominal baseline.
    pub energy_gain: f64,
    /// Average error (recovery) rate.
    pub error_rate: f64,
    /// Peak per-window error rate (0 when sampling was off).
    pub peak_window_error_rate: f64,
    /// Cycle-weighted mean supply (mV).
    pub mean_voltage_mv: f64,
    /// Lowest supply visited (mV).
    pub min_voltage_mv: i32,
    /// Silent-corruption cycles.
    pub shadow_violations: u64,
    /// Error (recovery) cycles.
    pub errors: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Total energy with DVS (fJ).
    pub energy_fj: f64,
    /// Energy at the fixed nominal supply (fJ).
    pub baseline_energy_fj: f64,
}

impl MemberMetrics {
    /// Extracts the digest-relevant scalars from a closed-loop product.
    #[must_use]
    pub fn of(data: &crate::LoopData) -> Self {
        match data {
            crate::LoopData::Suite(d) => {
                let cycles: u64 = d.segments.iter().map(|s| s.report.cycles).sum();
                let weighted_mv: f64 = d
                    .segments
                    .iter()
                    .map(|s| s.report.mean_voltage_mv * s.report.cycles as f64)
                    .sum();
                Self {
                    energy_gain: d.total_energy_gain(),
                    error_rate: d.total_error_rate(),
                    peak_window_error_rate: d.peak_window_error_rate(),
                    mean_voltage_mv: weighted_mv / cycles as f64,
                    min_voltage_mv: data.min_voltage_mv(),
                    shadow_violations: data.shadow_violations(),
                    errors: d.segments.iter().map(|s| s.report.errors).sum(),
                    cycles,
                    energy_fj: d.segments.iter().map(|s| s.report.energy.fj()).sum(),
                    baseline_energy_fj: d
                        .segments
                        .iter()
                        .map(|s| s.report.baseline_energy.fj())
                        .sum(),
                }
            }
            crate::LoopData::Stream(s) => Self {
                energy_gain: s.report.energy_gain(),
                error_rate: s.report.error_rate(),
                peak_window_error_rate: data.peak_window_error_rate(),
                mean_voltage_mv: s.report.mean_voltage_mv,
                min_voltage_mv: s.report.min_voltage.mv(),
                shadow_violations: s.report.shadow_violations,
                errors: s.report.errors,
                cycles: s.report.cycles,
                energy_fj: s.report.energy.fj(),
                baseline_energy_fj: s.report.baseline_energy.fj(),
            },
        }
    }
}

/// A deterministic compaction-based quantile sketch (KLL-style, with
/// the random survivor choice replaced by "keep even indices" so the
/// sketch is a pure function of its observation sequence).
///
/// Level `i` holds values of weight `2^i`; a level reaching
/// `SKETCH_LEVEL_CAPACITY` sorts itself (`f64::total_cmp`), leaves
/// the largest value behind when its length is odd, and promotes the
/// even-indexed survivors of the rest to level `i + 1` at doubled
/// weight — so the total weight always equals the observation count
/// exactly (a validated invariant of the `campaign-digest` artifact).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct QuantileSketch {
    /// `levels[i]` holds values of weight `2^i`, each shorter than
    /// `SKETCH_LEVEL_CAPACITY`.
    levels: Vec<Vec<f64>>,
}

impl QuantileSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self { levels: vec![] }
    }

    /// Folds one observation in.
    pub fn observe(&mut self, value: f64) {
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(value);
        self.compact_from(0);
    }

    /// Merges another sketch in (level-wise concatenation, self's
    /// values first, then compaction). Deterministic given the operand
    /// order; weight is exactly conserved.
    pub fn merge(&mut self, other: &Self) {
        if self.levels.len() < other.levels.len() {
            self.levels.resize(other.levels.len(), Vec::new());
        }
        for (level, incoming) in self.levels.iter_mut().zip(&other.levels) {
            level.extend_from_slice(incoming);
        }
        self.compact_from(0);
    }

    fn compact_from(&mut self, start: usize) {
        let mut i = start;
        while i < self.levels.len() {
            if self.levels[i].len() < SKETCH_LEVEL_CAPACITY {
                i += 1;
                continue;
            }
            // Values `total_cmp` calls equal are bit-equal, so an
            // unstable sort orders them exactly as a stable one would.
            let mut level = std::mem::take(&mut self.levels[i]);
            level.sort_unstable_by(f64::total_cmp);
            let leftover = (level.len() % 2 == 1).then(|| level.pop().expect("odd length"));
            if i + 1 == self.levels.len() {
                self.levels.push(Vec::new());
            }
            self.levels[i + 1].extend(level.iter().copied().step_by(2));
            level.clear();
            level.extend(leftover);
            self.levels[i] = level;
            i += 1;
        }
    }

    /// The compaction before its allocation-free rewrite — stable sort,
    /// survivors collected into a temporary, a fresh buffer for the
    /// leftover — kept as the oracle `compact_from` must match bit for
    /// bit.
    #[cfg(test)]
    fn compact_from_reference(&mut self, start: usize) {
        let mut i = start;
        while i < self.levels.len() {
            if self.levels[i].len() < SKETCH_LEVEL_CAPACITY {
                i += 1;
                continue;
            }
            let mut level = std::mem::take(&mut self.levels[i]);
            level.sort_by(f64::total_cmp);
            let leftover = (level.len() % 2 == 1).then(|| level.pop().expect("odd length"));
            let promoted: Vec<f64> = level.iter().copied().step_by(2).collect();
            self.levels[i].extend(leftover);
            if i + 1 == self.levels.len() {
                self.levels.push(Vec::new());
            }
            self.levels[i + 1].extend(promoted);
            i += 1;
        }
    }

    /// Total weight carried — equals the number of observations folded.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(i, level)| (level.len() as u64) << i)
            .sum()
    }

    /// The value at quantile `q` (clamped into `[0, 1]`): the smallest
    /// stored value whose cumulative weight reaches `q` of the total.
    /// `None` on an empty sketch.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.total_weight();
        if total == 0 {
            return None;
        }
        let mut weighted: Vec<(f64, u64)> = self
            .levels
            .iter()
            .enumerate()
            .flat_map(|(i, level)| level.iter().map(move |&v| (v, 1u64 << i)))
            .collect();
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (value, weight) in weighted {
            cumulative += weight;
            if cumulative >= target {
                return Some(value);
            }
        }
        unreachable!("cumulative weight reaches total")
    }

    /// Whether every stored value is finite and every level respects
    /// the capacity bound — the part of the artifact validation that
    /// needs access to the private levels.
    fn is_well_formed(&self) -> bool {
        self.levels.len() <= 64
            && self.levels.iter().all(|level| {
                level.len() < SKETCH_LEVEL_CAPACITY && level.iter().all(|v| v.is_finite())
            })
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

/// Validating deserialization: a sketch read back from an artifact must
/// respect the level-capacity invariant and hold only finite values, so
/// a corrupt digest errors instead of skewing quantiles silently.
impl<'de> serde::Deserialize<'de> for QuantileSketch {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(serde::Deserialize)]
        struct Repr {
            levels: Vec<Vec<f64>>,
        }
        use serde::de::Error;
        let Repr { levels } = Repr::deserialize(deserializer)?;
        let sketch = QuantileSketch { levels };
        if !sketch.is_well_formed() {
            return Err(D::Error::custom(
                "quantile sketch violates its level-capacity or finiteness invariant",
            ));
        }
        Ok(sketch)
    }
}

/// One metric's streaming accumulator: count, Welford mean + M2
/// (variance), min/max, a fixed-range 9-bucket histogram (quantized
/// through the same [`bucket_of`] rule as the core activity
/// histograms), and a [`QuantileSketch`].
///
/// The histogram range `[lo, hi)` is fixed at construction so two
/// accumulators over the same metric always bucket identically —
/// merges never rebin.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ScalarAgg {
    /// Observations folded.
    count: u64,
    /// Running mean (Welford).
    mean: f64,
    /// Running sum of squared deviations (Welford M2).
    m2: f64,
    /// Smallest observation (`None` until the first fold).
    min: Option<f64>,
    /// Largest observation (`None` until the first fold).
    max: Option<f64>,
    /// Histogram range: lower edge.
    lo: f64,
    /// Histogram range: upper edge.
    hi: f64,
    /// Fixed-bucket histogram, `razorbus_core::N_BUCKETS` wide.
    hist: Vec<u64>,
    /// Deterministic quantile sketch over the same observations.
    sketch: QuantileSketch,
}

impl ScalarAgg {
    /// An empty accumulator over the histogram range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty or non-finite (accumulator
    /// ranges are compile-time constants of the digest layout, so this
    /// is a programming error, not a data error).
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "range [{lo}, {hi})"
        );
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: None,
            max: None,
            lo,
            hi,
            hist: vec![0; N_BUCKETS],
            sketch: QuantileSketch::new(),
        }
    }

    /// Folds one observation in. Out-of-range values clamp into the
    /// extreme buckets (min/max/mean still see the raw value).
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
        let bucket = self.bucket(value);
        self.hist[bucket] += 1;
        self.sketch.observe(value);
    }

    /// The bucket `value` lands in: the range maps onto the core
    /// activity quantization ([`bucket_of`] over quarter-steps, four
    /// per bucket), so the whole stack shares one bucketing rule.
    fn bucket(&self, value: f64) -> usize {
        let quarters = ((value - self.lo) / (self.hi - self.lo) * (4 * N_BUCKETS) as f64)
            .clamp(0.0, (4 * N_BUCKETS) as f64);
        bucket_of(quarters as u32)
    }

    /// Merges another accumulator over the same range in (Chan's
    /// parallel-variance formula). Deterministic given the operand
    /// order, and exact on count / extrema / histogram / sketch weight
    /// — but the floating mean/M2 are *not* bit-equal to a sequential
    /// fold of the same observations, which is why the executor folds
    /// sequentially in rank order and reserves merge for combining
    /// finished digests.
    ///
    /// # Panics
    ///
    /// Panics when the histogram ranges differ.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            self.lo == other.lo && self.hi == other.hi,
            "merging accumulators over different ranges"
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64 / total as f64);
        self.mean += delta * (other.count as f64 / total as f64);
        self.count = total;
        self.min = Some(match (self.min, other.min) {
            (Some(a), Some(b)) => a.min(b),
            _ => unreachable!("count > 0 implies extrema"),
        });
        self.max = Some(match (self.max, other.max) {
            (Some(a), Some(b)) => a.max(b),
            _ => unreachable!("count > 0 implies extrema"),
        });
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
        self.sketch.merge(&other.sketch);
    }

    /// Observations folded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (`None` below two observations).
    #[must_use]
    pub fn stddev(&self) -> Option<f64> {
        (self.count > 1).then(|| (self.m2 / (self.count - 1) as f64).sqrt())
    }

    /// Smallest observation.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest observation.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// The fixed-bucket histogram counts.
    #[must_use]
    pub fn histogram(&self) -> &[u64] {
        &self.hist
    }

    /// Approximate quantile from the sketch (`None` when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.sketch.quantile(q)
    }
}

/// Validating deserialization: an accumulator read back from a
/// `campaign-digest` artifact must be internally consistent — count
/// equals the histogram mass and the sketch weight, extrema exist iff
/// anything was observed, and every floating field is finite.
impl<'de> serde::Deserialize<'de> for ScalarAgg {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(serde::Deserialize)]
        struct Repr {
            count: u64,
            mean: f64,
            m2: f64,
            min: Option<f64>,
            max: Option<f64>,
            lo: f64,
            hi: f64,
            hist: Vec<u64>,
            sketch: QuantileSketch,
        }
        use serde::de::Error;
        let r = Repr::deserialize(deserializer)?;
        if r.hist.len() != N_BUCKETS {
            return Err(D::Error::custom(format!(
                "aggregate histogram holds {} buckets, expected {N_BUCKETS}",
                r.hist.len()
            )));
        }
        if r.hist.iter().sum::<u64>() != r.count {
            return Err(D::Error::custom("aggregate histogram mass != count"));
        }
        if r.sketch.total_weight() != r.count {
            return Err(D::Error::custom("aggregate sketch weight != count"));
        }
        if !(r.mean.is_finite() && r.m2.is_finite() && r.m2 >= 0.0) {
            return Err(D::Error::custom("non-finite or negative aggregate moments"));
        }
        if !(r.lo.is_finite() && r.hi.is_finite() && r.lo < r.hi) {
            return Err(D::Error::custom("malformed aggregate histogram range"));
        }
        match (r.count, r.min, r.max) {
            (0, None, None) => {}
            (c, Some(min), Some(max))
                if c > 0 && min <= max && min.is_finite() && max.is_finite() => {}
            _ => return Err(D::Error::custom("aggregate extrema disagree with count")),
        }
        Ok(Self {
            count: r.count,
            mean: r.mean,
            m2: r.m2,
            min: r.min,
            max: r.max,
            lo: r.lo,
            hi: r.hi,
            hist: r.hist,
            sketch: r.sketch,
        })
    }
}

/// The streaming digest of one campaign's aggregate members — the
/// `campaign-digest` artifact kind. Exact totals plus one
/// [`ScalarAgg`] per reported metric; size is independent of member
/// count.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CampaignDigest {
    /// The campaign (set) name.
    pub campaign: String,
    /// Aggregate members folded in.
    pub members: u64,
    /// Total cycles simulated across members.
    pub total_cycles: u64,
    /// Total error (recovery) cycles.
    pub total_errors: u64,
    /// Total silent-corruption cycles — must be zero for a sound design.
    pub total_shadow_violations: u64,
    /// Total energy with DVS (fJ).
    pub total_energy_fj: f64,
    /// Total energy at the fixed nominal supply (fJ).
    pub total_baseline_energy_fj: f64,
    /// Per-member energy gain distribution.
    pub energy_gain: ScalarAgg,
    /// Per-member average error-rate distribution.
    pub error_rate: ScalarAgg,
    /// Per-member peak window error-rate distribution.
    pub peak_window_error_rate: ScalarAgg,
    /// Per-member mean supply distribution (mV).
    pub mean_voltage_mv: ScalarAgg,
    /// Per-member lowest-supply distribution (mV).
    pub min_voltage_mv: ScalarAgg,
}

/// Accessor for one of a digest's per-metric accumulators.
type MetricGetter = fn(&CampaignDigest) -> &ScalarAgg;

/// The five reported metrics with their fixed histogram ranges, in
/// render order.
const METRICS: [(&str, MetricGetter); 5] = [
    ("energy_gain", |d| &d.energy_gain),
    ("error_rate", |d| &d.error_rate),
    ("peak_window_error_rate", |d| &d.peak_window_error_rate),
    ("mean_voltage_mv", |d| &d.mean_voltage_mv),
    ("min_voltage_mv", |d| &d.min_voltage_mv),
];

impl CampaignDigest {
    /// An empty digest for `campaign`. The histogram ranges are fixed
    /// constants of the digest layout: gains in `[-1, 1)`, rates in
    /// `[0, 1)`, voltages over the paper grid's `[800, 1300)` mV.
    #[must_use]
    pub fn new(campaign: &str) -> Self {
        Self {
            campaign: campaign.to_string(),
            members: 0,
            total_cycles: 0,
            total_errors: 0,
            total_shadow_violations: 0,
            total_energy_fj: 0.0,
            total_baseline_energy_fj: 0.0,
            energy_gain: ScalarAgg::new(-1.0, 1.0),
            error_rate: ScalarAgg::new(0.0, 1.0),
            peak_window_error_rate: ScalarAgg::new(0.0, 1.0),
            mean_voltage_mv: ScalarAgg::new(800.0, 1_300.0),
            min_voltage_mv: ScalarAgg::new(800.0, 1_300.0),
        }
    }

    /// Folds one member's metrics in. The executor calls this in
    /// member-rank order (via [`DigestBuilder`]), which is what makes
    /// the digest bit-identical across worker counts.
    pub fn observe(&mut self, m: &MemberMetrics) {
        self.members += 1;
        self.total_cycles += m.cycles;
        self.total_errors += m.errors;
        self.total_shadow_violations += m.shadow_violations;
        self.total_energy_fj += m.energy_fj;
        self.total_baseline_energy_fj += m.baseline_energy_fj;
        self.energy_gain.observe(m.energy_gain);
        self.error_rate.observe(m.error_rate);
        self.peak_window_error_rate
            .observe(m.peak_window_error_rate);
        self.mean_voltage_mv.observe(m.mean_voltage_mv);
        self.min_voltage_mv.observe(f64::from(m.min_voltage_mv));
    }

    /// Merges another digest of the same campaign in — for combining
    /// already-folded shards, always in ascending shard order (see the
    /// module docs for why this is not the executor's fold path).
    ///
    /// # Panics
    ///
    /// Panics when the campaign names differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.campaign, other.campaign,
            "merging digests of different campaigns"
        );
        self.members += other.members;
        self.total_cycles += other.total_cycles;
        self.total_errors += other.total_errors;
        self.total_shadow_violations += other.total_shadow_violations;
        self.total_energy_fj += other.total_energy_fj;
        self.total_baseline_energy_fj += other.total_baseline_energy_fj;
        self.energy_gain.merge(&other.energy_gain);
        self.error_rate.merge(&other.error_rate);
        self.peak_window_error_rate
            .merge(&other.peak_window_error_rate);
        self.mean_voltage_mv.merge(&other.mean_voltage_mv);
        self.min_voltage_mv.merge(&other.min_voltage_mv);
    }

    /// The five aggregated metrics in render order, as
    /// `(name, accumulator)` pairs.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, &ScalarAgg)> {
        METRICS.iter().map(move |(name, get)| (*name, get(self)))
    }

    /// Campaign-level energy gain: one minus the ratio of exact energy
    /// totals (not the mean of per-member gains).
    #[must_use]
    pub fn total_energy_gain(&self) -> f64 {
        if self.total_baseline_energy_fj == 0.0 {
            return 0.0;
        }
        1.0 - self.total_energy_fj / self.total_baseline_energy_fj
    }

    /// A human-readable table of the digest.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign digest `{}`: {} members, {} cycles",
            self.campaign, self.members, self.total_cycles
        );
        let _ = writeln!(
            out,
            "  totals: energy gain {:.2}%  errors {}  shadow violations {}",
            self.total_energy_gain() * 100.0,
            self.total_errors,
            self.total_shadow_violations,
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "metric", "mean", "stddev", "min", "p10", "p90", "max"
        );
        for (name, get) in METRICS {
            let agg = get(self);
            let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
            let _ = writeln!(
                out,
                "  {:<24} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
                name,
                format!("{:.6}", agg.mean()),
                cell(agg.stddev()),
                cell(agg.min()),
                cell(agg.quantile(0.10)),
                cell(agg.quantile(0.90)),
                cell(agg.max()),
            );
        }
        out
    }

    /// A CSV render: one row per metric, shortest-round-trip floats so
    /// the file is loss-free and byte-deterministic.
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out = String::new();
        out.push_str("metric,count,mean,stddev,min,p10,p50,p90,max");
        for b in 0..N_BUCKETS {
            let _ = write!(out, ",bucket{b}");
        }
        out.push('\n');
        for (name, get) in METRICS {
            let agg = get(self);
            let cell = |v: Option<f64>| v.map_or(String::new(), |v| format!("{v}"));
            let _ = write!(
                out,
                "{name},{},{},{},{},{},{},{},{}",
                agg.count(),
                agg.mean(),
                cell(agg.stddev()),
                cell(agg.min()),
                cell(agg.quantile(0.10)),
                cell(agg.quantile(0.50)),
                cell(agg.quantile(0.90)),
                cell(agg.max()),
            );
            for &count in agg.histogram() {
                let _ = write!(out, ",{count}");
            }
            out.push('\n');
        }
        out
    }
}

/// Validating deserialization: a digest read back from an artifact must
/// have every accumulator counting exactly its member total and finite
/// energy totals — the `campaign-digest` leg of the universal
/// corruption contract builds on this.
impl<'de> serde::Deserialize<'de> for CampaignDigest {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(serde::Deserialize)]
        struct Repr {
            campaign: String,
            members: u64,
            total_cycles: u64,
            total_errors: u64,
            total_shadow_violations: u64,
            total_energy_fj: f64,
            total_baseline_energy_fj: f64,
            energy_gain: ScalarAgg,
            error_rate: ScalarAgg,
            peak_window_error_rate: ScalarAgg,
            mean_voltage_mv: ScalarAgg,
            min_voltage_mv: ScalarAgg,
        }
        use serde::de::Error;
        let r = Repr::deserialize(deserializer)?;
        if !(r.total_energy_fj.is_finite() && r.total_baseline_energy_fj.is_finite()) {
            return Err(D::Error::custom("non-finite digest energy totals"));
        }
        let digest = Self {
            campaign: r.campaign,
            members: r.members,
            total_cycles: r.total_cycles,
            total_errors: r.total_errors,
            total_shadow_violations: r.total_shadow_violations,
            total_energy_fj: r.total_energy_fj,
            total_baseline_energy_fj: r.total_baseline_energy_fj,
            energy_gain: r.energy_gain,
            error_rate: r.error_rate,
            peak_window_error_rate: r.peak_window_error_rate,
            mean_voltage_mv: r.mean_voltage_mv,
            min_voltage_mv: r.min_voltage_mv,
        };
        for (name, get) in METRICS {
            if get(&digest).count() != digest.members {
                return Err(D::Error::custom(format!(
                    "digest accumulator `{name}` counts {} of {} members",
                    get(&digest).count(),
                    digest.members
                )));
            }
        }
        Ok(digest)
    }
}

/// The executor's rank-ordered fold: accepts member metrics in **any**
/// completion order and folds them into the digest in rank order,
/// buffering early arrivals in a reorder map. Memory is bounded by the
/// campaign's out-of-orderness (at most one pending entry per in-flight
/// worker in practice), not by its member count.
#[derive(Debug)]
pub struct DigestBuilder {
    digest: CampaignDigest,
    next: usize,
    pending: BTreeMap<usize, MemberMetrics>,
}

impl DigestBuilder {
    /// A builder folding into an empty digest for `campaign`.
    #[must_use]
    pub fn new(campaign: &str) -> Self {
        Self {
            digest: CampaignDigest::new(campaign),
            next: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Submits the metrics of the member ranked `rank` (its position
    /// among the campaign's aggregate members, in expansion order).
    /// Ranks may arrive in any order; each must arrive exactly once.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate rank.
    pub fn submit(&mut self, rank: usize, metrics: MemberMetrics) {
        // `pending` never holds `next` (it drains up to the first gap),
        // so the awaited rank folds straight in.
        if rank != self.next {
            assert!(
                rank > self.next && !self.pending.contains_key(&rank),
                "duplicate digest rank {rank}"
            );
            self.pending.insert(rank, metrics);
            return;
        }
        self.digest.observe(&metrics);
        self.next += 1;
        while let Some(metrics) = self.pending.remove(&self.next) {
            self.digest.observe(&metrics);
            self.next += 1;
        }
    }

    /// Finishes the fold and returns the digest.
    ///
    /// # Panics
    ///
    /// Panics when a rank gap left observations buffered — a missing
    /// submission is an executor bug, not a data condition.
    #[must_use]
    pub fn finish(self) -> CampaignDigest {
        assert!(
            self.pending.is_empty(),
            "digest fold finished with {} buffered ranks (first gap at {})",
            self.pending.len(),
            self.next
        );
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn metrics(i: u64) -> MemberMetrics {
        // Deterministic, irregular values exercising every field.
        let x = (i as f64).mul_add(0.618_033_988_749, 0.1) % 1.0;
        MemberMetrics {
            energy_gain: x * 0.6 - 0.1,
            error_rate: x * 0.05,
            peak_window_error_rate: x * 0.08,
            mean_voltage_mv: 900.0 + x * 300.0,
            min_voltage_mv: 850 + (i % 9) as i32 * 50,
            shadow_violations: 0,
            errors: i * 3,
            cycles: 10_000 + i,
            energy_fj: 1.0e6 + x * 1.0e5,
            baseline_energy_fj: 1.3e6,
        }
    }

    #[test]
    fn welford_matches_naive_moments() {
        let mut agg = ScalarAgg::new(0.0, 1.0);
        let values: Vec<f64> = (0..257).map(|i| metrics(i).error_rate).collect();
        for &v in &values {
            agg.observe(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var =
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        assert!((agg.mean() - mean).abs() < 1e-12);
        assert!((agg.stddev().unwrap() - var.sqrt()).abs() < 1e-12);
        assert_eq!(agg.count(), 257);
        assert_eq!(agg.histogram().iter().sum::<u64>(), 257);
    }

    #[test]
    fn sketch_weight_equals_count_and_quantiles_order() {
        let mut sketch = QuantileSketch::new();
        for i in 0..10_000u64 {
            sketch.observe(metrics(i).mean_voltage_mv);
        }
        assert_eq!(sketch.total_weight(), 10_000);
        let p10 = sketch.quantile(0.10).unwrap();
        let p50 = sketch.quantile(0.50).unwrap();
        let p90 = sketch.quantile(0.90).unwrap();
        assert!(p10 <= p50 && p50 <= p90, "{p10} {p50} {p90}");
        // The sketch stays compact: every level respects its capacity.
        assert!(sketch.is_well_formed());
        // Uniform-ish input over [900, 1200): the median lands inside.
        assert!((900.0..1_200.0).contains(&p50), "{p50}");
    }

    /// A drawn sketch input: signed zeros, a small pool of repeated
    /// values (ties across a compaction), or an arbitrary finite value.
    fn sketch_value((kind, raw): (u8, u64)) -> f64 {
        const POOL: [f64; 4] = [-1.5, 0.25, 0.25 + f64::EPSILON, 1.0e3];
        let x = f64::from_bits(raw);
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 | 3 => POOL[(raw % 4) as usize],
            _ if x.is_finite() => x,
            _ => raw as f64,
        }
    }

    /// `values` folded in order through the reference compaction.
    fn reference_fold(values: &[f64]) -> QuantileSketch {
        let mut sketch = QuantileSketch {
            levels: vec![Vec::new()],
        };
        for &v in values {
            sketch.levels[0].push(v);
            sketch.compact_from_reference(0);
        }
        sketch
    }

    fn level_bits(sketch: &QuantileSketch) -> Vec<Vec<u64>> {
        let bits = |l: &Vec<f64>| l.iter().map(|v| v.to_bits()).collect();
        sketch.levels.iter().map(bits).collect()
    }

    proptest! {
        /// The allocation-free compaction stores exactly the reference
        /// compaction's levels, bit for bit, after an in-order fold and
        /// after a merge of two folded halves.
        #[test]
        fn sketch_compaction_matches_its_reference(
            draws in proptest::collection::vec((0u8..6, any::<u64>()), 1..3_000),
            split in any::<usize>(),
        ) {
            let values: Vec<f64> = draws.into_iter().map(sketch_value).collect();
            let mut folded = QuantileSketch::new();
            for &v in &values {
                folded.observe(v);
            }
            prop_assert_eq!(level_bits(&folded), level_bits(&reference_fold(&values)));

            let (left, right) = values.split_at(split % values.len());
            let mut merged = reference_fold(left);
            let mut reference = merged.clone();
            let other = reference_fold(right);
            merged.merge(&other);
            if reference.levels.len() < other.levels.len() {
                reference.levels.resize(other.levels.len(), Vec::new());
            }
            for (level, incoming) in reference.levels.iter_mut().zip(&other.levels) {
                level.extend_from_slice(incoming);
            }
            reference.compact_from_reference(0);
            prop_assert_eq!(level_bits(&merged), level_bits(&reference));
        }
    }

    #[test]
    fn sketch_merge_conserves_weight_exactly() {
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        for i in 0..777u64 {
            left.observe(metrics(i).energy_gain);
        }
        for i in 777..2_000u64 {
            right.observe(metrics(i).energy_gain);
        }
        left.merge(&right);
        assert_eq!(left.total_weight(), 2_000);
        assert!(left.is_well_formed());
    }

    #[test]
    fn merge_is_exact_on_counts_and_close_on_moments() {
        let all: Vec<f64> = (0..500).map(|i| metrics(i).energy_gain).collect();
        let mut whole = ScalarAgg::new(-1.0, 1.0);
        for &v in &all {
            whole.observe(v);
        }
        let mut left = ScalarAgg::new(-1.0, 1.0);
        let mut right = ScalarAgg::new(-1.0, 1.0);
        for &v in &all[..123] {
            left.observe(v);
        }
        for &v in &all[123..] {
            right.observe(v);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        assert_eq!(left.histogram(), whole.histogram());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.stddev().unwrap() - whole.stddev().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn builder_reorders_to_rank_order() {
        // Submitting in a scrambled order folds identically to the
        // sequential fold (byte-level identity is pinned by the
        // proptests in tests/aggregate.rs; this is the cheap unit).
        let mut sequential = CampaignDigest::new("unit");
        for i in 0..50u64 {
            sequential.observe(&metrics(i));
        }
        let mut builder = DigestBuilder::new("unit");
        let mut order: Vec<usize> = (0..50).collect();
        order.reverse();
        order.swap(3, 40);
        for rank in order {
            builder.submit(rank, metrics(rank as u64));
        }
        assert_eq!(builder.finish(), sequential);
    }

    #[test]
    #[should_panic(expected = "duplicate digest rank")]
    fn duplicate_ranks_are_rejected() {
        let mut builder = DigestBuilder::new("dup");
        builder.submit(0, metrics(0));
        builder.submit(0, metrics(0));
    }

    #[test]
    fn renders_cover_every_metric() {
        let mut digest = CampaignDigest::new("render");
        for i in 0..20u64 {
            digest.observe(&metrics(i));
        }
        let table = digest.table();
        let csv = digest.csv();
        for (name, _) in METRICS {
            assert!(table.contains(name), "table missing {name}");
            assert!(csv.contains(name), "csv missing {name}");
        }
        assert_eq!(csv.lines().count(), 1 + METRICS.len());
        assert!(csv.lines().next().unwrap().ends_with("bucket8"));
    }
}
