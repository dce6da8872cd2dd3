#ifndef CHEF_OBS_TIMESERIES_H_
#define CHEF_OBS_TIMESERIES_H_

/// \file
/// Time-series telemetry on top of the metrics registry: the temporal
/// axis the paper's headline figures live on (Figure 9 plots coverage
/// *over time*), and the data the rate-based plateau policy and the
/// live cluster monitor consume.
///
/// A TimeSeriesRecorder samples a MetricsRegistry on a steady-clock
/// interval into bounded ring tiers:
///
///   tier 0  — every sample, a ring of the most recent `raw_capacity`
///             snapshots (the "recent window" all rate queries hit);
///   tier k  — every `coarsen_factor`^k-th sample, rings of
///             `tier_capacity` snapshots each (the coarsened
///             long-horizon view that survives tier-0 wraparound).
///
/// Each sample is one whole MetricsSnapshot, so serialization, cluster
/// merging, and windowed histogram quantiles all reuse the PR 6
/// machinery instead of inventing per-metric storage. Memory is bounded
/// by (raw_capacity + coarse_tiers * tier_capacity) snapshots
/// regardless of run length.
///
/// Windowed rates are counter deltas between the newest sample and the
/// newest sample at least `window` seconds older (falling back to the
/// oldest retained sample for short runs): jobs/s, new-fingerprints/s,
/// solver-seconds/s, shared-cache hit rate. Windowed latency quantiles
/// come from bucket-wise histogram deltas between the same two samples.
///
/// ClusterSeries is the coordinator-side merge: one series per source
/// shard, updated idempotently from gossip (samples keyed by index),
/// with merged counter curves defined as the sum over sources of each
/// source's last value at-or-before t — order- and arrival-independent,
/// and monotone whenever the per-source counters are.
///
/// Serialization: strict JSON sample arrays (wire v2.1 "series" fields,
/// report telemetry), NDJSON lines for --stats-out streaming, and the
/// per-workload coverage_curves CSV that reproduces Figure 9.

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace chef::support {
class JsonWriter;
struct JsonValue;
}  // namespace chef::support

namespace chef::obs {

// Instrument names the service layer publishes for time-series
// consumers. Per-workload variants append ".<workload>".
inline constexpr char kJobsFinishedCounter[] = "service.jobs_finished";
inline constexpr char kFingerprintsNewCounter[] = "corpus.fingerprints_new";
inline constexpr char kCorpusSizeGauge[] = "corpus.size";
inline constexpr char kSolverSolveHistogram[] = "solver.solve_seconds";
inline constexpr char kSolverQueriesCounter[] = "solver.queries";
inline constexpr char kSharedCacheHitsCounter[] = "solver.shared_cache_hits";
inline constexpr char kPlateauCancelsCounter[] = "scheduler.plateau_cancels";
inline constexpr char kStatesInFlightGauge[] =
    "engine.parallel.states_in_flight";

/// One point on the time axis: a whole-registry snapshot stamped with
/// the recorder's 1-based sample index and seconds since its epoch.
struct SeriesSample {
    uint64_t index = 0;
    double t_seconds = 0.0;
    MetricsSnapshot metrics;
};

/// Gauge lookup over a snapshot (counters have CounterValue already).
/// Returns \p fallback when absent.
int64_t SnapshotGauge(const MetricsSnapshot& snapshot,
                      const std::string& name, int64_t fallback = 0);

// --- Windowed queries over an ascending-by-time sample vector ---------
//
// The baseline sample is the newest one with t <= newest.t - window,
// falling back to the oldest available; all return 0 / false when fewer
// than two distinct samples (or zero elapsed time) are in range.

/// (counter[newest] - counter[baseline]) / (t_newest - t_baseline).
/// Clamped at 0 (counters are monotone per source).
double WindowedCounterRate(const std::vector<SeriesSample>& samples,
                           const std::string& counter,
                           double window_seconds);

/// delta(numerator) / delta(denominator) over the window; 0 when the
/// denominator did not move.
double WindowedCounterRatio(const std::vector<SeriesSample>& samples,
                            const std::string& numerator,
                            const std::string& denominator,
                            double window_seconds);

/// Histogram-sum rate: delta(sum_nanos)/1e9 per elapsed second — e.g.
/// solver-seconds spent per wall second over the window.
double WindowedHistogramSumRate(const std::vector<SeriesSample>& samples,
                                const std::string& histogram,
                                double window_seconds);

/// Bucket-wise histogram delta over the window (count, sum, buckets
/// subtract; min/max fall back to the newest sample's cumulative values,
/// keeping QuantileSeconds' conservative-high bias). False when the
/// histogram is absent or nothing was recorded in the window.
bool WindowedHistogramDelta(const std::vector<SeriesSample>& samples,
                            const std::string& histogram,
                            double window_seconds, HistogramSnapshot* delta);

/// Bounded-memory interval sampler over one MetricsRegistry. Thread-safe:
/// the service's sampler thread records while the shard worker's protocol
/// thread drains SamplesSince for gossip.
class TimeSeriesRecorder
{
  public:
    struct Options {
        /// Sampling cadence for MaybeSample (the service sampler thread
        /// also sleeps this long between samples).
        double interval_seconds = 0.1;
        /// Tier-0 ring: every sample, most recent window.
        size_t raw_capacity = 256;
        /// Coarse rings above tier 0.
        size_t coarse_tiers = 2;
        /// Every coarsen_factor-th sample of tier k promotes to k+1.
        size_t coarsen_factor = 8;
        /// Capacity of each coarse tier's ring.
        size_t tier_capacity = 128;
        /// Default window for the convenience rate queries below.
        double default_window_seconds = 2.0;
    };

    // Delegation instead of a default argument: a `= Options()` default
    // would need the nested struct's member initializers before the
    // enclosing class is complete, which gcc rejects.
    TimeSeriesRecorder() : TimeSeriesRecorder(Options()) {}
    explicit TimeSeriesRecorder(Options options);

    const Options& options() const { return options_; }

    /// Seconds since construction on the steady clock.
    double ElapsedSeconds() const;

    /// Unconditionally snapshot \p registry now.
    void SampleNow(const MetricsRegistry& registry);

    /// Snapshot iff at least interval_seconds elapsed since the last
    /// sample. Returns true when a sample was taken.
    bool MaybeSample(const MetricsRegistry& registry);

    /// Deterministic entry (tests, replay): record a pre-built snapshot
    /// at an explicit time. Times must be non-decreasing.
    void Record(double t_seconds, MetricsSnapshot snapshot);

    /// Index of the newest sample; 0 when none recorded yet.
    uint64_t last_index() const;
    /// Total samples ever recorded (>= retained).
    uint64_t total_recorded() const;

    /// Tier-0 samples with index > since_index, ascending. The gossip
    /// shipper's incremental drain: callers remember the last shipped
    /// index. After tier-0 wraparound older unshipped samples are gone —
    /// by design; shippers run at the same cadence as sampling.
    std::vector<SeriesSample> SamplesSince(uint64_t since_index) const;

    /// Every retained sample across all tiers, deduplicated by index,
    /// ascending. The long-horizon view: recent samples dense, older
    /// samples coarsened.
    std::vector<SeriesSample> Retained() const;

    /// Newest sample; false when none.
    bool Latest(SeriesSample* out) const;

    // Windowed conveniences over Retained().
    double WindowedRate(const std::string& counter,
                        double window_seconds = 0.0) const;
    double WindowedRatio(const std::string& numerator,
                         const std::string& denominator,
                         double window_seconds = 0.0) const;
    bool WindowedHistogram(const std::string& histogram,
                           HistogramSnapshot* delta,
                           double window_seconds = 0.0) const;

  private:
    void RecordLocked(double t_seconds, MetricsSnapshot snapshot);
    std::vector<SeriesSample> RetainedLocked() const;

    Options options_;
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mutex_;
    uint64_t next_index_ = 1;
    double last_sample_t_ = -1.0;
    /// tiers_[0] is raw; tiers_[k] holds every coarsen_factor^k-th
    /// sample. arrivals_[k] counts samples ever offered to tier k.
    std::vector<std::deque<SeriesSample>> tiers_;
    std::vector<uint64_t> arrivals_;
};

/// The coordinator's merged cluster view: one bounded series per source
/// shard, fed idempotently from gossip/result "series" payloads.
/// Not internally synchronized — the coordinator mutates and reads it
/// from its Run() thread only (monitor callbacks run on that thread).
class ClusterSeries
{
  public:
    struct Options {
        /// Per-source retention bound; exceeding it thins the older
        /// half (every second sample dropped), preserving curve shape.
        size_t max_samples_per_source = 4096;
    };

    ClusterSeries() : ClusterSeries(Options()) {}
    explicit ClusterSeries(Options options);

    /// Merges \p samples into \p source's series, deduplicating by
    /// sample index (re-delivery is a no-op). Returns how many samples
    /// were new.
    size_t Update(const std::string& source,
                  const std::vector<SeriesSample>& samples);

    void Clear();

    std::vector<std::string> Sources() const;
    /// nullptr when the source is unknown.
    const std::vector<SeriesSample>* SeriesFor(
        const std::string& source) const;
    size_t total_samples() const;

    /// Largest t_seconds across all sources; 0 when empty.
    double LatestTimeSeconds() const;

    /// MergeFrom-fold of every source's newest snapshot (the cluster
    /// point-in-time view; counters sum, gauges label as *_max/_total).
    MetricsSnapshot MergedLatest() const;

    /// Merged counter curve: for each time in the union of all sample
    /// times, the sum over sources of that source's last value
    /// at-or-before t. Order-independent in arrival and merge order;
    /// monotone when every per-source counter is.
    std::vector<std::pair<double, uint64_t>> MergedCounterCurve(
        const std::string& counter) const;

    /// Windowed rate over one source's series (0 for unknown sources).
    double WindowedRate(const std::string& source, const std::string& counter,
                        double window_seconds) const;

  private:
    Options options_;
    std::map<std::string, std::vector<SeriesSample>> series_;
};

/// Serializes samples as a JSON array:
///   [{"index":n,"t_seconds":s,"metrics":{...}},...]
/// with metrics in the WriteMetricsSnapshot schema. This is the wire
/// v2.1 "series" payload and the report's per-source series form.
void WriteSeriesSamples(support::JsonWriter& json,
                        const std::vector<SeriesSample>& samples);

/// Inverse of WriteSeriesSamples; \p array must be a JSON array.
bool DecodeSeriesSamples(const support::JsonValue& array,
                         std::vector<SeriesSample>* samples,
                         std::string* error);

/// Whole-cluster series document: {"series":{"<source>":[samples...]}}.
std::string RenderClusterSeriesJson(const ClusterSeries& series);

/// One NDJSON line (newline-terminated strict JSON object) describing
/// \p sample from \p source plus the cluster context at that point:
/// windowed per-source rates (jobs/s, fingerprints/s, solver-seconds/s,
/// shared-cache hit rate, solver p95), corpus size, plateau cancels,
/// and merged cluster totals. This is the --stats-out record schema.
std::string RenderSeriesSampleNdjson(const ClusterSeries& series,
                                     const std::string& source,
                                     const SeriesSample& sample,
                                     double window_seconds);

/// The Figure-9 reproduction: per-workload new-fingerprint curves vs
/// jobs and vs wall time, one CSV row per merged-curve point:
///   workload,t_seconds,jobs_finished,new_fingerprints
/// Workloads come from `corpus.fingerprints_new.<workload>` counters in
/// the merged cluster view; the pseudo-workload "__all__" carries the
/// unsuffixed cluster totals.
std::string RenderCoverageCurvesCsv(const ClusterSeries& series);

}  // namespace chef::obs

#endif  // CHEF_OBS_TIMESERIES_H_
