#ifndef CHEF_SERVICE_SERVICE_H_
#define CHEF_SERVICE_SERVICE_H_

/// \file
/// The parallel exploration service.
///
/// Accepts a batch of JobSpecs and runs them on a fixed-size pool of
/// worker threads — one Engine per job, so every engine (solver, runtime,
/// strategy, RNG) stays single-threaded and workers share only the
/// mutex-guarded TestCorpus and a handful of atomics. Per-job seeds are
/// derived as hash(service_seed, job_index, spec_seed), which makes every
/// job's session deterministic regardless of worker count or which worker
/// picks it up — provided the session's work is bounded by max_runs (or
/// exploration exhaustion) rather than wall clock: a session truncated by
/// its own max_seconds or a service budget cuts off at a load-dependent
/// point. Scheduling-dependent fields (corpus first-discoverer
/// attribution) vary between runs either way.
///
/// Cancellation and budgets are cooperative: the service chains a check of
/// its stop flag and wall-clock budget into each engine's
/// Options::stop_requested hook, which the explore loop polls between
/// concolic iterations and solver calls. The chained hook latches which
/// check fired first, so a session ended by the *spec's own* hook reports
/// kCompleted (its declared budget) rather than a service cancellation —
/// JobResult::stop_source carries the attribution either way.
///
/// Dispatch order comes from a BatchScheduler (service/scheduler.h):
/// yield-weighted priorities by default, plain FIFO via
/// Options::schedule_policy, optional plateau early-abort via
/// Options::plateau_policy. Long batches can stream progress while
/// RunBatch blocks: Options::on_job_event is invoked — off the worker
/// threads, on one dispatcher thread — as jobs start and finish, and/or
/// events land in a caller-polled JobEventQueue.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "cache/shared_cache.h"
#include "service/corpus.h"
#include "service/job.h"
#include "service/scheduler.h"

namespace chef::service {

class ExplorationService
{
  public:
    struct Options {
        /// Worker threads in the pool (clamped to >= 1). Jobs are
        /// dispatched from a shared queue in submission order.
        size_t num_workers = 1;
        /// Service seed; combined with each job's index and spec seed to
        /// derive the per-job engine seed.
        uint64_t seed = 1;
        /// Service-wide wall-clock budget for one RunBatch call, in
        /// seconds; 0 disables it. On expiry, running sessions are
        /// cooperatively stopped (they still report their partial
        /// results) and queued jobs are marked cancelled.
        double max_total_seconds = 0.0;
        /// Default intra-session parallelism granted to each job
        /// (Engine::Options::exploration_threads). A spec whose own
        /// options.exploration_threads is > 1 overrides this for that
        /// job. Effective grants are clamped so num_workers x threads
        /// stays within core_budget — see GrantExplorationThreads.
        uint32_t engine_threads = 1;
        /// Global core budget shared by inter-job workers and
        /// intra-session exploration threads. 0 means
        /// std::thread::hardware_concurrency(). Each job's grant is
        /// clamped to its fair share (budget / num_workers); the
        /// scheduler may exceed that for high-yield workloads as long
        /// as every other worker keeps at least one core (a "wide
        /// session" — counted in ServiceStats::wide_sessions_granted).
        size_t core_budget = 0;
        /// Store concrete inputs in corpus entries (disable to shrink
        /// memory for very large corpora).
        bool record_corpus_inputs = true;
        /// Share one solver cache (query results + counterexamples)
        /// across every job in a batch. Off by default because a shared
        /// hit may hand a session a different satisfying model than a
        /// fresh SAT call would, which makes per-job exploration depend
        /// on sibling jobs (sat/unsat outcomes stay invariant; see
        /// cache/shared_cache.h). A fresh cache is created per RunBatch
        /// call and its stats land in ServiceStats / the JSON report.
        bool share_solver_cache = false;
        /// Configuration for the per-batch shared cache (shards, byte
        /// budget, counterexample bound).
        cache::SharedSolverCache::Options solver_cache_options = {};
        /// Dispatch order for pending jobs. Yield-weighted by default;
        /// ordering does not change per-job results for bounded jobs
        /// (sessions are seeded independently), so the worker-count
        /// determinism contract holds under either policy.
        SchedulePolicy schedule_policy = SchedulePolicy::kYieldPriority;
        /// Early-abort for flat-yield workloads (off by default — when
        /// enabled, pending jobs can be cancelled, which *does* change
        /// batch results).
        PlateauPolicy plateau_policy = {};
        /// Streaming callback, invoked for every JobEvent on a dedicated
        /// dispatcher thread (never a worker thread, so a slow consumer
        /// does not stall exploration; events queue up instead). Events
        /// for one batch arrive in emit order; each job produces exactly
        /// one kJobCompleted event.
        std::function<void(const JobEvent&)> on_job_event;
        /// Caller-owned pollable queue receiving the same events (either
        /// or both sinks may be set). Must outlive RunBatch.
        JobEventQueue* event_queue = nullptr;
        /// Telemetry (obs/obs.h). Propagated into every job's engine (and
        /// through it the solver) unless the spec wired its own context.
        /// The service itself emits service/job spans and service.jobs_*
        /// counters.
        obs::ObsContext obs;
        /// Per-location attribution profiling (obs/attribution.h): each
        /// job gets a profiler bound to its workload, the engine and
        /// solver charge work to high-level locations through it, and
        /// the per-job tables land in JobResult::engine_stats and the
        /// service-wide aggregate (attribution()). On by default — the
        /// hot path is one hash lookup and an add per charge (see
        /// bench_scheduler's overhead phase).
        bool attribution = true;
    };

    explicit ExplorationService(Options options);

    /// Runs every job in the batch to completion (or cancellation) and
    /// returns per-job results indexed by submission order. Blocks until
    /// the batch drains. Serial reuse across batches accumulates stats
    /// and corpus; concurrent calls are not supported. A stop flag left
    /// over from a previous batch's RequestStop() is stale and cleared on
    /// entry, so serially reused services don't silently cancel the next
    /// batch.
    std::vector<JobResult> RunBatch(const std::vector<JobSpec>& jobs);

    /// Asks all running sessions to stop and cancels queued jobs. Safe to
    /// call from any thread (e.g. a watchdog) while RunBatch blocks. The
    /// flag only affects the batch in flight: RunBatch clears any stop
    /// raised before it started.
    void RequestStop() { stop_.store(true, std::memory_order_relaxed); }

    bool stop_requested() const
    {
        return stop_.load(std::memory_order_relaxed);
    }

    const TestCorpus& corpus() const { return corpus_; }

    /// Mutable corpus access for the shard layer, which merges remote
    /// gossip deltas into the corpus while RunBatch is in flight (the
    /// corpus is mutex-guarded; see TestCorpus::MergeFrom). Pair with
    /// NotifyYieldsChanged() so the batch scheduler acts on the merge.
    TestCorpus* mutable_corpus() { return &corpus_; }

    /// Tells the in-flight batch's scheduler that corpus yield state
    /// changed outside a job completion (a remote gossip merge): pending
    /// jobs re-sort against the merged yields and the plateau check
    /// re-runs. No-op when no batch is running. Safe from any thread.
    void NotifyYieldsChanged();

    const ServiceStats& stats() const { return stats_; }
    const Options& options() const { return options_; }

    /// Aggregate attribution table over every job completed so far
    /// (empty when Options::attribution is off). Safe to call while
    /// RunBatch is in flight: completed jobs' tables merge in under a
    /// mutex, so a mid-batch read sees a consistent prefix.
    obs::AttributionSnapshot attribution() const;

    /// The last batch's shared solver cache (null when sharing is off or
    /// no batch has run). Exposed for stats inspection and tests.
    const cache::SharedSolverCache* shared_solver_cache() const
    {
        return shared_cache_.get();
    }

    /// The per-job seed derivation (exposed for determinism tests).
    static uint64_t DeriveJobSeed(uint64_t service_seed, size_t job_index,
                                  uint64_t spec_seed);

    /// Exploration threads granted to one job under the global core
    /// budget (exposed for tests). `wide` marks a grant above the fair
    /// per-worker share, given to workloads with unknown or high corpus
    /// yield.
    struct ThreadGrant {
        uint32_t threads = 1;
        bool wide = false;
    };
    ThreadGrant GrantExplorationThreads(const JobSpec& spec) const;

  private:
    JobResult RunJob(const JobSpec& spec, size_t job_index,
                     double remaining_seconds);

    /// Identity-only result for a job that never ran (queued at stop /
    /// budget expiry, or plateau-cancelled).
    JobResult MakeCancelledPlaceholder(const JobSpec& spec,
                                       size_t job_index, const char* error,
                                       const char* stop_source) const;

    Options options_;
    std::atomic<bool> stop_{false};
    /// Wide-session grants handed out by the in-flight batch; folded
    /// into stats_ when the batch drains.
    std::atomic<size_t> wide_sessions_{0};
    TestCorpus corpus_;
    ServiceStats stats_;
    /// The in-flight batch's scheduler (set for the duration of RunBatch;
    /// guarded so NotifyYieldsChanged can't race scheduler teardown).
    std::mutex scheduler_mutex_;
    BatchScheduler* active_scheduler_ = nullptr;
    /// One cache per batch; rebuilt at each RunBatch entry when
    /// share_solver_cache is on (kept afterwards for inspection).
    std::unique_ptr<cache::SharedSolverCache> shared_cache_;
    /// Aggregate of completed jobs' attribution tables (order-independent
    /// merge, so worker scheduling cannot change it).
    mutable std::mutex attribution_mutex_;
    obs::AttributionSnapshot attribution_;
};

}  // namespace chef::service

#endif  // CHEF_SERVICE_SERVICE_H_
