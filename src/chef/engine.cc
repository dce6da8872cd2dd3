#include "chef/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "support/diagnostics.h"

namespace chef {

const char*
StrategyKindName(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::kRandom: return "random";
      case StrategyKind::kDfs: return "dfs";
      case StrategyKind::kBfs: return "bfs";
      case StrategyKind::kCupaPath: return "cupa-path";
      case StrategyKind::kCupaCoverage: return "cupa-coverage";
      case StrategyKind::kCupaPathInverted: return "cupa-path-inverted";
    }
    return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

/// Width of a pooled round (exploration_threads >= 2): maximum states
/// claimed + solved per round. Independent of the thread count, so
/// round-mode results are invariant in it. One thread uses width 1.
constexpr size_t kRoundWidth = 8;

/// The session's solver shares the engine's telemetry context unless the
/// caller wired a distinct one into solver_options directly.
solver::Solver::Options
SolverOptionsFor(const Engine::Options& options)
{
    solver::Solver::Options solver_options = options.solver_options;
    if (solver_options.obs.metrics == nullptr &&
        solver_options.obs.tracer == nullptr) {
        solver_options.obs = options.obs;
    }
    return solver_options;
}

/// A persistent pool of exploration worker threads dispatching one round of
/// indexed jobs at a time. Run() blocks until every job of the round has
/// completed (the round barrier).
class RoundPool
{
  public:
    explicit RoundPool(size_t threads)
    {
        workers_.reserve(threads);
        for (size_t i = 0; i < threads; ++i) {
            workers_.emplace_back([this, i] { WorkerLoop(i); });
        }
    }

    ~RoundPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread& worker : workers_) {
            worker.join();
        }
    }

    /// Executes job(worker_id, index) for index in [0, count); returns once
    /// all have finished.
    void Run(size_t count, const std::function<void(size_t, size_t)>& job)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        job_ = &job;
        count_ = count;
        next_ = 0;
        done_ = 0;
        ++generation_;
        cv_.notify_all();
        done_cv_.wait(lock, [this] { return done_ == count_; });
        job_ = nullptr;
    }

  private:
    void WorkerLoop(size_t id)
    {
        uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            cv_.wait(lock, [&] {
                return stop_ || (generation_ != seen && job_ != nullptr);
            });
            if (stop_) {
                return;
            }
            seen = generation_;
            while (next_ < count_) {
                const size_t index = next_++;
                lock.unlock();
                (*job_)(id, index);
                lock.lock();
                if (++done_ == count_) {
                    done_cv_.notify_all();
                }
            }
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;
    const std::function<void(size_t, size_t)>* job_ = nullptr;
    size_t count_ = 0;
    size_t next_ = 0;
    size_t done_ = 0;
    uint64_t generation_ = 0;
    bool stop_ = false;
};

/// The session solver's options minus the attribution profiler, which
/// only the driver thread may charge.
solver::Solver::Options
WorkerSolverOptionsFor(const Engine::Options& options)
{
    solver::Solver::Options solver_options = SolverOptionsFor(options);
    solver_options.obs.attribution = nullptr;
    return solver_options;
}

}  // namespace

/// Per-exploration-thread context: own runtime used in recording mode,
/// which never touches the engine's tree, and own solver for that
/// runtime's mid-run queries (with its own persistent SAT session; the
/// batch-shared solver cache, if any, is shared).
struct Engine::WorkerContext {
    explicit WorkerContext(Engine& engine)
        : solver(WorkerSolverOptionsFor(engine.options_)),
          runtime(&engine.tree_, &solver,
                  lowlevel::LowLevelRuntime::Options{
                      engine.options_.max_steps_per_run,
                      engine.options_.fork_weight_decay})
    {
    }

    solver::Solver solver;
    lowlevel::LowLevelRuntime runtime;
};

/// One run of a round: the assignment to run under, the claimed state it
/// came from (if any), and the run's results.
struct Engine::RoundItem {
    solver::Assignment assignment;
    bool from_pending = false;
    lowlevel::AlternateState claimed;
    lowlevel::RunStats run_stats;
    /// Set by a live run; filled from the log's replay for a recorded one.
    hll::HlPathInfo hl_info;
    GuestOutcome outcome;
    solver::Assignment complete_inputs;
    /// True when a worker recorded the run into log; CommitRun replays it.
    bool recorded = false;
    lowlevel::RunLog log;
    /// The worker solver's queries and solve time during a recorded run
    /// (its mid-run UpperBound calls), charged to the root location at
    /// commit.
    uint64_t solver_queries = 0;
    double solver_seconds = 0.0;
    bool ran = false;
};

Engine::Engine(Options options)
    : options_(options),
      rng_(options.seed),
      solver_(SolverOptionsFor(options)),
      tree_(),
      runtime_(&tree_, &solver_,
               lowlevel::LowLevelRuntime::Options{
                   options.max_steps_per_run, options.fork_weight_decay}),
      tracker_()
{
    if (options_.obs.metrics != nullptr) {
        obs::MetricsRegistry& registry = *options_.obs.metrics;
        m_runs_ = registry.counter("engine.runs");
        m_hl_paths_ = registry.counter("engine.hl_paths");
        m_infeasible_ = registry.counter("engine.infeasible_states");
        m_run_latency_ = registry.histogram("engine.run_seconds");
        m_claims_ = registry.counter("engine.claims");
        m_par_in_flight_ = registry.gauge("engine.parallel.states_in_flight");
        m_par_rounds_ = registry.counter("engine.parallel.rounds");
        m_par_barrier_wait_ =
            registry.histogram("engine.parallel.barrier_wait_seconds");
    }
    tracker_.Attach(&runtime_);
    strategy_ = MakeStrategy();
    tree_.set_on_pending_removed(
        [this](lowlevel::StateId id) { strategy_->OnStateRemoved(id); });
    tree_.set_on_state_added(
        [this](const lowlevel::AlternateState& state) {
            strategy_->OnStateAdded(state);
            // Fork attribution: state ids are monotone, so the
            // high-water mark charges each registered state exactly
            // once (ReleaseClaim re-announces with an old id). In round
            // mode all registrations happen on the serial commit path,
            // so the charge order is thread-count-invariant.
            if (options_.obs.attribution != nullptr &&
                state.id > attr_last_fork_id_) {
                attr_last_fork_id_ = state.id;
                options_.obs.attribution->Charge(
                    state.static_hlpc, obs::AttributionProfiler::kForks);
            }
        });
}

std::unique_ptr<cupa::SearchStrategy>
Engine::MakeStrategy()
{
    switch (options_.strategy) {
      case StrategyKind::kRandom:
        return std::make_unique<cupa::RandomStrategy>(&rng_);
      case StrategyKind::kDfs:
        return std::make_unique<cupa::DfsStrategy>();
      case StrategyKind::kBfs:
        return std::make_unique<cupa::BfsStrategy>();
      case StrategyKind::kCupaPath:
        return cupa::MakePathOptimizedCupa(&tree_, &rng_);
      case StrategyKind::kCupaPathInverted:
        return cupa::MakeInvertedPathCupa(&tree_, &rng_);
      case StrategyKind::kCupaCoverage:
        return cupa::MakeCoverageOptimizedCupa(
            &tree_, &rng_, [this](uint64_t static_hlpc) {
                return tracker_.cfg().DistanceWeight(static_hlpc);
            });
    }
    CHEF_UNREACHABLE("unknown strategy kind");
}

solver::Assignment
Engine::CompleteInputsFor(const lowlevel::LowLevelRuntime& runtime)
{
    // Merge the run's assignment over the per-variable defaults so that a
    // test case report always lists a concrete value for every input.
    solver::Assignment complete;
    const auto& variables = runtime.variables();
    for (size_t i = 0; i < variables.size(); ++i) {
        const uint32_t var_id = static_cast<uint32_t>(i + 1);
        complete.Set(var_id, runtime.inputs().Has(var_id)
                                 ? runtime.inputs().Get(var_id)
                                 : variables[i].default_value);
    }
    return complete;
}

void
Engine::ChargeRunAttribution(uint64_t origin_hlpc, bool new_hl_path,
                             bool assume_violated)
{
    obs::AttributionProfiler* profiler = options_.obs.attribution;
    if (profiler == nullptr) {
        return;
    }
    // One step per trace entry, linked to its predecessor so the
    // folded-stack export can reconstruct discovery chains.
    uint64_t previous = obs::kAttributionNoParent;
    for (const uint64_t hl_pc : tracker_.current_trace()) {
        profiler->ChargeWithParent(hl_pc, previous,
                                   obs::AttributionProfiler::kSteps);
        previous = hl_pc;
    }
    profiler->Charge(origin_hlpc, obs::AttributionProfiler::kRuns);
    if (assume_violated) {
        profiler->Charge(LastTraceLocation(),
                         obs::AttributionProfiler::kAssumeFailures);
    } else if (new_hl_path) {
        // Yield: the fingerprint is credited to the location whose
        // alternate state led to this run.
        profiler->Charge(origin_hlpc,
                         obs::AttributionProfiler::kNewFingerprints);
    }
}

uint64_t
Engine::LastTraceLocation() const
{
    const std::vector<uint64_t>& trace = tracker_.current_trace();
    return trace.empty() ? 0 : trace.back();
}

bool
Engine::CommitRun(RoundItem& item, double t_now,
                  std::vector<TestCase>* test_cases,
                  solver::Assignment* retry)
{
    if (item.recorded) {
        tracker_.BeginRun();
        item.run_stats.registered_states =
            runtime_.CommitRecordedRun(item.log).registered_states;
        item.hl_info = tracker_.EndRun();
    }
    const lowlevel::RunStats& run_stats = item.run_stats;
    const hll::HlPathInfo& hl_info = item.hl_info;
    stats_.states_registered += run_stats.registered_states;
    ChargeRunAttribution(
        item.from_pending ? item.claimed.static_hlpc : 0,
        hl_info.is_new_path,
        run_stats.status == lowlevel::PathStatus::kAssumeViolated);
    // Worker solvers run outside any ScopedLocation, so their queries
    // belong to the root location, as a session solver's would.
    obs::AttributionProfiler* solver_profiler =
        solver_.options().obs.attribution;
    if (solver_profiler != nullptr && item.solver_queries > 0) {
        solver_profiler->Charge(0, obs::AttributionProfiler::kSolverQueries,
                                item.solver_queries);
        solver_profiler->Charge(
            0, obs::AttributionProfiler::kSolverNanos,
            static_cast<uint64_t>(std::llround(item.solver_seconds * 1e9)));
    }
    if (item.from_pending) {
        tree_.CompleteClaim(item.claimed.id);
    }

    if (run_stats.status == lowlevel::PathStatus::kAssumeViolated) {
        // The inputs violate a test assumption. Re-solve the run's path
        // condition (which includes the assumption) and rerun.
        ++stats_.assume_retries;
        solver::Assignment model;
        const obs::ScopedLocation solve_location(LastTraceLocation());
        if (solver_.Solve(runtime_.current_path_condition(), &model) ==
            solver::QueryResult::kSat) {
            *retry = std::move(model);
            return true;
        }
        // The symbolic test's assumptions are unsatisfiable on this path
        // prefix; the chain ends here.
        return false;
    }

    TestCase test_case;
    test_case.inputs = std::move(item.complete_inputs);
    test_case.status = run_stats.status;
    test_case.new_hl_path = hl_info.is_new_path;
    test_case.hl_final_node = hl_info.final_node;
    test_case.hl_path_fingerprint = hl_info.path_hash;
    test_case.hl_length = hl_info.length;
    test_case.ll_steps = run_stats.steps;
    if (run_stats.status == lowlevel::PathStatus::kHang) {
        ++stats_.hangs;
        test_case.outcome_kind = "hang";
    } else {
        test_case.outcome_kind = std::move(item.outcome.kind);
    }
    test_case.outcome_detail = std::move(item.outcome.detail);
    ++stats_.ll_paths;
    if (hl_info.is_new_path) {
        ++stats_.hl_paths;
        if (m_hl_paths_ != nullptr) {
            m_hl_paths_->Add();
        }
    }
    test_cases->push_back(std::move(test_case));
    if (options_.collect_timeline) {
        stats_.timeline.push_back({t_now, stats_.ll_paths, stats_.hl_paths});
    }
    return false;
}

std::vector<TestCase>
Engine::Explore(const RunFn& run)
{
    const auto start = Clock::now();
    auto elapsed = [&start] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    auto stop_requested = [this] {
        return options_.stop_requested && options_.stop_requested();
    };

    // One thread runs width-1 rounds inline on the driver's runtime; N >= 2
    // threads run kRoundWidth recorded runs per round on a worker pool.
    const uint32_t threads =
        std::max<uint32_t>(1, options_.exploration_threads);
    const size_t width = threads == 1 ? 1 : kRoundWidth;
    stats_.threads_used = threads;
    std::vector<std::unique_ptr<WorkerContext>> workers;
    std::unique_ptr<RoundPool> pool;
    if (threads > 1) {
        workers.reserve(threads);
        for (uint32_t i = 0; i < threads; ++i) {
            workers.push_back(std::make_unique<WorkerContext>(*this));
        }
        pool = std::make_unique<RoundPool>(threads);
    }

    std::vector<TestCase> test_cases;
    std::vector<RoundItem> round;
    // Assignments that enter the next round without consuming a claim: the
    // initial defaults run, then assume-retry reruns.
    std::vector<solver::Assignment> carryover(1);
    // Whether the loop actually exited because of the cancellation hook
    // (recorded where the hook fires: re-evaluating it after the loop would
    // misreport a naturally completed session whose budget expires moments
    // later).
    bool stopped = false;

    for (;;) {
        if (stats_.ll_paths >= options_.max_runs ||
            elapsed() >= options_.max_seconds) {
            break;
        }
        if (stop_requested()) {
            stopped = true;
            break;
        }

        // -- Selection phase: serial, on the session solver, in strategy
        //    order. Deterministic regardless of the thread count. The
        //    wall-clock budget applies here too: draining a large pool of
        //    infeasible states (runaway loops) must not stall the session.
        round.clear();
        for (solver::Assignment& assignment : carryover) {
            round.emplace_back();
            round.back().assignment = std::move(assignment);
        }
        carryover.clear();
        {
            CHEF_OBS_SPAN(select_span, options_.obs.tracer, "engine/select",
                          "engine");
            while (round.size() < width &&
                   stats_.ll_paths + round.size() < options_.max_runs &&
                   elapsed() < options_.max_seconds) {
                if (stop_requested()) {
                    stopped = true;
                    break;
                }
                if (strategy_->empty()) {
                    break;  // Nothing pending.
                }
                lowlevel::AlternateState state =
                    tree_.ClaimState(strategy_->ClaimState());
                ++stats_.claims;
                if (m_claims_ != nullptr) {
                    m_claims_->Add();
                }
                solver::Assignment model;
                solver::QueryResult result;
                {
                    const obs::ScopedLocation solve_location(
                        state.static_hlpc);
                    result = solver_.Solve(state.path_condition, &model);
                }
                if (result == solver::QueryResult::kSat) {
                    RoundItem& item = round.emplace_back();
                    item.assignment = std::move(model);
                    item.from_pending = true;
                    item.claimed = std::move(state);
                    continue;
                }
                tree_.MarkInfeasible(state);
                if (result == solver::QueryResult::kUnsat) {
                    ++stats_.infeasible_states;
                    if (m_infeasible_ != nullptr) {
                        m_infeasible_->Add();
                    }
                    if (options_.obs.attribution != nullptr) {
                        options_.obs.attribution->Charge(
                            state.static_hlpc,
                            obs::AttributionProfiler::kInfeasible);
                    }
                } else {
                    ++stats_.solver_failures;
                }
            }
        }
        if (round.empty()) {
            break;  // Exploration exhausted (or stopped with no work left).
        }

        // -- Run phase: inline at one thread; otherwise the guest runs
        //    execute in parallel, purely as a function of their assignment
        //    (recording mode). Either way a stop request skips runs that
        //    have not started.
        if (pool == nullptr) {
            if (stop_requested()) {
                stopped = true;
            } else {
                RunItem(run, nullptr, &round.front());
            }
        } else {
            std::atomic<bool> round_stop{stopped};
            std::vector<Clock::time_point> last_finish(threads);
            std::vector<char> worker_ran(threads, 0);
            pool->Run(round.size(), [&](size_t worker, size_t index) {
                if (round_stop.load(std::memory_order_relaxed)) {
                    return;
                }
                if (stop_requested()) {
                    round_stop.store(true, std::memory_order_relaxed);
                    return;
                }
                if (m_par_in_flight_ != nullptr) {
                    m_par_in_flight_->Add(1);
                }
                RunItem(run, workers[worker].get(), &round[index]);
                if (m_par_in_flight_ != nullptr) {
                    m_par_in_flight_->Add(-1);
                }
                last_finish[worker] = Clock::now();
                worker_ran[worker] = 1;
            });
            const auto round_end = Clock::now();
            for (uint32_t worker = 0; worker < threads; ++worker) {
                if (worker_ran[worker] == 0) {
                    continue;
                }
                const double wait = std::chrono::duration<double>(
                                        round_end - last_finish[worker])
                                        .count();
                stats_.barrier_wait_seconds += wait;
                if (m_par_barrier_wait_ != nullptr) {
                    m_par_barrier_wait_->Record(wait);
                }
            }
            if (round_stop.load(std::memory_order_relaxed)) {
                stopped = true;
            }
            ++stats_.rounds;
            if (m_par_rounds_ != nullptr) {
                m_par_rounds_->Add();
            }
        }

        // -- Commit phase: serial, in selection order. Identical shared
        //    state evolution no matter how the run phase was scheduled.
        for (RoundItem& item : round) {
            if (!item.ran) {
                // Skipped by a stop: hand the lease back so the tree's
                // bookkeeping stays consistent.
                if (item.from_pending) {
                    tree_.ReleaseClaim(item.claimed);
                }
                continue;
            }
            solver::Assignment retry;
            if (CommitRun(item, elapsed(), &test_cases, &retry)) {
                carryover.push_back(std::move(retry));
            }
        }
        // Coverage-optimized CUPA consults CFG distances; refresh once per
        // round with the newly observed edges.
        if (options_.strategy == StrategyKind::kCupaCoverage) {
            tracker_.cfg().RecomputeAnalysis(
                options_.branch_opcode_drop_fraction);
        }
        if (stopped) {
            break;
        }
    }
    stats_.stopped = stopped;
    FinalizeStats(elapsed(), workers);
    return test_cases;
}

void
Engine::RunItem(const RunFn& run, WorkerContext* worker, RoundItem* item)
{
    // A live run (no worker) advances the tree and feeds the tracker as it
    // goes; a worker records into the item's log for CommitRun to replay.
    lowlevel::LowLevelRuntime& runtime =
        worker == nullptr ? runtime_ : worker->runtime;
    const auto run_start = Clock::now();
    uint64_t queries_before = 0;
    double seconds_before = 0.0;
    if (worker == nullptr) {
        runtime_.BeginRun(item->assignment);
        tracker_.BeginRun();
    } else {
        queries_before = worker->solver.stats().queries;
        seconds_before = worker->solver.stats().solve_seconds;
        worker->runtime.BeginRecordedRun(item->assignment, &item->log);
        item->recorded = true;
    }
    {
        // The interpreter dispatch loop runs inside run(), so this span is
        // the "where does interpreter time go" row of the trace.
        CHEF_OBS_SPAN(run_span, options_.obs.tracer,
                      worker == nullptr ? "engine/run" : "engine/parallel_run",
                      "engine");
        item->outcome = run(runtime);
    }
    item->run_stats = runtime.EndRun();
    item->complete_inputs = CompleteInputsFor(runtime);
    if (worker == nullptr) {
        item->hl_info = tracker_.EndRun();
    } else {
        item->solver_queries = worker->solver.stats().queries - queries_before;
        item->solver_seconds =
            worker->solver.stats().solve_seconds - seconds_before;
    }
    item->ran = true;
    if (m_runs_ != nullptr) {
        m_runs_->Add();
        m_run_latency_->Record(
            std::chrono::duration<double>(Clock::now() - run_start).count());
    }
}

void
Engine::FinalizeStats(
    double elapsed_seconds,
    const std::vector<std::unique_ptr<WorkerContext>>& workers)
{
    stats_.solver_queries = solver_.stats().queries;
    stats_.solver_shared_hits = solver_.stats().shared_cache_hits;
    stats_.solver_shared_model_hits =
        solver_.stats().shared_model_reuse_hits;
    stats_.solver_sliced_queries = solver_.stats().sliced_queries;
    stats_.solver_incremental_sat_calls =
        solver_.stats().incremental_sat_calls;
    stats_.solver_clauses_loaded = solver_.stats().clauses_loaded;
    stats_.solver_seconds = solver_.stats().solve_seconds;
    stats_.solver_blast_seconds = solver_.stats().blast_seconds;
    stats_.solver_cdcl_sat_seconds = solver_.stats().cdcl_sat_seconds;
    stats_.solver_cdcl_unsat_seconds = solver_.stats().cdcl_unsat_seconds;
    for (const std::unique_ptr<WorkerContext>& worker : workers) {
        const solver::SolverStats& solver_stats = worker->solver.stats();
        stats_.solver_queries += solver_stats.queries;
        stats_.solver_shared_hits += solver_stats.shared_cache_hits;
        stats_.solver_shared_model_hits +=
            solver_stats.shared_model_reuse_hits;
        stats_.solver_sliced_queries += solver_stats.sliced_queries;
        stats_.solver_incremental_sat_calls +=
            solver_stats.incremental_sat_calls;
        stats_.solver_clauses_loaded += solver_stats.clauses_loaded;
        stats_.solver_seconds += solver_stats.solve_seconds;
        stats_.solver_blast_seconds += solver_stats.blast_seconds;
        stats_.solver_cdcl_sat_seconds += solver_stats.cdcl_sat_seconds;
        stats_.solver_cdcl_unsat_seconds += solver_stats.cdcl_unsat_seconds;
    }
    stats_.elapsed_seconds = elapsed_seconds;
    if (options_.obs.attribution != nullptr) {
        stats_.attribution = options_.obs.attribution->Snapshot();
    }
    stats_.frontier = tree_.SnapshotFrontier();
    if (stats_.claims > 0) {
        stats_.frontier.strategy_picks[StrategyKindName(options_.strategy)] =
            stats_.claims;
    }
}

}  // namespace chef
