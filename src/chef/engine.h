#ifndef CHEF_CHEF_ENGINE_H_
#define CHEF_CHEF_ENGINE_H_

/// \file
/// The CHEF engine: drives concolic iterations over an instrumented
/// interpreter and produces high-level test cases (Figure 4 of the paper).
///
/// One Engine instance corresponds to one symbolic test session. Each
/// iteration: run the interpreter under the current input assignment, let
/// the low-level runtime record the path and register alternate states,
/// classify the run's high-level path, then ask the search strategy for the
/// next alternate state, validate its path condition with the solver, and
/// re-run under the satisfying assignment.
///
/// The engine's driver thread is the single owner of the execution tree,
/// the search strategy and the tracker. Two loops:
///
///  - Serial (Options::exploration_threads = 1): the classic loop above.
///  - Deterministic round mode (exploration_threads >= 2): the driver
///    claims up to a fixed round width of states in strategy order and
///    solves them serially on the session solver, worker threads execute
///    the guest runs in parallel on private recording runtimes (which
///    touch only their own cursor and solver, never the tree), and the
///    driver commits the recorded logs serially in selection order, then
///    barriers and repeats. Because the round width is independent of the
///    thread count and all tree/strategy mutation is serial and
///    canonically ordered, the produced test cases, fingerprints and stats
///    are bit-identical for any exploration_threads >= 2 (but not equal to
///    the serial loop's, whose selection interleaves differently).
///
/// The driver also owns the session's telemetry bookkeeping: it is the
/// only thread that charges the attribution profiler (worker solvers run
/// without one; their per-run query counts and solve time travel in the
/// round item and are charged at commit) and it counts strategy picks.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cupa/strategy.h"
#include "hll/hl_tracker.h"
#include "lowlevel/exec_tree.h"
#include "lowlevel/runtime.h"
#include "obs/attribution.h"
#include "solver/solver.h"
#include "support/rng.h"

namespace chef {

/// Available state selection strategies.
enum class StrategyKind {
    kRandom,
    kDfs,
    kBfs,
    kCupaPath,          ///< Path-optimized CUPA (§3.3).
    kCupaCoverage,      ///< Coverage-optimized CUPA (§3.4).
    kCupaPathInverted,  ///< Level-order ablation of path CUPA.
};

const char* StrategyKindName(StrategyKind kind);

/// A concrete test case produced from one completed concolic run.
struct TestCase {
    /// Input values, one per declared variable (complete: defaults merged).
    solver::Assignment inputs;
    lowlevel::PathStatus status = lowlevel::PathStatus::kFinished;
    /// True if this run covered a high-level path not seen before — these
    /// are the paper's "relevant high-level test cases".
    bool new_hl_path = false;
    uint32_t hl_final_node = 0;
    /// Session-independent hash of the run's static-HLPC trace. Two runs
    /// (in the same or different sessions) that follow the same high-level
    /// path share the fingerprint, so corpora aggregated across parallel
    /// sessions can deduplicate by it.
    uint64_t hl_path_fingerprint = 0;
    size_t hl_length = 0;
    uint64_t ll_steps = 0;
    /// Guest-visible outcome: "ok", "exception", "hang", "abort".
    std::string outcome_kind;
    /// Detail string, e.g. the exception type name.
    std::string outcome_detail;
};

/// Engine statistics, including the Figure-10 timeline.
struct EngineStats {
    uint64_t ll_paths = 0;
    uint64_t hl_paths = 0;
    uint64_t hangs = 0;
    uint64_t assume_retries = 0;
    uint64_t infeasible_states = 0;
    uint64_t solver_failures = 0;
    uint64_t states_registered = 0;
    /// Total solver queries issued during the session (aggregated over the
    /// session solver and every per-worker solver at the end of Explore so
    /// callers can total per-session work without reaching into the
    /// solvers).
    uint64_t solver_queries = 0;
    /// Queries answered by the batch-shared solver cache / satisfied by a
    /// sibling session's published model (0 unless
    /// Options::solver_options.shared_cache was set).
    uint64_t solver_shared_hits = 0;
    uint64_t solver_shared_model_hits = 0;
    /// Queries that independence slicing split into multiple slices, SAT
    /// calls served by the persistent incremental session, and CNF
    /// clauses loaded into the CDCL backend (aggregated like
    /// solver_queries).
    uint64_t solver_sliced_queries = 0;
    uint64_t solver_incremental_sat_calls = 0;
    uint64_t solver_clauses_loaded = 0;
    /// Time spent inside the solver (aggregated over all solvers; with
    /// parallel workers this is a CPU-time-like sum, not wall time).
    double solver_seconds = 0.0;
    /// True if Explore() returned because Options::stop_requested fired.
    bool stopped = false;
    double elapsed_seconds = 0.0;

    // -- Parallel exploration (all 0 / 1 when exploration_threads == 1) ----

    /// Exploration threads actually used.
    uint32_t threads_used = 1;
    /// Deterministic rounds executed (round mode only).
    uint64_t rounds = 0;
    /// States leased for a round via the claim protocol (round mode only).
    uint64_t claims = 0;
    /// Always 0: the tree has a single owner and no lock to contend.
    /// Kept because external stats readers still report the field.
    uint64_t claim_contention = 0;
    /// Total worker-idle time at round barriers (sum over workers of the
    /// gap between finishing their last run of a round and the round
    /// completing).
    double barrier_wait_seconds = 0.0;

    struct Sample {
        double t = 0.0;
        uint64_t ll_paths = 0;
        uint64_t hl_paths = 0;
    };
    std::vector<Sample> timeline;

    /// Per-location cost/yield table (obs/attribution.h). Empty unless
    /// Options::obs.attribution was set; the engine charges steps,
    /// forks, runs, assume-failures and new fingerprints on the serial
    /// commit path (thread-count-invariant in round mode), the session
    /// solver charges wall time per query, round-mode worker solvers'
    /// queries and wall time are charged to the root location (hl_pc 0)
    /// at commit, and FinalizeStats snapshots the profiler here.
    obs::AttributionSnapshot attribution;
    /// Frontier view at session end: pending depth histogram, tree
    /// branching factor, and the strategy's pick count.
    obs::FrontierSnapshot frontier;
};

/// The engine. Owns the execution tree, solver, runtime, tracker, and
/// search strategy for one symbolic test.
class Engine
{
  public:
    struct Options {
        StrategyKind strategy = StrategyKind::kCupaPath;
        uint64_t seed = 1;
        /// Exploration stops after this many completed low-level runs.
        uint64_t max_runs = 2000;
        /// ... or after this much wall time. Checked between concolic
        /// iterations, between state-selection solver calls, and — under
        /// parallel exploration — between claims and between rounds;
        /// in-flight guest runs are never interrupted (the per-run step
        /// budget bounds them), so the overshoot is at most one run.
        double max_seconds = 30.0;
        /// Per-run low-level step budget (hang detector). Also bounds the
        /// depth of loop-carried symbolic expression chains, which are
        /// processed recursively.
        uint64_t max_steps_per_run = 500'000;
        double fork_weight_decay = 0.75;
        /// §3.4 least-frequent branching opcode cutoff.
        double branch_opcode_drop_fraction = 0.10;
        /// Per-session solver configuration. Point
        /// solver_options.shared_cache at a cache::SharedSolverCache to
        /// share query results and counterexamples with sibling sessions
        /// (the exploration service does this per batch when its
        /// share_solver_cache option is on). Note: a shared cache makes
        /// round-mode results depend on what sibling sessions have
        /// published, so cross-run bit-reproducibility only holds without
        /// one (or with a cold, private one).
        solver::Solver::Options solver_options = {};
        bool collect_timeline = true;
        /// Intra-session parallelism: number of threads running this
        /// session's guest runs. 1 (the default) runs the classic serial
        /// loop, bit-identical to pre-parallel engines. >= 2 selects
        /// deterministic round mode.
        uint32_t exploration_threads = 1;
        /// Cooperative cancellation hook. Checked between concolic
        /// iterations and between state-selection solver calls; under
        /// parallel exploration it is additionally polled between claims,
        /// between rounds, and by each worker before starting a queued
        /// run (so a mid-round stop lets in-flight guest runs finish,
        /// skips the rest, commits what completed, and winds down).
        /// When exploration_threads > 1 the hook must be thread-safe.
        /// When it returns true the exploration winds down and Explore()
        /// returns the test cases produced so far. Used by the
        /// exploration service to enforce service-wide wall-clock budgets
        /// and user-requested shutdown without engine internals growing
        /// any thread-awareness beyond this.
        std::function<bool()> stop_requested;
        /// Telemetry (obs/obs.h). Copied into solver_options.obs by the
        /// constructor so the session's solver shares the same registry
        /// and tracer; the engine itself emits engine/run (interpreter
        /// dispatch) and engine/select (state selection) spans plus
        /// engine.* counters, and under parallel exploration
        /// engine/parallel_run per-worker spans plus engine.parallel.*
        /// counters (states in flight, claims, rounds, round barrier
        /// wait).
        obs::ObsContext obs;
    };

    /// Outcome descriptor returned by the guest adapter after one run.
    struct GuestOutcome {
        std::string kind = "ok";
        std::string detail;
    };

    /// Executes the target program once under the given runtime; called by
    /// the engine for every concolic iteration. Under parallel exploration
    /// this is invoked concurrently on distinct runtimes, so it must not
    /// mutate shared state of its own.
    using RunFn = std::function<GuestOutcome(lowlevel::LowLevelRuntime&)>;

    Engine() : Engine(Options{}) {}
    explicit Engine(Options options);

    /// Runs the exploration loop and returns every completed run as a test
    /// case (filter on new_hl_path for the paper's relevant test cases).
    std::vector<TestCase> Explore(const RunFn& run);

    const EngineStats& stats() const { return stats_; }
    const lowlevel::ExecutionTree& tree() const { return tree_; }
    const hll::HlpcTracker& tracker() const { return tracker_; }
    solver::Solver& constraint_solver() { return solver_; }
    const Options& options() const { return options_; }

  private:
    struct WorkerContext;
    struct RoundItem;

    std::unique_ptr<cupa::SearchStrategy> MakeStrategy();
    static solver::Assignment CompleteInputsFor(
        const lowlevel::LowLevelRuntime& runtime);

    std::vector<TestCase> ExploreSerial(const RunFn& run);
    std::vector<TestCase> ExploreRounds(const RunFn& run);

    /// Serial commit of one recorded run: replays the log into the tree +
    /// tracker, charges the run (and its worker solver's queries) to the
    /// attribution profiler, produces the test case or solves the
    /// assume-retry assignment on the session solver, and updates stats.
    /// Returns true if the commit produced an assume-retry assignment in
    /// *retry.
    bool CommitRun(const RoundItem& item, double t_now,
                   std::vector<TestCase>* test_cases,
                   solver::Assignment* retry);

    /// Charges one committed run to the attribution profiler: a step
    /// per trace entry (with discovery-parent links), the run and its
    /// fingerprint yield to the originating location, assume-failures
    /// to the violation site. Called on the serial commit path only, so
    /// the charges are thread-count-invariant in round mode. No-op
    /// without Options::obs.attribution.
    void ChargeRunAttribution(uint64_t origin_hlpc, bool new_hl_path,
                              bool assume_violated);
    /// The last high-level location of the just-committed trace (0 when
    /// the run recorded none) — the assume-violation site.
    uint64_t LastTraceLocation() const;

    void FinalizeStats(
        double elapsed_seconds,
        const std::vector<std::unique_ptr<WorkerContext>>& workers);

    Options options_;
    Rng rng_;
    // Resolved once at construction; null when Options::obs carries no
    // registry.
    obs::Counter* m_runs_ = nullptr;
    obs::Counter* m_hl_paths_ = nullptr;
    obs::Counter* m_infeasible_ = nullptr;
    obs::Histogram* m_run_latency_ = nullptr;
    obs::Gauge* m_par_in_flight_ = nullptr;
    obs::Counter* m_par_claims_ = nullptr;
    obs::Counter* m_par_rounds_ = nullptr;
    obs::Histogram* m_par_barrier_wait_ = nullptr;
    solver::Solver solver_;
    lowlevel::ExecutionTree tree_;
    lowlevel::LowLevelRuntime runtime_;
    hll::HlpcTracker tracker_;
    std::unique_ptr<cupa::SearchStrategy> strategy_;
    EngineStats stats_;
    /// States claimed through strategy_ (both loops); reported as
    /// stats_.frontier.strategy_picks.
    uint64_t strategy_picks_ = 0;
    /// High-water mark over announced state ids: ReleaseClaim
    /// re-announces a state through the state-added hook, so fork
    /// charges fire only for ids above the mark (exactly once per
    /// registered state).
    lowlevel::StateId attr_last_fork_id_ = 0;
};

}  // namespace chef

#endif  // CHEF_CHEF_ENGINE_H_
