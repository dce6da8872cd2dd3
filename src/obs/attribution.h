#ifndef CHEF_OBS_ATTRIBUTION_H_
#define CHEF_OBS_ATTRIBUTION_H_

/// \file
/// The exploration attribution profiler: per-location cost/yield
/// accounting over the high-level PC space, plus the frontier snapshot.
///
/// The telemetry layers below (metrics, traces, time series) say how
/// much the system spends; this layer says *where in the guest program*
/// the spend goes. Every unit of work — a solver wall-nanosecond, an
/// interpreted step, a fork, a fork proved infeasible, an
/// assume-failure, a new HL fingerprint — is charged to the (workload,
/// hl_pc) location that incurred it, so "why is this workload
/// plateauing" becomes a table lookup instead of guesswork.
///
/// Ownership: one profiler per job, owned and charged by that job's
/// engine driver thread — the same thread that owns the execution tree
/// and the search strategy. It is a plain hash map from hl_pc to row,
/// not thread-safe. Round-mode worker solvers never see it; the driver
/// charges their query counts and solve time to the root location when
/// it commits their runs.
///
/// Reads are point-in-time snapshots: Snapshot() copies the table into a
/// plain value type (AttributionSnapshot) that merges
/// order-independently and serializes through support/json — the same
/// lifecycle as MetricsSnapshot, so the shard wire and the merged report
/// carry it with the established idioms.
///
/// Solver time is charged at an ambient location: Solver::Solve charges
/// the thread-local location installed by the innermost ScopedLocation
/// (the engine brackets every Solve call site with the hl_pc of the
/// state being solved).
///
/// Parent links: the first charge that records a *discovery predecessor*
/// (the hl_pc observed immediately before a location in the interpreter
/// trace) wins. Walking parent links yields the folded-stack lines
/// (`workload;0xroot;...;0xleaf value`) that standard flamegraph tools
/// consume (RenderAttributionFoldedStacks).
///
/// FrontierSnapshot covers the other half of the question — not where
/// past work went, but what the strategy is *about to* do: pending-state
/// depth histogram, tree branching factor, and per-strategy pick counts.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

namespace chef::support {
class JsonWriter;
struct JsonValue;
}  // namespace chef::support

namespace chef::obs {

/// "No discovery predecessor recorded" sentinel for AttributionRow::parent.
constexpr uint64_t kAttributionNoParent = UINT64_MAX;

/// One location's accumulated costs (what exploration spent there) and
/// yields (what it got back).
struct AttributionRow {
    uint64_t solver_nanos = 0;      ///< Solver wall time charged here.
    uint64_t solver_queries = 0;    ///< Solve() calls charged here.
    uint64_t steps = 0;             ///< Interpreter steps (log_pc events).
    uint64_t forks = 0;             ///< Alternate states registered here.
    uint64_t assume_failures = 0;   ///< Assumption-violation retries.
    uint64_t new_fingerprints = 0;  ///< New HL path fingerprints (yield).
    uint64_t runs = 0;              ///< Concolic runs originating here.
    /// States forked here that the solver then proved unreachable.
    uint64_t infeasible = 0;
    /// Discovery predecessor (the first recorded hl_pc observed
    /// immediately before this location), or kAttributionNoParent.
    uint64_t parent = kAttributionNoParent;

    uint64_t TotalCharges() const
    {
        return solver_queries + steps + forks + assume_failures +
               new_fingerprints + runs + infeasible;
    }
};

/// Point-in-time copy of one or more profilers: per-workload tables
/// keyed by hl_pc. A plain value type with the MetricsSnapshot
/// lifecycle — merged across jobs, shards, and requeue rounds;
/// serialized on the gossip wire and into the report's
/// telemetry.attribution section.
struct AttributionSnapshot {
    /// workload -> hl_pc -> row. std::map keeps serialization
    /// deterministic (sorted) regardless of accumulation order.
    std::map<std::string, std::map<uint64_t, AttributionRow>> workloads;

    bool empty() const { return workloads.empty(); }

    /// Name-keyed, order- and grouping-independent merge: counters sum;
    /// parent links resolve to the smallest recorded parent (a pure
    /// function of the operand set, so shard arrival order cannot
    /// change the result).
    void MergeFrom(const AttributionSnapshot& other);

    /// Sum of solver_nanos over every location, in seconds.
    double SolverSecondsTotal() const;
    /// Sum of new_fingerprints over every location.
    uint64_t NewFingerprintsTotal() const;
};

/// True when the two snapshots agree on every deterministic column:
/// same workloads, same locations, and equal solver_queries / steps /
/// forks / assume_failures / new_fingerprints / runs / infeasible per
/// location.
/// solver_nanos (wall time) is excluded — it varies run to run even
/// when exploration is bit-identical.
bool AttributionCountsEqual(const AttributionSnapshot& a,
                            const AttributionSnapshot& b);

/// The per-job profiler. Bound to one workload and owned by one thread
/// (the engine's driver): every charge is one hash lookup plus an add,
/// allocating only the first time a location is charged.
class AttributionProfiler
{
  public:
    enum CounterKind : uint32_t {
        kSolverNanos = 0,
        kSolverQueries,
        kSteps,
        kForks,
        kAssumeFailures,
        kNewFingerprints,
        kRuns,
        kInfeasible,
        kCounterKinds,
    };

    explicit AttributionProfiler(std::string workload);

    const std::string& workload() const { return workload_; }

    /// Charges \p delta of \p kind to \p hl_pc.
    void Charge(uint64_t hl_pc, CounterKind kind, uint64_t delta = 1);

    /// Charge that additionally records \p parent as the discovery
    /// predecessor if this location has none yet.
    void ChargeWithParent(uint64_t hl_pc, uint64_t parent,
                          CounterKind kind, uint64_t delta = 1);

    /// Charges one solver query of \p nanos wall time to the current
    /// thread's ambient location (see ScopedLocation). Called by
    /// Solver::Solve with the same duration it feeds the latency
    /// histogram, so attribution totals and solver_seconds_total agree.
    void ChargeSolver(uint64_t nanos);

    AttributionSnapshot Snapshot() const;

  private:
    std::string workload_;
    std::unordered_map<uint64_t, AttributionRow> rows_;
};

/// Installs \p hl_pc as this thread's ambient attribution location for
/// the scope's lifetime (restores the previous location on exit). The
/// engine brackets every Solve call site with the location being
/// solved; code that runs outside any scope charges the root location
/// (hl_pc 0).
class ScopedLocation
{
  public:
    explicit ScopedLocation(uint64_t hl_pc);
    ~ScopedLocation();

    ScopedLocation(const ScopedLocation&) = delete;
    ScopedLocation& operator=(const ScopedLocation&) = delete;

  private:
    uint64_t saved_;
};

/// This thread's current ambient location (0 outside any ScopedLocation).
uint64_t CurrentAmbientLocation();

// ---------------------------------------------------------------------------
// Frontier introspection

/// Depth buckets for the pending-state histogram: bucket b counts
/// pending states with floor(log2(depth + 1)) == b (so bucket 0 is
/// depth 0, bucket 1 is depth 1-2, ...), and the last bucket absorbs
/// the tail.
constexpr size_t kFrontierDepthBuckets = 16;

/// Point-in-time view of the exploration frontier: what is pending and
/// how the strategy has been picking.
struct FrontierSnapshot {
    uint64_t pending = 0;  ///< States awaiting selection.
    uint64_t nodes = 0;    ///< Branch nodes in the low-level tree.
    std::array<uint64_t, kFrontierDepthBuckets> depth_histogram{};
    /// Mean explored children per non-leaf branch node.
    double mean_branching = 0.0;
    /// strategy name -> states claimed through it.
    std::map<std::string, uint64_t> strategy_picks;

    static size_t DepthBucket(uint32_t depth);
};

// ---------------------------------------------------------------------------
// Serialization and rendering

/// Serializes a snapshot as one JSON object:
///   {"workloads":[{"workload":w,"locations":[
///        {"hl_pc":"0x..","parent":"0x..",...counters...},...]},...]}
/// hl_pc and parent use the hex-string convention for 64-bit
/// identities; "parent" is omitted when no predecessor was recorded.
void WriteAttributionSnapshot(support::JsonWriter& json,
                              const AttributionSnapshot& snapshot);

/// Inverse of WriteAttributionSnapshot. Unknown keys are ignored
/// (forward compatibility); returns false with \p error on missing or
/// mistyped required fields.
bool DecodeAttributionSnapshot(const support::JsonValue& object,
                               AttributionSnapshot* snapshot,
                               std::string* error);

/// Renders the folded-stack form consumed by standard flamegraph tools:
/// one `workload;0xroot;...;0xleaf value` line per location, where the
/// chain is the location's discovery-parent chain (cycle-guarded,
/// depth-capped) and value is the location's step count (its total
/// charge count when it has no steps, so pure-solver locations still
/// appear).
std::string RenderAttributionFoldedStacks(
    const AttributionSnapshot& snapshot);

/// Renders the "hot locations" monitor panel: the top \p top_n
/// locations by solver-seconds and by fingerprints per solver-second
/// (yield), fixed-width columns, one location per row; the infeas
/// column counts the location's forks that proved infeasible. Empty
/// string for an empty snapshot.
std::string RenderHotLocations(const AttributionSnapshot& snapshot,
                               size_t top_n);

}  // namespace chef::obs

#endif  // CHEF_OBS_ATTRIBUTION_H_
